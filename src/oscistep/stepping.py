"""Scheme tables, macro stepping and closed-form remainder bounds.

A scheme table pairs every retained word with its iterated integral in
closed symbolic form; an entry reads its target coefficient and its
operator word from the word (``word.target``, ``word.operator_word``).
The integrals are computed once per (oscillator family, policy) and then
reused for every coefficient field, start time and step size.

Coefficients are stored order-consistently: the exact symbolic integral
is truncated termwise, keeping monomials h^p omega^(-sigma) whose order
weight p/kappa0 + sigma/(kappa1 (1+nu)) does not exceed one.  This mirrors
the retention rule for whole words at monomial granularity and is what
makes a scheme of order kappa agree with the classical closed-form step
rules term for term; pass ``truncate_coefficients=False`` to keep the raw
integrals instead.

On its first step a table's entries compile into a step plan: a
:class:`~oscistep.jets.WordPlan` for the operator values and a
:class:`~oscistep.oscillator.TermPlan` for the coefficients.  The plan
lives on the cached entries, so every table rebuilt from the cache (at
another frequency or phase) steps with the same plan.  The phase-averaged
entries have the same words and share the word plan, with the tapes it
records; only their coefficients get a plan of their own.  A coefficient
plan binds its step-invariant factors once per (omega, nu, h), so steps
of one size at any start time or phase share one binding.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import NumericStepError
from .jets import CoefficientField, WordPlan
from .oscillator import BasisPoly, OscillatorSpec, TermPlan, phase_average
from .terms import RETENTION_TOL, TruncationPolicy, Word, enumerate_words, word_primitive

__all__ = [
    "SchemeEntry",
    "SchemeTable",
    "StepResult",
    "BoundInputs",
    "build_scheme",
    "step",
    "step_phase_averaged",
    "solve",
    "bound_R11",
    "bound_R22",
    "estimate_coefficient_bound",
]


# estimate_coefficient_bound's grid: times, and points per state component
BOUND_T_SAMPLES, BOUND_U_SAMPLES = 9, 12

# scheme tables kept by (Fourier structure, nu, policy, truncation); their
# step plans and phase-averaged entries go with them
SCHEME_CACHE_SIZE = 32


@dataclass(frozen=True)
class SchemeEntry:
    word: Word
    coeff: BasisPoly


class _Entries(tuple):
    """A table's entries with what stepping them needs, built on first use.
    Every table rebuilt from the scheme cache holds the same tuple and so
    shares its plans and its phase-averaged entries."""

    @cached_property
    def plan(self) -> tuple[WordPlan, TermPlan]:
        """The operator values and the coefficients, compiled."""
        return (WordPlan([(e.word.target, e.word.operator_word) for e in self]),
                TermPlan([e.coeff for e in self]))

    @cached_property
    def averaged(self) -> "_Entries":
        """These entries with every coefficient phase-averaged; they have
        the same words in the same order, so they share the word plan."""
        out = _Entries(replace(e, coeff=phase_average(e.coeff)) for e in self)
        # set before first use, in place of the plan it would compile
        out.plan = (self.plan[0], TermPlan([e.coeff for e in out]))
        return out


@dataclass(frozen=True)
class SchemeTable:
    """Reusable per-(oscillator, policy) table of step terms."""

    oscillator: OscillatorSpec
    policy: TruncationPolicy
    entries: tuple[SchemeEntry, ...]

    def __post_init__(self):
        # entries given by hand compile their own plans, once per table
        if type(self.entries) is not _Entries:
            object.__setattr__(self, "entries", _Entries(self.entries))

    @property
    def jet_order(self) -> int:
        """Jet order a field must supply: longest word length minus one."""
        return max((len(e.word.letters) for e in self.entries), default=1) - 1


@lru_cache(maxsize=SCHEME_CACHE_SIZE)
def _scheme_entries(coeffs: tuple, nu: float, kappa0: float, kappa1: float,
                    truncate: bool) -> _Entries:
    policy = TruncationPolicy(kappa0, kappa1)
    osc_like = OscillatorSpec(omega=1.0, nu=nu, coeffs=coeffs)
    out = []
    for word in enumerate_words(policy):
        prim = word_primitive(word, osc_like)
        if truncate:
            prim = prim.filtered(
                lambda key: policy.monomial_weight(key[0], key[3] + key[4] * nu, nu)
                <= 1.0 + RETENTION_TOL)
        out.append(SchemeEntry(word=word, coeff=prim))
    return _Entries(out)


def build_scheme(osc: OscillatorSpec, policy: TruncationPolicy,
                 truncate_coefficients: bool = True) -> SchemeTable:
    """Precompute the step table for one oscillator family and policy.

    The symbolic work depends only on the Fourier structure, the amplitude
    exponent and the policy, so rebuilding with the same inputs (or with a
    different frequency or phase) reuses cached integrals.
    """
    entries = _scheme_entries(osc.coeffs, osc.nu, policy.kappa0, policy.kappa1,
                              truncate_coefficients)
    if not entries:
        warnings.warn("truncation policy retains no terms; steps reduce to the identity")
    return SchemeTable(oscillator=osc, policy=policy, entries=entries)


@dataclass(frozen=True)
class StepResult:
    u_next: np.ndarray
    t_next: float
    contributions: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class BoundInputs:
    """Inputs to the closed-form remainder bounds.

    K bounds the coefficient functions and their partials (in the vector
    2-norm) on a domain containing the step's trajectory; vnorm is
    2 pi max|v| over a period.
    """

    K: float
    vnorm: float
    h: float
    omega: float

    def __post_init__(self):
        if not all(math.isfinite(x) and x > 0 for x in (self.K, self.vnorm, self.h, self.omega)):
            raise ValueError("bound inputs must be finite and positive")


def bound_R11(inp: BoundInputs) -> float:
    """Remainder bound for the two-term (order (1,1)) step."""
    K, vn, h, om = inp.K, inp.vnorm, inp.h, inp.omega
    return (0.5 * (K * K + K) * h * h
            + (2 * K * K + K) * vn * h / om
            + K * K * vn * vn / om ** 2)


def bound_R22(inp: BoundInputs) -> float:
    """Remainder bound for the six-term (order (2,2)) step."""
    K, vn, h, om = inp.K, inp.vnorm, inp.h, inp.omega
    return ((2 * K ** 3 + 4 * K * K + K) * h ** 3 / 6.0
            + 0.5 * (8 * K ** 3 + 8 * K * K + K) * vn * h * h / om
            + (6 * K ** 3 + 4 * K * K) * vn * vn * h / om ** 2
            + 2 * K ** 3 * vn ** 3 / om ** 3)


def step(scheme: SchemeTable, field: CoefficientField, t_n: float, u_n,
         h: float) -> StepResult:
    """One macro step from (t_n, u_n) over [t_n, t_n + h].

    Each entry contributes its coefficient times its operator value; the
    contributions are added to u_n one at a time in table order.  A
    non-finite t_n, h or u_n raises ValueError, and a non-finite
    contribution NumericStepError.
    """
    return _step(scheme.entries, scheme.oscillator, field, t_n, u_n, h)


def step_phase_averaged(scheme: SchemeTable, field: CoefficientField, t_n: float,
                        u_n, h: float) -> StepResult:
    """One macro step with every coefficient averaged over the oscillator
    phase; terms whose integral carries no phase-free part drop out."""
    return _step(scheme.entries.averaged, scheme.oscillator, field, t_n, u_n, h)


def _step(entries: _Entries, osc: OscillatorSpec, field: CoefficientField, t_n: float,
          u_n, h: float) -> StepResult:
    if not (math.isfinite(t_n) and math.isfinite(h)):
        raise ValueError("t_n and h must be finite")
    if h < 0:
        raise ValueError("step size must be non-negative")
    u_n = np.asarray(u_n, dtype=complex)
    if u_n.shape != (field.m,):
        raise ValueError(f"state must have shape ({field.m},)")
    operators, coefficients = entries.plan
    values = operators(field, t_n, u_n)
    coeffs = coefficients(osc, h, t_n)
    # row 0 is u_n, row i the i-th contribution; the running sum ends in u_next
    rows = np.empty((len(values) + 1, field.m), dtype=complex)
    rows[0] = u_n
    contributions = rows[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(np.array(coeffs, dtype=complex)[:, None], values, out=contributions)
        u_next = np.add.accumulate(rows)[-1]
    # inf and NaN survive addition, so a finite sum had finite terms
    if not np.isfinite(u_next).all():
        if not np.isfinite(u_n).all():
            raise ValueError("u_n must be finite")
        finite = np.isfinite(contributions.view(float)).all(axis=1)
        if not finite.all():
            bad = entries[int(np.argmin(finite))]
            raise NumericStepError(f"non-finite contribution from term {bad.word}")
        # finite terms whose sum overflowed: summed again for numpy to
        # report the overflow under the caller's error settings
        u_next = np.add.accumulate(rows)[-1]
    return StepResult(u_next=u_next, t_next=t_n + h,
                      contributions=tuple(contributions))


def solve(scheme: SchemeTable, field: CoefficientField, t0: float, u0,
          t_end: float, h: float):
    """Repeated macro steps from t0 to t_end; h must divide the interval.

    Returns the trajectory as a list of (t, u) pairs including both
    endpoints.
    """
    if not all(math.isfinite(x) for x in (t0, t_end, h)):
        raise ValueError("t0, t_end and h must be finite")
    if h <= 0:
        raise ValueError("step size must be positive")
    span = t_end - t0
    if span <= 0:
        raise ValueError("t_end must exceed t0")
    n = round(span / h)
    if n < 1 or abs(n * h - span) > 1e-9 * max(1.0, abs(span)):
        raise ValueError(f"step {h} does not divide the interval length {span}")
    u = np.asarray(u0, dtype=complex)
    traj = [(t0, u.copy())]
    for i in range(n):
        t_n = t0 + i * h
        try:
            res = step(scheme, field, t_n, u, h)
        except NumericStepError as exc:
            raise NumericStepError(f"step {i} (t = {t_n}): {exc}") from exc
        u = res.u_next
        traj.append((t0 + (i + 1) * h, u.copy()))
    return traj


def estimate_coefficient_bound(field: CoefficientField, t_range, u_center,
                               u_radius: float, order: int) -> float:
    """Sampling estimate of K = sup over a box of the 2-norm of a, b and
    their mixed partials up to `order`.

    The box is [t_min, t_max] times a polydisc of the given radius about
    u_center; sampling is on a deterministic grid (not rigorous: the
    caller declares the box and accepts the sampling resolution).  A box
    that is not finite raises ValueError, and a partial that is not finite
    at a sample raises NumericStepError.
    """
    t_min, t_max = t_range
    u_center = np.asarray(u_center, dtype=complex)
    if not (math.isfinite(t_min) and math.isfinite(t_max) and math.isfinite(u_radius)
            and np.isfinite(u_center).all()):
        raise ValueError("the sampling box must be finite")
    m = field.m
    ts = np.linspace(t_min, t_max, BOUND_T_SAMPLES)
    states = [u_center]
    for j in range(m):
        for ang in np.linspace(0.0, 2.0 * math.pi, BOUND_U_SAMPLES, endpoint=False):
            u = u_center.copy()
            u[j] += u_radius * np.exp(1j * ang)
            states.append(u)
    best = 0.0
    for t in ts:
        for u in states:
            for jets in (field.a_jets(t, u, order), field.b_jets(t, u, order)):
                # partials absent from every jet are zero and cannot raise the max
                for alpha in set().union(*(j.coeffs for j in jets)):
                    vec = np.array([j.derivative(alpha) for j in jets])
                    norm = float(np.linalg.norm(vec))
                    if not math.isfinite(norm):
                        raise NumericStepError(
                            f"non-finite coefficient partial at t = {t}, u = {u}")
                    best = max(best, norm)
    return best
