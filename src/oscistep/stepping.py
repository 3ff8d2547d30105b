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
covers the *live* entries only, those whose coefficient has terms.
Termwise truncation leaves some coefficients with none (263 of the 510
entries at exp, nu = -1/2, (8,2), all of them long words), and such an
entry's contribution is zero whatever its operator value, so a step
neither evaluates its word, nor its coefficient, nor adds it: its row of
``StepResult.contributions`` is an exact ``0j``, and a non-finite
operator value that only it would read is no error.  The table keeps
every entry.  The plan lives on the cached entries, so every table
rebuilt from the cache (at another frequency or phase) steps with the
same plan.  The word plan depends on the live words alone, so every
table with the same live words in the same order shares it, and so the
tapes each field records for it: the tables of one policy for every
oscillator, and a copy given by hand.

Only Z = e^(i(omega t_n + phi)) changes from one step to the next, so each
coefficient is a short Laurent polynomial sum_q A_q Z^q.  A coefficient
plan is one straight-line function, compiled on the first step and kept
on the plan.  It binds to an (omega, nu, h) as a flat tuple of constants
``K``, which the function reads by index: first each coefficient's Z^0
constant, then one per distinct nonzero power of Z of each coefficient.
It keeps the last binding, so a run of steps of one size, at any start
time or phase, binds once, and a new step size binds again without
compiling.  A coefficient's average over a uniform phase is its Z^0
constant, so `step_phase_averaged` reads ``K``'s Z^0 prefix and computes
no Z: it steps the same live entries with the same step plan and the
same binding as `step`, even where averaging empties a coefficient, whose
constant is then 0j.  `step`, `step_phase_averaged` and every step of
`solve` bind alike.

A step's sum is Python's complex arithmetic on Python numbers.  Each
contribution is one complex product of a live entry's coefficient and a
component of its operator value, both complex numbers, and the
contributions are added to u_n one at a time in table order by a
straight-line function compiled once per live entry count and dimension
(``_assembly``).  So a step's bits are those of Python's float
operations, the same under every SIMD dispatch of numpy, whose complex
product may fuse a multiply and an add.  Only a sum that is not finite
goes to numpy, which names the first non-finite term or reports an
overflow as a step always has.  `solve` keeps its state as a list of
complex numbers: it replays the field's tape on it directly, since t
moves on every step and the field's memo of its last call could not hit,
and builds the trajectory's array once at the end.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .errors import NumericStepError
from .jets import CoefficientField, Jet, WordPlan, _function, _jet_order, _plan, _summed
from .oscillator import BasisPoly, OscillatorSpec, TermPlan
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
# step plans go with them, and so the phase averages, which are the Z^0
# prefix of the coefficient plan's binding
SCHEME_CACHE_SIZE = 32


@dataclass(frozen=True)
class SchemeEntry:
    word: Word
    coeff: BasisPoly


class _Entries(tuple):
    """A table's entries with what stepping them needs, built on first use:
    the places of the live entries, whose coefficient has terms, and the
    step plan, which covers those only.  A plain and a phase-averaged step
    share the plan: the averages are the Z^0 prefix of its coefficient
    plan's binding.  Every table rebuilt from the scheme cache holds the
    same tuple and so shares its plans."""

    @cached_property
    def live(self) -> tuple[int, ...]:
        """The places of the entries that the step plan covers, in table
        order: those whose coefficient has terms.  The others contribute
        an exact zero, whatever their operator value."""
        return tuple(i for i, e in enumerate(self) if e.coeff._keys)

    @cached_property
    def plan(self) -> tuple[WordPlan, TermPlan]:
        """The operator values and the coefficients of the live entries,
        compiled."""
        live = [self[i] for i in self.live]
        return (_plan([(e.word.target, e.word.operator_word) for e in live]),
                TermPlan([e.coeff for e in live]))


@dataclass(frozen=True)
class SchemeTable:
    """Reusable per-(oscillator, policy) table of step terms."""

    oscillator: OscillatorSpec
    policy: TruncationPolicy
    entries: tuple[SchemeEntry, ...]

    def __post_init__(self):
        # entries given by hand compile their own coefficient plan, once
        # per table, and share the word plan of any table with their words
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
            prim = prim._truncated(
                lambda p, n, m: policy.monomial_weight(p, n + m * nu, nu) <= 1.0 + RETENTION_TOL)
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


class StepResult:
    """A step's end state `u_next` at `t_next`, and `contributions`: each
    entry's coefficient times its operator value, in table order.  An
    entry whose coefficient has no terms (before any phase averaging) is
    outside the step plan and contributes an exact zero row (``0j``, not
    ``0j`` times a value, whose zeros could carry a sign), which the sum
    does not add.  A step
    forms the contributions from the products its sum added when they are
    first read, so a caller that reads only `u_next` never forms them."""

    __slots__ = ("u_next", "t_next", "_contributions")

    def __init__(self, u_next: np.ndarray, t_next: float, contributions):
        self.u_next, self.t_next, self._contributions = u_next, t_next, contributions

    @property
    def contributions(self) -> tuple[np.ndarray, ...]:
        """One row per entry; a step gives a generator of the rows, which
        becomes a tuple on first read."""
        if type(self._contributions) is not tuple:
            self._contributions = tuple(self._contributions)
        return self._contributions


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

    Each entry contributes its coefficient times its operator value, a
    complex product, or an exact zero if its coefficient has no terms; the
    products are added to u_n one at a time in table order, in Python's
    complex arithmetic.  A non-finite t_n, h or u_n raises ValueError, and
    a non-finite contribution NumericStepError.
    """
    return _step(scheme.entries, scheme.oscillator, TermPlan.__call__, field, t_n, u_n, h)


def step_phase_averaged(scheme: SchemeTable, field: CoefficientField, t_n: float,
                        u_n, h: float) -> StepResult:
    """One macro step with every coefficient averaged over the oscillator
    phase: its Z^0 constant, which the coefficient plan's binding holds;
    terms whose integral carries no phase-free part drop out."""
    return _step(scheme.entries, scheme.oscillator, TermPlan.averaged, field, t_n, u_n, h)


def _step(entries: _Entries, osc: OscillatorSpec, evaluate: Callable, field: CoefficientField,
          t_n: float, u_n, h: float) -> StepResult:
    """A step over `entries` whose coefficients `evaluate`, a method of
    their coefficient plan, gives: `step` and `step_phase_averaged`."""
    if not (math.isfinite(t_n) and math.isfinite(h)):
        raise ValueError("t_n and h must be finite")
    if h < 0:
        raise ValueError("step size must be non-negative")
    u_n = field._state(u_n)
    operators, coefficients = entries.plan
    values = field._values(operators, t_n, u_n)
    coeffs = evaluate(coefficients, osc, h, t_n)
    u, m = u_n.tolist(), field.m
    u_next = _assembly(len(coeffs), m)(u, coeffs, values)
    if u_next is None:
        u_next = _non_finite(entries, u, coeffs, values, m)
    return StepResult(np.array(u_next, dtype=complex), t_n + h,
                      _contributions(entries, coeffs, values, m))


def _products(coeffs: list, values: list, m: int) -> list[complex]:
    """Each live entry's coefficient times each component of its operator
    value, in table order: the products that the assembly adds."""
    return [coeffs[k // m] * v for k, v in enumerate(values)]


def _contributions(entries: _Entries, coeffs: list, values: list, m: int):
    """The rows of a step's `StepResult.contributions`, formed when first
    read: the products of the live entries, and an exact zero row for each
    other entry."""
    rows = np.zeros((len(entries), m), dtype=complex)
    rows[list(entries.live)] = np.array(_products(coeffs, values, m), dtype=complex).reshape(-1, m)
    yield from rows


def _non_finite(entries: _Entries, u: list, coeffs: list, values: list, m: int) -> list:
    """A step whose sum is not finite, from its state `u` and its operands:
    ValueError if the state is not finite, NumericStepError naming the
    first live entry whose contribution is not, or else, for finite terms
    whose sum overflowed, the same sum in numpy, which reports the overflow
    under the caller's error settings."""
    rows = np.array(u + _products(coeffs, values, m), dtype=complex).reshape(-1, m)
    # inf and NaN survive addition, so a non-finite sum has a non-finite term
    if not np.isfinite(rows[0]).all():
        raise ValueError("u_n must be finite")
    finite = np.isfinite(rows[1:].view(float)).all(axis=1)
    if not finite.all():
        bad = entries[entries.live[int(np.argmin(finite))]]
        raise NumericStepError(f"non-finite contribution from term {bad.word}")
    return np.add.accumulate(rows)[-1].tolist()


@lru_cache(maxsize=64)
def _assembly(n: int, m: int) -> Callable:
    """The sum of a step of `n` live entries in `m` dimensions, compiled by
    ``jets._function``: a function of the state `u`, the coefficients `c`
    and the operator values `v`, lists of complex numbers with `v` entry by
    entry, that gives ``u_next`` as a list, or None if a component is not
    finite.

    Each component ``s<j>`` is ``u[j] + c[0] * v[j] + c[1] * v[m + j] +
    ...``: one complex product per entry, added one at a time in table
    order, in the statements of ``jets._summed``."""
    lines = []
    for j in range(m):
        lines += _summed(f"s{j}", [f"u[{j}]", *(f"c[{i}] * v[{i * m + j}]" for i in range(n))])
    names = [f"s{j}" for j in range(m)]
    return _function("assemble(u, c, v)", [
        *lines,
        f"if {' and '.join(f'isfinite({s})' for s in names)}:",
        f"    return [{', '.join(names)}]"])


def solve(scheme: SchemeTable, field: CoefficientField, t0: float, u0,
          t_end: float, h: float):
    """Repeated macro steps from t0 to t_end; h must divide the interval.

    Returns the trajectory as a list of (t, u) pairs including both
    endpoints.  Each step is the one `step` takes from the state before
    it, bit for bit, and fails as that step fails, with its index and
    start time named in a NumericStepError.
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
    entries, osc, m = scheme.entries, scheme.oscillator, field.m
    operators, coefficients = entries.plan
    assemble, evaluate = _assembly(len(entries.live), m), field._evaluate
    # step 0 starts at t0 itself: t0 + 0 * h would make -0.0 a 0.0
    times = [t0, *(t0 + i * h for i in range(1, n + 1))]
    u = field._state(u0).tolist()
    states = u.copy()
    try:
        for i, t in enumerate(times[:n]):
            values = evaluate(operators, t, u)
            coeffs = coefficients(osc, h, t)
            u_next = assemble(u, coeffs, values)
            u = u_next if u_next is not None else _non_finite(entries, u, coeffs, values, m)
            states += u
    except NumericStepError as exc:
        raise NumericStepError(f"step {i} (t = {t}): {exc}") from exc
    return list(zip(times, np.array(states, dtype=complex).reshape(n + 1, m)))


def estimate_coefficient_bound(field: CoefficientField, t_range, u_center,
                               u_radius: float, order: int) -> float:
    """Sampling estimate of K = sup over a box of the 2-norm of a, b and
    their mixed partials up to `order`.

    The box is [t_min, t_max] times a polydisc of the given radius about
    u_center; sampling is on a deterministic grid (not rigorous: the
    caller declares the box and accepts the sampling resolution).  The
    grid is `BOUND_T_SAMPLES` times by the centre and, at a radius above
    0, `BOUND_U_SAMPLES` points on the circle about it in each state
    component; a radius of 0 samples the centre alone.  A partial's norm
    over the m components is ``sqrt(sum of squared real parts + sum of
    squared imaginary parts)``, each sum in Python floats in component
    order: numpy's norm at m = 1, bit for bit.  A box that is not finite,
    a negative radius, a centre whose shape is not the field's, or an
    order that is not an integer >= 0, raises ValueError, and a partial
    whose norm is not finite at a sample raises NumericStepError.
    """
    order = _jet_order(order)
    t_min, t_max = t_range
    u_center = field._state(u_center)
    if not (math.isfinite(t_min) and math.isfinite(t_max) and math.isfinite(u_radius)
            and u_radius >= 0 and np.isfinite(u_center).all()):
        raise ValueError("the sampling box must be finite, with a radius >= 0")
    states = [u_center]
    for j in range(field.m if u_radius > 0 else 0):
        for ang in np.linspace(0.0, 2.0 * math.pi, BOUND_U_SAMPLES, endpoint=False):
            u = u_center.copy()
            u[j] += u_radius * np.exp(1j * ang)
            states.append(u)
    best = 0.0
    for t in np.linspace(t_min, t_max, BOUND_T_SAMPLES):
        for u in states:
            origin = Jet((complex(t), *u.tolist()), order, {})
            for jets in field._on_jets(origin, origin.base):
                # partials absent from every jet are zero and cannot raise the max
                for alpha in set().union(*(j.coeffs for j in jets)):
                    d = [j.derivative(alpha) for j in jets]
                    # Python floats overflow to inf and carry NaN, without a warning
                    norm = math.sqrt(sum(x.real * x.real for x in d)
                                     + sum(x.imag * x.imag for x in d))
                    if not math.isfinite(norm):
                        raise NumericStepError(
                            f"non-finite coefficient partial at t = {t}, u = {u}")
                    best = max(best, norm)
    return best
