"""Exact symbolic algebra for a fast periodic factor v(t).

The oscillator is a finite Fourier series

    v(t) = omega^(-nu) * sum_k c_k exp(i k (omega t + phi)),

and every iterated integral of the stepping schemes lives in the closed
class of "basis polynomials": finite sums of terms

    coef * (t - t_ref)^p * exp(i k omega (t - t_ref)) * Z^q * omega^(-(n + m nu))

with Z = exp(i (omega t_ref + phi)) and t_ref given at evaluation.  Powers
of tau = t - t_ref, the oscillatory index k, the phase index q and the
omega exponent (split into the integer part n and the count m of
amplitude factors) are all tracked structurally, so antidifferentiation,
products, phase averages and order-by-order truncation are exact
operations on the term list.

Antidifferentiation uses the elementary reductions

    int tau^p dtau                 = tau^(p+1) / (p+1)
    int tau^p e^(i k omega tau) dtau = e^(..) sum_j (-1)^j p!/(p-j)! tau^(p-j) / (i k omega)^(j+1)

cosine/sine monomials are first rewritten in the exponential basis, which
collapses the classical cos/sin reduction formulas into the single
exponential rule.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from .errors import DegenerateOscillatorError, RegimeError
from .jets import CoefficientField

__all__ = [
    "OscillatorSpec",
    "BasisPoly",
    "make_oscillator",
    "absorb_mean",
    "v_poly",
    "big_v",
    "v_norm",
    "phase_average",
    "TermPlan",
    "integration_call_count",
]

# incremented on every symbolic antidifferentiation; lets tests verify that
# prebuilt scheme tables are reused without re-integration
_INTEGRATION_CALLS = 0


def integration_call_count() -> int:
    return _INTEGRATION_CALLS


# bindings kept on one TermPlan, one per (omega, nu, dt)
BINDING_CACHE_SIZE = 8


@dataclass(frozen=True)
class OscillatorSpec:
    """Finite-Fourier oscillator with frequency, phase and amplitude exponent.

    `coeffs` maps mode index k to the complex coefficient c_k, stored as a
    sorted tuple so specs are hashable; c_0 is always zero after
    construction.  `removed_mean` records the mean subtracted off by
    :func:`make_oscillator` so it can be absorbed into the slow drift.
    """

    omega: float
    phi: float = 0.0
    nu: float = 0.0
    coeffs: tuple[tuple[int, complex], ...] = ()
    removed_mean: complex = 0.0 + 0.0j

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega

    def value(self, t):
        """v(t); accepts scalars or numpy arrays."""
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape, dtype=complex)
        for k, c in self.coeffs:
            out += c * np.exp(1j * k * (self.omega * t + self.phi))
        out *= self.omega ** (-self.nu)
        return out if out.shape else complex(out)


def make_oscillator(kind: str, omega: float, phi: float = 0.0, nu: float = 0.0,
                    coeffs: Mapping[int, complex] | None = None) -> OscillatorSpec:
    """Build an oscillator of one of the common kinds.

    kind 'exp' is e^(i(omega t + phi)), 'cos' and 'sin' the real pair, and
    'fourier' takes user coefficients; a nonzero mean (the k=0 coefficient)
    is removed and reported on `removed_mean` for absorption into the slow
    part of the field.  The overall amplitude is omega^(-nu).
    """
    if not (math.isfinite(omega) and omega > 0):
        raise RegimeError(f"frequency must be finite and positive, got {omega}")
    if not (math.isfinite(nu) and nu > -1):
        raise RegimeError(f"amplitude exponent must be finite and satisfy nu > -1, got {nu}")
    if not math.isfinite(phi):
        raise ValueError(f"phase must be finite, got {phi}")
    if kind == "exp":
        cm = {1: 1.0 + 0.0j}
    elif kind == "cos":
        cm = {1: 0.5 + 0.0j, -1: 0.5 + 0.0j}
    elif kind == "sin":
        cm = {1: -0.5j, -1: 0.5j}
    elif kind == "fourier":
        if coeffs is None:
            raise ValueError("kind 'fourier' requires coefficients")
        if not all(float(k).is_integer() for k in coeffs):
            raise ValueError(f"Fourier mode indices must be integers, got {list(coeffs)}")
        cm = {int(k): complex(c) for k, c in coeffs.items() if complex(c) != 0}
    else:
        raise ValueError(f"unknown oscillator kind {kind!r}")
    mean = cm.pop(0, 0.0 + 0.0j) * omega ** (-nu)
    if not cm:
        raise DegenerateOscillatorError("all oscillating coefficients vanish")
    ordered = tuple(sorted(cm.items()))
    return OscillatorSpec(omega=float(omega), phi=float(phi), nu=float(nu),
                          coeffs=ordered, removed_mean=mean)


def absorb_mean(fld: CoefficientField, meanv: complex) -> CoefficientField:
    """Fold a removed oscillator mean into the drift: a -> a + <v> b."""
    meanv = complex(meanv)
    if meanv == 0:
        return fld
    a_fn, b_fn = fld._a, fld._b

    def a_new(t, u):
        return [ai + meanv * bi for ai, bi in zip(a_fn(t, u), b_fn(t, u))]

    return CoefficientField(fld.m, a_new, b_fn, name=fld.name + "+mean")


# -- basis polynomials --------------------------------------------------------

# term key: (p, k, q, n, m)
#   p >= 0 : power of tau = t - t_ref
#   k      : index of exp(i k omega tau)
#   q      : power of Z = exp(i (omega t_ref + phi))
#   n, m   : omega exponent is -(n + m nu); m counts amplitude factors
Key = tuple[int, int, int, int, int]


@dataclass(frozen=True)
class BasisPoly:
    """Canonical term list; immutable, closed under +, * and int dtau."""

    terms: tuple[tuple[Key, complex], ...] = ()

    @staticmethod
    def from_dict(d: Mapping[Key, complex]) -> "BasisPoly":
        items = [(k, c) for k, c in zip(d, map(complex, d.values())) if c != 0]
        return BasisPoly(tuple(sorted(items)))

    @staticmethod
    def one() -> "BasisPoly":
        return BasisPoly.from_dict({(0, 0, 0, 0, 0): 1.0 + 0.0j})

    @property
    def term_dict(self) -> dict[Key, complex]:
        return dict(self.terms)

    def __add__(self, other: "BasisPoly") -> "BasisPoly":
        out = self.term_dict
        for key, c in other.terms:
            out[key] = out.get(key, 0j) + c
        return BasisPoly.from_dict(out)

    def __sub__(self, other: "BasisPoly") -> "BasisPoly":
        return self + (other * -1.0)

    def __mul__(self, other):
        if isinstance(other, BasisPoly):
            out: dict[Key, complex] = {}
            for (p1, k1, q1, n1, m1), c1 in self.terms:
                for (p2, k2, q2, n2, m2), c2 in other.terms:
                    key = (p1 + p2, k1 + k2, q1 + q2, n1 + n2, m1 + m2)
                    out[key] = out.get(key, 0j) + c1 * c2
            return BasisPoly.from_dict(out)
        return BasisPoly.from_dict({k: c * other for k, c in self.terms})

    __rmul__ = __mul__

    def antiderivative(self) -> "BasisPoly":
        """Termwise antiderivative in tau with integration constant zero."""
        return BasisPoly.from_dict(self._antiderivative_terms())

    def _antiderivative_terms(self) -> dict[Key, complex]:
        """The antiderivative's coefficients, unsorted and zeros kept."""
        global _INTEGRATION_CALLS
        _INTEGRATION_CALLS += 1
        out: dict[Key, complex] = {}

        def add(key: Key, c: complex):
            out[key] = out.get(key, 0j) + c

        for (p, k, q, n, m), c in self.terms:
            if k == 0:
                add((p + 1, k, q, n, m), c / (p + 1))
            else:
                # int tau^p e^(ik omega tau): repeated integration by parts
                fac = 1.0 + 0.0j
                for j in range(p + 1):
                    fac *= -1j / k          # one factor 1/(ik) per level
                    coef = c * fac * math.perm(p, j) * (-1.0) ** j
                    add((p - j, k, q, n + j + 1, m), coef)
        return out

    def definite_from_ref(self) -> "BasisPoly":
        """Antiderivative vanishing at tau = 0.

        Bit for bit ``prim - anchor`` with ``prim = self.antiderivative()``
        and ``anchor`` its tau = 0 value kept symbolic in Z and omega, in
        one dict and one final sort: the anchor is summed over prim's
        tau^0 terms in sorted order and subtracted as ``+ c * -1.0``, as
        ``BasisPoly.__sub__`` does.  Exact zeros, which prim drops, change
        neither: a sum started from 0j ignores them, and an antiderivative
        has no k = 0 term at tau^0 for the anchor to meet.
        """
        out = self._antiderivative_terms()
        anchor: dict[Key, complex] = {}
        for (_, _, q, n, m), c in sorted(item for item in out.items() if item[0][0] == 0):
            key = (0, 0, q, n, m)
            anchor[key] = anchor.get(key, 0j) + c
        for key, c in anchor.items():
            out[key] = out.get(key, 0j) + c * -1.0
        return BasisPoly.from_dict(out)

    def filtered(self, keep: Callable[[Key], bool]) -> "BasisPoly":
        return BasisPoly.from_dict({k: c for k, c in self.terms if keep(k)})

    # -- evaluation ----------------------------------------------------------

    def eval_shifted(self, osc: OscillatorSpec, dt: float, t_ref: float) -> complex:
        """Evaluate at t = t_ref + dt with the phase anchored at t_ref."""
        return self._plan(osc, dt, t_ref)[0]

    @cached_property
    def _plan(self) -> "TermPlan":
        return TermPlan((self,))


class TermPlan:
    """Basis polynomials compiled for evaluation at t = t_ref + dt, the
    phase anchored at t_ref.

    Each term is the product c * dt^p * e^(ik omega dt) * Z^q *
    omega^-(n + m nu) taken left to right, skipping unit factors, and each
    polynomial sums its terms in order from 0.0 + 0.0j, so the result does
    not depend on which polynomials share a plan.

    Only Z^q changes from one step to the next.  A call therefore looks up
    a *binding* for its ``(omega, nu, dt)``; the plan keeps the
    ``BINDING_CACHE_SIZE`` it built last.  A binding holds each term's
    prefix c * dt^p * e^(ik omega dt), the left part of the same product,
    so multiplying it by Z^q and then by omega^-(..) repeats the term's
    operations one for one.  A term without Z^q is a constant, its omega
    factor already applied, and the constants that open a polynomial are
    summed once: that is the running total the sum reaches at that point.
    Tables without Z^q terms (the phase-averaged ones) bind to constants.
    """

    def __init__(self, polys):
        self._polys = tuple(poly.terms for poly in polys)
        # the distinct p, k and q, each with its place among its kind
        self._ps: dict[int, int] = {}
        self._ks: dict[int, int] = {}
        self._qs: dict[int, int] = {}
        for terms in self._polys:
            for (p, k, q, _, _), _ in terms:
                if p:
                    self._ps.setdefault(p, len(self._ps))
                if k:
                    self._ks.setdefault(k, len(self._ks))
                if q:
                    self._qs.setdefault(q, len(self._qs))
        self.bindings: dict[tuple, tuple] = {}

    def _bind(self, omega: float, nu: float, dt: float) -> tuple:
        """Every polynomial at `omega`, `nu` and `dt` as ``(start, rest)``:
        the sum of its leading constants, then its other terms in order as
        ``(value, q index, omega factor)``, the last two None where the
        term has no such factor."""
        # every dt^p before any exponential, so that a dt which breaks both
        # raises OverflowError from the power
        powers = []
        for p in self._ps:
            powers.append(dt ** p)
        waves = []
        for k in self._ks:
            waves.append(cmath.exp(1j * k * omega * dt))
        scales: dict[float, float] = {}
        out = []
        for terms in self._polys:
            start = 0.0 + 0.0j
            rest = []
            for (p, k, q, n, m), val in terms:
                if p:
                    val *= powers[self._ps[p]]
                if k:
                    val *= waves[self._ks[k]]
                w = None
                expo = n + m * nu
                if expo:
                    if expo not in scales:
                        scales[expo] = omega ** (-expo)
                    w = scales[expo]
                if q:
                    rest.append((val, self._qs[q], w))
                    continue
                if w is not None:
                    val *= w
                if rest:
                    rest.append((val, None, None))
                else:
                    start += val
            out.append((start, tuple(rest)))
        return tuple(out)

    def __call__(self, osc: OscillatorSpec, dt: float, t_ref: float) -> list[complex]:
        """Every polynomial's value, in order."""
        omega = osc.omega
        z = cmath.exp(1j * (omega * t_ref + osc.phi))
        try:
            # -0.0 and 0.0, or 2 and 2.0, are equal keys whose powers differ
            # in sign or type
            key = (omega, type(omega), osc.nu, dt, math.copysign(1.0, dt), type(dt))
            binding = self.bindings.get(key)
        except TypeError:
            # a dt with no sign or hash, such as a numpy array, binds for
            # this call only
            key = binding = None
        if binding is None:
            binding = self._bind(omega, osc.nu, dt)
            if key is not None:
                if len(self.bindings) >= BINDING_CACHE_SIZE:
                    del self.bindings[next(iter(self.bindings))]
                self.bindings[key] = binding
        # plain loops: each comprehension would cost a call frame, which
        # shows on the one- and two-term polynomials of eval_shifted
        zs = []
        for q in self._qs:
            zs.append(z ** q)
        out = []
        for total, rest in binding:
            for val, qi, w in rest:
                if qi is not None:
                    val *= zs[qi]
                    if w is not None:
                        val *= w
                total += val
            out.append(total)
        return out


def v_poly(osc: OscillatorSpec) -> BasisPoly:
    """The oscillator itself as a basis polynomial (one amplitude factor)."""
    return BasisPoly.from_dict({(0, k, k, 0, 1): c for k, c in osc.coeffs})


def big_v(osc: OscillatorSpec) -> BasisPoly:
    """V(t) with dV = v dt; zero-mean over one period for zero-mean v.

    For a finite Fourier series without constant term the elementary
    antiderivative already has zero mean, so no constant is added.
    """
    if any(k == 0 for k, _ in osc.coeffs):
        raise DegenerateOscillatorError("oscillator must be mean-normalized first")
    return v_poly(osc).antiderivative()


def v_norm(osc: OscillatorSpec) -> float:
    """2 pi times the peak of |v| over one period.

    Found numerically: dense sampling followed by golden-section polish
    around the best local maxima.  Deterministic.
    """
    n = 4096
    ts = np.linspace(0.0, osc.period, n, endpoint=False)
    mags = np.abs(osc.value(ts))

    def mag(t: float) -> float:
        return abs(osc.value(float(t)))

    # candidate local maxima on the circular grid
    prev = np.roll(mags, 1)
    nxt = np.roll(mags, -1)
    cand = np.where((mags >= prev) & (mags >= nxt))[0]
    order = cand[np.argsort(mags[cand])[::-1][:8]]

    best = float(mags.max())
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    dt = osc.period / n
    for idx in order:
        lo, hi = ts[idx] - dt, ts[idx] + dt
        a, b = lo, hi
        c = b - gr * (b - a)
        d = a + gr * (b - a)
        fc, fd = mag(c), mag(d)
        for _ in range(80):
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - gr * (b - a)
                fc = mag(c)
            else:
                a, c, fc = c, d, fd
                d = a + gr * (b - a)
                fd = mag(d)
        best = max(best, fc, fd)
    return 2.0 * math.pi * best


def phase_average(f: BasisPoly) -> BasisPoly:
    """Average over a uniformly distributed phase: keeps phase-index-0 terms.

    Exact: a term carrying Z^q integrates to zero over a full phase circle
    unless q = 0.  Idempotent and linear by construction.
    """
    return f.filtered(lambda key: key[2] == 0)
