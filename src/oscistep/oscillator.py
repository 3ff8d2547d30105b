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
from .jets import _function, _key, _summed, absorb_mean

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
        """v(t); accepts scalars or numpy arrays.

        A finite `t` of type `float` or `int` is evaluated with `cmath`,
        in the numpy path's order of operations, and gives the same bits
        as that path at a tenth of the cost.  Every other `t` (arrays,
        numpy scalars, bools, non-finite times), and a plain `t` whose
        value comes out non-finite, takes the numpy path, which warns as
        it always has.  For complex Fourier coefficients an array result
        can differ from the scalar result in the last bit, because numpy's
        array loops may fuse a complex product's multiply and add.
        """
        if type(t) in (float, int) and math.isfinite(t):
            w = self.omega * float(t) + self.phi
            s = 0j
            try:
                for k, c in self.coeffs:
                    s += c * cmath.exp(1j * k * w)
            except ValueError:      # k w overflowed, where numpy gives nan and warns
                pass
            else:
                s *= self.omega ** (-self.nu)
                if cmath.isfinite(s):
                    return s
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
        cm = {int(k): complex(c) for k, c in coeffs.items()}
        if not all(cmath.isfinite(c) for c in cm.values()):
            raise ValueError(f"Fourier coefficients must be finite, got {coeffs!r}")
        cm = {k: c for k, c in cm.items() if c != 0}
    else:
        raise ValueError(f"unknown oscillator kind {kind!r}")
    mean = cm.pop(0, 0.0 + 0.0j) * omega ** (-nu)
    if not cm:
        raise DegenerateOscillatorError("all oscillating coefficients vanish")
    ordered = tuple(sorted(cm.items()))
    return OscillatorSpec(omega=float(omega), phi=float(phi), nu=float(nu),
                          coeffs=ordered, removed_mean=mean)


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
        """Evaluate at t = t_ref + dt with the phase anchored at t_ref.
        The binding serves this call only: callers such as quadrature pass
        a new `dt` on every call."""
        z = cmath.exp(1j * (osc.omega * t_ref + osc.phi))
        function, constants = self._plan._bind(osc.omega, osc.nu, dt)
        return function(constants, z)[0]

    @cached_property
    def _plan(self) -> "TermPlan":
        return TermPlan((self,))


class TermPlan:
    """Basis polynomials compiled for evaluation at t = t_ref + dt, the
    phase anchored at t_ref.

    Only Z = e^(i(omega t_ref + phi)) changes from one step to the next, so
    each polynomial is a Laurent polynomial sum_q A_q Z^q whose constants
    A_q depend on ``(omega, nu, dt)`` alone.  A call therefore uses a
    *binding* for its ``(omega, nu, dt)``, and the plan keeps the last one
    it built, so a run of steps of one size, at any start time or phase,
    binds once.  A binding is a pair ``(function, K)``: the plan's
    function and a flat tuple ``K`` of constants, one per distinct power of
    Z of each polynomial, q = 0 first, then ascending q; a polynomial
    without terms has one, 0j.  A constant sums the terms c * dt^p *
    e^(ik omega dt) * omega^-(n + m nu) that carry its power of Z, in term
    order from 0j, each product taken left to right, skipping unit factors.
    Every factor is a complex number, so each product is a complex product
    whether or not Python widens a float.  :meth:`_shape` lists each
    constant's terms, and :meth:`_bind` sums them.

    The function is straight-line Python, compiled by ``jets._function``
    and kept on the plan: it computes each Z^q once, then each polynomial
    as ``K[0] + K[1] * z0 + ...``, its constants times their powers of Z
    added left to right in their order.  A polynomial whose sum
    ``jets._summed`` splits into statements is summed by them, into `c`.
    Its source depends only on which powers of Z each polynomial has, so a
    new `dt`, `omega` or `nu` binds new constants to the same function.
    Constants are read as ``K[i]``, never unpacked into locals: a frame's
    size is its locals plus its stack, and a table of thousands of
    constants would push a fresh chunk of the interpreter's frame stack on
    every call.  :meth:`BasisPoly.eval_shifted` binds for its one call and
    keeps nothing.
    """

    def __init__(self, polys):
        self._polys = tuple(poly.terms for poly in polys)
        keys = [key for terms in self._polys for key, _ in terms]
        # the distinct nonzero p and k
        self._ps = tuple(dict.fromkeys(p for p, _, _, _, _ in keys if p))
        self._ks = tuple(dict.fromkeys(k for _, k, _, _, _ in keys if k))
        # each polynomial's powers of Z in the order of its constants, and
        # each distinct nonzero q with its place among them
        self._groups = tuple(sorted({key[2] for key, _ in terms} or {0}, key=lambda q: (q != 0, q))
                             for terms in self._polys)
        self._qs = {q: i for i, q in enumerate(sorted({q for _, _, q, _, _ in keys if q}))}
        # the compiled function and the shape for each nu
        self._forms: dict[float, tuple[Callable, list]] = {}
        # the last binding: ((type of omega, omega, nu, key of dt), binding)
        self._last: tuple = (None, None)

    def _form(self, nu: float) -> tuple[Callable, list]:
        """The function from ``(K, z)`` to every polynomial's value, and the
        :meth:`_shape` of the constants at `nu`."""
        form = self._forms.get(nu)
        if form is None:
            form = self._forms[nu] = (_function("plan(K, z)", self._source()), self._shape(nu))
        return form

    def _shape(self, nu: float) -> list[list[tuple]]:
        """The terms of each constant of ``K`` in order, as ``(p, k, n + m
        nu, c)``, for bindings at `nu`."""
        shape = []
        for terms, qs in zip(self._polys, self._groups):
            groups: dict[int, list] = {q: [] for q in qs}
            for (p, k, q, n, m), c in terms:
                groups[q].append((p, k, n + m * nu, c))
            shape += groups.values()
        return shape

    def _source(self) -> list[str]:
        """The body of the function ``plan(K, z)``."""
        lines = [f"z{i} = z ** {q}" for q, i in self._qs.items()]
        items = []          # values not yet in `out`
        started = False     # whether `out` exists
        i = 0               # the next index into K
        for qs in self._groups:
            parts = [f"K[{i + j}]" + (f" * z{self._qs[q]}" if q else "") for j, q in enumerate(qs)]
            i += len(qs)
            statements = _summed("c", parts)
            if len(statements) == 1:
                items.append(" + ".join(parts))
                continue
            lines += statements
            items.append("c")
            lines.append(f"out {'+=' if started else '='} [{', '.join(items)}]")
            items, started = [], True
        if started:
            lines += [f"out += [{', '.join(items)}]", "return out"]
        else:
            lines.append(f"return [{', '.join(items)}]")
        return lines

    def _bind(self, omega: float, nu: float, dt: float) -> tuple[Callable, tuple]:
        """The binding at `omega`, `nu` and `dt`."""
        function, shape = self._form(nu)
        # every dt^p before any exponential, so that a dt which breaks both
        # raises OverflowError from the power
        powers = {p: complex(dt ** p) for p in self._ps}
        waves = {k: cmath.exp(1j * k * omega * dt) for k in self._ks}
        scales: dict[float, complex] = {}
        out = []
        for terms in shape:
            total = 0j
            for p, k, expo, val in terms:
                if p:
                    val *= powers[p]
                if k:
                    val *= waves[k]
                if expo:
                    if expo not in scales:
                        scales[expo] = complex(omega ** (-expo))
                    val *= scales[expo]
                total += val
            out.append(total)
        return function, tuple(out)

    def _binding(self, omega: float, nu: float, dt: float) -> tuple[Callable, tuple]:
        """The binding at `omega`, `nu` and `dt`: the kept one if it was
        built for an `omega` of the same type and value, the same `nu` and
        the same ``jets._key`` of `dt`, else a new one, kept unless `dt`
        has no key."""
        key = (type(omega), omega, nu, _key(dt))
        last, binding = self._last
        if key != last:
            binding = self._bind(omega, nu, dt)
            if key[3]:
                self._last = (key, binding)
        return binding

    def __call__(self, osc: OscillatorSpec, dt: float, t_ref: float) -> list[complex]:
        """Every polynomial's value, in order."""
        z = cmath.exp(1j * (osc.omega * t_ref + osc.phi))
        function, constants = self._binding(osc.omega, osc.nu, dt)
        return function(constants, z)


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
