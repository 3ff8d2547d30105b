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

Inside a :class:`BasisPoly` each term key is one packed integer: five
fields of ``_BITS`` bits, p highest, then k, q, n and m, with k, q, n and
m stored plus ``_BIAS``.  Integer order is then tuple order, so a sorted
term list is sorted by key; a product's key is one addition of two keys
(less the bias once), an antiderivative moves a key by one precomputed
offset per level, a tau^0 term is a key below one unit of p, and the
truncation of a scheme table reads p, n and m off a mask.  The public
``terms``, ``term_dict``, ``from_dict`` and ``filtered`` still take and
give tuples.  The range is 0 <= p < 2 * _BIAS and -_BIAS <= k, q, n, m <
_BIAS.  Each stored field of a key in range has its top bit clear, and
the sum of two stored fields, or a field moved by an antiderivative,
stays below 2**_BITS: a key that leaves the range sets the top bit of
its lowest field out of range, or is negative, and never wraps into the
next field unnoticed.  ``from_dict`` raises ValueError for a key out of
range or with a non-integral component, and a product or antiderivative
that would form such a key raises it too.

The packing changes no arithmetic.  Every operation visits terms in key
order, starts each sum from 0j and forms each product left to right, as
the same algebra on tuple keys does (``tests/references.py`` keeps it),
so coefficients match it bit for bit, signs of zero included.  The
integration-by-parts factors of each (p, k) (the running 1/(ik)^(j+1),
p!/(p-j)! and (-1)^j) come from a cache, and each coefficient is still
``c * fac * perm * sign``, left to right: one folded constant would round
differently, and multiplying by -1.0 is not negation for signed zeros.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import compress
from operator import or_
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
        """v(t) at a number, or at each element of an array.

        A number, a numpy scalar or a 0-d array gives a complex, and an
        array a complex array of its shape.  Every time is taken as a
        Python float and evaluated by the oscillator's compiled function
        (`_v_functions`), so an array's elements have the bits of their
        times evaluated one at a time.  A result that is not finite at a
        time that is not nan warns RuntimeWarning, as numpy's formula
        does: an infinite time, or a phase k (omega t + phi) that
        overflows, gives nan+nanj, and a value that overflows is infinite.
        """
        v, many = self._v()
        if type(t) in (float, int):
            ts, shape = [float(t)], None
            try:
                z = v(ts[0])
                if cmath.isfinite(z):
                    return z
            except ValueError:
                pass
        else:
            x = np.asarray(t, dtype=float)
            ts, shape = x.ravel().tolist(), x.shape
        try:
            out = many(ts)
        except ValueError:      # cmath.exp refuses a phase k w that overflowed
            out = [_or_nan(v, s) for s in ts]
        if any(not (cmath.isfinite(z) or math.isnan(s)) for s, z in zip(ts, out)):
            warnings.warn("v(t) is not finite at a time that is not nan", RuntimeWarning,
                          stacklevel=2)
        return out[0] if not shape else np.array(out, dtype=complex).reshape(shape)

    def _v(self) -> tuple[Callable, Callable]:
        """The compiled ``v(t)`` and ``many(ts)`` of this oscillator."""
        return _v_functions(self.coeffs, self.omega, self.phi, self.nu)


def _or_nan(v: Callable, t: float) -> complex:
    """``v(t)``, or nan+nanj where `cmath.exp` refuses its phase."""
    try:
        return v(t)
    except ValueError:
        return complex(math.nan, math.nan)


# kept by (coeffs, omega, phi, nu): the source depends only on the mode count
@lru_cache(maxsize=128)
def _v_functions(coeffs: tuple[tuple[int, complex], ...], omega: float, phi: float,
                 nu: float) -> tuple[Callable, Callable]:
    """``v(t)`` at a float `t`, and ``many(ts)``, its values at a list of
    floats as a list, compiled by ``jets._function``.  Each is
    ``w = omega * t + phi``, then ``0j + c_k * exp((1j * k) * w)`` added
    in coefficient order, then that sum times ``omega ** -nu``, where
    `omega`, `phi`, the c_k, the 1j * k, ``omega ** -nu`` and `cmath.exp`
    are arguments of the source, so every oscillator with as many modes
    shares it.  `cmath.exp` raises ValueError at a finite phase k w that
    overflows."""
    n = len(coeffs)
    body = ["w = omega * t + phi",
            *_summed("s", ["0j", *(f"c{i} * exp(i{i} * w)" for i in range(n))])]
    make = _function(
        f"oscillator(omega, phi, scale, exp, {', '.join(f'c{i}, i{i}' for i in range(n))})",
        ["def v(t):", *(f"    {line}" for line in body), "    return s * scale",
         "def many(ts):", "    out = []", "    for t in ts:",
         *(f"        {line}" for line in body), "        out.append(s * scale)",
         "    return out", "return v, many"])
    return make(omega, phi, omega ** (-nu), cmath.exp,
                *(x for k, c in coeffs for x in (c, 1j * k)))


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

# the packed key (module docstring): p is stored as is and k, q, n, m plus
# _BIAS, so every field of a key in range lies in [0, 2 * _BIAS)
_BITS = 24
_BIAS = 1 << (_BITS - 2)
_FIELD = (1 << _BITS) - 1
_P_SHIFT, _K_SHIFT, _Q_SHIFT, _N_SHIFT = 4 * _BITS, 3 * _BITS, 2 * _BITS, _BITS
_P, _N = 1 << _P_SHIFT, 1 << _N_SHIFT           # one unit of p and of n
_ZERO = _BIAS * ((1 << _K_SHIFT) + (1 << _Q_SHIFT) + _N + 1)     # (0, 0, 0, 0, 0)
# the top bit of every field, clear in a key in range
_GUARDS = sum(2 * _BIAS << shift for shift in (_P_SHIFT, _K_SHIFT, _Q_SHIFT, _N_SHIFT, 0))
_QNM = (1 << _K_SHIFT) - 1                      # the q, n and m fields
_PNM = ~(_FIELD << _K_SHIFT | _FIELD << _Q_SHIFT)   # all but the k and q fields


def _pack(key: Key) -> int:
    """The packed form of a term key: ValueError unless it has five
    integral components, with 0 <= p < 2 * _BIAS and the others in
    [-_BIAS, _BIAS)."""
    try:
        p, k, q, n, m = ints = tuple(map(int, key))
        fits = (ints == tuple(key) and 0 <= p < 2 * _BIAS
                and -_BIAS <= min(k, q, n, m) and max(k, q, n, m) < _BIAS)
    except (TypeError, ValueError, OverflowError):
        fits = False
    if not fits:
        raise ValueError(f"term key {key!r} is not five integers (p, k, q, n, m) with "
                         f"0 <= p < {2 * _BIAS} and the others in [{-_BIAS}, {_BIAS})")
    return (p << _P_SHIFT) + (k << _K_SHIFT) + (q << _Q_SHIFT) + (n << _N_SHIFT) + m + _ZERO


def _unpack(key: int) -> Key:
    return (key >> _P_SHIFT, (key >> _K_SHIFT & _FIELD) - _BIAS,
            (key >> _Q_SHIFT & _FIELD) - _BIAS, (key >> _N_SHIFT & _FIELD) - _BIAS,
            (key & _FIELD) - _BIAS)


def _checked(out: dict[int, complex]) -> dict[int, complex]:
    """`out`, whose keys a product or an antiderivative formed; ValueError
    if one of them left the range."""
    if reduce(or_, out, 0) & _GUARDS:    # a negative key has them too
        raise ValueError("a term key left the range of a basis polynomial: "
                         f"0 <= p < {2 * _BIAS} and k, q, n, m in [{-_BIAS}, {_BIAS})")
    return out


# kept by (p, k): three times the 164 distinct (p, k) of the largest build in
# use, the 3-mode Fourier nu = -1/2 (8,2) table
@lru_cache(maxsize=512)
def _parts(pk: int) -> tuple[tuple[int, complex, int, float], ...]:
    """The levels j = 0..p of int tau^p e^(ik omega tau), repeated
    integration by parts, for the p and biased k fields `pk` of a key: the
    key's offset to tau^(p-j) omega^-(j+1), the running factor 1/(ik)^(j+1),
    p!/(p-j)! and (-1)^j."""
    p, k = pk >> _BITS, (pk & _FIELD) - _BIAS
    out, fac = [], 1.0 + 0.0j
    for j in range(p + 1):
        fac *= -1j / k          # one factor 1/(ik) per level
        out.append(((j + 1) * _N - j * _P, fac, math.perm(p, j), (-1.0) ** j))
    return tuple(out)


class BasisPoly:
    """Canonical term list; immutable, closed under +, * and int dtau.

    `terms` gives the terms in ascending key order as ``(key, coef)`` with
    ``key = (p, k, q, n, m)`` and `coef` a nonzero complex number.  Inside,
    the keys are packed integers in ascending order, beside a tuple of
    their coefficients (see the module docstring).  A key out of range
    raises ValueError, in `from_dict` and wherever a product or an
    antiderivative would form one.
    """

    def __init__(self, terms=()):
        poly = BasisPoly.from_dict(dict(terms))
        self._keys, self._coefs = poly._keys, poly._coefs

    @staticmethod
    def _of(keys: tuple[int, ...], coefs: tuple[complex, ...]) -> "BasisPoly":
        """The polynomial of ascending packed keys and nonzero coefficients."""
        poly = object.__new__(BasisPoly)
        poly._keys, poly._coefs = keys, coefs
        return poly

    @staticmethod
    def _sorted(d: dict[int, complex]) -> "BasisPoly":
        """The polynomial of packed terms `d`: exact zeros dropped, sorted."""
        keys = sorted(d)
        coefs = list(map(d.__getitem__, keys))
        if 0j in coefs:             # -0.0 parts compare equal too
            keys = [key for key, c in zip(keys, coefs) if c]
            coefs = [c for c in coefs if c]
        return BasisPoly._of(tuple(keys), tuple(coefs))

    def _where(self, mask: list) -> "BasisPoly":
        """The terms at the true places of `mask`, one flag per term."""
        return BasisPoly._of(tuple(compress(self._keys, mask)), tuple(compress(self._coefs, mask)))

    @staticmethod
    def from_dict(d: Mapping[Key, complex]) -> "BasisPoly":
        return BasisPoly._sorted({_pack(k): c for k, c in zip(d, map(complex, d.values()))})

    @staticmethod
    def one() -> "BasisPoly":
        return BasisPoly._of((_ZERO,), (1.0 + 0.0j,))

    @property
    def terms(self) -> tuple[tuple[Key, complex], ...]:
        return tuple(zip(map(_unpack, self._keys), self._coefs))

    @property
    def term_dict(self) -> dict[Key, complex]:
        return dict(self.terms)

    def __eq__(self, other):
        if type(other) is not BasisPoly:
            return NotImplemented
        return self._keys == other._keys and self._coefs == other._coefs

    def __hash__(self):
        return hash((self._keys, self._coefs))

    def __repr__(self):
        return f"BasisPoly(terms={self.terms!r})"

    def __add__(self, other: "BasisPoly") -> "BasisPoly":
        out = dict(zip(self._keys, self._coefs))
        for key, c in zip(other._keys, other._coefs):
            out[key] = out.get(key, 0j) + c
        return BasisPoly._sorted(out)

    def __sub__(self, other: "BasisPoly") -> "BasisPoly":
        return self + (other * -1.0)

    def __mul__(self, other):
        if isinstance(other, BasisPoly):
            out: dict[int, complex] = {}
            terms = tuple(zip(other._keys, other._coefs))
            for key1, c1 in zip(self._keys, self._coefs):
                key1 -= _ZERO
                for key2, c2 in terms:
                    key = key1 + key2
                    out[key] = out.get(key, 0j) + c1 * c2
            return BasisPoly._sorted(_checked(out))
        return BasisPoly._sorted({key: complex(c * other)
                                  for key, c in zip(self._keys, self._coefs)})

    __rmul__ = __mul__

    def antiderivative(self) -> "BasisPoly":
        """Termwise antiderivative in tau with integration constant zero."""
        return BasisPoly._sorted(self._antiderivative_terms())

    def _antiderivative_terms(self) -> dict[int, complex]:
        """The antiderivative's coefficients, unsorted and zeros kept.  A
        level's coefficient is ``c * fac * perm * sign``, left to right, from
        the factors of ``_parts``."""
        global _INTEGRATION_CALLS
        _INTEGRATION_CALLS += 1
        out: dict[int, complex] = {}
        for key, c in zip(self._keys, self._coefs):
            pk = key >> _K_SHIFT
            if pk & _FIELD == _BIAS:            # k = 0
                key += _P
                out[key] = out.get(key, 0j) + c / ((pk >> _BITS) + 1)
            else:
                for offset, fac, perm, sign in _parts(pk):
                    level = key + offset
                    out[level] = out.get(level, 0j) + c * fac * perm * sign
        return _checked(out)

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
        anchor: dict[int, complex] = {}
        for key in sorted(filter(_P.__gt__, out)):          # the tau^0 keys
            level = (key & _QNM) + (_BIAS << _K_SHIFT)      # (0, 0, q, n, m)
            anchor[level] = anchor.get(level, 0j) + out[key]
        for key, c in anchor.items():
            out[key] = out.get(key, 0j) + c * -1.0
        return BasisPoly._sorted(out)

    def filtered(self, keep: Callable[[Key], bool]) -> "BasisPoly":
        return self._where(list(map(keep, map(_unpack, self._keys))))

    def _truncated(self, keep: Callable[[int, int, int], bool]) -> "BasisPoly":
        """The terms whose p, n and m `keep` accepts, asking it once for
        each distinct (p, n, m)."""
        pnms = list(map(_PNM.__and__, self._keys))
        kept = {pnm: keep(pnm >> _P_SHIFT, (pnm >> _N_SHIFT & _FIELD) - _BIAS,
                          (pnm & _FIELD) - _BIAS) for pnm in set(pnms)}
        return self._where(list(map(kept.__getitem__, pnms)))

    # -- evaluation ----------------------------------------------------------

    def eval_shifted(self, osc: OscillatorSpec, dt: float, t_ref: float) -> complex:
        """Evaluate at t = t_ref + dt with the phase anchored at t_ref.
        The binding serves this call only: callers such as quadrature pass
        a new `dt` on every call."""
        z = cmath.exp(1j * (osc.omega * t_ref + osc.phi))
        plan = self._plan
        return plan._function(plan._bind(osc.omega, osc.nu, dt), z)[0]

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
    binds once.  A binding is a flat tuple ``K`` of constants.  It begins
    with one constant per polynomial, its Z^0 constant, which is 0j for a
    polynomial without Z^0 terms; this prefix is each polynomial's average
    over a uniform phase, which :meth:`averaged` reads from the kept
    binding.  The constants of each polynomial's nonzero powers of Z
    follow, polynomial by polynomial, in ascending q.  A constant sums the
    terms c * dt^p * e^(ik omega dt) * omega^-(n + m nu) that carry its
    power of Z, in term order from 0j, each product taken left to right,
    skipping unit factors.  Every factor is a complex number, so each
    product is a complex product whether or not Python widens a float.
    The plan lays out each constant's terms once, when it is made, and
    :meth:`_bind` sums them.

    The plan's function ``plan(K, z)`` is straight-line Python, compiled by
    ``jets._function`` when the plan is made: it computes each Z^q once,
    then each polynomial as ``K[i] + K[j] * z0 + ...``, its constants times
    their powers of Z added left to right in ascending q, and returns the
    list of their values.  ``K[i]``, polynomial i's Z^0 constant, enters
    its sum only if it has Z^0 terms or no terms at all.  A polynomial
    whose sum ``jets._summed`` splits into statements is summed by them,
    into its own local ``c<i>``.  The source depends only on which powers
    of Z each polynomial has, so every `dt`, `omega` and `nu` binds its
    constants to the same function.
    Constants are read as ``K[i]``, never unpacked into locals: a frame's
    size is its locals plus its stack, and a table of thousands of
    constants would push a fresh chunk of the interpreter's frame stack on
    every call.  :meth:`BasisPoly.eval_shifted` binds for its one call and
    keeps nothing.
    """

    def __init__(self, polys):
        # each distinct packed key as (q, p, k, j), in order of first use,
        # with j the index of its (n, m) in _scales, also in order of first use
        fields: dict[int, tuple] = {}
        scales: dict[tuple, int] = {}
        for poly in polys:
            for key in poly._keys:
                if key not in fields:
                    p, k, q, n, m = _unpack(key)
                    fields[key] = (q, p, k, scales.setdefault((n, m), len(scales)))
        self._count = len(polys)
        # the distinct nonzero p and k, and the distinct omega exponents (n, m)
        self._ps = tuple(dict.fromkeys(p for _, p, _, _ in fields.values() if p))
        self._ks = tuple(dict.fromkeys(k for _, _, k, _ in fields.values() if k))
        self._scales = tuple(scales)
        # each distinct nonzero q and its power of Z
        zs = {q: f" * z{i}" for i, q in enumerate(sorted({f[0] for f in fields.values() if f[0]}))}
        lines = [f"z{i} = z ** {q}" for i, q in enumerate(zs)]
        # the terms of each constant of K in order, as (p, k, j, c): each
        # polynomial's Z^0 constant, then the nonzero powers of Z of each
        # polynomial
        self._constants: list[list[tuple]] = [[] for _ in polys]
        values = []
        for i, poly in enumerate(polys):
            # each constant's terms in term order, the constants in ascending q
            groups = {0: self._constants[i]}
            for key, c in zip(poly._keys, poly._coefs):
                q, p, k, j = fields[key]
                groups.setdefault(q, []).append((p, k, j, c))
            parts = [f"K[{i}]"] if groups.pop(0) or not poly._keys else []
            qs = sorted(groups)
            parts += [f"K[{len(self._constants) + j}]{zs[q]}" for j, q in enumerate(qs)]
            self._constants += [groups[q] for q in qs]
            statements = _summed(f"c{i}", parts)
            if len(statements) > 1:
                lines += statements
            values.append(f"c{i}" if len(statements) > 1 else " + ".join(parts))
        lines.append(f"return [{', '.join(values)}]")
        self._function = _function("plan(K, z)", lines)
        # the last binding: ((type of omega, omega, nu, key of dt), K)
        self._last: tuple = (None, None)

    def _bind(self, omega: float, nu: float, dt: float) -> tuple:
        """The constants ``K`` at `omega`, `nu` and `dt`."""
        # every dt^p before any exponential, so that a dt which breaks both
        # raises OverflowError from the power
        powers = {p: complex(dt ** p) for p in self._ps}
        waves = {k: cmath.exp(1j * k * omega * dt) for k in self._ks}
        # omega^-(n + m nu) of each (n, m), None where the exponent is zero
        exponents = [n + m * nu for n, m in self._scales]
        scales = [complex(omega ** (-expo)) if expo else None for expo in exponents]
        out = []
        for terms in self._constants:
            total = 0j
            for p, k, j, val in terms:
                if p:
                    val *= powers[p]
                if k:
                    val *= waves[k]
                if scales[j] is not None:
                    val *= scales[j]
                total += val
            out.append(total)
        return tuple(out)

    def _binding(self, omega: float, nu: float, dt: float) -> tuple:
        """The constants at `omega`, `nu` and `dt`: the kept ones if they
        were bound for an `omega` of the same type and value, the same `nu`
        and the same ``jets._key`` of `dt`, else new ones, kept unless `dt`
        has no key."""
        key = (type(omega), omega, nu, _key(dt))
        last, constants = self._last
        if key != last:
            constants = self._bind(omega, nu, dt)
            if key[3]:
                self._last = (key, constants)
        return constants

    def __call__(self, osc: OscillatorSpec, dt: float, t_ref: float) -> list[complex]:
        """Every polynomial's value, in order."""
        z = cmath.exp(1j * (osc.omega * t_ref + osc.phi))
        return self._function(self._binding(osc.omega, osc.nu, dt), z)

    def averaged(self, osc: OscillatorSpec, dt: float, t_ref: float) -> tuple[complex, ...]:
        """Every polynomial's average over a uniform phase, in order: its
        Z^0 constant, read from the binding's prefix.  `t_ref` enters
        through Z alone, so it changes nothing."""
        return self._binding(osc.omega, osc.nu, dt)[:self._count]


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
    """2 pi times the peak of |v| over one period: 2 pi times the peak of
    |sum_k c_k e^(ik theta)| over the phase circle (`_peak`), which depends
    on the coefficients alone, times omega^(-nu).  Deterministic."""
    return 2.0 * math.pi * _peak(osc.coeffs) * osc.omega ** (-osc.nu)


@lru_cache(maxsize=32)
def _peak(coeffs: tuple[tuple[int, complex], ...]) -> float:
    """The peak of |sum_k c_k e^(ik theta)| over theta, in Python floats:
    the largest of 4096 equally spaced theta from 0, and of a
    golden-section polish around each of the 8 largest local maxima on
    that circular grid."""
    v, many = _v_functions(coeffs, 1.0, 0.0, 0.0)

    def mag(theta: float) -> float:
        return abs(v(theta))

    n = 4096
    dtheta = 2.0 * math.pi / n
    mags = list(map(abs, many([j * dtheta for j in range(n)])))
    cand = [j for j in range(n) if mags[j] >= mags[j - 1] and mags[j] >= mags[(j + 1) % n]]
    best = max(mags)
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    for j in sorted(cand, key=mags.__getitem__, reverse=True)[:8]:
        a, b = (j - 1) * dtheta, (j + 1) * dtheta
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
    return best


def phase_average(f: BasisPoly) -> BasisPoly:
    """Average over a uniformly distributed phase: keeps phase-index-0 terms.

    Exact: a term carrying Z^q integrates to zero over a full phase circle
    unless q = 0.  Idempotent and linear by construction.
    """
    return f._where([key >> _Q_SHIFT & _FIELD == _BIAS for key in f._keys])
