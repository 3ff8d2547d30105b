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
from itertools import islice
from typing import Callable, Iterable, Iterator, Mapping

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
        function, constants, _ = self._plan._bind(osc.omega, osc.nu, dt)
        return function(constants, z)[0]

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

    Only Z^q changes from one step to the next.  A call therefore uses a
    *binding* for its ``(omega, nu, dt)``, and the plan keeps the last one
    it built.  A binding is a list ``[function, K, layout]``: the plan's
    function for `nu`, a flat tuple ``K`` of constants, and the batch
    layout, None until :meth:`_blocks` first needs it.  ``K`` holds each
    term's prefix c * dt^p * e^(ik omega dt), the left part of the same
    product, and after it the term's omega factor, so multiplying the
    prefix by Z^q and then by the factor repeats the term's operations one
    for one.  A term without Z^q is a constant, its omega factor already
    applied, and the constants that open a polynomial are summed once:
    that is the running total the sum reaches at that point.  Tables
    without Z^q terms (the phase-averaged ones) bind to constants.  One
    walk over the terms, :meth:`_shape`, decides where each constant goes;
    the function sums that shape, :meth:`_bind` fills ``K`` by following
    it, and the batch layout reads it.

    The function is straight-line Python, compiled by ``jets._function``
    once per plan and `nu` and kept on the plan: it computes each Z^q once,
    then each polynomial as ``K[0] + K[1] * z0 * K[2] + K[3] * z1 + ...``,
    the same operands and operations in the same left-to-right order as
    the product and the sum above, so its values are those bit for bit.
    A polynomial whose sum ``jets._summed`` splits into statements is
    summed by them, into `c`.  Its source depends only on which terms
    carry which power of Z and an omega factor, and so only on the plan's
    structure and `nu`; a new `dt` or `omega` binds new constants to the
    same function.  Constants are read as ``K[i]``, never unpacked into
    locals: a frame's size is its locals plus its stack, and a table of
    thousands of constants would push a fresh chunk of the interpreter's
    frame stack on every call.  :meth:`BasisPoly.eval_shifted` binds for
    its one call and keeps nothing.

    `solve` knows its start times in advance and takes the coefficients of
    every step from :meth:`_blocks`, which evaluates a block of times in
    one numpy pass over the binding's batch layout.  The pass forms every
    operation the compiled function does, in its order, with separate
    float64 operations (:meth:`_summands` has the rules), so each row
    equals the function's value bit for bit.  A lone call keeps the
    compiled function: the pass costs two dozen numpy calls however few
    times it serves, more than a (4,2) table's call.
    """

    def __init__(self, polys):
        self._polys = tuple(poly.terms for poly in polys)
        keys = [key for terms in self._polys for key, _ in terms]
        # the distinct nonzero p and k, and each distinct nonzero q with
        # its place among them
        self._ps = tuple(dict.fromkeys(p for p, _, _, _, _ in keys if p))
        self._ks = tuple(dict.fromkeys(k for _, k, _, _, _ in keys if k))
        self._qs: dict[int, int] = {}
        for q in dict.fromkeys(q for _, _, q, _, _ in keys if q):
            self._qs[q] = len(self._qs)
        # the compiled function and its shape for each nu
        self._forms: dict[float, tuple[Callable, list]] = {}
        # the last binding: ((type of omega, omega, nu, key of dt), binding)
        self._last: tuple = (None, None)

    def _form(self, nu: float) -> tuple[Callable, list]:
        """The function from ``(K, z)`` to every polynomial's value, for
        bindings at `nu`, and the :meth:`_shape` it sums."""
        form = self._forms.get(nu)
        if form is None:
            shape = self._shape(nu)
            form = self._forms[nu] = (_function("plan(K, z)", self._source(shape)), shape)
        return form

    def _shape(self, nu: float) -> list[list[tuple]]:
        """Each polynomial's summands in order, for bindings at `nu`, as
        ``(i, z, w, terms)``: the constant ``K[i]``, times ``z ** q`` for
        the plan's `z`-th q unless `z` is None, then times ``K[w]`` unless
        `w` is None.  `terms` holds the ``(p, k, n + m nu, c)`` of the
        terms that make ``K[i]``.  The first summand, the lead, holds the
        constants that open the polynomial, all of them if it has no Z^q
        term, or none; every other summand holds one term: a term with
        Z^q, whose omega factor, if it has one, is ``K[w]``, or a constant
        after such a term."""
        shape = []
        i = 0               # the next index into K
        for terms in self._polys:
            lead = (i, None, None, [])
            summands = [lead]
            i += 1
            for (p, k, q, n, m), c in terms:
                term = (p, k, n + m * nu, c)
                if q:
                    w = i + 1 if term[2] else None
                    summands.append((i, self._qs[q], w, (term,)))
                    i += 1 if w is None else 2
                elif len(summands) == 1:
                    lead[3].append(term)
                else:
                    summands.append((i, None, None, (term,)))
                    i += 1
            shape.append(summands)
        return shape

    def _source(self, shape: list[list[tuple]]) -> list[str]:
        """The body of the function ``plan(K, z)`` that sums `shape`."""
        lines = [f"z{i} = z ** {q}" for q, i in self._qs.items()]
        items = []          # values not yet in `out`
        started = False     # whether `out` exists
        for summands in shape:
            parts = [f"K[{i}]" + ("" if z is None else f" * z{z}")
                     + ("" if w is None else f" * K[{w}]") for i, z, w, _ in summands]
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

    def _bind(self, omega: float, nu: float, dt: float) -> list:
        """The binding at `omega`, `nu` and `dt`, its layout not yet built.
        ``K`` follows the shape for `nu`: each term of a summand is c *
        dt^p * e^(ik omega dt), times its omega factor unless ``K[w]``
        holds that, and the lead sums its terms from 0.0 + 0.0j."""
        function, shape = self._form(nu)
        # every dt^p before any exponential, so that a dt which breaks both
        # raises OverflowError from the power
        powers = {p: dt ** p for p in self._ps}
        waves = {k: cmath.exp(1j * k * omega * dt) for k in self._ks}
        scales: dict[float, float] = {}
        out = []
        append = out.append
        for summands in shape:
            for j, (_, _, w, terms) in enumerate(summands):
                total = 0.0 + 0.0j
                for p, k, expo, val in terms:
                    if p:
                        val *= powers[p]
                    if k:
                        val *= waves[k]
                    if expo:
                        if expo not in scales:
                            scales[expo] = omega ** (-expo)
                        if w is None:
                            val *= scales[expo]
                    total = total + val if j == 0 else val
                append(total)
                if w is not None:
                    # the summand's one term's omega factor
                    append(scales[expo])
        return [function, tuple(out), None]

    def _binding(self, omega: float, nu: float, dt: float) -> list:
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
        function, constants, _ = self._binding(osc.omega, osc.nu, dt)
        return function(constants, z)

    def _blocks(self, osc: OscillatorSpec, dt: float, times: Iterable) -> Iterator[np.ndarray]:
        """Every polynomial's value at each start time in `times`, one
        complex row per time, each equal bit for bit to ``self(osc, dt,
        t)``, a block of times at a time, as arrays of (time, polynomial).

        Each block is computed in one numpy pass over the batch layout of
        the binding, built on the binding's first pass.  A block
        holds at most ``_BLOCK_VALUES`` summands, so the pass's transient
        arrays stay within a fixed size whatever the table.
        """
        binding = self._binding(osc.omega, osc.nu, dt)
        if binding[2] is None:
            binding[2] = self._layout(osc.nu, binding[1])
        layout = binding[2]
        size = max(1, _BLOCK_VALUES // max(1, len(layout[0])))
        times = iter(times)
        while block := list(islice(times, size)):
            yield self._block(osc, layout, block)

    def _layout(self, nu: float, constants: tuple) -> tuple:
        """The batch layout of a binding whose constants are `constants`.

        The polynomials are ranked longest first, and their summands are
        laid out column by column: the first summand of every polynomial,
        then the second of every polynomial that has one, and so on, so
        each column's polynomials are a prefix of the ranking.  The pass
        computes the summands in another order, those with Z^q and an
        omega factor first, then those with Z^q alone, then the constants,
        and gathers them into the column order.

        Returns ``(gather, columns, ranks, powers, prefix, omegas,
        fixed)``: the computed summand in each place of the column order;
        ``(start, count)`` of each column after the first; each
        polynomial's place in the ranking; for the summands with Z^q, the
        index of their power among the plan's, their constant's real and
        imaginary parts and the omega factors of those that have one; and
        the constant summands' real and imaginary parts.  Each array of
        the summands is a column, to broadcast over the times.
        """
        shape = self._form(nu)[1]
        ranking = sorted(range(len(shape)), key=lambda r: -len(shape[r]))
        flat, columns = [], []
        for j in range(len(shape[ranking[0]]) if shape else 0):
            count = sum(len(shape[r]) > j for r in ranking)
            if j:
                columns.append((len(flat), count))
            flat += [shape[r][j] for r in ranking[:count]]
        order = sorted(range(len(flat)), key=lambda f: (flat[f][1] is None, flat[f][2] is None))
        summands = [flat[f] for f in order]
        varying = [s for s in summands if s[1] is not None]
        K = np.array(constants, dtype=complex)
        prefix = K[[i for i, _, _, _ in varying]]
        fixed = K[[i for i, z, _, _ in summands if z is None]]
        return (np.argsort(order), columns, np.argsort(ranking),
                np.array([z for _, z, _, _ in varying], dtype=np.intp),
                (prefix.real[:, None].copy(), prefix.imag[:, None].copy()),
                K.real[[w for _, _, w, _ in varying if w is not None]][:, None],
                (fixed.real[:, None].copy(), fixed.imag[:, None].copy()))

    def _block(self, osc: OscillatorSpec, layout: tuple, times: list) -> np.ndarray:
        """The rows at `times`, as an array of (time, polynomial).  Each
        polynomial is summed left to right from its lead constant, one
        column at a time, never by a pairwise reduction."""
        gather, columns, ranks = layout[:3]
        sums = self._summands(osc, layout, times).transpose(1, 0, 2)[gather]
        with np.errstate(all="ignore"):
            for start, count in columns:
                sums[:count] += sums[start:start + count]
        return sums[ranks].transpose(2, 0, 1).copy().view(complex)[:, :, 0]

    def _summands(self, osc: OscillatorSpec, layout: tuple, times: list) -> np.ndarray:
        """Every summand at `times`, in the layout's computing order, as an
        array of (real or imaginary part, summand, time).

        Z and its powers are taken per time with the scalar call's
        expressions.  Each complex product is formed as Python forms it,
        with separate float64 operations: ``re = ar*br - ai*bi`` and
        ``im = ar*bi + ai*br``, never numpy's complex product, which may
        fuse a multiply and an add.  Python widens a float omega factor
        `w` to ``complex(w, 0.0)``, so ``x * w`` is ``(re*w - im*0.0,
        re*0.0 + im*w)``: numpy's float times complex array drops those
        zero products and differs in the sign of a zero where a part of
        the product is zero or underflows.  Python's arithmetic never
        warns, and neither does this.
        """
        powers, (pr, pi), omegas, (fr, fi) = layout[3:]
        qs = list(self._qs)
        zs = []
        for t in times:
            z = cmath.exp(1j * (osc.omega * t + osc.phi))
            zs += [z ** q for q in qs]
        n, varying, weighted = len(times), len(powers), len(omegas)
        out = np.empty((2, len(layout[0]), n))
        re, im = out[0, :varying], out[1, :varying]
        # numpy runs an operand broadcast from a column through buffers, at
        # a third of the speed, so the constants are copied out to the times
        a, b = np.empty((varying, n)), np.empty((varying, n))
        np.copyto(a, pr)
        np.copyto(b, pi)
        with np.errstate(all="ignore"):
            z = np.array(zs, dtype=complex).reshape(n, len(qs)).T
            zr, zi = z.real[powers], z.imag[powers]
            np.multiply(a, zr, out=re)
            a *= zi
            zi *= b
            zr *= b
            re -= zi
            np.add(a, zr, out=im)
            re, im, w, re_0, im_0 = (re[:weighted], im[:weighted], b[:weighted],
                                     a[:weighted], zr[:weighted])
            np.copyto(w, omegas)
            np.multiply(re, 0.0, out=re_0)
            np.multiply(im, 0.0, out=im_0)
            re *= w
            re -= im_0
            im *= w
            im += re_0
        out[0, varying:] = fr
        out[1, varying:] = fi
        return out


# summands per block of TermPlan._blocks; its transient arrays hold at most
# six floats per summand, 384 KB in all
_BLOCK_VALUES = 2 ** 13


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
