"""Truncated multivariate Taylor arithmetic (jets) and coefficient fields.

A :class:`Jet` stores the Taylor coefficients of a scalar quantity in the
variables ``(t, u_1, ..., u_m)`` about a base point, up to a total degree.
Arithmetic on jets is exact for polynomials within the truncation order, so
coefficient functions written as ordinary arithmetic expressions evaluate
either on plain complex scalars or on jets, and all mixed partial
derivatives come out for free.

The differential operators

    L0 f = df/dt + sum_j a_j df/du_j        L1 f = sum_j b_j df/du_j

act on jets by shifting coefficient indices and multiplying truncated
series; each application costs one order of the jet.  Words over
``{"L0", "L1"}`` are applied right to left, so ``["L1", "L0"]`` means
``L1(L0(f))``.

Inside a jet each multi-index is one packed integer: component i in bits
[16 i, 16 i + 16) and the total degree above all components.  Adding two
keys adds the multi-indices and their degrees, the truncation test of a
product is one integer comparison, and a partial derivative subtracts a
unit key.  The public ``coeffs``, ``coefficient`` and ``derivative`` still
take and give tuples.

The arithmetic is one set of kernels on packed-key dicts: ``_mul``,
``_partial`` and ``_add``.  :class:`Jet` is a thin wrapper that checks
base points and orders and calls them.  :class:`WordPlan` compiles a list
of ``(target, op_word)`` pairs once into a flat instruction list that
runs the kernels on the field's jets with no intermediate ``Jet`` objects;
every caller with the same list shares one plan.

The packing changes no arithmetic.  Every operation visits coefficients
in the same order as the plain tuple-keyed definition (dicts keep their
insertion order), starts each sum from 0.0 and adds products left to
right, so results match that definition bit for bit, signs of zero
included.  The CLI prints 17 significant digits and its README output is
locked byte for byte (``tests/readme_cli_golden.txt``); a reordered sum
would change those bytes.

A step's operator values are one taped function of ``(t, u)``.  A key of
a series is present when an operation formed it, whatever its value:
jet arithmetic and the kernels keep exact zeros as values, and only a
number that is zero makes no key, as ``Jet``'s input or as a constant.  So
which keys an operation makes, in which order, and so which products it
adds in which order, follow from the keys of its inputs alone.  The work
of `a`, `b` and a word plan's kernels can therefore be recorded once on
registers instead of numbers, as scalar operations, and replayed on every
later call: the same floating-point operations on the same operands in
the same order give the same values, bit for bit (Python has no fused
multiply-add, so ``r += x * y`` rounds as ``r = r + (x * y)``).  This is
operator-overloading taping, as in ADOL-C (Griewank & Walther,
*Evaluating Derivatives*, ch. 6).

One register class, ``_Register``, records every tape.  A register
carries its value at the call being recorded, computed as the route that
the tape replaces computes it, so a recording does what that route does
and gives its values.  ``+``, ``-`` and ``*`` of a register with a
register or an exact ``int``, ``float`` or ``complex``, and unary ``-``,
are lines of the tape.  The register operations that only the jets make
are the recorder's kernels: the product of two series, which adds each
product of two registers to its running sum in place (``s += x * y``),
and a reciprocal's test of its divisor and its ``1.0 / f0``.

A tape of a word plan of order 1 or more, or of the coefficient bound's
partials, runs ``CoefficientField._run``, which is `a` and `b` on jets and
then what a plan makes of those jets (a word plan runs its kernels), with
a register for each entry of ``(t, u)`` as the jets' values and as their
base point; jets on that base point multiply by the recorder's product
kernel.  What the lambdas or the jets raise while recorded propagates, as
``_run`` on numbers raises it, and every call records them again.
The one test of a value is ``Jet.reciprocal``'s test of its divisor for
zero.  A divisor found nonzero becomes the tape's one kind of guard: a
line right before the division that stops the replay where the divisor
is zero, and the call then runs ``_run`` on numbers, which raises the
jets' ``ZeroDivisionError`` or gives what the lambdas make of it if they
catch it.  A divisor found zero while recording raises that error too;
if the lambdas catch it, the recording is refused (see below), since a
tape follows one branch only.  The recording becomes one
straight-line Python function from ``(t, u_1, ..., u_m)`` to the plan's
values, whose registers are locals and which does the recorded
operations in order.  An operation
on constants alone is done while recording, as the jets do it.
Constants that meet a register enter the replay as arguments, never as
source text (``repr`` loses the sign of -0.0 and is not a literal for
nan or inf), so fields that differ only in their constants share one
compiled function.  A field records a word plan at its first call and
replays that tape on every later one; it keeps the tapes of the
``TAPE_CACHE_SIZE`` plans it used last.  ``estimate_coefficient_bound``
records its own plan, ``stepping._Partials``, once per call, at the
grid's first point, by the same ``_record``, and replays it at every
point by ``_replay``: its values are every coefficient of every
component jet of `a` and `b`, times its factorial scale.

A word plan of order 0 takes no derivatives: its values are `a` and `b`
on plain numbers, a tape of order 0.  It is recorded on registers
handed to the lambdas themselves, with no jets, and the tape
does exactly the operations the lambdas do, with no jet sums and no
``0.0 +``.  The registers stand for the values of the numbers route
(``CoefficientField._on_numbers``): the complex `t` and state, Python
complex numbers as on jets, and what the lambdas make of them.  The
replay does the same Python operations on the same Python numbers, so it
gives that route's values by construction, on any Python version.  A
table of policy (1,1) evaluates the plan of `a` and then `b` themselves,
``_PAIR``, and the RK4 oracle's generated step calls that plan's tape at
each stage, so the two share one tape per field.

`a` and `b` see Python complex numbers on every route, or jets of them,
and no step reads numpy's error state.  A Python operation that fails
inside them raises its own ``ArithmeticError`` at every plan order: a
zero divisor raises ``ZeroDivisionError`` on numbers, as the jets'
reciprocal does, and an overflowing complex ``**`` raises
``OverflowError`` on numbers (a jet's ``**`` is repeated products, which
overflow to a value that is not finite).  A value that is not finite
makes the step raise ``NumericStepError``.  ``float()`` of a state
component, and indexing one, raise ``TypeError`` on numbers as on jets.
``solve`` names the step in each ``ArithmeticError`` and
``NumericStepError``.

Any other use of a register refuses the recording: ``/`` and ``**``,
comparisons and truth tests, ``complex()``, ``float()``, ``abs()``,
attribute reads, operands of another type (numpy scalars included: a
captured ``np.float64`` times a complex number is numpy's operation, not
Python's), and inside jets a read of a coefficient that is a register
(``Jet.value``, ``coeffs``, ``coefficient``, or the base point).  The
jets' own division goes through the recorder's kernels.  A refused
register goes on as the plain value it stands for, and so does every
operation after the refusal, so the recording's call ends as the route
the tape replaces would, with its values, calling `a` and `b` once.  The
field keeps None for the plan: its later calls take that route
(``_on_numbers`` for a plan of order 0, ``_run`` on numbers for any
other), and no call records it again.  Lambdas that raise on the
registers of a plan of order 0 (numpy's ufuncs take none, and a zero
divisor raises) refuse the recording too, and the call runs
``_on_numbers``, which raises again or not.  The one use a register
cannot see is ``type()``: lambdas that test the exact type of a register
handed to them (``type(x) is complex``) take, while recorded, the branch
of a type that is not complex, and the tape keeps it; an ``isinstance``
test refuses the recording instead.

A field calls `a` and `b` in one place, ``CoefficientField._pair``: `a`
and then `b`, each once per point, on its own list of the state, with its
length checked right after its call.  An oscillator mean that
``absorb_mean`` folded into the field is added there as ``a + mean * b``,
from the `b` just computed.  Each component is then converted by the
route's function: ``_as_complex`` on numbers, and on jets a lambda that
makes a constant a jet of the point.
Three routes lead to it.  A recording of order 0 gives both on
registers.  ``CoefficientField._on_numbers`` gives both on plain numbers,
the complex `t` and state: it is the fallback of a plan of order 0 and
of the RK4 oracle, for fields whose recording was refused.
``CoefficientField._on_jets`` gives both on one set of jets of ``(t, u)``
for ``_run``: on registers while a tape is recorded, and on numbers where
no tape serves, for every word plan of higher order and for the
coefficient bound's partials at every order.  Jets of order 0 would
differ from the plain numbers in the last bits (``u ** -2`` of the power
field, for one).  Each caller checks the state's shape once.
"""

from __future__ import annotations

import cmath
import numbers
import operator
import weakref
from functools import lru_cache, partial
from math import copysign, factorial, isfinite, sqrt
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import JetMismatchError, JetOrderError

__all__ = [
    "Jet",
    "CoefficientField",
    "operator_values",
    "WordPlan",
    "make_field",
    "builtin_field",
    "BUILTIN_FIELDS",
]


# Bits per multi-index component.  Components of two keys of degree at most
# _MAX_ORDER sum to at most 2 * _MAX_ORDER < 2**_BITS, so adding keys never
# carries from one component into the next.
_BITS = 16
_MASK = (1 << _BITS) - 1
_MAX_ORDER = (1 << (_BITS - 1)) - 1

# tapes kept on one field, one per word plan
TAPE_CACHE_SIZE = 8


def _integral(x) -> bool:
    """Whether `x` is an integer: a real number, not a bool, finite and
    whole (integral floats included)."""
    return (isinstance(x, numbers.Real) and not isinstance(x, bool)
            and isfinite(x) and x == int(x))


def _key(x) -> tuple | None:
    """`x` in the key of a memo that keeps its last call: ``(type, x,
    sign)``, or None for an `x` that no memo keeps.  -0.0 and 0.0, or 2
    and 2.0, are equal numbers whose results differ in sign or type, so
    their keys differ; the type is compared first, since an `x` of another
    type may compare elementwise.  A 0-d real array, which has no hash,
    has the key ``(type, dtype, value, sign)``, so an array changed in
    place gets a new one.  Any other `x` with no hash or no float sign,
    such as a complex number, has no key."""
    try:
        hash(x)
        return (type(x), x, copysign(1.0, x))
    except TypeError:
        if isinstance(x, np.ndarray) and x.shape == () and x.dtype.kind in "iuf":
            return (type(x), x.dtype, x.item(), copysign(1.0, x))
        return None


def _jet_order(order) -> int:
    """`order` as an int, if it is an integer from 0 to ``_MAX_ORDER``."""
    if not (_integral(order) and order >= 0):
        raise ValueError(f"jet order must be an integer >= 0, got {order!r}")
    if order > _MAX_ORDER:
        raise ValueError(f"jet order {order} exceeds {_MAX_ORDER}")
    return int(order)


@lru_cache(maxsize=4096)
def _pack(alpha: tuple, nvars: int) -> int | None:
    """The packed key of a multi-index, or None if no jet can store it."""
    if len(alpha) != nvars or not all(a == int(a) and 0 <= a <= _MASK for a in alpha):
        return None
    key = int(sum(alpha)) << (_BITS * nvars)
    for i, a in enumerate(alpha):
        key |= int(a) << (_BITS * i)
    return key


@lru_cache(maxsize=4096)
def _unpack(key: int, nvars: int) -> tuple[int, ...]:
    return tuple((key >> (_BITS * i)) & _MASK for i in range(nvars))


# -- kernels on packed-key dicts ----------------------------------------------

def _mul(x: dict, y: dict, cap: int) -> dict:
    """The product of two series, without keys at or above `cap`; each key
    that a product formed is kept, whatever its value."""
    out = {}
    get = out.get
    theirs = y.items()
    for ka, ca in x.items():
        room = cap - ka
        for kb, cb in theirs:
            if kb < room:
                key = ka + kb
                out[key] = get(key, 0.0) + ca * cb
    return out


def _partial(x: dict, shift: int, unit: int, cap: int) -> dict:
    """d/dx of a series, where x sits at bit `shift` and has the unit key
    `unit`; only keys below `cap` are differentiated, so the result is that
    of the series truncated there first."""
    out = {}
    for k, c in x.items():
        n = (k >> shift) & _MASK
        if n and k < cap:
            out[k - unit] = c * n
    return out


def _add(x: dict, y: dict) -> dict:
    """The sum of two series, made in `x` and returned; a key new to `x`
    gets ``0.0 + c``, as a sum started from 0.0 would."""
    get = x.get
    for k, c in y.items():
        x[k] = get(k, 0.0) + c
    return x


@lru_cache(maxsize=64)
def _units(nvars: int) -> tuple[tuple[int, int], ...]:
    """``(shift, unit key)`` of each variable, as `_partial` takes them."""
    top = _BITS * nvars
    return tuple((_BITS * i, (1 << top) | (1 << (_BITS * i))) for i in range(nvars))


class Jet:
    """Taylor coefficients of one scalar quantity about a base point.

    ``coeffs[alpha]`` is the Taylor coefficient ``D^alpha f / alpha!``; the
    derivative itself is recovered by :meth:`derivative`.  Addition and
    multiplication require matching base point, order and variable count;
    multiplication truncates products beyond the stored total degree.
    Orders are integers from 0 to 32767; any other raises ValueError.
    """

    __slots__ = ("base", "order", "nvars", "_terms")

    def __init__(self, base, order, coeffs):
        if not (type(base) is tuple and all(type(x) is complex for x in base)):
            base = tuple(complex(x) for x in base)
        self.base = base
        self.nvars = len(base)
        self.order = _jet_order(order)
        terms = {}
        for alpha, c in coeffs.items():
            key = _pack(tuple(alpha), self.nvars)
            if key is None:
                raise ValueError(f"multi-index {alpha!r} does not fit {self.nvars} variables")
            if c != 0:
                terms[key] = complex(c)
        self._terms = terms

    def _like(self, terms: dict, order: int | None = None) -> "Jet":
        """A jet on this one's base point from already packed, complex
        `terms`, as the kernels make them."""
        out = object.__new__(Jet)
        out.base, out.nvars, out._terms = self.base, self.nvars, terms
        out.order = self.order if order is None else order
        return out

    def _constant(self, value) -> "Jet":
        """The jet of `value` on this one's base point and order."""
        value = complex(value)
        return self._like({0: value} if value != 0 else {})

    @classmethod
    def variable(cls, index, base, order):
        """The jet of the coordinate ``x_index`` itself."""
        origin = cls(base, order, {})
        return origin._variable(index, origin.base[index])

    def _variable(self, index: int, x) -> "Jet":
        """The jet of ``x_index``, whose value is `x`, on this one's base
        point and order."""
        terms = {0: x}
        if self.order >= 1:
            terms[(1 << (_BITS * self.nvars)) | (1 << (_BITS * index))] = 1.0 + 0.0j
        return self._like(terms)

    @property
    def coeffs(self) -> dict[tuple[int, ...], complex]:
        """The Taylor coefficients keyed by multi-index tuples: every key
        that an operation formed, exact zeros included, so ``(1 + x) *
        (1 - x)`` at order 1 has ``{(0,): 1, (1,): 0j}``.  Only a zero
        number, given to the constructor or as a constant, makes no key."""
        return {_unpack(k, self.nvars): _read(c) for k, c in self._terms.items()}

    @property
    def value(self) -> complex:
        return _read(self._terms.get(0, 0.0 + 0.0j))

    def coefficient(self, alpha) -> complex:
        key = _pack(tuple(alpha), self.nvars)
        return 0.0 + 0.0j if key is None else _read(self._terms.get(key, 0.0 + 0.0j))

    def derivative(self, alpha) -> complex:
        """The mixed partial derivative D^alpha f at the base point."""
        scale = 1
        for a in alpha:
            scale *= factorial(a)
        return self.coefficient(alpha) * scale

    def partial(self, index: int) -> "Jet":
        """d/dx_index as a jet of one order lower."""
        if self.order < 1:
            raise JetOrderError("cannot differentiate an order-0 jet")
        if not 0 <= index < self.nvars:
            raise IndexError(f"jet has no variable {index}")
        cap = (self.order + 1) << (_BITS * self.nvars)
        return self._like(_partial(self._terms, *_units(self.nvars)[index], cap),
                          self.order - 1)

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Jet"):
        if self.order != other.order or self.base != other.base:
            raise JetMismatchError(
                "jets disagree in base point or order: "
                f"{self.base}/{self.order} vs {other.base}/{other.order}"
            )

    def _coerce(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return other
        return self._constant(other)

    def __add__(self, other):
        return self._like(_add(dict(self._terms), self._coerce(other)._terms))

    __radd__ = __add__

    def __neg__(self):
        return self._like({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return self._scale(other)
        self._check(other)
        return self._like(_product(self.base)(self._terms, other._terms,
                                              (self.order + 1) << (_BITS * self.nvars)))

    __rmul__ = __mul__

    def _scale(self, n) -> "Jet":
        """This jet times the number `n`; while recorded, a product that
        is a register stays one."""
        return self._like({k: v if type(v := c * n) is _Register else complex(v)
                           for k, c in self._terms.items()})

    def reciprocal(self) -> "Jet":
        f0 = self._terms.get(0, 0.0 + 0.0j)
        rec = f0._rec if type(f0) is _Register else None
        if (rec.guard(f0) if rec else f0 == 0):
            raise ZeroDivisionError("jet with zero value has no reciprocal")
        # 1/f = (1/f0) * sum_k (1 - f/f0)^k; the bracket is nilpotent.
        one = self._like({0: 1.0 + 0.0j})
        rest = one - self._scale(rec.inverse(f0) if rec else 1.0 / f0)
        out = power = one
        for _ in range(self.order):
            power = power * rest
            out = out + power
        return out._scale(rec.inverse(f0) if rec else 1.0 / f0)

    def __truediv__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return self * other.reciprocal()
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, exponent):
        if not isinstance(exponent, numbers.Integral):
            raise TypeError("jet powers must use integer exponents")
        if exponent < 0:
            return self.reciprocal() ** (-exponent)
        out = self._like({0: 1.0 + 0.0j})
        for _ in range(exponent):
            out = out * self
        return out

    def __repr__(self):
        return f"Jet(base={self.base}, order={self.order}, terms={len(self._terms)})"


def _as_complex(x) -> complex:
    """A component of `a` or `b` on numbers as a complex number: a jet that
    the lambdas made of constants gives its value."""
    return x.value if isinstance(x, Jet) else complex(x)


class CoefficientField:
    """The pair of coefficient functions a(t, u), b(t, u) of dimension m.

    `a` and `b` are callables ``(t, u) -> sequence of m scalars`` written
    over abstract arithmetic, so the same definition evaluates on plain
    complex numbers and on jets.

    They are called in one place, :meth:`_pair`, each once per point, and
    reached three ways: on registers, to record a plan of order 0 (which
    the RK4 oracle's stages evaluate too); :meth:`_on_numbers` on
    complex numbers, the fallback of those plans where their recording
    was refused; and :meth:`_on_jets` on one set of
    jets of ``(t, u)``, for :meth:`_run`, which the word plans of higher
    order and the coefficient bound run.  Each caller checks the state
    with :meth:`_state` first.  The oscillator means that
    :func:`absorb_mean` folded in are added to `a` there, as
    ``a + mean * b`` in the order they were absorbed.

    They must be functions of ``(t, u)`` alone.  The field records them,
    with a word plan's kernels, as one tape per plan (see the module
    docstring), with every constant they capture baked in, and replays it
    on later calls without calling them.  One register class records every
    plan: a plan of order 0 hands the registers to the lambdas, and any
    other plan runs :meth:`_run` on jets of registers.  Any use of a
    register that a tape cannot follow refuses the recording, whose call
    goes on with plain values; only a plan whose recording was refused
    runs :meth:`_on_numbers` or :meth:`_run` on numbers on later calls.
    The field also keeps
    the values of its last call through :meth:`_values`: a step and
    `operator_values`.  A call with the same
    word plan, the same time, of the same type and sign (-0.0 and 0.0, or
    0 and 0.0, differ), and a state of the same bytes gets them without
    running the tape nor, for a refused plan, the lambdas themselves: the
    K phases of an ensemble and the phase-averaged step share one plan,
    the table's, whose coefficient plan also gives the phase averages as
    the Z^0 prefix of its binding, so they evaluate once.  A 0-d real
    array `t` is kept by its type, dtype, value and sign, so an array
    changed in place is evaluated again.  A time with no such key, such as a complex number or an array
    of one or more dimensions, and a call that raises leave the memo as it
    was.  The steps of a solve, whose time
    moves on every step, call :meth:`_evaluate` and neither read nor fill
    the memo.  A caller whose parameters change builds a new field.
    """

    def __init__(self, m: int, a: Callable, b: Callable, name: str = "custom"):
        if not (_integral(m) and m >= 1):
            raise ValueError(f"field dimension must be an integer >= 1, got {m!r}")
        self.m = int(m)
        self._a = a
        self._b = b
        # oscillator means folded into a, as a + mean * b, in order
        self._means: tuple[complex, ...] = ()
        self.name = name
        # the tape of each word plan, the one used last last; None for a
        # plan whose recording was refused
        self._tapes: dict[WordPlan, Callable | None] = {}
        # the last call: ((plan, key of t, state bytes), values)
        self._last: tuple = (None, None)

    def _state(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=complex)
        if u.shape != (self.m,):
            raise ValueError(f"state must have shape ({self.m},), got {u.shape}")
        return u

    def _pair(self, t, u: list, convert) -> tuple[list, list]:
        """`a` and `b` at ``(t, u)``: `a` called once, then `b`, each on its
        own copy of the list `u` and its length checked right after, then
        each absorbed mean added to `a` as ``a + mean * b``, and every
        component made what `convert` makes of it."""
        a = list(self._a(t, list(u)))
        if len(a) != self.m:
            raise ValueError("coefficient function returned wrong dimension")
        b = list(self._b(t, list(u)))
        if len(b) != self.m:
            raise ValueError("coefficient function returned wrong dimension")
        for mean in self._means:
            a = [ai + mean * bi for ai, bi in zip(a, b)]
        return list(map(convert, a)), list(map(convert, b))

    def _on_numbers(self, base: tuple) -> list[complex]:
        """`a` and then `b` on plain numbers at the base point `base`,
        ``(t, u_1, ..., u_m)`` of complex numbers, in one list of complex
        numbers.  The lambdas see those complex numbers themselves, and
        what Python's complex arithmetic raises propagates."""
        a, b = self._pair(base[0], base[1:], _as_complex)
        return a + b

    def _on_jets(self, origin: Jet, values) -> tuple[list[Jet], list[Jet]]:
        """`a` and `b` on the jets of ``(t, u)`` on `origin`'s base point and
        order, whose values are `values`; every component made a jet.  The
        jets are made once, for both functions."""
        tj, *uj = (origin._variable(i, x) for i, x in enumerate(values))
        return self._pair(tj, uj, lambda v: v if isinstance(v, Jet) else origin._constant(v))

    def _run(self, plan, origin: Jet, values) -> list:
        """`a` and `b` on the jets of ``(t, u)`` on `origin`'s base point and
        order, whose values are `values`, and then what `plan` makes of
        them: its ``_apply(m, a, b, mul)`` of their packed-key dicts, with
        `mul` the jets' product kernel.  `plan` is a word plan of order 1 or
        more, whose values are one per pair and component, or the
        coefficient bound's ``stepping._Partials``.  A recording runs this
        on registers, and a plan whose recording was refused on numbers."""
        a, b = self._on_jets(origin, values)
        return plan._apply(self.m, [j._terms for j in a], [j._terms for j in b],
                           _product(origin.base))

    def _values(self, plan: WordPlan, t, u: np.ndarray) -> list[complex]:
        """`plan`'s values at ``(t, u)``, one per pair and component, for a
        state `u` that `_state` has checked, in the memo's own list, which
        the caller must not change.  They come from the memo, or else from
        `_evaluate`, and are kept unless `t` has no `_key`."""
        key = (plan, _key(t), u.tobytes())
        last, kept = self._last
        if key == last:
            return kept
        values = self._evaluate(plan, t, u.tolist())
        if key[1]:
            self._last = (key, values)
        return values

    def _evaluate(self, plan: WordPlan, t, u: list) -> list[complex]:
        """`plan`'s values at ``(t, u)``, one complex number per pair and
        component, for a state given as a list of complex numbers, with no
        memo: from this field's tape for `plan`, or from the route that
        the tape follows where it has none."""
        base = (complex(t), *u)
        tape, values = self._tape(plan, base)
        return self._replay(plan, tape, base) if values is None else values

    def _tape(self, plan, base: tuple) -> tuple:
        """This field's tape for `plan` and None; or, for a plan it has no
        tape of, the tape that `_record` makes at the base point `base` and
        the values that recording gave.  The field keeps the tapes of the
        `TAPE_CACHE_SIZE` plans it used last."""
        tapes = self._tapes
        if plan in tapes:
            tape, values = tapes.pop(plan), None
        else:
            tape, values = self._record(plan, base)
        tapes[plan] = tape
        if len(tapes) > TAPE_CACHE_SIZE:
            del tapes[next(iter(tapes))]
        return tape, values

    def _replay(self, plan, tape, base: tuple) -> list:
        """`plan`'s values at the base point `base` from `tape`, a recording
        of `plan` by `_record`.  A refused recording (None), and a replay
        stopped by a zero divisor, run the route that the tape replaces,
        whose values the registers stood for: `_on_numbers` for a word
        plan of order 0, and `_run` on numbers for any other plan."""
        if tape is not None:
            try:
                return tape(base)
            except ZeroDivisionError:
                # a guard found its divisor zero: the jets raise there, or
                # the lambdas catch it
                pass
        if _on_plain_numbers(plan):
            return plan._pick(self._on_numbers(base), self.m)
        return self._run(plan, Jet(base, plan.order, {}), base)

    def _record(self, plan, base: tuple) -> tuple:
        """A tape of `plan`, recorded at the base point `base`, or None if
        the recording was refused, and `plan`'s values at `base`.

        The registers stand for the entries of `base`, the values of the
        route that `_replay` takes where there is no tape, and compute
        them as it does, so the recording gives that route's values,
        refused or not, and calls `a` and `b` once, as that route does.
        A word plan of order 0 is recorded on registers handed to the
        lambdas; if the lambdas raise on them, the recording is refused
        and gives no values.  Any other plan is recorded by `_run` on jets
        whose coefficients are registers and whose base point is the input
        registers, and what the lambdas or the jets raise there
        propagates, as `_run` on numbers would raise it."""
        rec = _Recorder()
        inputs = [_Register(rec, f"x{i}", x) for i, x in enumerate(base)]
        if _on_plain_numbers(plan):
            try:
                a, b = self._pair(inputs[0], inputs[1:],
                                  lambda v: v if type(v) is _Register else _as_complex(v))
            except Exception:
                return None, None
            values = plan._pick(a + b, self.m)
        else:
            origin = Jet((), plan.order, {})
            origin.base, origin.nvars = tuple(inputs), self.m + 1
            values = self._run(plan, origin, inputs)
        tape = None if rec.failed else rec.compile(inputs, values)
        # a number among the outputs is already complex
        return tape, [complex(x._value) if type(x) is _Register else x for x in values]


def absorb_mean(fld: CoefficientField, meanv: complex) -> CoefficientField:
    """Fold a removed oscillator mean into the drift: a -> a + <v> b.

    The result is a fresh field with the same `a` and `b` that adds
    ``<v> b`` to `a` from the `b` it computes anyway (see
    :meth:`CoefficientField._pair`), after any mean `fld` already
    absorbed.  A zero mean returns `fld` itself."""
    if complex(meanv) == 0:
        return fld
    out = CoefficientField(fld.m, fld._a, fld._b, name=fld.name + "+mean")
    out._means = (*fld._means, complex(meanv))
    return out


class WordPlan:
    """Compiled evaluation of ``L^{w_1} ... L^{w_n}`` applied to `a` or `b`
    for every ``(target, op_word)`` of `pairs` (see :func:`operator_values`).

    Compiling finds every sub-word jet the pairs need and the order it
    keeps: only what the longest word built on it still consumes.  The
    result is a flat list of instructions ``(parent slot, letter is L0,
    order, coefficient base)``, shorter words first; slots 0 and 1 hold the
    field's `a` and `b` jets.  Each coefficient base is `a` or `b`
    truncated to one order.  The derivative of the parent is capped one
    order above the result, which does what truncating the parent would.

    A plan is a value of its pairs alone: it keeps no field and no call.
    :func:`_plan` gives every table and every :func:`operator_values` call
    with the same pairs one plan while any of them holds it, so a field
    records one tape for all of them.  A field evaluates a plan with
    :meth:`CoefficientField._values`, or :meth:`CoefficientField._evaluate`
    where no memo is kept.
    """

    __slots__ = ("order", "bases", "program", "outputs", "__weakref__")

    def __init__(self, pairs):
        pairs = tuple((target, tuple(word)) for target, word in pairs)
        need: dict[tuple, int] = {}
        for target, word in pairs:
            if target not in ("a", "b"):
                raise ValueError("target must be 'a' or 'b'")
            for w in word:
                if w not in ("L0", "L1"):
                    raise ValueError(f"unknown operator letter {w!r}")
            for i in range(len(word) + 1):
                key = (target, word[i:])
                need[key] = max(need.get(key, 0), i)
        self.order = max((len(word) for _, word in pairs), default=0)
        slots = {("a", ()): 0, ("b", ()): 1}
        bases: list[tuple[str, int]] = []
        program = []
        for target, word in sorted(need, key=lambda s: len(s[1])):
            if not word:
                continue
            r = need[target, word]
            base = ("a" if word[0] == "L0" else "b", r)
            if base not in bases:
                bases.append(base)
            program.append((slots[target, word[1:]], word[0] == "L0", r, bases.index(base)))
            slots[target, word] = 1 + len(program)
        self.bases = tuple(bases)
        self.program = tuple(program)
        self.outputs = tuple(slots[pair] for pair in pairs)

    def _apply(self, m: int, a: list[dict], b: list[dict], mul: Callable) -> list:
        """The plan's values from the base jets `a` and `b`, packed-key
        dicts, one per component: each output slot's jets' values, found
        by running the kernels over every slot, with `mul` for `_mul`."""
        units = _units(m + 1)
        top = _BITS * (m + 1)
        caps = [(r + 1) << top for r in range(self.order + 1)]
        bases = [[{k: c for k, c in x.items() if k < caps[r]} for x in (a if target == "a" else b)]
                 for target, r in self.bases]
        slots = [a, b]
        for parent, l0, r, base in self.program:
            cap, below = caps[r + 1], caps[r]
            out = []
            for f in slots[parent]:
                g = _partial(f, *units[0], cap) if l0 else None
                for j, cj in enumerate(bases[base], 1):
                    term = mul(cj, _partial(f, *units[j], cap), below)
                    g = term if g is None else _add(g, term)
                out.append(g)
            slots.append(out)
        # a value missing from a jet is zero
        return [x.get(0, 0.0 + 0.0j) for i in self.outputs for x in slots[i]]

    def _pick(self, ab: list, m: int) -> list:
        """The values of a plan of order 0, whose every pair is `a` or `b`
        itself, from the list of `a` and then `b`, `m` components each."""
        return [x for i in self.outputs for x in ab[i * m:i * m + m]]


# -- generated functions --------------------------------------------------------

# terms per statement of a generated sum, well below the few thousand at
# which CPython's compiler overflows its recursion limit
_SUM_TERMS = 200


def _summed(name: str, parts: list[str]) -> list[str]:
    """Statements that set `name` to the sum of the expressions `parts`,
    added left to right: the first ``_SUM_TERMS`` of them, then `name`
    plus each next ``_SUM_TERMS``."""
    return [f"{name} = {f'{name} + ' if i else ''}{' + '.join(parts[i:i + _SUM_TERMS])}"
            for i in range(0, len(parts), _SUM_TERMS)]


def _function(signature: str, lines: list[str]) -> Callable:
    """The function ``def signature:`` whose body is `lines`, compiled
    once per source text."""
    return _compiled("\n    ".join([f"def {signature}:", *lines]))


# every generated function by its source: tapes, coefficient plans, step
# sums, RK4 steps and oscillators
@lru_cache(maxsize=192)
def _compiled(source: str) -> Callable:
    """The one function that `source` defines, which may call
    ``isfinite``, the complex one, and ``sqrt``, the real one."""
    namespace = {"isfinite": cmath.isfinite, "sqrt": sqrt}
    exec(compile(source, "<generated>", "exec"), namespace)
    return namespace[source[4:source.index("(")]]


# -- tapes ----------------------------------------------------------------------

_NUMBERS = (int, float, complex)


class _Recorder:
    """Records scalar operations on registers, and the tests of divisors
    for zero, as lines of Python source, and compiles them into one
    straight-line function (see the module docstring).  Its kernels are
    the register operations that only the jets make: the product of two
    series, and a reciprocal's test of its divisor and ``1.0 / f0``.
    `failed` marks a refused recording, after which every operation gives
    a plain value."""

    def __init__(self):
        self.lines: list[str] = []
        # float, int and complex operands by id, with their local names
        self.constants: dict[int, tuple[str, object]] = {}
        self.failed = False

    def emit(self, expression: str, value):
        """A register for `expression`, whose value is `value`: the same
        operation on the operands' values; or `value` itself once the
        recording is refused."""
        if self.failed:
            return value
        name = f"r{len(self.lines)}"
        self.lines.append(f"{name} = {expression}")
        return _Register(self, name, value)

    def operand(self, x) -> str:
        """`x` in a line: a register's name, or the local by which an int,
        float or complex enters the replay (``repr`` loses the sign of
        -0.0 and is not a literal for nan or inf)."""
        if type(x) is _Register:
            return x._name
        entry = self.constants.get(id(x))
        if entry is None:
            entry = self.constants[id(x)] = (f"k{len(self.constants)}", x)
        return entry[0]

    def mul(self, x: dict, y: dict, cap: int) -> dict:
        """`_mul` on recorded coefficients.  The product of two registers
        is added to its key's running sum, which nothing else reads, in
        place, as the line ``s += x * y``, or after a number `c` starts
        it as ``s = c + x * y``."""
        out = {}
        get = out.get
        theirs = y.items()
        for ka, ca in x.items():
            room = cap - ka
            for kb, cb in theirs:
                if kb < room:
                    key = ka + kb
                    s = get(key, 0.0)
                    if type(ca) is not _Register or type(cb) is not _Register:
                        out[key] = s + ca * cb
                    elif type(s) is _Register:
                        self.lines.append(f"{s._name} += {ca._name} * {cb._name}")
                        s._value = s._value + ca._value * cb._value
                    else:
                        out[key] = self.emit(f"{self.operand(s)} + {ca._name} * {cb._name}",
                                             s + ca._value * cb._value)
        return out

    def guard(self, r: "_Register") -> bool:
        """Whether `r`, a reciprocal's divisor, is zero.  Found nonzero,
        the test becomes a guard line of the replay, which stops there if
        `r` is zero; found zero, the jets raise, and the recording is
        refused, in case the lambdas catch that: a tape follows one branch
        only."""
        if r._value == 0:
            self.failed = True
            return True
        # registers hold complex numbers, for which `not r` is `r == 0`
        self.lines.append(f"if not {r._name}: raise ZeroDivisionError")
        return False

    def inverse(self, r: "_Register"):
        """``1.0 / r`` for a divisor `r` that `guard` found nonzero."""
        return self.emit(f"{self.operand(1.0)} / {r._name}", 1.0 / r._value)

    def compile(self, inputs: list, values: list):
        """The tape: the recorded lines compiled as ``replay(K, x)``, which
        unpacks the constants `K` and the base point `x` into the registers
        `inputs` and runs the lines, guards included, then returns `values`;
        bound to this recording's constants, so that it takes `x` alone."""
        result = f"[{', '.join(map(self.operand, values))}]"
        constants = self.constants.values()
        return partial(_function("replay(K, x)", [
            f"[{', '.join(r._name for r in inputs)}] = x",
            f"[{', '.join(name for name, _ in constants)}] = K",
            *self.lines,
            f"return {result}"]), tuple(x for _, x in constants))


def _read(x):
    """A jet's coefficient `x` as the lambdas read it: a number.  A tape
    cannot follow code that reads a register, so reading one refuses the
    recording and gives its value."""
    if type(x) is _Register:
        x._rec.failed = True
        return x._value
    return x


def _product(base: tuple) -> Callable:
    """The product kernel of jets on the base point `base`: the recorder's
    `mul` if `base` is a recording's input registers, else `_mul`."""
    return base[0]._rec.mul if base and type(base[0]) is _Register else _mul


def _refused(op: Callable, reflected: bool = False) -> Callable:
    """A method of `_Register` that refuses the recording and gives what
    `op` gives on the plain values, the register's own after the others'
    if `reflected`.  It refuses before `op` runs, in case `op` raises and
    the lambdas catch that."""
    def method(self, *others):
        self._rec.failed = True
        others = [x._value if type(x) is _Register else x for x in others]
        return op(*others, self._value) if reflected else op(self._value, *others)
    return method


class _Register:
    """A register while a tape is recorded: an entry of ``(t, u_1, ...,
    u_m)``, or what an operation made of registers, with its value at the
    call being recorded, computed as the route the tape follows computes
    it.  Handed to the lambdas of a plan of order 0, a register stands for
    the numbers route's own object: the complex `t`, a complex component
    of the state, or what the lambdas made of them.  Inside jets it is a
    coefficient, also a Python complex number.

    ``+``, ``-`` and ``*`` with a register or an exact int, float or
    complex, and unary ``-``, give a register and a line of the tape.  Any
    other use refuses the recording and gives what the value gives:
    ``/``, ``**``, comparisons, truth tests, ``complex()``, ``float()``,
    ``abs()``, hashing, attribute reads (``__getattr__``), ``isinstance``
    tests that its own type fails (``__class__``), and operands of any
    other type, numpy scalars included (``__array_ufunc__ = None`` makes
    numpy hand its operators to this class's reflected ones).  After a
    refusal every operation gives the plain value, so the call being
    recorded ends as it would on the route the tape follows, with the same
    values.  The operators it lacks
    (``//``, ``%``, ``@``, bitwise ones) raise TypeError, as they do on
    Python's complex numbers."""

    __slots__ = ("_rec", "_name", "_value")

    __array_ufunc__ = None

    def __init__(self, rec: _Recorder, name: str, value):
        self._rec, self._name, self._value = rec, name, value

    # the binary methods, each written out for its two operands: a factory
    # of them, calling the `operator` functions, made the README suite's
    # recordings about 1 % slower.  Only a non-register reaches a
    # reflected one.
    def __add__(self, other):
        rec = self._rec
        if type(other) is _Register:
            return rec.emit(f"{self._name} + {other._name}", self._value + other._value)
        if type(other) in _NUMBERS:
            return rec.emit(f"{self._name} + {rec.operand(other)}", self._value + other)
        rec.failed = True
        return self._value + other

    def __radd__(self, other):
        rec = self._rec
        if type(other) in _NUMBERS:
            return rec.emit(f"{rec.operand(other)} + {self._name}", other + self._value)
        rec.failed = True
        return other + self._value

    def __sub__(self, other):
        rec = self._rec
        if type(other) is _Register:
            return rec.emit(f"{self._name} - {other._name}", self._value - other._value)
        if type(other) in _NUMBERS:
            return rec.emit(f"{self._name} - {rec.operand(other)}", self._value - other)
        rec.failed = True
        return self._value - other

    def __rsub__(self, other):
        rec = self._rec
        if type(other) in _NUMBERS:
            return rec.emit(f"{rec.operand(other)} - {self._name}", other - self._value)
        rec.failed = True
        return other - self._value

    def __mul__(self, other):
        rec = self._rec
        if type(other) is _Register:
            return rec.emit(f"{self._name} * {other._name}", self._value * other._value)
        if type(other) in _NUMBERS:
            return rec.emit(f"{self._name} * {rec.operand(other)}", self._value * other)
        rec.failed = True
        return self._value * other

    def __rmul__(self, other):
        rec = self._rec
        if type(other) in _NUMBERS:
            return rec.emit(f"{rec.operand(other)} * {self._name}", other * self._value)
        rec.failed = True
        return other * self._value

    def __neg__(self):
        return self._rec.emit(f"-{self._name}", -self._value)

    __truediv__, __pow__ = map(_refused, (operator.truediv, pow))
    __rtruediv__, __rpow__ = (_refused(op, reflected=True) for op in (operator.truediv, pow))
    __eq__, __ne__, __lt__, __le__, __gt__, __ge__ = map(
        _refused, (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge))
    __pos__, __abs__, __bool__, __complex__, __float__, __int__ = map(
        _refused, (operator.pos, abs, bool, complex, float, int))
    __hash__, __str__, __repr__, __format__, __getitem__, __getattr__ = map(
        _refused, (hash, str, repr, format, operator.getitem, getattr))
    # `isinstance` asks this when the register's own type does not match
    __class__ = property(_refused(type))


# word plans in use, by their pairs
_PLANS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _plan(pairs) -> WordPlan:
    """The word plan of ``(target, op_word)`` `pairs`, one per list of
    pairs while it is in use."""
    pairs = tuple((target, tuple(word)) for target, word in pairs)
    plan = _PLANS.get(pairs)
    if plan is None:
        plan = _PLANS[pairs] = WordPlan(pairs)
    return plan


# the word plan of `a` and then `b` themselves: a table of policy (1,1)
# evaluates it, and so does the RK4 oracle at each stage
_PAIR = _plan([("a", ()), ("b", ())])


def _on_plain_numbers(plan) -> bool:
    """Whether `plan` runs `a` and `b` on plain numbers: a word plan of
    order 0, which takes no derivatives.  The coefficient bound's partials
    take jets at every order."""
    return type(plan) is WordPlan and plan.order == 0


def operator_values(field: CoefficientField,
                    pairs: Iterable[tuple[str, Sequence[str]]], t, u) -> dict:
    """Evaluate ``L^{w_1} ... L^{w_n}`` applied to `a` or `b` at ``(t, u)``
    for every ``(target, op_word)`` pair.

    Words are written operator-first: ``("L1", "L0")`` computes
    ``L1(L0(target))``, and an empty word gives the target itself.  All
    pairs share one set of base jets (of the longest word's order) and the
    jets of common sub-words, each truncated to the order still needed on
    top of it; truncation commutes with every jet operation, so the values
    are those of a full-order evaluation, bit for bit.  Calls with the same
    pairs share one word plan, and so one tape per field.  Returns
    ``{(target, op_word): values}`` with `op_word` as a tuple.
    """
    pairs = tuple(dict.fromkeys((target, tuple(word)) for target, word in pairs))
    values = field._values(_plan(pairs), t, field._state(u))
    return dict(zip(pairs, np.array(values, dtype=complex).reshape(-1, field.m)))


# -- built-in example fields -------------------------------------------------

def make_field(m: int, a: Callable, b: Callable, name: str = "custom") -> CoefficientField:
    return CoefficientField(m, a, b, name=name)


def _linear_field(mu=1.0):
    # a = u t, b = mu
    return make_field(1, lambda t, u: [u[0] * t], lambda t, u: [mu], name="linear")


def _nonlinear_field(alpha=1.0, mu=1.0):
    # a = alpha u, b = mu u^2
    return make_field(1, lambda t, u: [alpha * u[0]], lambda t, u: [mu * u[0] * u[0]],
                      name="nonlinear")


def _power_field(gamma=0):
    # a = 0, b = u^(1-gamma); integer gamma only (powers are repeated mul/div)
    if not isinstance(gamma, numbers.Integral):
        raise ValueError("power field requires integer gamma")
    expo = 1 - int(gamma)
    return make_field(1, lambda t, u: [0.0], lambda t, u: [u[0] ** expo],
                      name="power")


BUILTIN_FIELDS = {
    "linear": _linear_field,
    "nonlinear": _nonlinear_field,
    "power": _power_field,
}


def builtin_field(name: str, **params) -> CoefficientField:
    try:
        factory = BUILTIN_FIELDS[name]
    except KeyError:
        raise ValueError(f"unknown builtin field {name!r}; "
                         f"choices: {sorted(BUILTIN_FIELDS)}") from None
    return factory(**params)
