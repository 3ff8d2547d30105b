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
runs the kernels on the field's jets with no intermediate ``Jet`` objects.

The packing changes no arithmetic.  Every operation visits coefficients
in the same order as the plain tuple-keyed definition (dicts keep their
insertion order), starts each sum from 0.0 and adds products left to
right, so results match that definition bit for bit, signs of zero
included.  The CLI prints 17 significant digits and its README output is
locked byte for byte (``tests/readme_cli_golden.txt``); a reordered sum
would change those bytes.

A word plan does not run the kernels on every call; it replays a tape of
them.  The kernels drop a key only where a product sum or a sum is exactly
zero, and otherwise which keys they make, in which order, and so which
products they add in which order, follow from the key order of the base
jets `a` and `b` alone.  That key order is the tape's signature.  For each
signature the plan runs the kernels once on registers instead of numbers
and records a tape: a flat list of scalar operations, each a partial
``c * n``, a product sum's first term ``0.0 + x * y`` or a later one
``s + x * y``, or a sum ``x + y`` or ``0.0 + y``.  A replay on the next
call's base values does the same floating-point operations on the same
operands in the same order, so it gives the kernels' values bit for bit,
provided the kernels would have dropped no key.  A replay that leaves an
exact zero in a register is therefore thrown away and that call runs the
kernels: the zero is where they drop a key, and a kept zero can change a
later result (``1e-200 * 1e-200`` underflows to zero, and adding it turns
a coefficient of ``-0.7 - 0j`` into ``-0.7 + 0j``).  Plans of order 0 take
no derivatives and evaluate `a` and `b` on plain numbers, with numpy's
scalar arithmetic; jets of order 0 would differ from it in the last bits
(``u ** -2`` of the power field, for one).
"""

from __future__ import annotations

import numbers
from functools import lru_cache
from math import factorial, isfinite
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

# tapes kept on one WordPlan, one per key order of the base jets
TAPE_CACHE_SIZE = 8


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


def _nonzero(terms: dict) -> dict:
    """`terms` without exact zeros, which the constructor drops too."""
    if 0 in terms.values():
        return {k: c for k, c in terms.items() if c}
    return terms


# -- kernels on packed-key dicts ----------------------------------------------

def _mul(x: dict, y: dict, cap: int) -> dict:
    """The product of two series, without keys at or above `cap`."""
    out = {}
    get = out.get
    theirs = y.items()
    for ka, ca in x.items():
        room = cap - ka
        for kb, cb in theirs:
            if kb < room:
                key = ka + kb
                out[key] = get(key, 0.0) + ca * cb
    return _nonzero(out)


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
    """The sum of two series; `x` is updated in place and may be returned."""
    get = x.get
    for k, c in y.items():
        x[k] = get(k, 0.0) + c
    return _nonzero(x)


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
    Orders are limited to 32767.
    """

    __slots__ = ("base", "order", "nvars", "_terms")

    def __init__(self, base, order, coeffs):
        if not (type(base) is tuple and all(type(x) is complex for x in base)):
            base = tuple(complex(x) for x in base)
        self.base = base
        self.nvars = len(base)
        self.order = int(order)
        if self.order > _MAX_ORDER:
            raise ValueError(f"jet order {self.order} exceeds {_MAX_ORDER}")
        terms = {}
        for alpha, c in coeffs.items():
            key = _pack(tuple(alpha), self.nvars)
            if key is None:
                raise ValueError(f"multi-index {alpha!r} does not fit {self.nvars} variables")
            if c != 0:
                terms[key] = complex(c)
        self._terms = terms

    def _like(self, terms: dict, order: int | None = None) -> "Jet":
        """A jet on this one's base point from already packed, complex,
        nonzero `terms` (see `_nonzero`)."""
        out = object.__new__(Jet)
        out.base, out.nvars, out._terms = self.base, self.nvars, terms
        out.order = self.order if order is None else order
        return out

    @classmethod
    def constant(cls, value, base, order):
        return cls(base, order, {})._constant(value)

    def _constant(self, value) -> "Jet":
        """The jet of `value` on this one's base point and order."""
        value = complex(value)
        return self._like({0: value} if value != 0 else {})

    @classmethod
    def variable(cls, index, base, order):
        """The jet of the coordinate ``x_index`` itself."""
        return cls(base, order, {})._variable(index)

    def _variable(self, index: int) -> "Jet":
        """The jet of ``x_index`` on this one's base point and order."""
        x = self.base[index]
        terms = {0: x} if x else {}
        if self.order >= 1:
            terms[(1 << (_BITS * self.nvars)) | (1 << (_BITS * index))] = 1.0 + 0.0j
        return self._like(terms)

    @property
    def coeffs(self) -> dict[tuple[int, ...], complex]:
        """The Taylor coefficients keyed by multi-index tuples."""
        return {_unpack(k, self.nvars): c for k, c in self._terms.items()}

    @property
    def value(self) -> complex:
        return self._terms.get(0, 0.0 + 0.0j)

    def coefficient(self, alpha) -> complex:
        key = _pack(tuple(alpha), self.nvars)
        return 0.0 + 0.0j if key is None else self._terms.get(key, 0.0 + 0.0j)

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
            return self._like({k: complex(v) for k, c in self._terms.items()
                               if (v := c * other) != 0})
        self._check(other)
        return self._like(_mul(self._terms, other._terms,
                               (self.order + 1) << (_BITS * self.nvars)))

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet":
        f0 = self.value
        if f0 == 0:
            raise ZeroDivisionError("jet with zero value has no reciprocal")
        # 1/f = (1/f0) * sum_k (1 - f/f0)^k; the bracket is nilpotent.
        one = self._like({0: 1.0 + 0.0j})
        rest = one - self * (1.0 / f0)
        out = power = one
        for _ in range(self.order):
            power = power * rest
            out = out + power
        return out * (1.0 / f0)

    def __truediv__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return self * other.reciprocal()
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            raise TypeError("jet powers must use integer exponents")
        if exponent < 0:
            return self.reciprocal() ** (-exponent)
        out = self._like({0: 1.0 + 0.0j})
        for _ in range(exponent):
            out = out * self
        return out

    def __repr__(self):
        return f"Jet(base={self.base}, order={self.order}, terms={len(self._terms)})"


class CoefficientField:
    """The pair of coefficient functions a(t, u), b(t, u) of dimension m.

    `a` and `b` are callables ``(t, u) -> sequence of m scalars`` written
    over abstract arithmetic, so the same definition evaluates on plain
    complex numbers and on jets.
    """

    def __init__(self, m: int, a: Callable, b: Callable, name: str = "custom"):
        if not (isinstance(m, numbers.Real) and not isinstance(m, bool)
                and isfinite(m) and m == int(m) and m >= 1):
            raise ValueError(f"field dimension must be an integer >= 1, got {m!r}")
        self.m = int(m)
        self._a = a
        self._b = b
        self.name = name

    def _eval(self, fn, t, u, order: int | None = None) -> list:
        """`fn` at (t, u): on complex numbers when `order` is None, else on
        jets of that order.  Checks the state shape and the number of
        components returned."""
        u = np.asarray(u, dtype=complex)
        if u.shape != (self.m,):
            raise ValueError(f"state must have shape ({self.m},), got {u.shape}")
        if order is None:
            out = [x.value if isinstance(x, Jet) else complex(x)
                   for x in fn(complex(t), list(u))]
        else:
            # base point and order checked once, for every variable
            origin = Jet((complex(t), *u.tolist()), order, {})
            tj, *uj = (origin._variable(i) for i in range(self.m + 1))
            out = [v if isinstance(v, Jet) else origin._constant(v) for v in fn(tj, uj)]
        if len(out) != self.m:
            raise ValueError("coefficient function returned wrong dimension")
        return out

    def a_jets(self, t, u, order: int) -> list[Jet]:
        return self._eval(self._a, t, u, order)

    def b_jets(self, t, u, order: int) -> list[Jet]:
        return self._eval(self._b, t, u, order)

    def a_values(self, t, u) -> np.ndarray:
        return np.array(self._eval(self._a, t, u))

    def b_values(self, t, u) -> np.ndarray:
        return np.array(self._eval(self._b, t, u))


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

    A call replays a :class:`_Tape` of that instruction list, recorded for
    the key order of the call's base jets; the plan keeps the
    ``TAPE_CACHE_SIZE`` it recorded last.  If a replay finds an exact zero,
    the call runs the instruction list itself.  Plans of order 0 evaluate
    `a` and `b` on plain numbers (see the module docstring).
    """

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
        self.tapes: dict[tuple, _Tape] = {}

    def __call__(self, field: CoefficientField, t, u) -> np.ndarray:
        """The values at ``(t, u)``: one row of `field.m` per pair."""
        if self.order == 0:
            # no derivatives: the field itself, on plain numbers
            slots = {}
            for i in dict.fromkeys(self.outputs):
                slots[i] = field.a_values(t, u) if i == 0 else field.b_values(t, u)
            rows = [slots[i] for i in self.outputs]
            return np.array(rows, dtype=complex).reshape(-1, field.m)
        a = [j._terms for j in field.a_jets(t, u, self.order)]
        b = [j._terms for j in field.b_jets(t, u, self.order)]
        signature = (field.m, *map(tuple, a), *map(tuple, b))
        tape = self.tapes.get(signature)
        if tape is None:
            if len(self.tapes) >= TAPE_CACHE_SIZE:
                del self.tapes[next(iter(self.tapes))]
            tape = self.tapes[signature] = _Tape(self, field.m, a, b)
        values = tape(a, b)
        if values is None:
            slots = self._jets(field.m, a, b)
            values = [x.get(0, 0.0 + 0.0j) for i in self.outputs for x in slots[i]]
        return np.array(values, dtype=complex).reshape(-1, field.m)

    def _jets(self, m: int, a: list[dict], b: list[dict]) -> list[list[dict]]:
        """Every slot's jets from the base jets `a` and `b`, as packed-key
        dicts, one per component."""
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
                    term = _mul(cj, _partial(f, *units[j], cap), below)
                    g = term if g is None else _add(g, term)
                out.append(g)
            slots.append(out)
        return slots


# -- tapes ----------------------------------------------------------------------

# tape operations (op, d, x, y) on the register list r
_PARTIAL = 0   # r[d] = r[x] * y, y an int
_FIRST = 1     # r[d] = 0.0 + r[x] * r[y]
_NEXT = 2      # r[d] = r[d] + r[x] * r[y]
_SUM = 3       # r[d] = r[x] + r[y]
_COPY = 4      # r[d] = 0.0 + r[x]


class _Register:
    """A register while a tape is recorded: the dict kernels compute on
    these as they do on numbers, and each operation goes on the tape."""

    __slots__ = ("tape", "index")

    def __init__(self, tape: "_Tape"):
        self.tape = tape
        self.index = tape.size
        tape.size += 1

    def __mul__(self, other):
        if type(other) is _Register:
            return _Product(self.tape, self.index, other.index)
        return self.tape.emit(_PARTIAL, self.index, other)

    def __add__(self, other):
        if type(other) is _Product:
            # `_mul` adds each product to its own running sum, which
            # nothing else reads, so the sum is updated in place
            self.tape.ops.append((_NEXT, self.index, other.x, other.y))
            return self
        return self.tape.emit(_SUM, self.index, other.index)

    def __radd__(self, zero):
        return self.tape.emit(_COPY, self.index, 0)

    def __eq__(self, other):
        # recorded as if no sum were exactly zero; a replay checks that
        return False


class _Product:
    """``r[x] * r[y]`` while a tape is recorded, until a sum takes it."""

    __slots__ = ("tape", "x", "y")

    def __init__(self, tape: "_Tape", x: int, y: int):
        self.tape, self.x, self.y = tape, x, y

    def __radd__(self, zero):
        return self.tape.emit(_FIRST, self.x, self.y)


class _Tape:
    """A word plan's dict kernels recorded for one key order of the base
    jets (see the module docstring): a flat list of scalar operations on a
    list of registers.  Registers 0, 1, ... hold the base jets'
    coefficients, `a`'s components first, then `b`'s, each in its keys'
    order.  Base coefficients and partials ``c * n`` of them are never
    zero, so any zero a replay leaves is a product sum or a sum."""

    __slots__ = ("ops", "size", "blank", "outputs")

    def __init__(self, plan: WordPlan, m: int, a: list[dict], b: list[dict]):
        self.ops = []
        self.size = 0
        a = [{k: _Register(self) for k in x} for x in a]
        b = [{k: _Register(self) for k in x} for x in b]
        base = self.size
        slots = plan._jets(m, a, b)
        self.ops = tuple(self.ops)
        self.blank = [None] * (self.size - base)
        # a value missing from a jet is zero, in the register after the last
        values = [x.get(0) for i in plan.outputs for x in slots[i]]
        self.outputs = tuple(self.size if v is None else v.index for v in values)

    def emit(self, op: int, x: int, y) -> _Register:
        out = _Register(self)
        self.ops.append((op, out.index, x, y))
        return out

    def __call__(self, a: list[dict], b: list[dict]) -> list[complex] | None:
        """The output values from base jets of the recorded key order, or
        None if the kernels would have dropped a key."""
        r = []
        for x in a:
            r += x.values()
        for x in b:
            r += x.values()
        r += self.blank
        # local names, which are faster to read than globals
        first, partial, following, total = _FIRST, _PARTIAL, _NEXT, _SUM
        for op, d, x, y in self.ops:
            if op == first:
                r[d] = 0.0 + r[x] * r[y]
            elif op == partial:
                r[d] = r[x] * y
            elif op == following:
                r[d] += r[x] * r[y]
            elif op == total:
                r[d] = r[x] + r[y]
            else:
                r[d] = 0.0 + r[x]
        if not all(r):
            return None
        r.append(0.0 + 0.0j)
        return [r[i] for i in self.outputs]


def operator_values(field: CoefficientField,
                    pairs: Iterable[tuple[str, Sequence[str]]], t, u) -> dict:
    """Evaluate ``L^{w_1} ... L^{w_n}`` applied to `a` or `b` at ``(t, u)``
    for every ``(target, op_word)`` pair.

    Words are written operator-first: ``("L1", "L0")`` computes
    ``L1(L0(target))``, and an empty word gives the target itself.  All
    pairs share one set of base jets (of the longest word's order) and the
    jets of common sub-words, each truncated to the order still needed on
    top of it; truncation commutes with every jet operation, so the values
    are those of a full-order evaluation, bit for bit.  Returns
    ``{(target, op_word): values}`` with `op_word` as a tuple.
    """
    pairs = tuple(dict.fromkeys((target, tuple(word)) for target, word in pairs))
    return dict(zip(pairs, WordPlan(pairs)(field, t, u)))


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
    if not isinstance(gamma, int):
        raise ValueError("power field requires integer gamma")
    expo = 1 - gamma
    return make_field(1, lambda t, u: [0.0 * t], lambda t, u: [u[0] ** expo],
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
