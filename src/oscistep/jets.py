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
of ``(target, op_word)`` pairs once into a flat instruction list, and each
evaluation runs that list on the field's jets with no intermediate
``Jet`` objects.

The packing changes no arithmetic.  Every operation visits coefficients
in the same order as the plain tuple-keyed definition (dicts keep their
insertion order), starts each sum from 0.0 and adds products left to
right, so results match that definition bit for bit, signs of zero
included.  The CLI prints 17 significant digits and its README output is
locked byte for byte (``tests/readme_cli_golden.txt``); a reordered sum
would change those bytes.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
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
        value = complex(value)
        return cls(base, order, {})._like({0: value} if value != 0 else {})

    @classmethod
    def variable(cls, index, base, order):
        """The jet of the coordinate ``x_index`` itself."""
        jet = cls(base, order, {})
        terms = {0: complex(jet.base[index])}
        if order >= 1:
            terms[(1 << (_BITS * jet.nvars)) | (1 << (_BITS * index))] = 1.0 + 0.0j
        return jet._like(_nonzero(terms))

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
        return Jet.constant(other, self.base, self.order)

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
        if m < 1:
            raise ValueError("field dimension must be positive")
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
            base = (complex(t),) + tuple(complex(x) for x in u)
            tj = Jet.variable(0, base, order)
            uj = [Jet.variable(1 + j, base, order) for j in range(self.m)]
            out = [v if isinstance(v, Jet) else Jet.constant(v, base, order)
                   for v in fn(tj, uj)]
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

    def __call__(self, field: CoefficientField, t, u) -> np.ndarray:
        """The values at ``(t, u)``: one row of `field.m` per pair."""
        if self.order == 0:
            # no derivatives: the field itself, on plain numbers
            slots = {}
            for i in dict.fromkeys(self.outputs):
                slots[i] = field.a_values(t, u) if i == 0 else field.b_values(t, u)
            rows = [slots[i] for i in self.outputs]
        else:
            slots = self._jets(field, t, u)
            rows = [[x.get(0, 0.0 + 0.0j) for x in slots[i]] for i in self.outputs]
        return np.array(rows, dtype=complex).reshape(-1, field.m)

    def _jets(self, field: CoefficientField, t, u) -> list[list[dict]]:
        """Every slot's jets, as packed-key dicts, one per component."""
        a = [j._terms for j in field.a_jets(t, u, self.order)]
        b = [j._terms for j in field.b_jets(t, u, self.order)]
        units = _units(field.m + 1)
        top = _BITS * (field.m + 1)
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
