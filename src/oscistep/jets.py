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
"""

from __future__ import annotations

from math import factorial
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import JetMismatchError, JetOrderError

__all__ = [
    "Jet",
    "CoefficientField",
    "operator_values",
    "make_field",
    "builtin_field",
    "BUILTIN_FIELDS",
]


class Jet:
    """Taylor coefficients of one scalar quantity about a base point.

    ``coeffs[alpha]`` is the Taylor coefficient ``D^alpha f / alpha!``; the
    derivative itself is recovered by :meth:`derivative`.  Addition and
    multiplication require matching base point, order and variable count;
    multiplication truncates products beyond the stored total degree.
    """

    __slots__ = ("base", "order", "nvars", "coeffs")

    def __init__(self, base, order, coeffs):
        self.base = tuple(complex(x) for x in base)
        self.nvars = len(self.base)
        self.order = int(order)
        self.coeffs = {a: complex(c) for a, c in coeffs.items() if c != 0}

    @classmethod
    def constant(cls, value, base, order):
        zero = tuple(0 for _ in base)
        return cls(base, order, {zero: complex(value)})

    @classmethod
    def variable(cls, index, base, order):
        """The jet of the coordinate ``x_index`` itself."""
        zero = tuple(0 for _ in base)
        unit = tuple(1 if i == index else 0 for i in range(len(base)))
        coeffs = {zero: complex(base[index])}
        if order >= 1:
            coeffs[unit] = 1.0 + 0.0j
        return cls(base, order, coeffs)

    @property
    def value(self) -> complex:
        return self.coeffs.get(tuple(0 for _ in range(self.nvars)), 0.0 + 0.0j)

    def coefficient(self, alpha) -> complex:
        return self.coeffs.get(tuple(alpha), 0.0 + 0.0j)

    def derivative(self, alpha) -> complex:
        """The mixed partial derivative D^alpha f at the base point."""
        scale = 1
        for a in alpha:
            scale *= factorial(a)
        return self.coefficient(alpha) * scale

    def truncate(self, order: int) -> "Jet":
        if order >= self.order:
            return self
        kept = {a: c for a, c in self.coeffs.items() if sum(a) <= order}
        return Jet(self.base, order, kept)

    def partial(self, index: int) -> "Jet":
        """d/dx_index as a jet of one order lower."""
        if self.order < 1:
            raise JetOrderError("cannot differentiate an order-0 jet")
        out = {}
        for a, c in self.coeffs.items():
            if a[index] == 0:
                continue
            b = list(a)
            b[index] -= 1
            if sum(b) <= self.order - 1:
                out[tuple(b)] = c * a[index]
        return Jet(self.base, self.order - 1, out)

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Jet"):
        if self.base != other.base or self.order != other.order:
            raise JetMismatchError(
                "jets disagree in base point or order: "
                f"{self.base}/{self.order} vs {other.base}/{other.order}"
            )

    def _coerce(self, other):
        if isinstance(other, Jet):
            return other
        return Jet.constant(other, self.base, self.order)

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            out[a] = out.get(a, 0.0) + c
        return Jet(self.base, self.order, out)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.base, self.order, {a: -c for a, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.base, self.order,
                       {a: c * other for a, c in self.coeffs.items()})
        self._check(other)
        out = {}
        for a, ca in self.coeffs.items():
            da = sum(a)
            for b, cb in other.coeffs.items():
                if da + sum(b) > self.order:
                    continue
                key = tuple(x + y for x, y in zip(a, b))
                out[key] = out.get(key, 0.0) + ca * cb
        return Jet(self.base, self.order, out)

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet":
        f0 = self.value
        if f0 == 0:
            raise ZeroDivisionError("jet with zero value has no reciprocal")
        # 1/f = (1/f0) * sum_k (1 - f/f0)^k; the bracket is nilpotent.
        rest = Jet.constant(1.0, self.base, self.order) - self * (1.0 / f0)
        out = Jet.constant(1.0, self.base, self.order)
        power = Jet.constant(1.0, self.base, self.order)
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
        out = Jet.constant(1.0, self.base, self.order)
        for _ in range(exponent):
            out = out * self
        return out

    def __repr__(self):
        return f"Jet(base={self.base}, order={self.order}, terms={len(self.coeffs)})"


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
            base = (complex(t),) + tuple(u)
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


def _apply_single(letter: str, f: list[Jet], a_jets: list[Jet], b_jets: list[Jet]) -> list[Jet]:
    order = f[0].order - 1
    if order < 0:
        raise JetOrderError("operator application exhausted the jet order")
    coeff = a_jets if letter == "L0" else b_jets
    coeff = [c.truncate(order) for c in coeff]
    out = []
    for fi in f:
        g = fi.partial(0) if letter == "L0" else None
        for j, cj in enumerate(coeff):
            term = cj * fi.partial(1 + j)
            g = term if g is None else g + term
        out.append(g)
    return out


def operator_values(field: CoefficientField,
                    pairs: Iterable[tuple[str, Sequence[str]]], t, u) -> dict:
    """Evaluate ``L^{w_1} ... L^{w_n}`` applied to `a` or `b` at ``(t, u)``
    for every ``(target, op_word)`` pair.

    Words are written operator-first: ``("L1", "L0")`` computes
    ``L1(L0(target))``, and an empty word gives the target itself.  All
    pairs share one set of base jets (of the longest word's order) and the
    jets of common sub-words.  Returns ``{(target, op_word): values}`` with
    `op_word` as a tuple.
    """
    pairs = list(dict.fromkeys((target, tuple(word)) for target, word in pairs))
    for target, word in pairs:
        if target not in ("a", "b"):
            raise ValueError("target must be 'a' or 'b'")
        for w in word:
            if w not in ("L0", "L1"):
                raise ValueError(f"unknown operator letter {w!r}")
    order = max((len(word) for _, word in pairs), default=0)
    if order == 0:
        return {(target, ()): field.a_values(t, u) if target == "a" else field.b_values(t, u)
                for target, _ in pairs}
    a_jets = field.a_jets(t, u, order)
    b_jets = field.b_jets(t, u, order)
    memo: dict[tuple, list[Jet]] = {("a", ()): a_jets, ("b", ()): b_jets}

    def jets_for(target: str, word: tuple[str, ...]) -> list[Jet]:
        key = (target, word)
        if key not in memo:
            memo[key] = _apply_single(word[0], jets_for(target, word[1:]), a_jets, b_jets)
        return memo[key]

    return {(target, word): np.array([j.value for j in jets_for(target, word)])
            for target, word in pairs}


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
