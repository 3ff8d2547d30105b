"""Reference step: the plain dict-of-tuples jets, per-entry coefficient
evaluation and entry-by-entry assembly that the packed-key fast path in
``oscistep`` must reproduce bit for bit.

Kept deliberately naive and independent of ``oscistep.jets`` and of
``BasisPoly.eval_shifted``: every operation is done in the same order as
the straightforward definitions, so any reordering of floating-point work
in the library shows up as a ``repr`` difference in the tests.
"""

from __future__ import annotations

import cmath

import numpy as np

from oscistep import NumericStepError, phase_average
from oscistep.stepping import StepResult


class RefJet:
    """Truncated Taylor series keyed by tuple multi-indices.  A key is kept
    when an operation formed it, whatever its value; only the constructor's
    input and a constant drop a zero."""

    def __init__(self, base, order, coeffs):
        self.base = tuple(complex(x) for x in base)
        self.order = int(order)
        self.coeffs = {a: complex(c) for a, c in coeffs.items() if c != 0}

    def _formed(self, coeffs, order=None):
        """A jet on this one's base point of `coeffs` as operations formed
        them, zeros included."""
        out = RefJet(self.base, self.order if order is None else order, {})
        out.coeffs = {a: complex(c) for a, c in coeffs.items()}
        return out

    @classmethod
    def constant(cls, value, base, order):
        return cls(base, order, {tuple(0 for _ in base): complex(value)})

    @classmethod
    def variable(cls, index, base, order):
        zero = tuple(0 for _ in base)
        unit = tuple(1 if i == index else 0 for i in range(len(base)))
        coeffs = {zero: complex(base[index])}
        if order >= 1:
            coeffs[unit] = 1.0 + 0.0j
        return cls(base, order, {})._formed(coeffs)

    @property
    def value(self):
        return self.coeffs.get(tuple(0 for _ in self.base), 0.0 + 0.0j)

    def truncate(self, order):
        if order >= self.order:
            return self
        return self._formed({a: c for a, c in self.coeffs.items() if sum(a) <= order}, order)

    def partial(self, index):
        out = {}
        for a, c in self.coeffs.items():
            if a[index] == 0:
                continue
            b = list(a)
            b[index] -= 1
            if sum(b) <= self.order - 1:
                out[tuple(b)] = c * a[index]
        return self._formed(out, self.order - 1)

    def _coerce(self, other):
        if isinstance(other, RefJet):
            return other
        return RefJet.constant(other, self.base, self.order)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            out[a] = out.get(a, 0.0) + c
        return self._formed(out)

    __radd__ = __add__

    def __neg__(self):
        return self._formed({a: -c for a, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, RefJet):
            return self._formed({a: c * other for a, c in self.coeffs.items()})
        out = {}
        for a, ca in self.coeffs.items():
            da = sum(a)
            for b, cb in other.coeffs.items():
                if da + sum(b) > self.order:
                    continue
                key = tuple(x + y for x, y in zip(a, b))
                out[key] = out.get(key, 0.0) + ca * cb
        return self._formed(out)

    __rmul__ = __mul__

    def reciprocal(self):
        f0 = self.value
        if f0 == 0:
            raise ZeroDivisionError("jet with zero value has no reciprocal")
        rest = RefJet.constant(1.0, self.base, self.order) - self * (1.0 / f0)
        out = RefJet.constant(1.0, self.base, self.order)
        power = RefJet.constant(1.0, self.base, self.order)
        for _ in range(self.order):
            power = power * rest
            out = out + power
        return out * (1.0 / f0)

    def __truediv__(self, other):
        if isinstance(other, RefJet):
            return self * other.reciprocal()
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, exponent):
        if exponent < 0:
            return self.reciprocal() ** (-exponent)
        out = RefJet.constant(1.0, self.base, self.order)
        for _ in range(exponent):
            out = out * self
        return out


def _field_values(fn, t, u):
    # numpy's scalars, where a division by zero gives inf or NaN, without
    # a warning, as the library's plans of order 0 run them
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.array([complex(x) for x in fn(complex(t), list(u))])


def _field_jets(fn, m, t, u, order):
    base = (complex(t),) + tuple(u)
    tj = RefJet.variable(0, base, order)
    uj = [RefJet.variable(1 + j, base, order) for j in range(m)]
    return [v if isinstance(v, RefJet) else RefJet.constant(v, base, order)
            for v in fn(tj, uj)]


def _apply_single(letter, f, jets_a, jets_b):
    order = f[0].order - 1
    coeff = [c.truncate(order) for c in (jets_a if letter == "L0" else jets_b)]
    out = []
    for fi in f:
        g = fi.partial(0) if letter == "L0" else None
        for j, cj in enumerate(coeff):
            term = cj * fi.partial(1 + j)
            g = term if g is None else g + term
        out.append(g)
    return out


def operator_values(field, pairs, t, u):
    """``{(target, op_word): values}``, each word applied on its own jets
    memoised by sub-word, as in the straightforward evaluator."""
    pairs = list(dict.fromkeys((target, tuple(word)) for target, word in pairs))
    order = max((len(word) for _, word in pairs), default=0)
    if order == 0:
        return {(target, ()): _field_values(field._a if target == "a" else field._b, t, u)
                for target, _ in pairs}
    jets_a = _field_jets(field._a, field.m, t, u, order)
    jets_b = _field_jets(field._b, field.m, t, u, order)
    memo = {("a", ()): jets_a, ("b", ()): jets_b}

    def jets_for(target, word):
        if (target, word) not in memo:
            memo[(target, word)] = _apply_single(word[0], jets_for(target, word[1:]),
                                                 jets_a, jets_b)
        return memo[(target, word)]

    return {(target, word): np.array([j.value for j in jets_for(target, word)])
            for target, word in pairs}


def oscillator_value(osc, t):
    """v(t) at one time, by numpy's 0-d arrays: the formula that
    ``OscillatorSpec.value`` must reproduce bit for bit on plain numbers."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape, dtype=complex)
    for k, c in osc.coeffs:
        out += c * np.exp(1j * k * (osc.omega * t + osc.phi))
    out *= osc.omega ** (-osc.nu)
    return complex(out)


def eval_shifted(poly, osc, dt, t_ref):
    """One basis polynomial at t_ref + dt, one power of Z at a time: the
    terms of each power q summed in term order from 0j, each a product of
    complex numbers; then each sum times z ** q, unless q = 0, and those
    added, q = 0 first, then ascending q.  No terms give 0j."""
    z = cmath.exp(1j * (osc.omega * t_ref + osc.phi))
    groups = {}
    for (p, k, q, n, m), c in poly.terms:
        val = c
        if p:
            val *= complex(dt ** p)
        if k:
            val *= cmath.exp(1j * k * osc.omega * dt)
        expo = n + m * osc.nu
        if expo:
            val *= complex(osc.omega ** (-expo))
        groups[q] = groups.get(q, 0j) + val
    out = None
    for q in sorted(groups, key=lambda q: (q != 0, q)):
        val = groups[q] * z ** q if q else groups[q]
        out = val if out is None else out + val
    return 0j if out is None else out


def step(scheme, field, t_n, u_n, h, averaged=False):
    """One macro step, one entry at a time, accumulated from u_n.  An entry
    whose coefficient has no terms (before any averaging) contributes an
    exact zero and is neither evaluated nor added."""
    u_n = np.asarray(u_n, dtype=complex)
    osc = scheme.oscillator
    live = [e for e in scheme.entries if e.coeff.terms]
    values = operator_values(field, [(e.word.target, e.word.operator_word)
                                     for e in live], t_n, u_n)
    contributions = []
    u_next = u_n.copy()
    for e in scheme.entries:
        if not e.coeff.terms:
            contributions.append(np.zeros(u_n.shape, dtype=complex))
            continue
        poly = phase_average(e.coeff) if averaged else e.coeff
        c = complex(eval_shifted(poly, osc, h, t_n))
        # Python's complex product, component by component
        contrib = np.array([c * complex(v) for v in values[(e.word.target, e.word.operator_word)]])
        if not np.all(np.isfinite(contrib.view(float))):
            raise NumericStepError(f"non-finite contribution from term {e.word}")
        contributions.append(contrib)
        u_next = u_next + contrib
    return StepResult(u_next=u_next, t_next=t_n + h, contributions=tuple(contributions))
