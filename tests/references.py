"""References that only the tests use: the worked examples' closed-form
step rules, the classical oscillatory monomial integrands, two
operations on basis polynomials (d/dtau and the tau = 0 value) that the
antiderivative tests compare against, the basis polynomial algebra on
tuple keys, which the packed `BasisPoly` must match bit for bit, and the
coefficient bound as it ran the jets at every sample, which the taped
bound must match bit for bit.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from oscistep.errors import NumericStepError
from oscistep.jets import Jet
from oscistep.oscillator import BasisPoly
from oscistep.stepping import BOUND_T_SAMPLES, BOUND_U_SAMPLES


# -- closed-form step rules ---------------------------------------------------

def cdi_linear_reference(u0: complex, mu: complex, omega: float, h: float) -> complex:
    """Comparison step rule for du/dt = t u + mu cos(omega t), through
    second order in 1/omega."""
    return (u0 * cmath.exp(h * h / 2.0)
            + mu * math.sin(omega * h) / omega
            - h * mu * math.cos(omega * h) / omega ** 2)


def cdi_nonlinear_reference(u0: complex, mu: complex, alpha: complex,
                            omega: float, h: float) -> complex:
    """Comparison step rule for du/dt = alpha u + mu u^2 e^(i omega t),
    through second order in 1/omega."""
    vh = cmath.exp(1j * omega * h)
    e = cmath.exp(alpha * h)
    return (u0 * e
            + (1.0 / omega) * (1.0 - vh * e) * 1j * mu * u0 ** 2 * e
            + (1.0 / omega ** 2) * (-(alpha + mu * u0) + (alpha + 2 * mu * u0) * vh * e
                                    - mu * u0 * vh * vh * e * e) * mu * u0 ** 2 * e)


def taylor_partial_sum(n: int, x: complex) -> complex:
    """S_n(x) = sum_{j<=n} x^j / j!"""
    out = 1.0 + 0.0j
    term = 1.0 + 0.0j
    for j in range(1, n + 1):
        term = term * x / j
        out += term
    return out


def freqdep_reference(u0: complex, mu: complex, alpha: complex,
                      omega: float, h: float) -> complex:
    """Order-(4,4) step rule for du/dt = alpha u + omega^(1/2) mu u^2
    e^(i omega t) (amplitude exponent nu = -1/2), in terms of the partial
    exponential sums S_n."""
    S = taylor_partial_sum
    hp = h * alpha
    vh = cmath.exp(1j * omega * h)
    return (S(4, hp) * u0
            + omega ** -0.5 * (S(3, hp) - vh * S(3, 2 * hp)) * 1j * mu * u0 ** 2
            - omega ** -1.0 * (S(2, hp) - 2 * vh * S(2, 2 * hp)
                               + vh ** 2 * S(2, 3 * hp)) * mu ** 2 * u0 ** 3
            - omega ** -1.5 * (S(1, hp) - vh * S(1, 2 * hp)) * alpha * mu * u0 ** 2
            - omega ** -1.5 * (S(1, hp) - 3 * vh * S(1, 2 * hp) + 3 * vh ** 2 * S(1, 3 * hp)
                               - vh ** 3 * S(1, 4 * hp)) * 1j * mu ** 3 * u0 ** 4
            - omega ** -2.0 * (1 - vh) ** 2 * 2j * alpha * mu ** 2 * u0 ** 3
            + omega ** -2.0 * (1 - vh) ** 4 * mu ** 4 * u0 ** 5)


# -- basis polynomials --------------------------------------------------------

def _poly_power(base: BasisPoly, m: int) -> BasisPoly:
    out = BasisPoly.one()
    for _ in range(m):
        out = out * base
    return out


def oscillating_monomial(kind: str, p: int, m: int = 0) -> BasisPoly:
    """Classical oscillatory monomial integrands, rewritten exponentially.

    With w1 = e^(i(omega t + phi)), w2 = cos(omega t + phi),
    w3 = sin(omega t + phi) and reference time 0:

        'I': t^p w1^m      'J': t^p      'K': t^p w2^m      'L': t^p w2^m w3

    Negative p or m yields the zero polynomial, matching the convention
    used when the integral reductions step out of range.
    """
    if p < 0 or m < 0:
        return BasisPoly()
    tp = BasisPoly.from_dict({(p, 0, 0, 0, 0): 1.0})
    cosp = BasisPoly.from_dict({(0, 1, 1, 0, 0): 0.5, (0, -1, -1, 0, 0): 0.5})
    sinp = BasisPoly.from_dict({(0, 1, 1, 0, 0): -0.5j, (0, -1, -1, 0, 0): 0.5j})
    if kind == "I":
        osc_part = BasisPoly.from_dict({(0, m, m, 0, 0): 1.0})
    elif kind == "J":
        osc_part = BasisPoly.one()
    elif kind == "K":
        osc_part = _poly_power(cosp, m)
    elif kind == "L":
        osc_part = _poly_power(cosp, m) * sinp
    else:
        raise ValueError(f"unknown monomial kind {kind!r}")
    return tp * osc_part


def derivative(poly: BasisPoly) -> BasisPoly:
    """d/dtau, term by term."""
    out = {}
    for (p, k, q, n, m), c in poly.terms:
        if p > 0:
            key = (p - 1, k, q, n, m)
            out[key] = out.get(key, 0j) + c * p
        if k != 0:
            key = (p, k, q, n - 1, m)
            out[key] = out.get(key, 0j) + c * 1j * k
    return BasisPoly.from_dict(out)


def value_at_ref(poly: BasisPoly) -> BasisPoly:
    """The tau = 0 value, kept symbolic in Z and omega (a tau-constant poly)."""
    out = {}
    for (p, k, q, n, m), c in poly.terms:
        if p == 0:
            key = (0, 0, q, n, m)
            out[key] = out.get(key, 0j) + c
    return BasisPoly.from_dict(out)


# -- the basis polynomial algebra on tuple keys ---------------------------------
#
# `BasisPoly`'s algebra as it was written on plain (p, k, q, n, m) tuple keys,
# on canonical term tuples ((key, coef), ...): sorted by key, with no exact
# zero.  Sums start from 0j and visit terms in key order.

def tuple_from_dict(d) -> tuple:
    items = [(k, c) for k, c in zip(d, map(complex, d.values())) if c != 0]
    return tuple(sorted(items))


def tuple_add(a: tuple, b: tuple) -> tuple:
    out = dict(a)
    for key, c in b:
        out[key] = out.get(key, 0j) + c
    return tuple_from_dict(out)


def tuple_scale(a: tuple, x) -> tuple:
    return tuple_from_dict({k: c * x for k, c in a})


def tuple_sub(a: tuple, b: tuple) -> tuple:
    return tuple_add(a, tuple_scale(b, -1.0))


def tuple_mul(a: tuple, b: tuple) -> tuple:
    out = {}
    for (p1, k1, q1, n1, m1), c1 in a:
        for (p2, k2, q2, n2, m2), c2 in b:
            key = (p1 + p2, k1 + k2, q1 + q2, n1 + n2, m1 + m2)
            out[key] = out.get(key, 0j) + c1 * c2
    return tuple_from_dict(out)


def tuple_antiderivative_terms(a: tuple) -> dict:
    """The antiderivative's coefficients, unsorted and zeros kept."""
    out = {}

    def add(key, c):
        out[key] = out.get(key, 0j) + c

    for (p, k, q, n, m), c in a:
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


def tuple_antiderivative(a: tuple) -> tuple:
    return tuple_from_dict(tuple_antiderivative_terms(a))


def tuple_definite_from_ref(a: tuple) -> tuple:
    """The antiderivative less its tau = 0 value, in one dict."""
    out = tuple_antiderivative_terms(a)
    anchor = {}
    for (_, _, q, n, m), c in sorted(item for item in out.items() if item[0][0] == 0):
        key = (0, 0, q, n, m)
        anchor[key] = anchor.get(key, 0j) + c
    for key, c in anchor.items():
        out[key] = out.get(key, 0j) + c * -1.0
    return tuple_from_dict(out)


def tuple_phase_average(a: tuple) -> tuple:
    return tuple_from_dict({k: c for k, c in a if k[2] == 0})


# -- the coefficient bound, on jets at every sample -----------------------------

def coefficient_bound(field, t_range, u_center, u_radius: float, order: int) -> float:
    """`estimate_coefficient_bound` for a valid box and order, with `a`
    and `b` run on jets of numbers at each sample: every partial of the
    jets' keys, from ``Jet.derivative``, and its norm over the components
    in Python floats."""
    t_min, t_max = t_range
    u_center = field._state(u_center)
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
                for alpha in set().union(*(j.coeffs for j in jets)):
                    d = [j.derivative(alpha) for j in jets]
                    norm = math.sqrt(sum(x.real * x.real for x in d)
                                     + sum(x.imag * x.imag for x in d))
                    if not math.isfinite(norm):
                        raise NumericStepError(
                            f"non-finite coefficient partial at t = {t}, u = {u}")
                    best = max(best, norm)
    return best
