"""Independent ground truth: closed forms, quadrature, micro-RK4, slope fits.

Everything here is deliberately separate from the symbolic machinery, so
it can serve as an oracle for it: integrals are done by adaptive
Gauss-Kronrod quadrature (with an initial subinterval per half period for
oscillatory integrands), trajectories by a classical fixed-step RK4 on the
raw right-hand side, and the worked problems' exact solutions by their
closed forms.  Each is right or loud: a quadrature that does not converge
or is not finite, and an RK4 trajectory that turns non-finite, raise.

The quadrature is one loop (`_quadratures`) that runs across an increasing
list of times, one segment after another, and accumulates the integral,
so a closed form at all of a command's output times costs one pass from
0, not one per time; `adaptive_quadrature` and `exact_exp_macro` are its
one-time case.  Its panel sums are Python sums in node order, and the
exact closed forms' integrands run on Python floats, one list per batch of
nodes, through the oscillator's compiled v (``OscillatorSpec._v``) and
`cmath.exp`, so their bits do not depend on numpy's SIMD dispatch or on
BLAS.  The RK4 oracle takes v from the same compiled function.

The RK4 oracle evaluates `a` and `b` through the field's tape of order 0,
the one a (1,1) table replays (see ``jets``), and not by calling them on
complex numbers at each stage; the tape gives the same bits as those
calls.  Its independence from the stepper therefore rests on the tests
that compare it, bit for bit, with a plain RK4 loop that calls `a` and `b`
on complex numbers (``reference_rk4`` in ``tests/test_reference_step.py``),
and with refused recordings, which call them.
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NumericStepError, QuadratureError, ResolutionError
from .jets import _PAIR, CoefficientField, _function
from .oscillator import OscillatorSpec

__all__ = [
    "QuadratureResult",
    "adaptive_quadrature",
    "exact_pure_oscillatory",
    "exact_exp_macro",
    "rk4_micro_solve",
    "fit_slope",
]

# 7-point Gauss / 15-point Kronrod nodes and weights on [-1, 1], in node
# order, as QUADPACK's qk15 gives them (to 33 digits, each read as the
# nearest double); the Gauss rule uses the odd-numbered nodes
_KRONROD_NODES = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
    -0.207784955007898467600689403773245, -0.405845151377397166906606412076961,
    -0.586087235467691130294144845693013, -0.741531185599394439863864773280788,
    -0.864864423359769072789712788640926, -0.949107912342758524526189684047851,
    -0.991455371120812639206854697526329)
_KRONROD_WEIGHTS = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
    0.204432940075298892414161999234649, 0.190350578064785409913256402421014,
    0.169004726639267902826583426598550, 0.140653259715525918745189590510238,
    0.104790010322250183839876322541518, 0.063092092629978553290700663189204,
    0.022935322010529224963732008058970)
_GAUSS_WEIGHTS = (
    0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327,
    0.0, 0.381830050505118944950369775488975, 0.0, 0.279705391489276667901467771423780,
    0.0, 0.129484966168869693270611432679082, 0.0)


def _weighted(weights) -> str:
    return " + ".join(f"({w!r}+0j) * v{i}" for i, w in enumerate(weights) if w)


# rules(v0, ..., v14): the Kronrod and the Gauss sum of a panel's 15
# values, each a complex constant times a value, added left to right in
# node order
_rules = _function(f"rules({', '.join(f'v{i}' for i in range(15))})",
                   [f"return {_weighted(_KRONROD_WEIGHTS)}, {_weighted(_GAUSS_WEIGHTS)}"])


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error: float
    evaluations: int


def _panels(values, edges: list[float]) -> tuple[list, float]:
    """Gauss-Kronrod on each panel between consecutive `edges`: heap
    entries ``(-error, lo, hi, integral)``, and the sum of their errors,
    added in panel order.  `values` is called once, on every panel's
    nodes."""
    panels = [(0.5 * (lo + hi), 0.5 * (hi - lo)) for lo, hi in zip(edges, edges[1:])]
    vals = values([mid + hw * x for mid, hw in panels for x in _KRONROD_NODES])
    entries, total = [], 0.0
    for i, (lo, hi, (_, hw)) in enumerate(zip(edges, edges[1:], panels)):
        k, g = _rules(*vals[15 * i:15 * i + 15])
        ik = hw * k
        err = abs(ik - hw * g)
        entries.append((-err, lo, hi, ik))
        total += err
    return entries, total


def _quadratures(values, a: float, times, tol: float, half_period: float | None = None,
                 max_panels: int = 20000) -> list[QuadratureResult]:
    """The integral from `a` to each of `times` in one adaptive
    Gauss-Kronrod pass, as QuadratureResults whose value, error and
    evaluations accumulate from one time to the next.

    `times` run monotonically away from `a`, and `values(x)` gives the
    integrand at each node of the list of floats `x`, as a list of complex
    numbers.  The segments between consecutive times are integrated in
    turn.  A segment starts with one panel per half period (at least one,
    at most 8192), and its worst panel is bisected until the error
    accumulated up to its end t is within ``tol (t - a) / (t_last - a)``:
    no segment gets less than its share of `tol` by length, and no time's
    error exceeds `tol`.  A segment that needs more than `max_panels`
    panels, or whose value or error is not finite, raises
    QuadratureError.
    """
    if not all(map(math.isfinite, (a, tol, *times))):
        raise ValueError(f"quadrature needs finite a, times and tol; got {a}, {times}, {tol}")
    span = times[-1] - a
    back = span < 0
    out, total, error, evals, start = [], 0j, 0.0, 0, a
    for t in times:
        lo, hi = (t, start) if back else (start, t)
        if hi < lo:
            raise ValueError(f"times must run monotonically away from {a}; got {start}, {t}")
        if lo < hi:
            n = 1
            if half_period is not None and half_period > 0:
                n = min(8192, max(1, math.ceil((hi - lo) / half_period)))
            edges = np.linspace(lo, hi, n + 1).tolist() if n > 1 else [lo, hi]
            heap, seg_err = _panels(values, edges)
            evals += 15 * n
            heapq.heapify(heap)
            budget = tol * ((t - a) / span)
            while error + seg_err > budget:
                if len(heap) >= max_panels:
                    raise QuadratureError(f"quadrature stalled at {len(heap)} panels, "
                                          f"error {error + seg_err:.3e}")
                neg_e, wl, wr, _ = heapq.heappop(heap)
                m = 0.5 * (wl + wr)
                halves, errs = _panels(values, [wl, m, wr])
                evals += 30
                for entry in halves:
                    heapq.heappush(heap, entry)
                seg_err += neg_e + errs  # the worst panel's error for its halves'
            seg = 0j
            for entry in heap:
                seg += entry[3]
            # a NaN error ends the loop as if converged, and an infinite one
            # turns NaN once its panel is bisected
            if not (math.isfinite(seg_err) and cmath.isfinite(seg)):
                raise QuadratureError(f"non-finite quadrature: value {seg}, error {seg_err}")
            total = total - seg if back else total + seg
            error += seg_err
        out.append(QuadratureResult(total, error, evals))
        start = t
    return out


def adaptive_quadrature(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                        tol: float = 1e-12, half_period: float | None = None,
                        max_panels: int = 20000) -> QuadratureResult:
    """Integrate a complex-valued vectorized integrand over [a, b]: the
    one-segment case of the cumulative pass (`_quadratures`).

    `f` is called on each batch of panels' nodes as one numpy array.  When
    `half_period` is given the initial partition uses one panel per half
    period, so oscillatory integrands start out resolved; panels are then
    bisected worst-first until the error estimate meets `tol`.  An
    integrand that is not finite on the interval raises QuadratureError.
    """
    def values(x):
        return np.asarray(f(np.array(x)), dtype=complex).reshape(len(x)).tolist()
    return _quadratures(values, a, [b], tol, half_period, max_panels)[0]


def _oscillatory_integrals(values: Callable[[list], list], osc: OscillatorSpec, times,
                           tol: float) -> list[QuadratureResult]:
    """The integrals from 0 to each of `times`, in one pass with one
    initial panel per half period of `osc`, of the integrand whose values
    at a list of Python floats `values` gives as a list.  A ValueError
    from `values`, which `cmath.exp` raises at a phase that overflows,
    raises QuadratureError."""
    def checked(x):
        try:
            return values(x)
        except ValueError as exc:
            raise QuadratureError(f"integrand not finite on [{x[0]}, {x[-1]}]: {exc}") from exc
    return _quadratures(checked, 0.0, times, tol, math.pi / osc.omega)


def exact_pure_oscillatory(gamma: int, u0: complex, dV: complex) -> complex:
    """Closed-form step for du/dt = u^(1-gamma) v(t) in terms of the
    increment dV of the antiderivative of v:

        u = u0 (1 + gamma u0^(-gamma) dV)^(1/gamma)   (gamma != 0)
        u = u0 exp(dV)                                 (gamma == 0)
    """
    u0 = complex(u0)
    dV = complex(dV)
    if gamma == 0:
        return u0 * cmath.exp(dV)
    if gamma == 1:
        return u0 + dV
    bracket = 1.0 + gamma * u0 ** (-gamma) * dV
    if bracket == 0:
        raise DomainError("separatrix reached: bracket vanished")
    if gamma != -1 and bracket.imag == 0 and bracket.real < 0:
        raise DomainError("fractional power of a negative bracket")
    return u0 * bracket ** (1.0 / gamma)


def exact_exp_macro(alpha, gamma: int, mu: complex, osc: OscillatorSpec,
                    t: float, u0: complex, tol: float = 1e-10,
                    alpha_antideriv: Callable[[float], complex] | None = None,
                    v_offset: complex = 0j) -> complex:
    """Exact solution at time t of du/dt = alpha(t) u + mu u^(1-gamma) v(t).

    `alpha` is a constant or a callable; callables must come with their
    antiderivative, which is called on Python floats.  Inner oscillatory
    integrals are evaluated by adaptive quadrature to `tol`, on Python
    floats through the oscillator's compiled v (``OscillatorSpec._v``)
    and ``cmath.exp``; a phase that overflows raises QuadratureError.
    `v_offset` adds a constant to v, for problems whose oscillator mean
    has been normalized away.  This is the one-time case of
    `_exact_exp_values`.
    """
    return _exact_exp_values(alpha, gamma, mu, osc, [t], u0, tol, alpha_antideriv,
                             v_offset)[0]


def _exact_exp_values(alpha, gamma: int, mu: complex, osc: OscillatorSpec, times,
                      u0: complex, tol: float = 1e-10,
                      alpha_antideriv: Callable[[float], complex] | None = None,
                      v_offset: complex = 0j) -> list[complex]:
    """`exact_exp_macro` at each of `times`, which run monotonically away
    from 0, from one quadrature pass; a time of 0 gives `u0`.  A bracket
    that vanishes, or whose fractional power is taken while it is negative,
    raises DomainError at the first time where it does."""
    if callable(alpha):
        if alpha_antideriv is None:
            raise ValueError("callable alpha requires alpha_antideriv")
        A = alpha_antideriv
    else:
        alpha_c = complex(alpha)
        A = lambda s: alpha_c * s
    _, many = osc._v()
    if gamma == 0:
        values = lambda x: [z + v_offset for z in many(x)]
    else:
        values = lambda x: [(z + v_offset) * cmath.exp(-gamma * A(s))
                            for s, z in zip(x, many(x))]
    out = []
    for t, q in zip(times, _oscillatory_integrals(values, osc, times, tol)):
        if t == 0:
            out.append(complex(u0))
        elif gamma == 0:
            out.append(u0 * cmath.exp(A(t)) * cmath.exp(mu * q.value))
        else:
            bracket = gamma * mu * q.value + u0 ** gamma
            if bracket == 0:
                raise DomainError("separatrix reached: bracket vanished")
            if gamma not in (1, -1) and bracket.imag == 0 and bracket.real < 0:
                raise DomainError("fractional power of a negative bracket")
            out.append(cmath.exp(A(t)) * bracket ** (1.0 / gamma))
    return out


def rk4_micro_solve(field: CoefficientField, osc: OscillatorSpec, t0: float,
                    u0, t_end: float, dt: float):
    """Classical fixed-step RK4 on the raw right-hand side a + b v.

    `dt` must be positive and resolve the oscillation: dt <= period / 20.
    The step is shrunk slightly if needed so an integer number of steps
    spans the interval.  Returns a list of (t, u) pairs, each `u` an array
    of the state.  A non-finite `u0`, or a `dt` that does not move `t0`,
    raises ValueError, and a trajectory that turns non-finite
    NumericStepError, which names the first time it is.

    The state is a list of Python complex numbers, and every stage, stage
    sum and update is Python's scalar arithmetic, with each product a
    complex product: the same operations as numpy's arrays under baseline
    dispatch, where no product is fused, so the bits do not depend on
    numpy's SIMD dispatch.  `a` and `b` at each stage come from the
    field's tape of them (``jets._PAIR``, recorded at the first stage if
    the field has none), whose replay gives what they give on the complex
    `t` and state of the stage, as on a plan of order 0.  Where the
    recording was refused, each stage calls them so, and what they raise
    there, such as ZeroDivisionError, propagates.  A step is one
    straight-line function per state dimension (`_rk4_step`).  v is
    evaluated by the oscillator's compiled v (``OscillatorSpec._v``) at
    each step's three times, except at a start time equal to the last
    step's end time, where it is that step's v.  A phase there that
    overflows, which `cmath.exp` refuses, makes the state after the step
    nan, so NumericStepError names that step's end time.
    """
    u = field._state(u0)
    if not (all(math.isfinite(x) for x in (t0, t_end, dt)) and np.isfinite(u).all()):
        raise ValueError("t0, t_end, dt and u0 must be finite")
    if t0 + dt <= t0:
        raise ValueError(f"micro step must be positive and move t0 = {t0}, got {dt}")
    span = t_end - t0
    if span <= 0:
        raise ValueError("t_end must exceed t0")
    if dt > osc.period / 20.0 + 1e-15:
        raise ResolutionError(
            f"micro step {dt} exceeds period/20 = {osc.period / 20.0:.3e}")
    n = max(1, round(span / dt))
    if n * dt < span - 1e-12 * span:
        n += 1
    dt = span / n
    # complex factors, so each product is the complex product numpy forms
    # for a number times a complex array
    h, h2, h6, two = complex(dt), complex(dt / 2), complex(dt / 6), complex(2)
    value, _ = osc._v()
    x = u.tolist()
    # the field's tape of `a` and `b`, recorded at the first stage unless it
    # has one, and that stage's values if it was
    tape, ab = field._tape(_PAIR, (complex(t0), *x))
    pair = field._on_numbers if tape is None else tape
    rk4 = _rk4_step(field.m)(pair, h, h2, h6, two)
    times, states = [t0], [x]
    t, te, ve = t0, None, None
    for i in range(n):
        # most steps start where the last one ended, in float: v(t)
        # is then the last step's v(te), from the same input
        try:
            v = ve if t == te else value(t)
            tm, te = t + dt / 2, t + dt
            vm, ve = value(tm), value(te)
        except ValueError:
            # cmath.exp refuses a phase that overflows: v, and so the
            # state after this step, is nan
            times.append(t0 + (i + 1) * dt)
            states.append([complex(math.nan, math.nan)] * len(x))
            break
        # the first stage's `a` and `b`: the recording's on the first
        # step if it gave them, and from `pair` on every other
        x = rk4(x, ab or pair((complex(t), *x)), complex(tm), complex(te), v, vm, ve)
        ab = None
        t = t0 + (i + 1) * dt
        times.append(t)
        states.append(x)
    states = np.array(states, dtype=complex)
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        raise NumericStepError(f"RK4 state not finite at t = {times[np.argmin(finite)]}")
    return list(zip(times, states))


def _rk4_step(m: int) -> Callable:
    """The classical RK4 step in `m` dimensions, compiled by
    ``jets._function``: a function of ``(pair, h, h2, h6, two)`` that gives
    ``step(x, ab, tm, te, v, vm, ve)``, the state after `x`, a list, from
    `a` and then `b` at its start time ``t`` in one list `ab`, the complex
    times ``t + dt / 2`` and ``t + dt``, and the oscillator's values at the
    three times.

    Stage k1 is ``a + b * v`` from `ab`; k2 and k3 are taken at ``(tm,
    vm)`` and k4 at ``(te, ve)``, each as ``a + b * v`` from one ``pair``
    call on the stage's base point ``(time, state)``: ``x + h2 * k`` for k2
    and k3, ``x + h * k`` for k4, component by component.  The update is
    ``x + h6 * (k1 + two * k2 + two * k3 + k4)``, component by
    component."""
    ab = f"[{', '.join(f'{c}{j}' for c in 'ab' for j in range(m))}]"
    lines = [f"    [{', '.join(f'x{j}' for j in range(m))}] = x", f"    {ab} = ab",
             *(f"    k1_{j} = a{j} + b{j} * v" for j in range(m))]
    for k, (at, v, scale) in enumerate((("tm", "vm", "h2"), ("tm", "vm", "h2"),
                                        ("te", "ve", "h")), 2):
        state = ", ".join(f"x{j} + {scale} * k{k - 1}_{j}" for j in range(m))
        lines.append(f"    {ab} = pair(({at}, {state}))")
        lines += [f"    k{k}_{j} = a{j} + b{j} * {v}" for j in range(m)]
    update = ", ".join(f"x{j} + h6 * (k1_{j} + two * k2_{j} + two * k3_{j} + k4_{j})"
                       for j in range(m))
    return _function("rk4(pair, h, h2, h6, two)", [
        "def step(x, ab, tm, te, v, vm, ve):", *lines, f"    return [{update}]", "return step"])


def fit_slope(points) -> float:
    """Least-squares slope of log(error) against log(h), over at least
    three points and two distinct step sizes."""
    pts = list(points)
    if len(pts) < 3:
        raise ValueError("need at least three points to fit a slope")
    hs = np.array([p[0] for p in pts], dtype=float)
    errs = np.array([p[1] for p in pts], dtype=float)
    if not (np.isfinite(hs).all() and np.isfinite(errs).all()
            and (hs > 0).all() and (errs > 0).all()):
        raise ValueError("slope fit requires finite positive step sizes and errors")
    if hs.min() == hs.max():
        raise ValueError("slope fit requires at least two distinct step sizes")
    A = np.vstack([np.log(hs), np.ones_like(hs)]).T
    sol, *_ = np.linalg.lstsq(A, np.log(errs), rcond=None)
    return float(sol[0])
