"""Independent ground truth: closed forms, quadrature, micro-RK4, slope fits.

Everything here is deliberately separate from the symbolic machinery, so
it can serve as an oracle for it: integrals are done by adaptive
Gauss-Kronrod quadrature (with an initial subinterval per half period for
oscillatory integrands), trajectories by a classical fixed-step RK4 on the
raw right-hand side, and the worked problems' exact solutions by their
closed forms.  Each is right or loud: a quadrature that does not converge
or is not finite, and an RK4 trajectory that turns non-finite, raise.

The RK4 oracle evaluates `a` and `b` through the field's tape of order 0,
the one a (1,1) table replays (see ``jets``), and not by calling them on
numpy scalars at each stage; the tape gives the same bits as those calls.
Its independence from the stepper therefore rests on the tests that
compare it, bit for bit, with a plain RK4 loop that calls `a` and `b` on
numpy scalars (``reference_rk4`` in ``tests/test_reference_step.py``),
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

# 7-point Gauss / 15-point Kronrod nodes and weights on [-1, 1]
_KRONROD_NODES = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
    -0.207784955007898, -0.405845151377397, -0.586087235467691,
    -0.741531185599394, -0.864864423359769, -0.949107912342759,
    -0.991455371120813])
_KRONROD_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529])
_GAUSS_WEIGHTS = np.array([
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
    0.381830050505119, 0.0, 0.417959183673469, 0.0,
    0.381830050505119, 0.0, 0.279705391489277, 0.0,
    0.129484966168870, 0.0])


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error: float
    evaluations: int


def _panel(f, lo: np.ndarray, hi: np.ndarray):
    """Vectorized Gauss-Kronrod on a batch of panels; returns (I, err)."""
    mid = 0.5 * (lo + hi)
    hw = 0.5 * (hi - lo)
    pts = mid[:, None] + hw[:, None] * _KRONROD_NODES[None, :]
    vals = f(pts.ravel()).reshape(pts.shape)
    ik = hw * (vals @ _KRONROD_WEIGHTS)
    ig = hw * (vals @ _GAUSS_WEIGHTS)
    return ik, np.abs(ik - ig)


def adaptive_quadrature(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                        tol: float = 1e-12, half_period: float | None = None,
                        max_panels: int = 20000) -> QuadratureResult:
    """Integrate a complex-valued vectorized integrand over [a, b].

    When `half_period` is given the initial partition uses one panel per
    half period so oscillatory integrands start out resolved; panels are
    then bisected worst-first until the error estimate meets `tol`.  An
    integrand that is not finite on the interval raises QuadratureError.
    """
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(tol)):
        raise ValueError(f"quadrature needs finite a, b and tol; got {a}, {b}, {tol}")
    if b < a:
        res = adaptive_quadrature(f, b, a, tol, half_period, max_panels)
        return QuadratureResult(-res.value, res.error, res.evaluations)
    if a == b:
        return QuadratureResult(0j, 0.0, 0)
    npanels = 8
    if half_period is not None and half_period > 0:
        npanels = min(8192, max(8, math.ceil((b - a) / half_period)))
    edges = np.linspace(a, b, npanels + 1)
    lo, hi = edges[:-1], edges[1:]
    ik, err = _panel(f, lo, hi)
    evals = 15 * npanels
    heap = [(-float(e), float(l), float(r), v) for e, l, r, v in zip(err, lo, hi, ik)]
    heapq.heapify(heap)
    total_err = float(err.sum())
    while total_err > tol:
        if len(heap) >= max_panels:
            raise QuadratureError(
                f"quadrature stalled at {len(heap)} panels, error {total_err:.3e}")
        neg_e, wl, wr, _ = heapq.heappop(heap)
        total_err += neg_e  # remove the worst panel's error
        m = 0.5 * (wl + wr)
        iks, errs = _panel(f, np.array([wl, m]), np.array([m, wr]))
        evals += 30
        heapq.heappush(heap, (-float(errs[0]), wl, m, iks[0]))
        heapq.heappush(heap, (-float(errs[1]), m, wr, iks[1]))
        total_err += float(errs.sum())
    value = complex(sum(p[3] for p in heap))
    # a NaN error ends the loop as if converged, and an infinite one turns
    # NaN once its panel is bisected
    if not (math.isfinite(total_err) and cmath.isfinite(value)):
        raise QuadratureError(f"non-finite quadrature: value {value}, error {total_err}")
    return QuadratureResult(value, total_err, evals)


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
    antiderivative, and both must accept numpy arrays.  Inner oscillatory
    integrals are evaluated by adaptive quadrature to `tol`.  `v_offset`
    adds a constant to v, for problems whose oscillator mean has been
    normalized away.
    """
    if callable(alpha):
        if alpha_antideriv is None:
            raise ValueError("callable alpha requires alpha_antideriv")
        A = alpha_antideriv
    else:
        alpha_c = complex(alpha)
        A = lambda s: alpha_c * s
    if t == 0:
        return complex(u0)
    hp = math.pi / osc.omega

    def v_tot(s: np.ndarray) -> np.ndarray:
        return osc.value(s) + v_offset

    if gamma == 0:
        iv = adaptive_quadrature(v_tot, 0.0, t, tol, half_period=hp)
        return u0 * cmath.exp(A(t)) * cmath.exp(mu * iv.value)

    def integrand(s: np.ndarray) -> np.ndarray:
        return v_tot(s) * np.exp(-gamma * np.asarray(A(s), dtype=complex))

    inner = adaptive_quadrature(integrand, 0.0, t, tol, half_period=hp)
    bracket = gamma * mu * inner.value + u0 ** gamma
    if bracket == 0:
        raise DomainError("separatrix reached: bracket vanished")
    if gamma not in (1, -1) and bracket.imag == 0 and bracket.real < 0:
        raise DomainError("fractional power of a negative bracket")
    return cmath.exp(A(t)) * bracket ** (1.0 / gamma)


def rk4_micro_solve(field: CoefficientField, osc: OscillatorSpec, t0: float,
                    u0, t_end: float, dt: float):
    """Classical fixed-step RK4 on the raw right-hand side a + b v.

    `dt` must be positive and resolve the oscillation: dt <= period / 20.
    The step is shrunk slightly if needed so an integer number of steps
    spans the interval.  Returns a list of (t, u) pairs, each `u` an array
    of the state.  A non-finite `u0` raises ValueError, and a trajectory
    that turns non-finite NumericStepError, which names the first time it
    is.

    The state is a list of Python complex numbers, and every stage, stage
    sum and update is Python's scalar arithmetic, with each product a
    complex product: the same operations as numpy's arrays under baseline
    dispatch, where no product is fused, so the bits do not depend on
    numpy's SIMD dispatch.  `a` and `b` at each stage come from the
    field's tape of them (``jets._PAIR``, recorded at the first stage if
    the field has none), whose replay gives what they give on a complex
    `t` and the stage's state as numpy complex128 scalars, as on a plan of
    order 0.  Where the recording was refused, each stage calls them so,
    and a division by zero there gives inf or nan rather than an
    exception.  A step is one straight-line function per state dimension
    (`_rk4_step`).  v is evaluated at each step's three times, except at a
    start time equal to the last step's end time, where it is that step's
    v.
    """
    u = field._state(u0)
    if not (all(math.isfinite(x) for x in (t0, t_end, dt)) and np.isfinite(u).all()):
        raise ValueError("t0, t_end, dt and u0 must be finite")
    if dt <= 0:
        raise ValueError(f"micro step must be positive, got {dt}")
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
    value = osc.value
    x = u.tolist()
    # the field's tape of `a` and `b`, recorded at the first stage unless it
    # has one, and that stage's values if it was
    tape, ab = field._tape(_PAIR, (complex(t0), *x))
    pair = field._on_numbers if tape is None else tape
    rk4 = _rk4_step(field.m)(pair, h, h2, h6, two)
    times, states = [t0], [x]
    t, te, ve = t0, None, None
    # a non-finite state is reported below, not as a numpy warning
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i in range(n):
            # most steps start where the last one ended, in float: v(t)
            # is then the last step's v(te), from the same input
            v = ve if t == te else value(t)
            tm, te = t + dt / 2, t + dt
            ve = value(te)
            # the first stage's `a` and `b`: the recording's on the first
            # step if it gave them, and from `pair` on every other
            x = rk4(x, ab or pair((complex(t), *x)), complex(tm), complex(te), v, value(tm), ve)
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
