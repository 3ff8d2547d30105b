"""Independent ground truth: closed forms, quadrature, micro-RK4, slope fits.

Everything here is deliberately separate from the symbolic machinery, so
it can serve as an oracle for it: integrals are done by adaptive
Gauss-Kronrod quadrature (with an initial subinterval per half period for
oscillatory integrands), trajectories by a classical fixed-step RK4 on the
raw right-hand side, and the worked problems' exact solutions by their
closed forms.
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, QuadratureError, ResolutionError
from .jets import CoefficientField
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
    spans the interval.  Returns a list of (t, u) pairs.
    """
    if not all(math.isfinite(x) for x in (t0, t_end, dt)):
        raise ValueError("t0, t_end and dt must be finite")
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

    def rhs(t: float, u: np.ndarray) -> np.ndarray:
        return field.a_values(t, u) + field.b_values(t, u) * complex(osc.value(t))

    u = np.asarray(u0, dtype=complex)
    traj = [(t0, u.copy())]
    t = t0
    for i in range(n):
        k1 = rhs(t, u)
        k2 = rhs(t + dt / 2, u + dt / 2 * k1)
        k3 = rhs(t + dt / 2, u + dt / 2 * k2)
        k4 = rhs(t + dt, u + dt * k3)
        u = u + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t = t0 + (i + 1) * dt
        traj.append((t, u.copy()))
    return traj


def fit_slope(points) -> float:
    """Least-squares slope of log(error) against log(h)."""
    pts = list(points)
    if len(pts) < 3:
        raise ValueError("need at least three points to fit a slope")
    hs = np.array([p[0] for p in pts], dtype=float)
    errs = np.array([p[1] for p in pts], dtype=float)
    if not (np.isfinite(hs).all() and np.isfinite(errs).all()
            and (hs > 0).all() and (errs > 0).all()):
        raise ValueError("slope fit requires finite positive step sizes and errors")
    A = np.vstack([np.log(hs), np.ones_like(hs)]).T
    sol, *_ = np.linalg.lstsq(A, np.log(errs), rcond=None)
    return float(sol[0])
