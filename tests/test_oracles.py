"""Closed-form references, quadrature and the micro-step integrator."""

import cmath
import math

import numpy as np
import pytest

from oscistep import (DomainError, NumericStepError, QuadratureError, ResolutionError,
                      TruncationPolicy, adaptive_quadrature, build_scheme,
                      builtin_field, exact_exp_macro, exact_pure_oscillatory,
                      fit_slope, make_field, make_oscillator, rk4_micro_solve,
                      step)
from oscistep.cli import RunConfig, build_problem
from oscistep.oracles import QuadratureResult, _exact_exp_values, _oscillatory_integrals
from references import (cdi_linear_reference, cdi_nonlinear_reference,
                        freqdep_reference, taylor_partial_sum)


class TestQuadrature:
    def test_polynomial(self):
        q = adaptive_quadrature(lambda t: t * t + 0j, 0.0, 1.0, 1e-13)
        assert q.value == pytest.approx(1 / 3, abs=1e-14)
        assert q.error <= 1e-13
        assert q.evaluations > 0

    def test_fast_oscillation(self):
        q = adaptive_quadrature(lambda t: np.cos(1000.0 * t) + 0j, 0.0, 1.0,
                                1e-12, half_period=math.pi / 1000.0)
        assert q.value == pytest.approx(math.sin(1000.0) / 1000.0, abs=1e-12)

    def test_reversed_interval(self):
        q = adaptive_quadrature(lambda t: t + 0j, 1.0, 0.0, 1e-13)
        assert q.value == pytest.approx(-0.5, abs=1e-13)

    def test_empty_interval(self):
        q = adaptive_quadrature(lambda t: t + 0j, 0.7, 0.7, 1e-13)
        assert (q.value, q.error, q.evaluations) == (0j, 0.0, 0)

    def test_panel_budget_exhaustion(self):
        with pytest.raises(QuadratureError):
            adaptive_quadrature(lambda t: np.cos(1e6 * t) + 0j, 0.0, 1.0,
                                1e-14, max_panels=16)

    @pytest.mark.parametrize("f", [lambda t: 1 / (t - 0.5) + 0j, lambda t: t * math.nan + 0j],
                             ids=["pole", "nan"])
    def test_non_finite_integrand_raises(self, f):
        with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(QuadratureError):
            adaptive_quadrature(f, 0.0, 1.0, 1e-12)

    @pytest.mark.parametrize("a,b,tol", [(0.0, math.nan, 1e-12), (-math.inf, 1.0, 1e-12),
                                         (0.0, 1.0, math.nan)], ids=["b", "a", "tol"])
    def test_non_finite_arguments_rejected(self, a, b, tol):
        with pytest.raises(ValueError):
            adaptive_quadrature(lambda t: t + 0j, a, b, tol)


class TestPureOscillatory:
    def test_gamma_zero_is_exponential(self):
        assert exact_pure_oscillatory(0, 2.0, 0.3 + 0.1j) == pytest.approx(
            2.0 * cmath.exp(0.3 + 0.1j), rel=1e-15)

    def test_gamma_one_collapses(self):
        assert exact_pure_oscillatory(1, 1.5 + 0.5j, 0.2) == 1.7 + 0.5j

    def test_gamma_two_square_root(self):
        assert exact_pure_oscillatory(2, 1.0, 0.1) == pytest.approx(
            math.sqrt(1.2), rel=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            exact_pure_oscillatory(2, 1.0, -0.5)   # bracket hits zero
        with pytest.raises(DomainError):
            exact_pure_oscillatory(2, 1.0, -1.0)   # negative bracket, sqrt


class TestExpMacro:
    def test_oscillation_free_reduction(self):
        o = make_oscillator("cos", 50.0)
        got = exact_exp_macro(0.7, 0, 0.0, o, 1.3, 2.0)
        assert got == pytest.approx(2.0 * cmath.exp(0.7 * 1.3), rel=1e-12)
        got2 = exact_exp_macro(lambda s: s, 1, 0.0, o, 0.8, 1.0,
                               alpha_antideriv=lambda s: s * s / 2.0)
        assert got2 == pytest.approx(cmath.exp(0.32), rel=1e-12)

    def test_start_time_returns_u0(self):
        o = make_oscillator("cos", 50.0)
        assert exact_exp_macro(0.7, 2, 1.5, o, 0.0, 2.0 + 1j) == 2.0 + 1j

    @pytest.mark.parametrize("u0,match", [(0.0, "bracket vanished"), (1j, "negative bracket")],
                             ids=["separatrix", "negative-bracket"])
    def test_domain_errors(self, u0, match):
        # mu = 0 leaves the bracket u0^gamma: 0, or (1j)^2 = -1
        o = make_oscillator("cos", 50.0)
        with pytest.raises(DomainError, match=match):
            exact_exp_macro(0.7, 2, 0.0, o, 0.3, u0)

    def test_callable_alpha_requires_antiderivative(self):
        o = make_oscillator("cos", 50.0)
        with pytest.raises(ValueError):
            exact_exp_macro(lambda s: s, 1, 1.0, o, 0.5, 1.0)

    def test_linear_case_cross_checked_against_rk4(self):
        # the two oracles agree along the whole interval, not just the end
        mu, om = 10.0, 100.0
        o = make_oscillator("cos", om)
        f = builtin_field("linear", mu=mu)
        for t in (0.25, 0.5, 1.0):
            want = exact_exp_macro(lambda s: s, 1, mu, o, t, 1.0,
                                   alpha_antideriv=lambda s: s * s / 2.0)
            traj = rk4_micro_solve(f, o, 0.0, np.array([1.0 + 0j]), t, o.period / 200)
            assert abs(traj[-1][1][0] - want) / abs(want) < 1e-6

    def test_nonlinear_case_cross_checked_against_rk4(self):
        mu, alpha, om = 10.0, 2j, 100.0
        o = make_oscillator("exp", om)
        f = builtin_field("nonlinear", alpha=alpha, mu=mu)
        for t in (0.25, 0.5, 1.0):
            want = exact_exp_macro(alpha, -1, mu, o, t, 1.0)
            traj = rk4_micro_solve(f, o, 0.0, np.array([1.0 + 0j]), t, o.period / 200)
            assert abs(traj[-1][1][0] - want) / abs(want) < 1e-6


# the README solve's output times
SOLVE_TIMES = [0.0, *(i * 0.02 for i in range(1, 51))]

# closed forms of the command-line problems, as (RunConfig fields; alpha,
# "t" for alpha(t) = t; gamma; mu), u0 = 1 throughout
CLOSED_FORMS = {
    "linear": (dict(problem="linear", mu=10.0), "t", 1, 10.0),
    "nonlinear": (dict(problem="nonlinear", alpha=2j, mu=10.0), 2j, -1, 10.0),
    "gamma-0": (dict(problem="custom-fourier", gamma=0, alpha=0.3, mu=0.5 - 0.2j, phi=0.4,
                     fourier={"1": [0.6, 0.1], "-2": 0.3}), 0.3, 0, 0.5 - 0.2j),
    # u = u0 (1 + 2 u0^-2 dV)^(1/2) is the gamma = 2 bracket with alpha = 0, mu = 1
    "power": (dict(problem="power", gamma=2, phi=0.2), 0.0, 2, 1.0),
    "custom-fourier": (dict(problem="custom-fourier", gamma=2, alpha=0.2 - 0.1j, mu=0.4,
                            nu=-0.5, fourier={"0": [0.25, -0.1], "1": 0.5, "-1": [0.3, 0.2]}),
                       0.2 - 0.1j, 2, 0.4),
}


def mp_closed_form(mp, osc, alpha, gamma, mu, times):
    """u at each of the increasing `times` from u0 = 1, from the same
    doubles as the oracle, with the inner integral a 40-digit quadrature
    of each segment between consecutive times."""
    mpc = lambda z: mp.mpc(complex(z).real, complex(z).imag)
    om, phi, amp = mp.mpf(osc.omega), mp.mpf(osc.phi), mp.mpf(osc.omega) ** -mp.mpf(osc.nu)
    coeffs = [(k, mpc(c)) for k, c in osc.coeffs]
    offset = mpc(osc.removed_mean)
    A = (lambda s: s * s / 2) if alpha == "t" else (lambda s: mpc(alpha) * s)

    def f(s):
        v = amp * mp.fsum(c * mp.expj(k * (om * s + phi)) for k, c in coeffs) + offset
        return v * mp.exp(-gamma * A(s))

    out, inner = [], mp.mpf(0)
    for t0, t1 in zip([0.0, *times], times):
        inner += mp.quad(f, [mp.mpf(t0), mp.mpf(t1)], method="gauss-legendre")
        if t1 == 0:
            out.append(mp.mpc(1))
        elif gamma == 0:
            out.append(mp.exp(A(t1) + mpc(mu) * inner))
        else:
            out.append(mp.exp(A(t1)) * mp.power(gamma * mpc(mu) * inner + 1, mp.mpf(1) / gamma))
    return out


class TestCumulativeOracle:
    """The exact oracle in one pass across a command's times."""

    @pytest.mark.parametrize("name", CLOSED_FORMS)
    def test_matches_mpmath_at_the_readme_solve_times(self, name):
        mp = pytest.importorskip("mpmath")
        fields, alpha, gamma, mu = CLOSED_FORMS[name]
        prob = build_problem(RunConfig(u0=1.0, **fields))
        got = prob.exact(SOLVE_TIMES)
        with mp.workdps(40):
            want = mp_closed_form(mp, prob.osc, alpha, gamma, mu, SOLVE_TIMES)
            errs = [float(abs(g - w) / abs(w)) for g, w in zip(got, want)]
        assert got[0] == 1.0
        assert max(errs) < 1e-14

    def test_every_times_error_estimate_is_within_tol(self):
        o = make_oscillator("exp", 100.0, 0.3)
        tol = 1e-10
        qs = _oscillatory_integrals(lambda s: o.value(s) * cmath.exp(-s * s), o,
                                    SOLVE_TIMES, tol)
        assert [q.error for q in qs] == sorted(q.error for q in qs)
        assert qs[0] == QuadratureResult(0j, 0.0, 0) and all(q.error <= tol for q in qs)
        # the one-time case meets the same tolerance over the whole span
        one = _oscillatory_integrals(lambda s: o.value(s) * cmath.exp(-s * s), o, [1.0], tol)
        assert one[0].error <= tol and abs(one[0].value - qs[-1].value) < 2 * tol

    def test_time_zero_gives_u0(self):
        o = make_oscillator("cos", 50.0)
        got = _exact_exp_values(0.7, 2, 1.5, o, [0.0, 0.0, 0.3], 2.0 + 1j)
        assert got[:2] == [2.0 + 1j, 2.0 + 1j]
        assert got[2] == pytest.approx(exact_exp_macro(0.7, 2, 1.5, o, 0.3, 2.0 + 1j),
                                       rel=1e-12)

    @pytest.mark.parametrize("u0,mu,times,k,match", [
        # mu = 0 leaves the bracket u0^2 = 0 at every time after 0
        (0.0, 0.0, [0.0, 0.1, 0.2], 1, "bracket vanished"),
        # 0.01 - 2 sin t, real on the cos oscillator, turns negative past t = 0.005
        (0.1, -1.0, [0.001, 0.002, 0.004, 0.01, 0.02], 3, "negative bracket")],
        ids=["separatrix", "negative-bracket"])
    def test_a_bracket_failing_at_the_kth_time_raises_as_the_one_time_call(
            self, u0, mu, times, k, match):
        o = make_oscillator("cos", 1.0)
        before = _exact_exp_values(0.0, 2, mu, o, times[:k], u0)
        for t, u in zip(times[:k], before):
            assert u == pytest.approx(exact_exp_macro(0.0, 2, mu, o, t, u0), rel=1e-12)
        with pytest.raises(DomainError, match=match) as one:
            exact_exp_macro(0.0, 2, mu, o, times[k], u0)
        with pytest.raises(DomainError, match=match) as many:
            _exact_exp_values(0.0, 2, mu, o, times, u0)
        assert str(many.value) == str(one.value)

    def test_times_must_run_away_from_zero(self):
        o = make_oscillator("cos", 50.0)
        with pytest.raises(ValueError, match="monotonically"):
            _exact_exp_values(0.7, 1, 1.0, o, [0.2, 0.1], 1.0)


class TestRK4:
    def test_smooth_exponential(self):
        f = make_field(1, lambda t, u: [u[0]], lambda t, u: [0.0 * t])
        o = make_oscillator("cos", 100.0)
        traj = rk4_micro_solve(f, o, 0.0, np.array([1.0 + 0j]), 1.0, 1e-3)
        assert abs(traj[-1][1][0] - math.e) < 1e-10

    def test_fourth_order_error_scaling(self):
        f = make_field(1, lambda t, u: [u[0]], lambda t, u: [0.0 * t])
        o = make_oscillator("cos", 100.0)
        errs = []
        for dt in (2e-3, 1e-3):
            traj = rk4_micro_solve(f, o, 0.0, np.array([1.0 + 0j]), 1.0, dt)
            errs.append(abs(traj[-1][1][0] - math.e))
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.2)

    def test_resolution_guard(self):
        f = builtin_field("linear", mu=1.0)
        o = make_oscillator("cos", 100.0)
        with pytest.raises(ResolutionError):
            rk4_micro_solve(f, o, 0.0, np.array([1.0 + 0j]), 1.0, 0.01)

    @pytest.mark.parametrize("t0,t_end,dt,match", [
        (0.0, 1.0, -0.001, "positive"),
        (0.0, 1.0, 0.0, "positive"),
        (math.nan, 1.0, 1e-3, "finite"),
        (0.0, math.nan, 1e-3, "finite"),
        (0.0, 1.0, math.nan, "finite"),
        (0.0, math.inf, 1e-3, "finite"),
        (1.0, 1.0, 1e-3, "t_end must exceed t0"),
        (1.0, 0.5, 1e-3, "t_end must exceed t0"),
    ], ids=["dt-negative", "dt-zero", "t0-nan", "t_end-nan", "dt-nan", "t_end-inf",
            "empty", "reversed"])
    def test_bad_times_rejected(self, t0, t_end, dt, match):
        # a negative dt would pass the resolution check and step backwards
        f = builtin_field("linear", mu=1.0)
        o = make_oscillator("cos", 100.0)
        with pytest.raises(ValueError, match=match):
            rk4_micro_solve(f, o, t0, np.array([1.0 + 0j]), t_end, dt)

    def test_state_dimension_checked(self):
        f = builtin_field("linear", mu=1.0)
        o = make_oscillator("cos", 100.0)
        with pytest.raises(ValueError, match="state must have shape"):
            rk4_micro_solve(f, o, 0.0, np.array([1.0, 2.0], dtype=complex), 0.1,
                            o.period / 200)

    @pytest.mark.parametrize("u0", [math.nan, math.inf, complex(1.0, -math.inf)])
    def test_non_finite_start_rejected(self, u0):
        f = builtin_field("linear", mu=1.0)
        o = make_oscillator("cos", 100.0)
        with pytest.raises(ValueError, match="u0 must be finite"):
            rk4_micro_solve(f, o, 0.0, np.array([u0], dtype=complex), 0.1, o.period / 200)

    @pytest.mark.parametrize("field,u0,first", [
        # b = 1/u divides by zero at once
        (builtin_field("power", gamma=2), 0.0, "0.01"),
        # b = u^2 overflows at once
        (builtin_field("nonlinear"), 1e200, "0.01"),
        # a = 5000 u t grows past the largest float before t = 1
        (make_field(1, lambda t, u: [u[0] * 5e3 * t], lambda t, u: [0.0 * t]), 1.0, "0.85")],
        ids=["power-from-zero", "nonlinear-from-1e200", "linear-blow-up"])
    def test_non_finite_trajectory_raises(self, field, u0, first):
        o = make_oscillator("cos", 2 * math.pi)
        with pytest.raises(NumericStepError, match=f"not finite at t = {first}$"):
            rk4_micro_solve(field, o, 0.0, np.array([u0], dtype=complex), 1.0, 0.01)

    def test_oscillatory_benchmark_configuration(self):
        # gamma = 0 family: du/dt = t u + mu u cos(omega t)
        mu, om = 10.0, 100.0
        o = make_oscillator("cos", om)
        f = make_field(1, lambda t, u: [t * u[0]], lambda t, u: [mu * u[0]])
        want = exact_exp_macro(lambda s: s, 0, mu, o, 1.0, 1.0,
                               alpha_antideriv=lambda s: s * s / 2.0)
        traj = rk4_micro_solve(f, o, 0.0, np.array([1.0 + 0j]), 1.0, o.period / 200)
        assert abs(traj[-1][1][0] - want) / abs(want) < 1e-6


class TestComparisonFixtures:
    def test_linear_reference_without_oscillation(self):
        assert cdi_linear_reference(2.0, 0.0, 100.0, 0.1) == pytest.approx(
            2.0 * math.exp(0.005), rel=1e-15)

    def test_linear_reference_duplicate_evaluation(self):
        u0, mu, om, h = 1.0, 10.0, 100.0, 0.1
        want = (u0 * math.exp(h * h / 2) + mu * math.sin(om * h) / om
                - h * mu * math.cos(om * h) / om ** 2)
        assert cdi_linear_reference(u0, mu, om, h) == pytest.approx(want, rel=1e-15)

    def test_linear_reference_vs_order4_step(self):
        # the two step rules differ by u0 (e^(h^2/2) - Taylor) minus the
        # h cos(omega h)/omega^2 term; both pieces are fifth order
        u0, mu, om, h = 1.0, 10.0, 100.0, 0.1
        sch = build_scheme(make_oscillator("cos", om),
                           TruncationPolicy.from_order(4, 2))
        got = step(sch, builtin_field("linear", mu=mu), 0.0,
                   np.array([u0 + 0j]), h).u_next[0]
        diff = cdi_linear_reference(u0, mu, om, h) - got
        want = (u0 * (math.exp(h * h / 2) - (1 + h * h / 2 + h ** 4 / 8))
                - h * mu * math.cos(om * h) / om ** 2)
        assert diff == pytest.approx(want, rel=1e-10)

    def test_nonlinear_reference_without_oscillation(self):
        alpha = 0.4 + 0.2j
        got = cdi_nonlinear_reference(1.5, 0.0, alpha, 100.0, 0.1)
        assert got == pytest.approx(1.5 * cmath.exp(alpha * 0.1), rel=1e-15)

    def test_nonlinear_reference_duplicate_evaluation(self):
        u0, mu, alpha, om, h = 1.0 + 0j, 10.0, 2j, 100.0, 0.1
        vh = cmath.exp(1j * om * h)
        e = cmath.exp(alpha * h)
        want = (u0 * e + (1 / om) * (1 - vh * e) * 1j * mu * u0 ** 2 * e
                + (1 / om ** 2) * (-(alpha + mu * u0) + (alpha + 2 * mu * u0) * vh * e
                                   - mu * u0 * vh * vh * e * e) * mu * u0 ** 2 * e)
        assert cdi_nonlinear_reference(u0, mu, alpha, om, h) == pytest.approx(
            want, rel=1e-15)

    def test_nonlinear_reference_near_order4_step(self):
        # Taylor-consistency: the reference and the order-(4,2) step agree
        # up to the truncation order
        u0, mu, alpha, om, h = 1.0 + 0j, 3.0, 0.4 + 0j, 400.0, 0.05
        sch = build_scheme(make_oscillator("exp", om),
                           TruncationPolicy.from_order(4, 2))
        got = step(sch, builtin_field("nonlinear", alpha=alpha, mu=mu), 0.0,
                   np.array([u0]), h).u_next[0]
        ref = cdi_nonlinear_reference(u0, mu, alpha, om, h)
        assert abs(ref - got) < 1e-5
        assert abs(ref - got) / abs(ref) > 0  # distinct rules

    def test_freqdep_reference_without_oscillation(self):
        alpha, h = 0.3 + 1j, 0.1
        got = freqdep_reference(1.2, 0.0, alpha, 100.0, h)
        assert got == pytest.approx(taylor_partial_sum(4, h * alpha) * 1.2, rel=1e-15)

    def test_freqdep_reference_duplicate_evaluation(self):
        u0, mu, alpha, om, h = 1.0, 1.0, 1j, 100.0, 0.1
        S = taylor_partial_sum
        hp = h * alpha
        vh = cmath.exp(1j * om * h)
        want = (S(4, hp) * u0
                + om ** -0.5 * (S(3, hp) - vh * S(3, 2 * hp)) * 1j * mu * u0 ** 2
                - om ** -1.0 * (S(2, hp) - 2 * vh * S(2, 2 * hp)
                                + vh ** 2 * S(2, 3 * hp)) * mu ** 2 * u0 ** 3
                - om ** -1.5 * (S(1, hp) - vh * S(1, 2 * hp)) * alpha * mu * u0 ** 2
                - om ** -1.5 * (S(1, hp) - 3 * vh * S(1, 2 * hp)
                                + 3 * vh ** 2 * S(1, 3 * hp)
                                - vh ** 3 * S(1, 4 * hp)) * 1j * mu ** 3 * u0 ** 4
                - om ** -2.0 * (1 - vh) ** 2 * 2j * alpha * mu ** 2 * u0 ** 3
                + om ** -2.0 * (1 - vh) ** 4 * mu ** 4 * u0 ** 5)
        assert freqdep_reference(u0, mu, alpha, om, h) == pytest.approx(want, rel=1e-15)

    def test_freqdep_reference_matches_stepper(self):
        u0, mu, alpha, om, h = 1.0 + 0j, 1.0, 0.7 + 0j, 100.0, 0.1
        o = make_oscillator("exp", om, nu=-0.5)
        sch = build_scheme(o, TruncationPolicy.from_order(4, 2, nu=-0.5))
        got = step(sch, builtin_field("nonlinear", alpha=alpha, mu=mu), 0.0,
                   np.array([u0]), h).u_next[0]
        assert got == pytest.approx(freqdep_reference(u0, mu, alpha, om, h), rel=1e-12)


class TestFitSlope:
    def test_exact_quadratic(self):
        pts = [(h, h * h) for h in (0.4, 0.2, 0.1, 0.05)]
        assert fit_slope(pts) == pytest.approx(2.0, abs=1e-12)

    def test_scaled_quintic(self):
        pts = [(h, 3 * h ** 5) for h in (0.4, 0.2, 0.1)]
        assert fit_slope(pts) == pytest.approx(5.0, abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_slope([(0.1, 1.0), (0.2, 2.0)])
        with pytest.raises(ValueError):
            fit_slope([(0.1, 1.0), (0.2, 0.0), (0.3, 1.0)])

    def test_nan_error_rejected(self):
        with pytest.raises(ValueError):
            fit_slope([(0.1, 1.0), (0.2, math.nan), (0.3, 3.0)])

    def test_one_distinct_step_size_rejected(self):
        # the least-squares fit is rank-deficient there: it returned 2.31
        with pytest.raises(ValueError, match="two distinct step sizes"):
            fit_slope([(0.1, 1e-3), (0.1, 2e-3), (0.1, 3e-3)])
        # two distinct of three determine the slope
        assert fit_slope([(0.1, 1e-2), (0.1, 1e-2), (0.2, 4e-2)]) == pytest.approx(2.0, abs=1e-12)
