"""Closed-form references, quadrature and the micro-step integrator."""

import cmath
import math

import numpy as np
import pytest

from oscistep import (DomainError, QuadratureError, ResolutionError,
                      TruncationPolicy, adaptive_quadrature, build_scheme,
                      builtin_field, exact_exp_macro, exact_pure_oscillatory,
                      fit_slope, make_field, make_oscillator, rk4_micro_solve,
                      step)
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
    ], ids=["dt-negative", "dt-zero", "t0-nan", "t_end-nan", "dt-nan", "t_end-inf"])
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
