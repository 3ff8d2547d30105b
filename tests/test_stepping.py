"""Scheme tables, stepping, phase averaging and remainder bounds."""

import itertools
import math
import re
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from oscistep import (BoundInputs, NumericStepError, TruncationPolicy, Word,
                      bound_R11, bound_R22, build_scheme, builtin_field,
                      estimate_coefficient_bound, big_v, exact_exp_macro,
                      integration_call_count, iterated_integral, make_field,
                      make_oscillator, operator_values, solve, step, step_phase_averaged)
from oscistep.jets import CoefficientField, Jet
from oscistep.oscillator import BasisPoly, absorb_mean
from oscistep.stepping import BOUND_T_SAMPLES, BOUND_U_SAMPLES, SchemeTable


def pol(kappa, rho, nu=0.0):
    return TruncationPolicy.from_order(kappa, rho, nu)


def u1(z):
    return np.array([z], dtype=complex)


class TestBuildScheme:
    def test_first_order_table(self):
        o = make_oscillator("cos", 50.0)
        sch = build_scheme(o, TruncationPolicy(1, 1))
        assert [str(e.word) for e in sch.entries] == ["T", "V"]
        assert sch.entries[0].word.target == "a"
        assert sch.entries[0].coeff.term_dict == {(1, 0, 0, 0, 0): 1.0}
        # V coefficient evaluates to the increment of the antiderivative
        V = big_v(o)
        got = sch.entries[1].coeff.eval_shifted(o, 0.07, 0.3)
        assert got == pytest.approx(V.eval_shifted(o, 0.37, 0.0) - V.eval_shifted(o, 0.3, 0.0),
                                    abs=1e-15)

    def test_second_order_table_has_six_entries(self):
        sch = build_scheme(make_oscillator("exp", 50.0), TruncationPolicy(2, 2))
        assert [str(e.word) for e in sch.entries] == ["T", "V", "TT", "TV", "VT", "VV"]

    def test_order4_regime2_retains_eleven_words(self):
        # the order test Q0/4 + Q1/2 <= 1 keeps all six mixed words as well
        # as the four drift chains and V
        sch = build_scheme(make_oscillator("cos", 50.0), pol(4, 2))
        assert [str(e.word) for e in sch.entries] == [
            "T", "V", "TT", "TV", "VT", "VV",
            "TTT", "TTV", "TVT", "VTT", "TTTT"]
        assert sch.jet_order == 3

    def test_rebuild_is_deterministic_and_cached(self):
        o = make_oscillator("cos", 123.0, phi=0.5)
        a = build_scheme(o, pol(3, 2))
        b = build_scheme(o, pol(3, 2))
        assert a.entries is b.entries

    def test_empty_policy_warns(self):
        with pytest.warns(UserWarning):
            sch = build_scheme(make_oscillator("cos", 5.0), TruncationPolicy(0.5, 0.5))
        f = builtin_field("linear", mu=1.0)
        res = step(sch, f, 0.0, u1(1.0), 0.1)
        assert res.u_next[0] == 1.0

    def test_low_order_policies_keep_exact_coefficients(self):
        # the remainder bounds assume the (1,1) and (2,2) step rules use
        # the raw integrals; the order filter must be a no-op there
        o = make_oscillator("fourier", 45.0, phi=0.7,
                            coeffs={1: 0.4, -1: 0.4, 2: 0.1j, -2: -0.1j})
        for k in (1, 2):
            t = build_scheme(o, TruncationPolicy(k, k))
            x = build_scheme(o, TruncationPolicy(k, k), truncate_coefficients=False)
            for et, ex in zip(t.entries, x.entries):
                assert et.coeff.term_dict == ex.coeff.term_dict

    def test_raw_table_matches_iterated_integrals(self):
        o = make_oscillator("exp", 55.0, phi=0.2)
        sch = build_scheme(o, pol(4, 2), truncate_coefficients=False)
        for e in sch.entries:
            got = e.coeff.eval_shifted(o, 0.13, 0.4)
            want = iterated_integral(e.word, o, 0.4, 0.13)
            assert got == pytest.approx(want, abs=1e-15)

    def test_table_reused_across_fields_without_new_integration(self):
        o = make_oscillator("fourier", 33.0,
                            coeffs={1: 0.3, -1: 0.3, 2: 0.2j, -2: -0.2j})
        sch = build_scheme(o, pol(3, 1))
        before = integration_call_count()
        f1 = builtin_field("linear", mu=2.0)
        f2 = builtin_field("nonlinear", alpha=0.5, mu=0.7)
        step(sch, f1, 0.0, u1(1.0), 0.05)
        step(sch, f2, 0.2, u1(0.9 + 0.1j), 0.05)
        assert integration_call_count() == before

    def test_cold_build_integrates_each_word_once(self):
        # each word's integral extends its (retained, cached) prefix's by
        # one antiderivative; the k = 5 structure is cold in this process
        o = make_oscillator("fourier", 40.0,
                            coeffs={1: 0.25, -1: 0.25, 5: 0.05j, -5: -0.05j})
        before = integration_call_count()
        sch = build_scheme(o, pol(4, 2))
        assert integration_call_count() - before == len(sch.entries)

    def test_symbolic_caches_are_bounded(self):
        from oscistep.stepping import SCHEME_CACHE_SIZE, _scheme_entries
        from oscistep.terms import PRIMITIVE_CACHE_SIZE, _primitive_cached
        # each (4,1) structure caches 31 word integrals (with the empty word)
        count = max(SCHEME_CACHE_SIZE, PRIMITIVE_CACHE_SIZE // 31) + 1
        for i in range(count):
            build_scheme(make_oscillator("fourier", 20.0, coeffs={1: 1.0, -1: 0.3 + 1e-3 * i}),
                         pol(4, 1))
        assert _scheme_entries.cache_info().currsize == SCHEME_CACHE_SIZE
        assert _primitive_cached.cache_info().currsize == PRIMITIVE_CACHE_SIZE


class TestStep:
    def test_linear_case_closed_form(self):
        # a = u t, b = mu, v = cos(omega t), order-(4,2) step from t = 0
        mu, om, h, u0 = 10.0, 100.0, 0.1, 1.0 + 0j
        sch = build_scheme(make_oscillator("cos", om), pol(4, 2))
        res = step(sch, builtin_field("linear", mu=mu), 0.0, u1(u0), h)
        want = u0 * (1 + h * h / 2 + h ** 4 / 8) + mu * math.sin(om * h) / om
        assert res.u_next[0] == pytest.approx(want, rel=1e-13)
        assert res.u_next[0] == u0 + sum(c[0] for c in res.contributions)

    def test_first_order_step_is_two_terms(self):
        rng = np.random.default_rng(8)
        o = make_oscillator("exp", 70.0, phi=0.4)
        sch = build_scheme(o, TruncationPolicy(1, 1))
        f = builtin_field("nonlinear", alpha=0.3 + 1j, mu=0.8)
        V = big_v(o)
        for _ in range(5):
            tn = float(rng.uniform(0, 1))
            h = float(rng.uniform(0.01, 0.3))
            u0 = complex(rng.normal(1, 0.2), rng.normal(0, 0.2))
            res = step(sch, f, tn, u1(u0), h)
            dv = V.eval_shifted(o, tn + h, 0.0) - V.eval_shifted(o, tn, 0.0)
            values = operator_values(f, [("a", ()), ("b", ())], tn, u1(u0))
            want = u0 + values["a", ()][0] * h + values["b", ()][0] * dv
            assert res.u_next[0] == pytest.approx(want, rel=1e-14)

    def test_drift_only_truncated_exponential(self):
        f = make_field(1, lambda t, u: [u[0]], lambda t, u: [0.0 * t])
        sch = build_scheme(make_oscillator("cos", 40.0), TruncationPolicy(4, 4))
        h = 0.3
        res = step(sch, f, 0.0, u1(1.0), h)
        want = 1 + h + h * h / 2 + h ** 3 / 6 + h ** 4 / 24
        assert res.u_next[0] == pytest.approx(want, rel=1e-15)

    def test_power_gamma1_step_is_exact_increment(self):
        f = builtin_field("power", gamma=1)  # b = 1
        o = make_oscillator("cos", 1.0)
        sch = build_scheme(o, TruncationPolicy(1.0, 8.0))
        h = 0.8
        res = step(sch, f, 0.0, u1(2.0), h)
        assert res.u_next[0] == pytest.approx(2.0 + math.sin(h), abs=1e-15)

    def test_power_series_matches_product_formula(self):
        # all-V scheme: m-th term is dV^m/m! times the (m-1)-fold noise
        # operator applied to b; for b = u^(1-gamma) this telescopes to
        # u0^(1-m gamma) prod_(s<m) (1 - s gamma)
        gamma, u0 = 2, 1.3 + 0j
        f = builtin_field("power", gamma=gamma)
        o = make_oscillator("cos", 1.0)
        sch = build_scheme(o, TruncationPolicy(1.0, 6.0))
        tn, h = 0.0, 0.45
        dv = math.sin(h)
        res = step(sch, f, tn, u1(u0), h)
        want = u0
        for m in range(1, 7):
            coef = u0 ** (1 - m * gamma)
            for s in range(1, m):
                coef *= (1 - s * gamma)
            want += dv ** m / math.factorial(m) * coef
        assert res.u_next[0] == pytest.approx(want, rel=1e-13)

    def test_h_zero_is_identity(self):
        sch = build_scheme(make_oscillator("cos", 50.0), pol(4, 2))
        res = step(sch, builtin_field("linear", mu=3.0), 0.2, u1(1.5), 0.0)
        assert res.u_next[0] == 1.5
        assert all(c[0] == 0 for c in res.contributions)

    def test_negative_h_rejected(self):
        sch = build_scheme(make_oscillator("cos", 50.0), pol(2, 1))
        with pytest.raises(ValueError):
            step(sch, builtin_field("linear", mu=1.0), 0.0, u1(1.0), -0.1)

    def test_order_zero_step_checks_field_dimension(self):
        # a (1,1) step needs no jets, only plain values of a and b
        f = make_field(2, lambda t, u: [u[0]], lambda t, u: [u[0], u[1]])
        o = make_oscillator("cos", 50.0)
        u = np.array([1.0, 2.0], dtype=complex)
        for policy in (TruncationPolicy(1, 1), TruncationPolicy(2, 2)):
            with pytest.raises(ValueError, match="wrong dimension"):
                step(build_scheme(o, policy), f, 0.0, u, 0.1)

    @pytest.mark.parametrize("policy", [TruncationPolicy(1, 1), pol(4, 2)])
    def test_mean_field_checks_field_dimension(self, policy):
        # `a` returns m + 1 components: an absorbed mean must not cut them to m
        f = make_field(1, lambda t, u: [u[0], t], lambda t, u: [u[0] * u[0]])
        sch = build_scheme(make_oscillator("cos", 50.0), policy)
        for field in (f, absorb_mean(f, 0.3)):
            with pytest.raises(ValueError) as err:
                step(sch, field, 0.0, u1(1.0), 0.1)
            assert str(err.value) == "coefficient function returned wrong dimension"

    def test_overflowing_sum_of_finite_contributions_raises(self):
        # every term is finite and their sum is not: a step returns no
        # non-finite state, whatever numpy's error state, and warns of nothing
        f = make_field(1, lambda t, u: [1e308 + 0.0 * u[0]], lambda t, u: [0.0 * t])
        sch = build_scheme(make_oscillator("cos", 5.0), TruncationPolicy(1, 1))
        for state in ("ignore", "warn", "raise"):
            with np.errstate(all=state), warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericStepError,
                                   match="^the sum of finite contributions overflowed$"):
                    step(sch, f, 0.0, u1(1e308), 1.0)

    def test_non_finite_contribution_identifies_term(self):
        f = make_field(1, lambda t, u: [u[0] * 1e308], lambda t, u: [0.0 * t])
        sch = build_scheme(make_oscillator("cos", 5.0), TruncationPolicy(2, 2))
        with pytest.raises(NumericStepError, match="term T"):
            step(sch, f, 0.0, u1(1e30), 10.0)


class TestHigherCorrections:
    def test_next_order_corrections_linear_case(self):
        mu, om, h = 100.0, 50.0, 0.2
        f = builtin_field("linear", mu=mu)
        o = make_oscillator("cos", om)
        outs = {}
        for kappa in (4, 5, 6):
            sch = build_scheme(o, pol(kappa, 2))
            outs[kappa] = step(sch, f, 0.0, u1(1.0), h).u_next[0]
        want5 = -mu * h * math.cos(om * h) / om ** 2
        want6 = h ** 6 / 48 + mu * math.sin(om * h) / om ** 3
        assert outs[5] - outs[4] == pytest.approx(want5, rel=1e-12)
        assert outs[6] - outs[5] == pytest.approx(want6, rel=1e-12)


class TestPhaseAveraging:
    def test_noise_free_problem_unchanged(self):
        f = make_field(1, lambda t, u: [0.7 * u[0]], lambda t, u: [0.0 * t])
        sch = build_scheme(make_oscillator("cos", 60.0, phi=1.2), pol(4, 2))
        a = step(sch, f, 0.1, u1(1.1), 0.2).u_next[0]
        b = step_phase_averaged(sch, f, 0.1, u1(1.1), 0.2).u_next[0]
        assert a == b

    def test_closed_form_average(self):
        # averaged order-(4,2) step: drift chain plus the noise-squared
        # term (1 - cos(omega h)) / (2 omega^2)
        alpha, mu, om, h = 0.3, 2.0, 100.0, 0.1
        t, u0 = 0.3, 0.9 + 0j
        f = builtin_field("nonlinear", alpha=alpha, mu=mu)
        sch = build_scheme(make_oscillator("cos", om, phi=0.77), pol(4, 2))
        got = step_phase_averaged(sch, f, t, u1(u0), h).u_next[0]
        want = (u0 + alpha * u0 * h + alpha ** 2 * u0 * h * h / 2
                + alpha ** 3 * u0 * h ** 3 / 6 + alpha ** 4 * u0 * h ** 4 / 24
                + 2 * mu * mu * u0 ** 3 * (1 - math.cos(om * h)) / (2 * om * om))
        assert got == pytest.approx(want, rel=1e-14)

    def test_averaged_coefficients_built_once_per_cached_table(self, monkeypatch):
        f = builtin_field("nonlinear", alpha=0.3, mu=2.0)
        # a Fourier structure no other test builds, so its entries start cold
        o = make_oscillator("fourier", 70.0, phi=0.4, coeffs={1: 0.5, -1: 0.5, 3: 0.1j})
        sch = build_scheme(o, pol(4, 2))
        # phase_average filters a coefficient's terms; a step never does:
        # the averages are the Z^0 constants of the table's coefficient plan
        calls = []
        filtered = BasisPoly.filtered
        monkeypatch.setattr(BasisPoly, "filtered",
                            lambda poly, keep: calls.append(poly) or filtered(poly, keep))
        first = step_phase_averaged(sch, f, 0.3, u1(0.9), 0.1)
        again = step_phase_averaged(sch, f, 0.3, u1(0.9), 0.1)
        # a rebuild at another phase hits the scheme cache and its entries
        rebuilt = build_scheme(make_oscillator("fourier", 70.0, phi=1.3,
                                               coeffs={1: 0.5, -1: 0.5, 3: 0.1j}), pol(4, 2))
        step_phase_averaged(rebuilt, f, 0.3, u1(0.9), 0.1)
        step(rebuilt, f, 0.3, u1(0.9), 0.1)
        assert calls == []
        assert rebuilt.entries.plan is sch.entries.plan
        assert again.u_next.tolist() == first.u_next.tolist()

    def test_monte_carlo_phase_mean(self):
        rng = np.random.default_rng(101)
        alpha, mu, om, h = 0.4, 1.5, 80.0, 0.12
        f = builtin_field("nonlinear", alpha=alpha, mu=mu)
        base = make_oscillator("cos", om)
        sch = build_scheme(base, pol(4, 2))
        analytic = step_phase_averaged(sch, f, 0.0, u1(1.0), h).u_next[0]
        n = 10000
        samples = np.empty(n, dtype=complex)
        for i, phi in enumerate(rng.uniform(0.0, 2 * math.pi, size=n)):
            o = make_oscillator("cos", om, phi=phi)
            s = build_scheme(o, pol(4, 2))
            samples[i] = step(s, f, 0.0, u1(1.0), h).u_next[0]
        mean = samples.mean()
        sem_re = samples.real.std(ddof=1) / math.sqrt(n)
        sem_im = samples.imag.std(ddof=1) / math.sqrt(n)
        assert abs(mean.real - analytic.real) <= 3 * sem_re + 1e-12
        assert abs(mean.imag - analytic.imag) <= 3 * sem_im + 1e-12


class TestSolve:
    def test_single_step_equals_step(self):
        f = builtin_field("linear", mu=10.0)
        sch = build_scheme(make_oscillator("cos", 100.0), pol(4, 2))
        traj = solve(sch, f, 0.0, u1(1.0), 0.1, 0.1)
        assert len(traj) == 2
        assert traj[-1][1][0] == step(sch, f, 0.0, u1(1.0), 0.1).u_next[0]

    def test_endpoints_included(self):
        f = builtin_field("linear", mu=1.0)
        sch = build_scheme(make_oscillator("cos", 100.0), pol(2, 2))
        traj = solve(sch, f, 0.5, u1(1.0), 0.9, 0.1)
        assert traj[0][0] == 0.5 and traj[-1][0] == pytest.approx(0.9)
        assert len(traj) == 5

    def test_step_must_divide_interval(self):
        f = builtin_field("linear", mu=1.0)
        sch = build_scheme(make_oscillator("cos", 100.0), pol(2, 2))
        with pytest.raises(ValueError):
            solve(sch, f, 0.0, u1(1.0), 1.0, 0.3)

    @pytest.mark.parametrize("t0,t_end,h", [(0.0, 1e-9, 6e-10), (0.0, 1e-6, 3e-7),
                                            (1e6, 1e6 + 1e-3, 1.5e-4)],
                             ids=["1e-9", "1e-6", "far-from-0"])
    def test_step_must_divide_a_short_interval(self, t0, t_end, h):
        # the slack is relative to the span, not to 1
        f = builtin_field("linear", mu=1.0)
        sch = build_scheme(make_oscillator("cos", 100.0), pol(2, 2))
        with pytest.raises(ValueError, match="does not divide the interval length"):
            solve(sch, f, t0, u1(1.0), t_end, h)

    @pytest.mark.parametrize("t0,t_end,h,n", [(1e6, 1e6 + 1e-3, 1e-4, 10),
                                              (0.0, 1e-9, 1e-10, 10), (0.5, 0.9, 0.1, 4),
                                              (0.0, 0.3, 0.1, 3)],
                             ids=["far-from-0", "1e-9", "0.5-0.9", "0-0.3"])
    def test_a_dividing_step_is_accepted_despite_rounding(self, t0, t_end, h, n):
        # 1e6 + 1e-3 is off by up to half an ulp of 1e6, a tenth of a
        # millionth of the span; 0.3 / 0.1 is 2.9999999999999996
        f = builtin_field("linear", mu=1.0)
        sch = build_scheme(make_oscillator("cos", 100.0), pol(2, 2))
        assert len(solve(sch, f, t0, u1(1.0), t_end, h)) == n + 1

    @pytest.mark.parametrize("t0,t_end,h,match", [
        (0.0, 1.0, 0.0, "step size must be positive"),
        (0.0, 1.0, -0.1, "step size must be positive"),
        (0.5, 0.5, 0.1, "t_end must exceed t0"),
        (0.5, 0.2, 0.1, "t_end must exceed t0"),
        # the span to the next float after 1e300 is about 1.5e284, which
        # about 1.5e287 steps of 1e-3 divide, each leaving t0 where it was
        *((t0, math.nextafter(t0, math.inf), 1e-3,
           f"^step size must be positive and move t0 = {re.escape(repr(t0))}, got 0.001$")
          for t0 in (1e300, -1e300)),
    ], ids=["h-zero", "h-negative", "empty", "reversed", "h-not-moving-1e300",
            "h-not-moving-minus-1e300"])
    def test_empty_steps_and_intervals_rejected(self, t0, t_end, h, match):
        f = builtin_field("linear", mu=1.0)
        sch = build_scheme(make_oscillator("cos", 100.0), pol(2, 2))
        with pytest.raises(ValueError, match=match):
            solve(sch, f, t0, u1(1.0), t_end, h)

    def test_numeric_failure_names_the_step(self):
        # b = 1e308 u^2 overflows at u = 1e10 on the first step
        f = make_field(1, lambda t, u: [0.0 * u[0]], lambda t, u: [1e308 * u[0] * u[0]])
        sch = build_scheme(make_oscillator("cos", 100.0), pol(2, 2))
        with pytest.raises(NumericStepError, match=r"^step 0 \(t = 0\.0\): non-finite"):
            solve(sch, f, 0.0, u1(1e10), 1.0, 0.1)

    @pytest.mark.parametrize("t0", [0.3, -0.0, 0], ids=["float", "minus-zero", "int"])
    def test_one_step_solve_is_a_step_bit_for_bit(self, t0):
        # a solve of one step calls the coefficient plan as every step of a
        # solve does: it gives the step's bits and fails as the step fails
        sch = build_scheme(make_oscillator("cos", 50.0, 0.3), pol(4, 2))
        f = make_field(1, lambda t, u: [u[0] * t], lambda t, u: [0.5 * u[0] * u[0]])
        u0 = u1(complex(0.9, -0.0))
        (t_a, u_a), (t_b, u_b) = solve(sch, f, t0, u0, t0 + 0.1, 0.1)
        want = step(sch, f, t0, u0, 0.1)
        assert repr((t_a, u_a.tolist(), t_b, u_b.tolist())) \
            == repr((t0, u0.tolist(), want.t_next, want.u_next.tolist()))
        blowup = make_field(1, lambda t, u: [0.0 * u[0]], lambda t, u: [1e308 * u[0] * u[0]])
        with pytest.raises(NumericStepError) as lone:
            step(sch, blowup, t0, u1(1e10), 0.1)
        with pytest.raises(NumericStepError) as whole:
            solve(sch, blowup, t0, u1(1e10), t0 + 0.1, 0.1)
        assert str(whole.value) == f"step 0 (t = {t0!r}): {lone.value}"
        with pytest.raises(OverflowError) as lone:
            step(sch, f, t0, u0, 1e100)
        with pytest.raises(OverflowError) as whole:
            solve(sch, f, t0, u0, t0 + 1e100, 1e100)
        assert str(whole.value) == f"step 0 (t = {t0!r}): {lone.value}"

    @pytest.mark.parametrize("t0", [-0.0, 0], ids=["minus-zero", "int"])
    def test_step_zero_starts_at_t0_itself(self, t0):
        # an order-0 field sees t as a complex number; t0 + 0 * h would
        # turn -0.0 into 0.0, and the sign of a reaches the trajectory
        seen = []

        def a(t, u):
            seen.append(t)
            return [u[0] * math.copysign(1.0, t.real)]

        f = make_field(1, a, lambda t, u: [0.5 * u[0]])
        sch = build_scheme(make_oscillator("cos", 50.0), TruncationPolicy(1, 1))
        traj = solve(sch, f, t0, u1(1.0), t0 + 0.2, 0.1)
        assert repr(seen[0]) == repr(complex(t0))
        assert math.copysign(1.0, seen[0].real) == math.copysign(1.0, t0)
        assert repr(seen[1]) == repr(complex(t0 + 0.1))
        want = [step(sch, f, t0, u1(1.0), 0.1).u_next]
        want.append(step(sch, f, t0 + 0.1, want[0], 0.1).u_next)
        assert repr([u.tolist() for _, u in traj[1:]]) == repr([u.tolist() for u in want])

    def test_step_zero_checks_the_state_before_binding(self):
        # solve checks its state before its first step binds, so a state
        # of the wrong shape is named before an h whose powers overflow
        f = builtin_field("linear", mu=1.0)
        sch = build_scheme(make_oscillator("cos", 50.0), pol(4, 2))
        with pytest.raises(ValueError, match=r"state must have shape \(1,\), got \(2,\)"):
            solve(sch, f, 0.0, np.ones(2, dtype=complex), 3e100, 1e100)
        with pytest.raises(OverflowError):
            solve(sch, f, 0.0, u1(1.0), 3e100, 1e100)

    def test_memory_beyond_the_trajectory_does_not_grow_with_the_step_count(self):
        # until it builds the trajectory's array, a solve holds each state
        # as m complex numbers in a list, and each start time in a list: m
        # + 1 list slots per step, over-allocated by at most an eighth.
        # Beyond that it holds one step's working set at a time: its
        # coefficients and operator values, a complex number and a list
        # slot each per live entry, and the tape's frame and registers
        f = builtin_field("linear", mu=1.0)
        sch = build_scheme(make_oscillator("cos", 100.0, 0.3), pol(8, 2))
        per_step = f.m * (sys.getsizeof(0j) + 9) + 9
        working_set = 2 * len(sch.entries.live) * f.m * (sys.getsizeof(0j) + 8) + 4096
        h = 0.001
        solve(sch, f, 0.0, u1(0.9 + 0.1j), 20 * h, h)     # records, compiles, binds
        for n in (100, 400):
            tracemalloc.start()
            try:
                traj = solve(sch, f, 0.0, u1(0.9 + 0.1j), n * h, h)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(traj) == n + 1
            assert peak - held <= per_step * (n + 1) + working_set

    def test_macro_endpoint_against_exact_oracle(self):
        mu, om = 10.0, 100.0
        f = builtin_field("linear", mu=mu)
        o = make_oscillator("cos", om)
        sch = build_scheme(o, pol(4, 2))
        traj = solve(sch, f, 0.0, u1(1.0), 1.0, 0.02)
        ref = exact_exp_macro(lambda s: s, 1, mu, o, 1.0, 1.0,
                              alpha_antideriv=lambda s: s * s / 2.0)
        assert abs(traj[-1][1][0] - ref) / abs(ref) < 1e-3

    def test_drift_only_global_order(self):
        f = make_field(1, lambda t, u: [u[0]], lambda t, u: [0.0 * t])
        o = make_oscillator("cos", 100.0)
        sch = build_scheme(o, TruncationPolicy(4, 4))
        errs = []
        for h in (0.1, 0.05):
            traj = solve(sch, f, 0.0, u1(1.0), 1.0, h)
            errs.append(abs(traj[-1][1][0] - math.e))
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.25)


class TestBounds:
    def test_first_bound_hand_values(self):
        # K = 1, ||v|| = 2 pi: h^2 + 6 pi h / omega + 4 pi^2 / omega^2
        for h, om in [(0.1, 50.0), (0.2, 200.0)]:
            b = bound_R11(BoundInputs(1.0, 2 * math.pi, h, om))
            want = h * h + 6 * math.pi * h / om + 4 * math.pi ** 2 / om ** 2
            assert b == pytest.approx(want, rel=1e-14)

    def test_second_bound_hand_values(self):
        # K = 1, ||v|| = 2 pi: 7/6 h^3 + 17 pi h^2/om + 40 pi^2 h/om^2 + 16 pi^3/om^3
        for h, om in [(0.1, 50.0), (0.2, 200.0)]:
            b = bound_R22(BoundInputs(1.0, 2 * math.pi, h, om))
            want = (7 * h ** 3 / 6 + 17 * math.pi * h * h / om
                    + 40 * math.pi ** 2 * h / om ** 2 + 16 * math.pi ** 3 / om ** 3)
            assert b == pytest.approx(want, rel=1e-14)

    def test_bounds_vanish_in_refined_limit(self):
        tiny = bound_R11(BoundInputs(1.0, 2 * math.pi, 1e-9, 1e9))
        assert tiny < 1e-8
        assert bound_R22(BoundInputs(1.0, 2 * math.pi, 1e-3, 1e6)) < \
            bound_R11(BoundInputs(1.0, 2 * math.pi, 1e-3, 1e6))

    def test_positive_inputs_required(self):
        with pytest.raises(ValueError):
            BoundInputs(0.0, 1.0, 0.1, 10.0)

    @pytest.mark.parametrize("t_range,center,radius",
                             [((0.0, math.nan), 1.0, 0.5), ((0.0, 0.2), 1.0, math.nan),
                              ((0.0, 0.2), complex(math.nan, 0.0), 0.5),
                              ((-math.inf, 0.2), 1.0, 0.5), ((0.0, 0.2), 1.0, -0.5)],
                             ids=["t", "radius", "center", "t-inf", "negative-radius"])
    def test_non_finite_box_rejected(self, t_range, center, radius):
        f = builtin_field("nonlinear", alpha=4.0, mu=1.0)
        with pytest.raises(ValueError):
            estimate_coefficient_bound(f, t_range, np.array([center]), radius, 1)

    @pytest.mark.parametrize("center", [[], [1.0, 2.0], [[1.0]]])
    def test_center_must_have_the_field_shape(self, center):
        f = builtin_field("nonlinear", alpha=4.0, mu=1.0)
        with pytest.raises(ValueError, match="state must have shape"):
            estimate_coefficient_bound(f, (0.0, 0.2), np.array(center), 0.5, 1)

    @pytest.mark.parametrize("big", [lambda u: u * 1e308 * 10,
                                     lambda u: u * 1e308 * 10 - u * 1e308 * 10],
                             ids=["inf", "nan"])
    def test_non_finite_sampled_partial_raises(self, big):
        # the norms are Python floats: numpy neither warns nor raises
        f = make_field(1, lambda t, u: [big(u[0])], lambda t, u: [u[0]])
        with np.errstate(all="raise"), pytest.raises(NumericStepError):
            estimate_coefficient_bound(f, (0.0, 0.2), np.array([1.0 + 0j]), 0.5, 1)

    @pytest.mark.parametrize("order", [-1, 1.5, math.nan, None, True])
    def test_order_must_be_an_integer_at_least_zero(self, order):
        # order -1 used to sample nothing but the values and return 0.75,
        # below the order-0 bound of 4.5
        f = builtin_field("nonlinear", alpha=4.0, mu=1.0)
        with pytest.raises(ValueError, match="jet order"):
            estimate_coefficient_bound(f, (0.0, 0.2), np.array([1.0 + 0j]), 0.5, order)

    def test_integral_float_order_is_that_order(self):
        f = builtin_field("nonlinear", alpha=4.0, mu=1.0)
        args = (f, (0.0, 0.2), np.array([1.0 + 0j]), 0.5)
        assert estimate_coefficient_bound(*args, 2.0) == estimate_coefficient_bound(*args, 2)

    def test_estimated_coefficient_bound_linear_case(self):
        # b = mu dominates a = u t and all derivatives on a small box
        f = builtin_field("linear", mu=10.0)
        K = estimate_coefficient_bound(f, (0.0, 0.25), np.array([1.0 + 0j]), 0.3, 1)
        assert K == pytest.approx(10.0, rel=1e-12)
        K2 = estimate_coefficient_bound(f, (0.0, 0.25), np.array([1.0 + 0j]), 0.3, 2)
        assert K2 == pytest.approx(10.0, rel=1e-12)
        # a radius of 0 samples the centre alone, and is valid
        K0 = estimate_coefficient_bound(f, (0.0, 0.25), np.array([1.0 + 0j]), 0.0, 1)
        assert K0 == pytest.approx(10.0, rel=1e-12)

    def test_zero_radius_samples_each_time_once(self, monkeypatch):
        # every sample goes through `_replay`: the tape, or the jets on
        # numbers where it cannot serve
        calls, replay = [], CoefficientField._replay

        def counting(field, plan, tape, base):
            calls.append(base)
            return replay(field, plan, tape, base)

        monkeypatch.setattr(CoefficientField, "_replay", counting)
        f = builtin_field("nonlinear", alpha=4.0, mu=1.0)
        estimate_coefficient_bound(f, (0.0, 0.2), np.array([1.0 + 0j]), 0.0, 2)
        assert len(calls) == len(set(calls)) == BOUND_T_SAMPLES

    @pytest.mark.parametrize("field", [
        lambda: builtin_field("linear", mu=10.0),
        lambda: builtin_field("nonlinear", alpha=4.0, mu=1.0),
        lambda: builtin_field("power", gamma=2),
        lambda: builtin_field("power", gamma=-1),
        lambda: make_field(1, lambda t, u: [u[0] / (2.0 + t)],
                           lambda t, u: [1.0 / (1.0 + u[0] * u[0])])],
        ids=["linear", "nonlinear", "power-2", "power-minus-1", "dividing"])
    def test_scalar_bound_is_numpy_norm_over_the_grid(self, field):
        f = field()
        for center in (1.0 + 0j, 0.7 - 0.4j):
            for radius in (0.0, 0.3, 0.5):
                for order in range(4):
                    K = estimate_coefficient_bound(f, (0.1, 0.3), u1(center), radius, order)
                    want = _numpy_norm_bound(f, (0.1, 0.3), u1(center), radius, order)
                    assert repr(K) == repr(want)


def _numpy_norm_bound(field, t_range, center, radius, order):
    """`estimate_coefficient_bound` of an m = 1 field by brute force: the
    centre and, at a radius above 0, BOUND_U_SAMPLES points on the circle
    about it, at BOUND_T_SAMPLES times; every partial of total order up
    to `order`, its norm by `np.linalg.norm`."""
    states = [center]
    if radius > 0:
        states += [center + radius * np.exp(1j * ang)
                   for ang in np.linspace(0.0, 2.0 * math.pi, BOUND_U_SAMPLES, endpoint=False)]
    partials = [alpha for alpha in itertools.product(range(order + 1), repeat=2)
                if sum(alpha) <= order]
    best = 0.0
    for t in np.linspace(*t_range, BOUND_T_SAMPLES):
        for u in states:
            origin = Jet((complex(t), *u.tolist()), order, {})
            for jets in field._on_jets(origin, origin.base):
                for alpha in partials:
                    vec = np.array([j.derivative(alpha) for j in jets])
                    best = max(best, float(np.linalg.norm(vec)))
    return best


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("build", [
    lambda: make_oscillator("exp", 50.0, nu=NAN),
    lambda: make_oscillator("exp", 50.0, nu=INF),
    lambda: make_oscillator("exp", NAN),
    lambda: make_oscillator("exp", INF),
    lambda: make_oscillator("exp", 50.0, phi=NAN),
    lambda: TruncationPolicy(NAN, 1),
    lambda: TruncationPolicy(4, INF),
    lambda: TruncationPolicy.from_order(4, 2, nu=NAN),
    lambda: TruncationPolicy.from_order(NAN, 2),
    lambda: BoundInputs(NAN, 1.0, 0.1, 50.0),
    lambda: BoundInputs(1.0, 1.0, 0.1, INF),
    lambda: iterated_integral(Word.of("TV"), make_oscillator("cos", 50.0), 0.0, NAN),
    lambda: iterated_integral(Word.of("TV"), make_oscillator("cos", 50.0), NAN, 0.1),
], ids=["osc-nu-nan", "osc-nu-inf", "osc-omega-nan", "osc-omega-inf", "osc-phi-nan",
        "policy-nan", "policy-inf", "from-order-nu-nan", "from-order-kappa-nan",
        "bound-K-nan", "bound-omega-inf", "integral-h-nan", "integral-t-nan"])
def test_non_finite_arguments_rejected(build):
    # a comparison with NaN is false, so each check must test finiteness
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("call", [
    lambda sch, f: step(sch, f, 0.0, u1(1.0), NAN),
    lambda sch, f: step(sch, f, NAN, u1(1.0), 0.1),
    lambda sch, f: step(sch, f, 0.0, u1(1.0), INF),
    lambda sch, f: step_phase_averaged(sch, f, -INF, u1(1.0), 0.1),
    lambda sch, f: solve(sch, f, 0.0, u1(1.0), INF, 0.1),
    lambda sch, f: solve(sch, f, NAN, u1(1.0), 1.0, 0.1),
    lambda sch, f: solve(sch, f, 0.0, u1(1.0), NAN, 0.1),
    lambda sch, f: solve(sch, f, 0.0, u1(1.0), 1.0, NAN),
    lambda sch, f: solve(sch, f, 0.0, u1(1.0), 1.0, INF),
], ids=["step-h-nan", "step-t-nan", "step-h-inf", "averaged-t-inf", "solve-t_end-inf",
        "solve-t0-nan", "solve-t_end-nan", "solve-h-nan", "solve-h-inf"])
def test_non_finite_times_rejected(call):
    # rejected as arguments, not blamed on a term or left to round()
    sch = build_scheme(make_oscillator("cos", 50.0), pol(4, 2))
    with pytest.raises(ValueError, match="must be finite"):
        call(sch, builtin_field("linear", mu=1.0))


U_INDEPENDENT = (1, lambda t, u: [t], lambda t, u: [1.0])


@pytest.mark.parametrize("call", [
    lambda sch: solve(sch, make_field(*U_INDEPENDENT), 0.0, u1(NAN), 1.0, 0.1),
    lambda sch: step(sch, make_field(*U_INDEPENDENT), 0.0, u1(INF), 0.1),
    lambda sch: step(sch, builtin_field("linear", mu=1.0), 0.0, u1(NAN), 0.1),
    lambda sch: step_phase_averaged(sch, builtin_field("linear", mu=1.0), 0.3,
                                    u1(complex(1.0, -INF)), 0.1),
    lambda sch: step(sch, make_field(2, lambda t, u: [u[1], t], lambda t, u: [0.5, u[0]]),
                     0.2, np.array([1.0, NAN]), 0.1),
], ids=["solve-u-independent-nan", "step-u-independent-inf", "step-linear-nan",
        "averaged-imag-inf", "step-m2-one-nan"])
def test_non_finite_states_rejected(call):
    # rejected as an argument, not returned or blamed on a term
    sch = build_scheme(make_oscillator("cos", 50.0), pol(4, 2))
    with pytest.raises(ValueError, match="u_n must be finite"):
        call(sch)


def test_overflowing_step_size_binds_nothing():
    # h^4 overflows a float: each call raises, and no binding is left behind
    built = build_scheme(make_oscillator("cos", 50.0), pol(4, 2))
    sch = SchemeTable(built.oscillator, built.policy, list(built.entries))
    plan = sch.entries.plan[1]
    for _ in range(2):
        with pytest.raises(OverflowError):
            step(sch, builtin_field("linear", mu=1.0), 0.0, u1(1.0), 1e100)
        assert plan._last == (None, None)
    step(sch, builtin_field("linear", mu=1.0), 0.0, u1(1.0), 0.1)
    assert plan._last[0][3] == (float, 0.1, 1.0) and plan._last[-1] is not None


# -- entries whose coefficient has no terms ---------------------------------------

def hand_built(sch, empty):
    """`sch`'s entries as a table given by hand, with the coefficients of
    the words in `empty` emptied."""
    entries = [replace(e, coeff=BasisPoly()) if str(e.word) in empty else e for e in sch.entries]
    return SchemeTable(sch.oscillator, sch.policy, entries)


class TestEmptyEntries:
    """A table keeps every entry, but its step plan covers only those whose
    coefficient has terms; the others contribute an exact zero."""

    @pytest.mark.parametrize("kind, nu, kappa, empty, entries", [
        ("cos", 0.0, 4, 1, 11), ("cos", 0.0, 8, 13, 87), ("exp", 0.0, 8, 26, 87),
        ("exp", -0.5, 4, 5, 30), ("exp", -0.5, 8, 263, 510)])
    def test_empty_entries_per_table(self, kind, nu, kappa, empty, entries):
        sch = build_scheme(make_oscillator(kind, 100.0, 0.0, nu), pol(kappa, 2, nu))
        live = sch.entries.live
        assert len(sch.entries) == entries and len(live) == entries - empty
        assert [i for i, e in enumerate(sch.entries) if e.coeff.terms] == list(live)
        # the plan covers those places, and gives as many averages
        operators, coefficients = sch.entries.plan
        assert len(operators.outputs) == len(coefficients(sch.oscillator, 0.1, 0.0)) \
            == len(coefficients.averaged(sch.oscillator, 0.1, 0.0)) == len(live)

    @pytest.mark.parametrize("stepper", [step, step_phase_averaged])
    @pytest.mark.parametrize("field, u0", [
        (make_field(1, lambda t, u: [-0.3 * u[0] * u[0]], lambda t, u: [0.5 * u[0] * t]),
         [0.8 - 0.3j]),
        (make_field(2, lambda t, u: [0.3 * u[0] + u[1], -u[0] * u[1]],
                    lambda t, u: [u[1] * u[1], 0.5 * u[0] * t]), [-0.8 + 0.3j, -1.1 + 0.3j])],
        ids=["m1", "m2"])
    def test_an_empty_entry_contributes_an_exact_zero(self, field, u0, stepper):
        sch = build_scheme(make_oscillator("cos", 100.0, 0.4), pol(4, 2))
        res = stepper(sch, field, 0.2, u0, 0.1)
        [skipped] = [i for i, e in enumerate(sch.entries) if not e.coeff.terms]
        assert str(sch.entries[skipped].word) == "TVT"
        assert len(res.contributions) == len(sch.entries)
        assert repr(res.contributions[skipped].tolist()) == repr([0j] * field.m)
        # 0j times TVT's operator value would carry a negative zero
        [value] = operator_values(field, [("a", ("L0", "L1"))], 0.2, u0).values()
        assert repr([0j * v for v in value.tolist()]) != repr([0j] * field.m)

    @pytest.mark.parametrize("run", [
        lambda sch, f: step(sch, f, 0.0, u1(1e30), 10.0),
        lambda sch, f: solve(sch, f, 0.0, u1(1e30), 10.0, 10.0)], ids=["step", "solve"])
    def test_a_non_finite_term_after_an_empty_entry_is_named(self, run):
        # T is empty; TT, the second entry the plan covers, is the first
        # non-finite one, and V's operator value is zero
        f = make_field(1, lambda t, u: [u[0] * 1e308], lambda t, u: [0.0 * t])
        sch = hand_built(build_scheme(make_oscillator("cos", 5.0), pol(2, 2)), {"T"})
        assert [str(sch.entries[i].word) for i in sch.entries.live[:2]] == ["V", "TT"]
        with pytest.raises(NumericStepError, match="term TT$"):
            run(sch, f)

    @pytest.mark.parametrize("stepper", [step, step_phase_averaged])
    def test_a_non_finite_value_read_only_by_an_empty_entry_is_not_an_error(self, stepper):
        # b is infinite and only V reads it; V has no terms, so it
        # contributes 0j, where 0j times its value would be NaN
        f = make_field(1, lambda t, u: [0.5 * u[0]], lambda t, u: [math.inf + 0.0 * u[0]])
        sch = hand_built(build_scheme(make_oscillator("cos", 50.0), TruncationPolicy(1, 1)), {"V"})
        res = stepper(sch, f, 0.1, u1(1.2), 0.05)
        assert np.isfinite(res.u_next).all()
        assert res.u_next[0] == 1.2 + res.contributions[0][0]
        assert repr(res.contributions[1].tolist()) == "[0j]"
        # the same field steps the whole table as the value demands
        with pytest.raises(NumericStepError, match="term V$"):
            stepper(build_scheme(make_oscillator("cos", 50.0), TruncationPolicy(1, 1)),
                    f, 0.1, u1(1.2), 0.05)

    def test_operator_values_gives_every_pair_asked_for(self):
        f = builtin_field("nonlinear", alpha=0.3, mu=2.0)
        sch = build_scheme(make_oscillator("cos", 100.0), pol(4, 2))
        pairs = [(e.word.target, e.word.operator_word) for e in sch.entries]
        got = operator_values(f, pairs, 0.2, u1(0.9))
        assert list(got) == pairs and ("a", ("L0", "L1")) in got
        assert all(v.shape == (1,) and np.isfinite(v).all() for v in got.values())
