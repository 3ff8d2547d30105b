"""Oscillator specs, basis-polynomial algebra and phase handling."""

import contextlib
import io
import math
from dataclasses import replace

import numpy as np
import pytest

from oscistep import (DegenerateOscillatorError, OscistepError, RegimeError,
                      TruncationPolicy, Word, adaptive_quadrature, big_v, build_scheme,
                      builtin_field, enumerate_words, estimate_coefficient_bound,
                      make_field, make_oscillator, operator_values, phase_average,
                      rk4_micro_solve, step, step_phase_averaged, v_norm, word_primitive)
import oscistep.oscillator as oscillator
from oscistep.cli import main
from oscistep.oscillator import BasisPoly, absorb_mean, v_poly
from references import derivative, oscillating_monomial, value_at_ref


class TestMakeOscillator:
    def test_cos_coefficients(self):
        o = make_oscillator("cos", 10.0)
        assert dict(o.coeffs) == {1: 0.5, -1: 0.5}
        assert o.removed_mean == 0

    def test_exp_coefficient(self):
        o = make_oscillator("exp", 10.0)
        assert dict(o.coeffs) == {1: 1.0}

    def test_sin_coefficients(self):
        o = make_oscillator("sin", 10.0)
        assert dict(o.coeffs) == {1: -0.5j, -1: 0.5j}
        ts = np.linspace(0, 1, 7)
        assert np.allclose(o.value(ts), np.sin(10 * ts))

    def test_fourier_mean_removal(self):
        o = make_oscillator("fourier", 10.0, coeffs={0: 1.0, 1: 0.5, -1: 0.5})
        assert o.removed_mean == 1.0
        assert 0 not in dict(o.coeffs)
        assert dict(o.coeffs) == {1: 0.5, -1: 0.5}

    def test_regime_errors(self):
        with pytest.raises(RegimeError):
            make_oscillator("cos", 10.0, nu=-1.0)
        with pytest.raises(RegimeError):
            make_oscillator("cos", -5.0)

    @pytest.mark.parametrize("coeffs", [{1.5: 1.0, -1: 0.5}, {1: 1.0, 1.2: 0.5}])
    def test_fourier_mode_indices_must_be_integers(self, coeffs):
        with pytest.raises(ValueError, match="integers"):
            make_oscillator("fourier", 10.0, coeffs=coeffs)

    @pytest.mark.parametrize("coeffs", [{1: math.nan}, {1: complex(0.0, math.inf)},
                                        {1: 1.0, -1: complex(math.nan, 0.0)},
                                        {0: math.inf, 1: 1.0}])
    def test_fourier_coefficients_must_be_finite(self, coeffs):
        with pytest.raises(ValueError, match="finite"):
            make_oscillator("fourier", 10.0, coeffs=coeffs)

    def test_degenerate_oscillator(self):
        with pytest.raises(DegenerateOscillatorError):
            make_oscillator("fourier", 10.0, coeffs={0: 2.0})

    @pytest.mark.parametrize("kind,coeffs,match", [
        ("fourier", None, "requires coefficients"),
        ("square", None, "unknown oscillator kind"),
    ], ids=["fourier-without-coefficients", "unknown-kind"])
    def test_kind_rejected(self, kind, coeffs, match):
        with pytest.raises(ValueError, match=match):
            make_oscillator(kind, 10.0, coeffs=coeffs)

    def test_big_v_needs_a_mean_free_spec(self):
        # make_oscillator removes the mean; a spec built by hand may keep it
        o = make_oscillator("cos", 10.0)
        with pytest.raises(DegenerateOscillatorError, match="mean-normalized"):
            big_v(replace(o, coeffs=((0, 0.5 + 0j), *o.coeffs)))


def _rk4(rhs, t0, u0, t1, n):
    h = (t1 - t0) / n
    t, u = t0, u0
    for _ in range(n):
        k1 = rhs(t, u)
        k2 = rhs(t + h / 2, u + h / 2 * k1)
        k3 = rhs(t + h / 2, u + h / 2 * k2)
        k4 = rhs(t + h, u + h * k3)
        u = u + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return u


def field_values(fld, t, u):
    """The values of the field's `a` and `b` at (t, u)."""
    values = operator_values(fld, [("a", ()), ("b", ())], t, u)
    return values["a", ()], values["b", ()]


def wrapped_mean(a, b, mean):
    """`a` with `mean` folded in as ``a + mean * b`` by a second call of `b`."""
    mean = complex(mean)
    return lambda t, u: [ai + mean * bi for ai, bi in zip(a(t, u), b(t, u))]


def mean_field_twins():
    """Fields with one mean and with two absorbed, each with a twin whose
    `a` is wrapped to add each mean in turn; the last pair has m = 2, whose
    means must meet `b`'s components in order."""
    pairs = [(1, lambda t, u: [0.5 * u[0]], lambda t, u: [1.3 * u[0] * u[0]]),
             (1, lambda t, u: [0.7 * u[0]], lambda t, u: [1.3 * u[0] ** -1]),
             (1, lambda t, u: [0.0 * t], lambda t, u: [u[0] ** -2]),
             (2, lambda t, u: [0.5 * u[0] - t * u[1], u[0] / (1 + u[1] * u[1])],
              lambda t, u: [1.3 * u[0] * u[1], u[1] ** -1])]
    for m, a, b in pairs:
        for means in ((0.3,), (0.5 - 0.2j, -0.7 + 0.1j)):
            field, wrapped = make_field(m, a, b), a
            for mean in means:
                field, wrapped = absorb_mean(field, mean), wrapped_mean(wrapped, b, mean)
            yield field, make_field(m, wrapped, b)


def exact_outcome(fn):
    """``repr`` of a step's, a trajectory's or a bound's values, or the
    exception's type and message; numpy's scalar 0 ** -1 is NaN here."""
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            got = fn()
    except (ArithmeticError, OscistepError, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(got, float):
        return repr(got)
    if isinstance(got, list):
        return [(repr(t), repr(u.tolist())) for t, u in got]
    return (repr(got.u_next.tolist()), repr(got.t_next),
            [repr(c.tolist()) for c in got.contributions])


class TestAbsorbMean:
    def test_zero_mean_is_noop(self):
        f = builtin_field("linear", mu=2.0)
        assert absorb_mean(f, 0.0) is f

    def test_constant_field_substitution(self):
        f = builtin_field("power", gamma=1)  # a = 0, b = 1
        g = absorb_mean(f, 3.0)
        a, b = field_values(g, 0.3, np.array([1.2]))
        assert a[0] == pytest.approx(3.0)
        assert b[0] == pytest.approx(1.0)

    def test_normalized_system_matches_microsolve_of_original(self):
        # du/dt = alpha u + mu u^2 (1/2 + cos(omega t)) rewritten with a
        # zero-mean oscillator and a -> a + <v> b must give the same flow
        alpha, mu, om = 0.4, 1.3, 60.0
        osc = make_oscillator("fourier", om, coeffs={0: 0.5, 1: 0.5, -1: 0.5})
        assert osc.removed_mean == pytest.approx(0.5)
        f = builtin_field("nonlinear", alpha=alpha, mu=mu)
        g = absorb_mean(f, osc.removed_mean)

        def rhs_original(t, u):
            return alpha * u + mu * u * u * (0.5 + math.cos(om * t))

        n = 4000
        ref = _rk4(rhs_original, 0.0, 1.0 + 0j, 0.1, n)

        def rhs_normalized(t, u):
            a, b = field_values(g, t, np.array([u]))
            return a[0] + b[0] * complex(osc.value(t))

        got = _rk4(rhs_normalized, 0.0, 1.0 + 0j, 0.1, n)
        assert got == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("policy", [(1, 1), (4, 2), (8, 2)])
    def test_steps_bit_for_bit_as_a_wrapped_a(self, policy):
        scheme = build_scheme(make_oscillator("cos", 57.0, 0.4),
                              TruncationPolicy.from_order(*policy))
        rng = np.random.default_rng(22)
        for field, twin in mean_field_twins():
            m = field.m
            for t in (0.0, -0.0, 0, rng.uniform(-1.0, 1.0)):
                for u in (rng.uniform(0.5, 1.5, m) + 0.3j * rng.uniform(-1.0, 1.0, m),
                          np.zeros(m)):
                    for fn in (step, step_phase_averaged):
                        assert exact_outcome(lambda: fn(scheme, field, t, u, 0.1)) == \
                               exact_outcome(lambda: fn(scheme, twin, t, u, 0.1))

    def test_oracle_and_bound_bit_for_bit_as_a_wrapped_a(self):
        osc = make_oscillator("cos", 57.0, 0.4)
        for field, twin in mean_field_twins():
            u0 = np.array([0.9 + 0.1j, 1.2 - 0.3j][:field.m])
            assert exact_outcome(lambda: rk4_micro_solve(field, osc, 0.1, u0, 0.2,
                                                         osc.period / 40)) == \
                   exact_outcome(lambda: rk4_micro_solve(twin, osc, 0.1, u0, 0.2,
                                                         osc.period / 40))
            for order in (0, 1, 2):
                assert exact_outcome(lambda: estimate_coefficient_bound(
                    field, (0.0, 0.1), u0, 0.2, order)) == \
                       exact_outcome(lambda: estimate_coefficient_bound(
                           twin, (0.0, 0.1), u0, 0.2, order))


def _random_poly(rng, nterms=4):
    d = {}
    for _ in range(nterms):
        key = (int(rng.integers(0, 6)), int(rng.integers(-5, 6)),
               int(rng.integers(-3, 4)), int(rng.integers(0, 3)),
               int(rng.integers(0, 3)))
        d[key] = complex(rng.normal(), rng.normal())
    return BasisPoly.from_dict(d)


class TestAntiderivative:
    def test_plain_power(self):
        f = BasisPoly.from_dict({(2, 0, 0, 0, 0): 1.0})
        assert f.antiderivative().term_dict == {(3, 0, 0, 0, 0): pytest.approx(1 / 3)}

    def test_plain_exponential(self):
        f = BasisPoly.from_dict({(0, 1, 0, 0, 0): 1.0})
        # e^(i omega t) / (i omega) = -i e^(i omega t) omega^-1
        assert f.antiderivative().term_dict == {(0, 1, 0, 1, 0): pytest.approx(-1j)}

    def test_t_times_exponential(self):
        f = BasisPoly.from_dict({(1, 1, 0, 0, 0): 1.0})
        got = f.antiderivative().term_dict
        # (-i t / omega + omega^-2) e^(i omega t)
        assert got == {(1, 1, 0, 1, 0): pytest.approx(-1j),
                       (0, 1, 0, 2, 0): pytest.approx(1.0 + 0j)}

    def test_t_times_exponential_definite_matches_quadrature(self):
        osc = make_oscillator("exp", 37.0)
        f = BasisPoly.from_dict({(1, 1, 0, 0, 0): 1.0})
        prim = f.antiderivative()
        sym = prim.eval_shifted(osc, 0.9, 0.0) - prim.eval_shifted(osc, 0.1, 0.0)
        q = adaptive_quadrature(lambda t: t * np.exp(1j * 37.0 * t), 0.1, 0.9,
                                1e-13, half_period=math.pi / 37.0)
        assert sym == pytest.approx(q.value, abs=1e-12)

    def test_derivative_inverts_antiderivative(self):
        # exact term-by-term up to float rounding: the reduction chains for
        # |k| >= 2 carry rounded 1/k factors, so cancellations can leave
        # O(eps)-size dust terms
        rng = np.random.default_rng(3)
        for _ in range(25):
            f = _random_poly(rng)
            back = derivative(f.antiderivative())
            fd, bd = f.term_dict, back.term_dict
            scale = max(abs(c) for c in fd.values())
            for key, c in fd.items():
                assert bd.get(key, 0j) == pytest.approx(c, rel=1e-13, abs=1e-15)
            for key, c in bd.items():
                if key not in fd:
                    assert abs(c) <= 1e-13 * scale

    def test_definite_integrals_match_quadrature(self):
        rng = np.random.default_rng(11)
        for omega in (10.0, 100.0, 1000.0):
            osc = make_oscillator("exp", omega, phi=0.2)
            for _ in range(3):
                f = _random_poly(rng)
                t0, t1 = sorted(rng.uniform(-0.5, 1.2, size=2))
                prim = f.antiderivative()
                sym = prim.eval_shifted(osc, t1, 0.0) - prim.eval_shifted(osc, t0, 0.0)
                q = adaptive_quadrature(
                    np.vectorize(lambda t: f.eval_shifted(osc, t, 0.0)), t0, t1, 1e-12,
                    half_period=math.pi / (5 * omega))
                assert sym == pytest.approx(q.value, abs=1e-10)

    # nu = -1/2 at (8,2) keeps 510 words; four modes there take seconds
    @pytest.mark.parametrize("nu, modes", [(0.0, 2), (0.0, 3), (0.0, 4), (-0.5, 2), (-0.5, 3)])
    def test_definite_from_ref_is_primitive_minus_its_anchor(self, nu, modes):
        # the one-pass integral against the two-step definition, bit for
        # bit, on the integrand of every (8,2) word
        rng = np.random.default_rng([modes, int(-2 * nu)])
        ks = rng.choice([k for k in range(-4, 5) if k], size=modes, replace=False)
        osc = make_oscillator("fourier", 1.0, nu=nu,
                              coeffs={int(k): complex(rng.normal(), rng.normal()) for k in ks})
        for word in enumerate_words(TruncationPolicy.from_order(8, 2, nu)):
            prefix = word.letters[:-1]
            f = word_primitive(Word(prefix), osc) if prefix else BasisPoly.one()
            if word.letters[-1] == "V":
                f = f * v_poly(osc)
            prim = f.antiderivative()
            assert repr(f.definite_from_ref().terms) == repr((prim - value_at_ref(prim)).terms)


class TestBigV:
    def test_cos_antiderivative(self):
        o = make_oscillator("cos", 25.0)
        V = big_v(o)
        for t in (0.0, 0.1, 0.73):
            assert V.eval_shifted(o, t, 0.0) == pytest.approx(math.sin(25.0 * t) / 25.0, abs=1e-15)

    def test_exp_antiderivative(self):
        o = make_oscillator("exp", 25.0)
        V = big_v(o)
        for t in (0.0, 0.4):
            want = np.exp(1j * 25 * t) / 25j
            assert V.eval_shifted(o, t, 0.0) == pytest.approx(want, abs=1e-15)

    def test_phase_shifted_cos(self):
        for phi in (0.0, 0.3, 2.2):
            o = make_oscillator("cos", 25.0, phi=phi)
            V = big_v(o)
            for t in (0.0, 0.17, 0.9):
                assert V.eval_shifted(o, t, 0.0) == pytest.approx(
                    math.sin(25.0 * t + phi) / 25.0, abs=1e-15)

    def test_increment_bound(self):
        # |V(t1) - V(t0)| <= ||v|| / omega for zero-mean v
        rng = np.random.default_rng(5)
        specs = [make_oscillator("cos", 40.0),
                 make_oscillator("fourier", 25.0, phi=1.1,
                                 coeffs={1: 0.7, -1: 0.7, 3: 0.2 - 0.1j, -3: 0.2 + 0.1j}),
                 make_oscillator("exp", 60.0, nu=-0.5)]
        for o in specs:
            V = big_v(o)
            bound = v_norm(o) / o.omega
            for _ in range(40):
                t0, t1 = rng.uniform(-2, 2, size=2)
                dv = abs(V.eval_shifted(o, t1, 0.0) - V.eval_shifted(o, t0, 0.0))
                assert dv <= bound * (1 + 1e-12)


class TestVNorm:
    def test_cos(self):
        assert v_norm(make_oscillator("cos", 77.0)) == pytest.approx(2 * math.pi, rel=1e-9)

    def test_exp(self):
        assert v_norm(make_oscillator("exp", 77.0)) == pytest.approx(2 * math.pi, rel=1e-9)

    def test_two_mode_peak(self):
        # cos(omega t) + cos(2 omega t)/2 peaks at 3/2 (at t = 0)
        o = make_oscillator("fourier", 50.0,
                            coeffs={1: 0.5, -1: 0.5, 2: 0.25, -2: 0.25})
        dense = 2 * math.pi * float(np.abs(o.value(
            np.linspace(0, o.period, 200001))).max())
        got = v_norm(o)
        assert got == pytest.approx(2 * math.pi * 1.5, rel=1e-9)
        assert got == pytest.approx(dense, rel=1e-6)

    def test_amplitude_scaling(self):
        o = make_oscillator("cos", 100.0, nu=1.0)
        assert v_norm(o) == pytest.approx(2 * math.pi / 100.0, rel=1e-9)

    @pytest.mark.parametrize("omega", [50.0, 100.0, 200.0])
    def test_readme_cos_is_exactly_two_pi(self, omega):
        # the phase grid holds theta = 0, where cos peaks
        assert v_norm(make_oscillator("cos", omega)) == 2 * math.pi

    def test_complex_three_modes_match_a_dense_sample(self):
        o = make_oscillator("fourier", 50.0, phi=0.7, nu=-0.5,
                            coeffs={-1: 0.4 - 0.3j, 1: 0.7, 2: 0.2 + 0.25j})
        dense = 2 * math.pi * float(np.abs(o.value(np.linspace(0, o.period, 200001))).max())
        assert v_norm(o) == pytest.approx(dense, rel=1e-9)

    def test_one_peak_search_serves_a_bounds_command(self):
        # bounds' three omegas share the cos coefficients, so one search
        oscillator._peak.cache_clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main("bounds --problem linear --kappa 4 --rho 2 --mu 10 --u0 1 "
                        "--box-t 0.2 --box-radius 0.5".split()) == 0
        info = oscillator._peak.cache_info()
        assert (info.misses, info.hits) == (1, 2)


class TestPhaseAverage:
    def test_pure_phase_term_vanishes(self):
        f = BasisPoly.from_dict({(0, 0, 1, 0, 0): 1.0})
        assert not phase_average(f).terms

    def test_phase_independent_terms_unchanged(self):
        f = BasisPoly.from_dict({(2, 1, 0, 1, 0): 0.3 - 1j, (0, 0, 0, 0, 0): 2.0})
        assert phase_average(f).term_dict == f.term_dict

    def test_idempotent_and_linear(self):
        rng = np.random.default_rng(9)
        f, g = _random_poly(rng), _random_poly(rng)
        pf = phase_average(f)
        assert phase_average(pf).term_dict == pf.term_dict
        lhs = phase_average(f + g * 2.5)
        rhs = phase_average(f) + phase_average(g) * 2.5
        assert lhs.term_dict == pytest.approx(rhs.term_dict)


class TestOscillatingMonomials:
    def test_negative_orders_vanish(self):
        assert not oscillating_monomial("I", -1, 2).terms
        assert not oscillating_monomial("K", 2, -1).terms

    def test_zero_mode_reduces_to_plain_power(self):
        # I with m = 0 is the plain power, whose integral is t^(p+1)/(p+1)
        f = oscillating_monomial("I", 3, 0)
        assert f.antiderivative().term_dict == {(4, 0, 0, 0, 0): pytest.approx(0.25)}

    @pytest.mark.parametrize("kind,p,m", [("I", 2, 3), ("K", 3, 2), ("L", 2, 2)])
    def test_matches_quadrature(self, kind, p, m):
        o = make_oscillator("cos", 10.0, phi=0.4)
        prim = oscillating_monomial(kind, p, m).antiderivative()
        sym = prim.eval_shifted(o, 1.3, 0.0) - prim.eval_shifted(o, 0.2, 0.0)

        def integrand(t):
            w1 = np.exp(1j * (o.omega * t + o.phi))
            w2 = np.cos(o.omega * t + o.phi)
            w3 = np.sin(o.omega * t + o.phi)
            return {"I": t ** p * w1 ** m,
                    "K": t ** p * w2 ** m + 0j,
                    "L": t ** p * w2 ** m * w3 + 0j}[kind]

        q = adaptive_quadrature(integrand, 0.2, 1.3, 1e-12,
                                half_period=math.pi / (m * o.omega))
        assert sym == pytest.approx(q.value, abs=1e-10)
