"""Word enumeration, truncation policies and iterated integrals."""

import itertools
import math

import numpy as np
import pytest

from oscistep import (TruncationPolicy, Word, adaptive_quadrature, big_v,
                      enumerate_words, iterated_integral,
                      make_oscillator, policy_matches_scheme,
                      term_count, v_norm)
from oscistep.terms import stochastic_scheme_words


def words(*texts):
    return [Word.of(t) for t in texts]


class TestWord:
    def test_target_and_operator_word(self):
        w = Word.of("TVT")
        assert w.target == "a"
        assert w.operator_word == ("L0", "L1")
        assert Word.of("TV").target == "b"
        assert Word.of("V").operator_word == ()
        assert (Word.of("TVV").q0, Word.of("TVV").q1) == (1, 2)
        assert len(Word.of("TVV")) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            Word(())
        with pytest.raises(ValueError):
            Word.of("TX")


class TestEnumeration:
    def test_first_order_policy(self):
        assert enumerate_words(TruncationPolicy(1, 1)) == words("T", "V")

    def test_second_order_policy(self):
        assert enumerate_words(TruncationPolicy(2, 2)) == words(
            "T", "V", "TT", "TV", "VT", "VV")

    def test_mixed_policy_from_order(self):
        pol = TruncationPolicy.from_order(2, 2, nu=0.0)
        assert (pol.kappa0, pol.kappa1) == (2.0, 1.0)
        assert enumerate_words(pol) == words("T", "V", "TT")

    def test_empty_policy(self):
        assert enumerate_words(TruncationPolicy(0.5, 0.5)) == []

    def test_monotone_in_policy(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            k0, k1 = rng.uniform(0.5, 4.0, size=2)
            small = set(map(str, enumerate_words(TruncationPolicy(k0, k1))))
            grown = set(map(str, enumerate_words(
                TruncationPolicy(k0 + rng.uniform(0, 2), k1 + rng.uniform(0, 2)))))
            assert small <= grown

    def test_amplitude_exponent_rescales_noise_direction(self):
        # nu = -1/2 doubles kappa1: at kappa=4, rho=2 every word of length
        # <= 4 is retained
        pol = TruncationPolicy.from_order(4, 2, nu=-0.5)
        assert pol.kappa1 == pytest.approx(4.0)
        assert len(enumerate_words(pol)) == 2 + 4 + 8 + 16


class TestTermCount:
    def test_small_values(self):
        assert term_count(1, 1) == 2
        assert term_count(2, 1) == 6
        assert term_count(3, 1) == 14

    def test_doubling_formula(self):
        for kappa in range(1, 9):
            assert term_count(kappa, 1) == 2 * (2 ** kappa - 1)

    def test_matches_enumeration(self):
        for kappa in (1, 2, 3):
            for rho in (1, 2, 3):
                pol = TruncationPolicy.from_order(kappa, rho)
                assert term_count(kappa, rho) == len(enumerate_words(pol))

    def test_integer_grid_only(self):
        with pytest.raises(ValueError):
            term_count(0, 1)

    @pytest.mark.parametrize("kappa,rho", [(1.5, 1), (3, 0.5), (math.nan, 1),
                                           (math.inf, 1), (3, math.inf), ("3", 1),
                                           (True, 2), (2, True)])
    def test_off_grid_values_rejected(self, kappa, rho):
        with pytest.raises(ValueError, match="integer grid"):
            term_count(kappa, rho)

    def test_integral_floats_are_on_the_grid(self):
        assert term_count(3.0, 2) == term_count(3, 2.0) == term_count(3, 2) == 6


class TestIteratedIntegral:
    def test_all_T_words_are_oscillator_independent(self):
        oscs = [make_oscillator("cos", 10.0), make_oscillator("exp", 500.0, phi=1.0),
                make_oscillator("sin", 3.0, nu=0.5)]
        for n in range(1, 5):
            w = Word.of("T" * n)
            vals = [iterated_integral(w, o, 0.3, 0.25) for o in oscs]
            assert vals[0] == vals[1] == vals[2]
            assert vals[0] == pytest.approx(0.25 ** n / math.factorial(n), rel=1e-15)

    def test_single_V_is_big_v_increment(self):
        o = make_oscillator("cos", 100.0)
        got = iterated_integral(Word.of("V"), o, 0.0, 0.1)
        assert got == pytest.approx(math.sin(100 * 0.1) / 100.0, abs=1e-15)

    def test_double_V_is_half_square_increment(self):
        o = make_oscillator("fourier", 35.0, phi=0.6,
                            coeffs={1: 0.4 - 0.1j, -1: 0.4 + 0.1j, 2: 0.1, -2: 0.1})
        V = big_v(o)
        tn, h = 0.21, 0.37
        dv = V.eval_shifted(o, tn + h, 0.0) - V.eval_shifted(o, tn, 0.0)
        got = iterated_integral(Word.of("VV"), o, tn, h)
        assert got == pytest.approx(dv * dv / 2, rel=1e-13)

    def test_TV_matches_nested_quadrature(self):
        # inner integral of ds gives s; outer integral against dV
        o = make_oscillator("cos", 100.0)
        got = iterated_integral(Word.of("TV"), o, 0.0, 0.1)
        q = adaptive_quadrature(lambda s: s * np.cos(100.0 * s) + 0j, 0.0, 0.1,
                                1e-13, half_period=math.pi / 100.0)
        assert got == pytest.approx(q.value, abs=1e-10)

    def test_VT_matches_nested_quadrature_at_offset_start(self):
        # word VT: integrand of the outer dt integral is V(t) - V(t_n)
        o = make_oscillator("exp", 40.0, phi=0.3)
        tn, h = 0.5, 0.2
        V = big_v(o)
        got = iterated_integral(Word.of("VT"), o, tn, h)
        q = adaptive_quadrature(
            np.vectorize(lambda s: V.eval_shifted(o, s, 0.0) - V.eval_shifted(o, tn, 0.0)),
            tn, tn + h, 1e-13, half_period=math.pi / 40.0)
        assert got == pytest.approx(q.value, abs=1e-10)

    def test_shuffle_identity_sample(self):
        o = make_oscillator("fourier", 45.0, phi=0.2, nu=0.25,
                            coeffs={1: 0.3 + 0.2j, -2: 1.1 - 0.5j})
        V = big_v(o)
        tn, h = 0.63, 0.21
        dv = V.eval_shifted(o, tn + h, 0.0) - V.eval_shifted(o, tn, 0.0)
        for q0, q1 in [(1, 1), (2, 1), (1, 2), (3, 2), (2, 3), (0, 4)]:
            total = 0j
            for combo in sorted(set(itertools.permutations("T" * q0 + "V" * q1))):
                total += iterated_integral(Word(tuple(combo)), o, tn, h)
            want = h ** q0 * dv ** q1 / (math.factorial(q0) * math.factorial(q1))
            assert total == pytest.approx(want, abs=1e-12)

    def test_magnitude_bound(self):
        # |I_w| <= h^Q0 (||v||/omega)^Q1 / Q0!
        rng = np.random.default_rng(17)
        oscs = [make_oscillator("cos", 30.0), make_oscillator("exp", 120.0, nu=-0.5)]
        for o in oscs:
            vb = v_norm(o) / o.omega
            for _ in range(20):
                n = int(rng.integers(1, 6))
                letters = tuple(rng.choice(["T", "V"], size=n))
                w = Word(letters)
                tn = float(rng.uniform(-1, 1))
                h = float(rng.uniform(0.05, 0.5))
                val = abs(iterated_integral(w, o, tn, h))
                cap = h ** w.q0 * vb ** w.q1 / math.factorial(w.q0)
                assert val <= cap * (1 + 1e-9)

    def test_h_zero_gives_zero(self):
        o = make_oscillator("cos", 10.0)
        assert iterated_integral(Word.of("TV"), o, 0.4, 0.0) == 0

    @pytest.mark.parametrize("kind, nu", [("cos", 0.0), ("exp", -0.5)])
    def test_every_word_over_an_empty_step_is_exactly_zero(self, kind, nu):
        # the primitives' tau^0 terms cancel against their anchor only up
        # to rounding: at (8,2) up to 2.7e-20 where the integral is 0
        o = make_oscillator(kind, 100.0, 0.3, nu)
        ws = enumerate_words(TruncationPolicy.from_order(8, 2, nu))
        assert len(ws) == {"cos": 87, "exp": 510}[kind]
        for h in (0.0, -0.0):
            assert {repr(iterated_integral(w, o, 0.319, h)) for w in ws} == {"0j"}


class TestSchemeCorrespondence:
    def test_scheme_word_sets(self):
        assert stochastic_scheme_words("euler") == frozenset(words("T", "V"))
        assert stochastic_scheme_words("milstein") == frozenset(words("T", "V", "VV"))
        assert stochastic_scheme_words("euler") != stochastic_scheme_words("milstein")
        with pytest.raises(ValueError):
            stochastic_scheme_words("heun")

    def test_documented_examples(self):
        assert policy_matches_scheme(1.2, 0.75, "euler")
        assert policy_matches_scheme(1.0, 0.5, "milstein")
        assert not policy_matches_scheme(3.0, 0.9, "euler")

    def test_range_characterization(self):
        # inside the increment-exponent strip 0 < rho' < 1 the match holds
        # exactly on max(1, rho') <= kappa < 2 rho' (euler) and
        # max(1, 2 rho') <= kappa < min(1 + rho', 3 rho') (milstein)
        rng = np.random.default_rng(23)
        for _ in range(200):
            rp = float(rng.uniform(0.05, 0.99))
            k = float(rng.uniform(0.5, 3.5))
            euler_in = rp > 0.5 and max(1.0, rp) <= k < 2 * rp
            mil_in = rp > 1 / 3 and max(1.0, 2 * rp) <= k < min(1 + rp, 3 * rp)
            assert policy_matches_scheme(k, rp, "euler") == euler_in
            assert policy_matches_scheme(k, rp, "milstein") == mil_in
