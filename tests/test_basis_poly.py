"""The packed `BasisPoly` against the same algebra on tuple keys, compared by
`repr` so that signs of zero count, and its key range."""

import math

import numpy as np
import pytest

from oscistep import (TruncationPolicy, build_scheme, enumerate_words, make_oscillator,
                      phase_average, word_primitive)
from oscistep.oscillator import _BIAS, BasisPoly, v_poly
from oscistep.terms import RETENTION_TOL
from references import (tuple_add, tuple_antiderivative, tuple_definite_from_ref,
                        tuple_from_dict, tuple_mul, tuple_phase_average, tuple_scale,
                        tuple_sub)

# coefficient parts: signed zeros, small integers that cancel exactly, and
# magnitudes whose products overflow
PARTS = (0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -3.0, 1e308, -1e308, 0.1, -2.5e-7)


def random_dict(rng, nterms):
    """Seeded tuple-keyed terms with negative k, q and n, and coefficients
    from PARTS or normal draws."""
    d = {}
    for _ in range(nterms):
        key = (int(rng.integers(0, 5)), int(rng.integers(-4, 5)), int(rng.integers(-3, 4)),
               int(rng.integers(-2, 3)), int(rng.integers(0, 3)))
        if rng.random() < 0.6:
            d[key] = complex(*rng.choice(PARTS, 2))
        else:
            d[key] = complex(*rng.normal(size=2))
    return d


def same(poly: BasisPoly, terms: tuple):
    assert repr(poly.terms) == repr(terms)


class TestTupleAlgebra:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_polynomials(self, seed):
        rng = np.random.default_rng([seed, 7])
        da, db = random_dict(rng, int(rng.integers(0, 9))), random_dict(rng, int(rng.integers(1, 9)))
        a, b = BasisPoly.from_dict(da), BasisPoly.from_dict(db)
        ta, tb = tuple_from_dict(da), tuple_from_dict(db)
        same(a, ta)
        same(a + b, tuple_add(ta, tb))
        same(a - b, tuple_sub(ta, tb))
        same(a - a, tuple_sub(ta, ta))
        for x in (2.5, -1.0, 0.0, -0.0, 3, 1e308, complex(-0.0, 1.0)):
            same(a * x, tuple_scale(ta, x))
            same(x * a, tuple_scale(ta, x))
        same(a * b, tuple_mul(ta, tb))
        same(b * a, tuple_mul(tb, ta))
        same((a * b) * a, tuple_mul(tuple_mul(ta, tb), ta))
        same(a.antiderivative(), tuple_antiderivative(ta))
        same(a.definite_from_ref(), tuple_definite_from_ref(ta))
        same((a * b).definite_from_ref(), tuple_definite_from_ref(tuple_mul(ta, tb)))
        same(phase_average(a * b), tuple_phase_average(tuple_mul(ta, tb)))
        same(a.filtered(lambda key: key[1] < 0 or key[4] == 1),
             tuple_from_dict({k: c for k, c in ta if k[1] < 0 or k[4] == 1}))
        assert a.term_dict == dict(ta)

    def test_exact_cancellation(self):
        # (1 + x)(1 - x) = 1 - x^2: the cross terms cancel to an exact zero,
        # which the product drops
        one_plus = {(0, 0, 0, 0, 0): 1.0, (1, 2, -1, 0, 1): 1.0}
        one_minus = {(0, 0, 0, 0, 0): 1.0, (1, 2, -1, 0, 1): -1.0}
        got = BasisPoly.from_dict(one_plus) * BasisPoly.from_dict(one_minus)
        same(got, tuple_mul(tuple_from_dict(one_plus), tuple_from_dict(one_minus)))
        assert len(got.terms) == 2

    def test_signed_zero_parts(self):
        d = {(0, 1, 1, 0, 1): complex(-0.0, 1.0), (2, -1, 0, 1, 0): complex(1.0, -0.0),
             (1, 0, -2, 0, 0): complex(-0.0, -2.0)}
        a, ta = BasisPoly.from_dict(d), tuple_from_dict(d)
        for got, want in ((a * a, tuple_mul(ta, ta)), (a * -1.0, tuple_scale(ta, -1.0)),
                          (a.definite_from_ref(), tuple_definite_from_ref(ta)),
                          (a - a * 1.0, tuple_sub(ta, tuple_scale(ta, 1.0)))):
            same(got, want)

    @pytest.mark.parametrize("nu", [0.0, -0.5])
    @pytest.mark.parametrize("modes", [2, 3, 4, 5])
    def test_every_8_2_prefix_integral(self, modes, nu):
        # each word's integral extends its prefix's, so one pass in
        # enumeration order builds every reference from its prefix
        rng = np.random.default_rng([modes, int(-2 * nu)])
        ks = rng.choice([k for k in range(-4, 5) if k], size=modes, replace=False)
        osc = make_oscillator("fourier", 1.0, 0.0, nu,
                              {int(k): complex(*rng.normal(size=2)) for k in ks})
        v = v_poly(osc).terms
        policy = TruncationPolicy.from_order(8, 2, nu)
        ref = {(): ((((0, 0, 0, 0, 0), 1.0 + 0.0j),))}
        for word in enumerate_words(policy):
            prefix = ref[word.letters[:-1]]
            if word.letters[-1] == "V":
                prefix = tuple_mul(prefix, v)
            ref[word.letters] = tuple_definite_from_ref(prefix)
            same(word_primitive(word, osc), ref[word.letters])
        # the truncated table keeps the terms of order weight at most one
        for entry in build_scheme(osc, policy).entries:
            same(entry.coeff, tuple_from_dict({
                key: c for key, c in ref[entry.word.letters]
                if policy.monomial_weight(key[0], key[3] + key[4] * nu, nu)
                <= 1.0 + RETENTION_TOL}))


class TestKeyRange:
    """A key that does not fit raises ValueError; it never wraps into the
    next field."""

    EDGES = ((0, 0, 0, 0, 0), (2 * _BIAS - 1, _BIAS - 1, -_BIAS, _BIAS - 1, -_BIAS),
             (0, -_BIAS, _BIAS - 1, -_BIAS, _BIAS - 1))

    def test_keys_at_the_edges_round_trip(self):
        d = {key: 1.0 + i for i, key in enumerate(self.EDGES)}
        assert BasisPoly.from_dict(d).term_dict == d
        assert BasisPoly.from_dict({(1.0, 2.0, -3.0, 0.0, 1.0): 1j}).terms == (
            ((1, 2, -3, 0, 1), 1j),)

    @pytest.mark.parametrize("key", [
        (-1, 0, 0, 0, 0), (2 * _BIAS, 0, 0, 0, 0), (0, _BIAS, 0, 0, 0),
        (0, 0, -_BIAS - 1, 0, 0), (0, 0, 0, _BIAS, 0), (0, 0, 0, 0, -_BIAS - 1),
        (0, 1.5, 0, 0, 0), (0, 0, 0, math.nan, 0), (0, 0, math.inf, 0, 0),
        (0, 0, 0, 0), (0, 0, 0, 0, 0, 0), (0, 1j, 0, 0, 0), "01234", 5],
        ids=repr)
    def test_from_dict_rejects(self, key):
        with pytest.raises(ValueError):
            BasisPoly.from_dict({key: 1.0})

    @pytest.mark.parametrize("a,b", [
        ((0, _BIAS // 2, 0, 0, 0), (0, _BIAS // 2, 1, 0, 0)),          # k past the top
        ((0, 0, -_BIAS // 2 - 1, 0, 0), (0, 0, -_BIAS // 2, 0, 0)),    # q past the bottom
        ((_BIAS, 0, 0, 0, 0), (_BIAS, 0, 0, 0, 0)),                    # p past the top
        ((0, 0, 0, 0, -_BIAS), (0, 0, 0, 0, -1)),                      # m past the bottom
        ((0, 0, 0, _BIAS - 1, 0), (0, 0, 0, 1, 0))])                   # n past the top
    def test_product_leaving_the_range_raises(self, a, b):
        pa, pb = BasisPoly.from_dict({a: 1.0}), BasisPoly.from_dict({b: 2.0})
        with pytest.raises(ValueError):
            pa * pb
        with pytest.raises(ValueError):
            pb * pa

    def test_product_at_the_edge_stays(self):
        a = BasisPoly.from_dict({(_BIAS - 1, _BIAS - 2, -_BIAS + 1, 0, 0): 1.0})
        b = BasisPoly.from_dict({(_BIAS, 1, -1, 0, 0): 2.0})
        assert (a * b).terms == (((2 * _BIAS - 1, _BIAS - 1, -_BIAS, 0, 0), 2 + 0j),)

    @pytest.mark.parametrize("key", [(2 * _BIAS - 1, 0, 0, 0, 0), (0, 1, 0, _BIAS - 1, 0),
                                     (3, -2, 0, _BIAS - 3, 0)])
    def test_antiderivative_leaving_the_range_raises(self, key):
        # tau^p grows to tau^(p+1) at k = 0, and omega^-n to omega^-(n+j+1)
        poly = BasisPoly.from_dict({key: 1.0})
        with pytest.raises(ValueError):
            poly.antiderivative()
        with pytest.raises(ValueError):
            poly.definite_from_ref()
