"""Jet arithmetic, coefficient fields and operator words."""

import math

import numpy as np
import pytest

from oscistep import (JetMismatchError, JetOrderError, builtin_field, make_field,
                      operator_values)
from oscistep.jets import Jet, _add, _mul


def var(index, base, order):
    return Jet.variable(index, base, order)


def word_value(field, target, word, t, u):
    return operator_values(field, [(target, word)], t, u)[(target, tuple(word))]


def field_jets(field, fn, t, u, order):
    """`fn`, the field's `a` or `b`, on the jets of order `order` at (t, u)."""
    origin = Jet((t, *u), order, {})
    a, b = field._on_jets(origin, origin.base)
    return b if fn is field._b else a


class TestJetArithmetic:
    def test_truncated_product_order1(self):
        base = (0.0,)
        x = var(0, base, 1)
        prod = (1 + x) * (1 - x)
        # the order-1 key cancels to an exact zero, which stays a value
        assert repr(prod.coeffs) == repr({(0,): 1.0 + 0.0j, (1,): 0j})

    def test_exact_product_order2(self):
        base = (0.0,)
        x = var(0, base, 2)
        prod = (1 + x) * (1 - x)
        assert prod.coefficient((0,)) == 1.0
        assert prod.coefficient((1,)) == 0.0
        assert prod.coefficient((2,)) == -1.0

    def test_monomial_jet_tu(self):
        # f = t * u at (t, u) = (2, 3), order 2
        base = (2.0, 3.0)
        f = var(0, base, 2) * var(1, base, 2)
        assert f.value == 6.0
        assert f.derivative((1, 0)) == 3.0
        assert f.derivative((0, 1)) == 2.0
        assert f.derivative((1, 1)) == 1.0
        assert f.derivative((2, 0)) == 0.0
        assert f.derivative((0, 2)) == 0.0

    def test_mismatched_operands_raise(self):
        a = var(0, (0.0,), 2)
        b = var(0, (0.0,), 3)
        with pytest.raises(JetMismatchError):
            a + b
        with pytest.raises(JetMismatchError):
            a * var(0, (1.0,), 2)

    def test_division_and_negative_powers(self):
        # 1/u around u0 = 2: d^k (u^-1) = (-1)^k k! u^-(k+1)
        base = (0.0, 2.0)
        u = var(1, base, 4)
        inv = 1 / u
        for k in range(5):
            expect = (-1) ** k * math.factorial(k) * 2.0 ** -(k + 1)
            assert inv.derivative((0, k)) == pytest.approx(expect, rel=1e-14)
        assert (u ** -2).value == pytest.approx(0.25)
        with pytest.raises(TypeError):
            u ** 0.5
        with pytest.raises(TypeError):
            u ** 2.0

    def test_integral_exponents_of_any_type_power_alike(self):
        # a numpy integer or a bool is as integral an exponent as an int
        u = var(0, (0.7 - 0.2j,), 3)
        for n, same in ((np.int64(2), 2), (np.int64(-2), -2), (np.uint8(3), 3), (True, 1)):
            assert (u ** n)._terms == (u ** same)._terms

    def test_multi_indices_are_tuples_at_the_boundary(self):
        base = (0.5, 2.0, -1.0)
        f = var(0, base, 3) * var(1, base, 3) ** 2 + var(2, base, 3)
        assert all(isinstance(a, tuple) and len(a) == 3 for a in f.coeffs)
        assert f.coefficient((1, 1, 0)) == 4.0 and f.derivative((1, 2, 0)) == 2.0
        # indices no jet of three variables holds read as zero
        assert f.coefficient((1, 1)) == 0 and f.coefficient((-1, 2, 0)) == 0
        g = Jet(base, 3, f.coeffs)
        assert g.coeffs == f.coeffs and list(g.coeffs) == list(f.coeffs)
        assert repr(g) == "Jet(base=((0.5+0j), (2+0j), (-1+0j)), order=3, terms=7)"

    def test_constructor_rejects_what_it_cannot_store(self):
        with pytest.raises(ValueError, match="multi-index"):
            Jet((0.0, 1.0), 2, {(1,): 1.0})
        with pytest.raises(ValueError, match="multi-index"):
            Jet((0.0,), 2, {(-1,): 1.0})
        with pytest.raises(ValueError, match="order"):
            Jet((0.0,), 10 ** 6, {})

    @pytest.mark.parametrize("order", [-1, 1.5, math.nan, math.inf, None, True])
    def test_order_must_be_an_integer_at_least_zero(self, order):
        for make in (lambda: Jet((0.0,), order, {}), lambda: var(0, (1.0,), order)):
            with pytest.raises(ValueError, match="jet order"):
                make()

    def test_integral_float_order_is_that_order(self):
        field = builtin_field("nonlinear")
        got, want = (field_jets(field, field._b, 0.1, [1.0], order) for order in (2.0, 2))
        assert type(got[0].order) is int
        assert [j.coeffs for j in got] == [j.coeffs for j in want]

    def test_partial_of_order_zero_jet_raises(self):
        x = var(0, (1.0, 2.0), 1)
        assert x.partial(0).order == 0
        with pytest.raises(JetOrderError):
            x.partial(0).partial(1)

    @pytest.mark.parametrize("index", [-1, 2])
    def test_partial_needs_a_variable_of_the_jet(self, index):
        with pytest.raises(IndexError, match=f"no variable {index}"):
            var(0, (1.0, 2.0), 1).partial(index)


class TestKernels:
    # the kernels keep every key an operation formed, exact zeros
    # included; `repr` compares every key in order and the sign of every
    # zero
    def test_a_product_sum_that_cancels_is_kept(self):
        x = {0: 1.0 + 0j, 1: 1.0 + 0j}
        y = {0: 1.0 + 0j, 1: -1.0 + 0j}
        # (1 + x)(1 - x) = 1 + 0 x - x^2, truncated below 3 and below 2
        assert repr(_mul(x, y, 3)) == repr({0: 1.0 + 0j, 1: 0j, 2: -1.0 + 0j})
        assert repr(_mul(x, y, 2)) == repr({0: 1.0 + 0j, 1: 0j})

    def test_a_sum_is_made_in_place_with_a_key_that_cancels(self):
        x = {1: 2.0 + 0j, 2: 1.0 + 0j, 3: -0.5 + 0j}
        y = {2: -1.0 + 0j, 4: complex(-0.0, 3.0), 3: 0.25 + 0j}
        out = _add(x, y)
        assert out is x
        # keys 2 and 3 keep their places; the new key 4 is 0.0 + c, whose
        # real part is +0.0
        assert repr(out) == repr({1: 2.0 + 0j, 2: 0j, 3: -0.25 + 0j, 4: 3j})


class TestOperatorWords:
    def test_empty_word_is_target(self):
        f = builtin_field("nonlinear", alpha=0.3, mu=1.5)
        out = word_value(f, "b", [], 0.2, np.array([1.1 + 0.2j]))
        assert out[0] == pytest.approx(1.5 * (1.1 + 0.2j) ** 2, rel=1e-15)

    @pytest.mark.parametrize("t,u", [(0.0, 1.0), (0.7, 0.4 - 0.3j), (-0.2, 2.0 + 1j)])
    def test_linear_field_operator_table(self, t, u):
        # a = u t, b = mu: all first- and second-level words in closed form
        mu = 3.25
        f = builtin_field("linear", mu=mu)
        uv = np.array([u], dtype=complex)

        def word(target, letters):
            return word_value(f, target, letters, t, uv)[0]

        assert word("a", ["L0"]) == pytest.approx((1 + t * t) * u, rel=1e-14)
        assert word("a", ["L0", "L0"]) == pytest.approx((3 + t * t) * t * u, rel=1e-14)
        assert word("a", ["L0", "L0", "L0"]) == pytest.approx(
            (3 + 6 * t * t + t ** 4) * u, rel=1e-14)
        assert word("a", ["L1"]) == pytest.approx(mu * t, abs=1e-14)
        assert word("a", ["L0", "L1"]) == pytest.approx(mu, rel=1e-14)
        assert word("a", ["L1", "L0"]) == pytest.approx(mu * (1 + t * t), rel=1e-14)
        assert word("b", ["L0"]) == 0
        assert word("b", ["L1"]) == 0
        assert word("b", ["L0", "L0"]) == 0

    @pytest.mark.parametrize("alpha", [0.7, 2j, 0.3 - 0.4j])
    @pytest.mark.parametrize("u0", [1.0, 0.8 + 0.5j])
    def test_nonlinear_field_operator_powers(self, alpha, u0):
        # a = alpha u, b = mu u^2 at t = 0; with n drifts applied first and
        # m noise operators after (word [L1]*m + [L0]*n, rightmost first):
        #   alpha^(n+1) mu^m m! u^(m+1)   for target a
        #   2^n alpha^n mu^(m+1) (m+1)! u^(m+2)   for target b
        mu = 1.3
        f = builtin_field("nonlinear", alpha=alpha, mu=mu)
        uv = np.array([u0], dtype=complex)
        fact = math.factorial
        for n in range(4):
            for m in range(4 - n):
                letters = ["L1"] * m + ["L0"] * n
                got_a = word_value(f, "a", letters, 0.0, uv)[0]
                want_a = alpha ** (n + 1) * mu ** m * fact(m) * u0 ** (m + 1)
                assert got_a == pytest.approx(want_a, rel=1e-13)
                got_b = word_value(f, "b", letters, 0.0, uv)[0]
                want_b = 2 ** n * alpha ** n * mu ** (m + 1) * fact(m + 1) * u0 ** (m + 2)
                assert got_b == pytest.approx(want_b, rel=1e-13)

    def test_all_L0_on_autonomous_identity_drift(self):
        # a(u) = u, b = 0: L0 = a d/du reproduces u under every power
        f = make_field(1, lambda t, u: [u[0]], lambda t, u: [0.0 * t])
        uv = np.array([1.7 - 0.4j])
        for n in range(6):
            got = word_value(f, "a", ["L0"] * n, 0.33, uv)[0]
            assert got == pytest.approx(uv[0], rel=1e-13)

    def test_shared_evaluation_matches_single_words(self):
        f = builtin_field("nonlinear", alpha=0.3 - 0.2j, mu=1.1)
        uv = np.array([0.9 + 0.1j])
        pairs = [("a", ()), ("b", ("L1",)), ("a", ("L0", "L1")), ("b", ("L1", "L0", "L0")),
                 ("a", ("L0", "L1"))]
        got = operator_values(f, pairs, 0.4, uv)
        assert len(got) == 4
        for target, word in pairs:
            alone = word_value(f, target, word, 0.4, uv)
            assert got[(target, word)][0] == pytest.approx(alone[0], rel=1e-14)

    def test_unknown_letter_or_target(self):
        f = builtin_field("linear")
        with pytest.raises(ValueError, match="operator letter"):
            word_value(f, "a", ["L2"], 0.0, np.array([1.0]))
        with pytest.raises(ValueError, match="target"):
            word_value(f, "c", [], 0.0, np.array([1.0]))


class TestBuiltinFieldDerivatives:
    FIELDS = [
        ("linear", dict(mu=3.7)),
        ("nonlinear", dict(alpha=0.3 + 0.2j, mu=1.1)),
        ("power", dict(gamma=2)),
        # the field of the CLI problem freqdep, which is the nonlinear field
        pytest.param("nonlinear", dict(alpha=1.2, mu=0.8), id="freqdep-params3"),
    ]

    @pytest.mark.parametrize("name,params", FIELDS)
    def test_first_derivatives_match_finite_differences(self, name, params):
        rng = np.random.default_rng(42)
        f = builtin_field(name, **params)
        eps = 1e-5
        for _ in range(5):
            t = float(rng.uniform(0.1, 1.0))
            u = np.array([rng.uniform(0.5, 1.5) + 1j * rng.uniform(-0.4, 0.4)])
            for target, fn in (("a", f._a), ("b", f._b)):
                jet = field_jets(f, fn, t, u, 1)[0]
                fd_t = (word_value(f, target, (), t + eps, u)[0]
                        - word_value(f, target, (), t - eps, u)[0]) / (2 * eps)
                fd_u = (word_value(f, target, (), t, u + eps)[0]
                        - word_value(f, target, (), t, u - eps)[0]) / (2 * eps)
                assert jet.derivative((1, 0)) == pytest.approx(fd_t, rel=1e-6, abs=1e-9)
                assert jet.derivative((0, 1)) == pytest.approx(fd_u, rel=1e-6, abs=1e-9)

    def test_power_field_requires_integer_gamma(self):
        with pytest.raises(ValueError):
            builtin_field("power", gamma=0.5)
        with pytest.raises(ValueError):
            builtin_field("power", gamma=np.float64(2.0))

    def test_unknown_field_name(self):
        with pytest.raises(ValueError):
            builtin_field("no-such-field")


@pytest.mark.parametrize("m", [1.5, 2.9, math.nan, math.inf, "2", 0, True])
def test_field_dimension_must_be_a_positive_integer(m):
    # not truncated to an integer, and one error for every bad kind
    with pytest.raises(ValueError, match="integer >= 1"):
        make_field(m, lambda t, u: [u[0]], lambda t, u: [u[0]])


def test_integral_float_dimension_accepted():
    assert make_field(2.0, lambda t, u: [u[0], u[1]], lambda t, u: [u[1], u[0]]).m == 2
