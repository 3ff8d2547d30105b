"""The fast step reproduces the plain reference step bit for bit.

``reference_step`` evaluates the same tables with tuple-keyed jets,
one coefficient at a time and one contribution at a time.  Outputs are
compared by the ``repr`` of their Python values, so a changed rounding or
sign of zero fails.
"""

import collections
import copy
import pickle
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_step as ref
import oscistep.jets as jets
import oscistep.oscillator as oscillator
import oscistep.stepping as stepping
from oscistep import (NumericStepError, TruncationPolicy, build_scheme, builtin_field,
                      enumerate_words, make_field, make_oscillator, operator_values,
                      rk4_micro_solve, solve, step, step_phase_averaged)
from oscistep.jets import Jet
from oscistep.stepping import SchemeTable

COUPLING = [[0.3, -0.1, 0.2, 0.05], [0.0, 0.4, -0.3, 0.1],
            [0.2, 0.1, -0.2, 0.3], [-0.1, 0.2, 0.1, 0.1]]

FIELDS = {
    "linear": lambda: builtin_field("linear", mu=10.0),
    "nonlinear": lambda: builtin_field("nonlinear", alpha=0.3 - 0.2j, mu=1.1),
    "power": lambda: builtin_field("power", gamma=3),
    "m2-division": lambda: make_field(
        2, lambda t, u: [u[1] / (1 + u[0] * u[0]), -u[0] * t],
        lambda t, u: [0.5 * u[0] * u[1], 1.0 / u[1]]),
    "m4-coupled": lambda: make_field(
        4, lambda t, u: [sum(COUPLING[i][j] * u[j] for j in range(4)) for i in range(4)],
        lambda t, u: [0.7 * u[i] * u[(i + 1) % 4] for i in range(4)]),
}

OSCILLATORS = [make_oscillator("cos", 100.0, 0.3), make_oscillator("exp", 57.0, 1.1),
               make_oscillator("exp", 80.0, 0.2, -0.5)]

POLICIES = [(1, 1), (2, 2), (4, 1), (4, 2), (8, 2)]


def table_policy(policy, nu):
    """The policy at the oscillator's nu, unless that retains more than 100
    words (nu = -1/2 at (8,2) keeps 510): then the nu = 0 policy."""
    scaled = TruncationPolicy.from_order(*policy, nu)
    return scaled if len(enumerate_words(scaled)) <= 100 else TruncationPolicy.from_order(*policy)


def start_points(m, rng):
    """(t, u): two complex states at random times, and a real state at
    t = 0, where exact zeros and their signs appear (as in the README's
    step command)."""
    z = rng.uniform(0.5, 1.5, m) + 1j * rng.uniform(-0.3, 0.3, m)
    w = rng.uniform(0.5, 1.5, m) - 1j * rng.uniform(0.0, 0.5, m)
    return [(float(rng.uniform(-0.5, 1.0)), z), (float(rng.uniform(-0.5, 1.0)), w),
            (0.0, z.real.astype(complex))]


def exact(values) -> str:
    """Every digit and the sign of every zero (numpy's own repr rounds)."""
    return repr(np.asarray(values).tolist())


def assert_same(got, want):
    assert exact(got.u_next) == exact(want.u_next)
    assert repr(got.t_next) == repr(want.t_next)
    assert [exact(c) for c in got.contributions] == [exact(c) for c in want.contributions]


@pytest.mark.parametrize("policy", POLICIES, ids=[f"{k}-{r}" for k, r in POLICIES])
@pytest.mark.parametrize("name", FIELDS)
def test_step_matches_reference_bit_for_bit(name, policy):
    field = FIELDS[name]()
    rng = np.random.default_rng([len(name), *policy])
    for osc in OSCILLATORS:
        scheme = build_scheme(osc, table_policy(policy, osc.nu))
        for t, u in start_points(field.m, rng):
            h = float(rng.choice([0.02, 0.1, 0.3]))
            assert_same(step(scheme, field, t, u, h), ref.step(scheme, field, t, u, h))
            assert_same(step_phase_averaged(scheme, field, t, u, h),
                        ref.step(scheme, field, t, u, h, averaged=True))


def jet_expressions(cls):
    """Coefficients, in stored order, of a few expressions in jets of `cls`."""
    base = (0.3, 1.2 - 0.1j, -0.4 + 0.2j)
    x, y, z = (cls.variable(i, base, 5) for i in range(3))
    exprs = [x * y + z, (x - y) / (1 + z * z), y ** -3, 2.5 - x * 0.0,
             (x * y * z) ** 2, (y / z).partial(1).partial(2)]
    return [list(e.coeffs.items()) for e in exprs]


def test_jet_arithmetic_matches_reference():
    assert repr(jet_expressions(Jet)) == repr(jet_expressions(ref.RefJet))


def test_operator_values_match_reference():
    field = FIELDS["m2-division"]()
    scheme = build_scheme(OSCILLATORS[0], TruncationPolicy.from_order(4, 1))
    pairs = [(e.word.target, e.word.operator_word) for e in scheme.entries]
    u = np.array([0.9 + 0.2j, 1.1 - 0.1j])
    got = operator_values(field, pairs, 0.4, u)
    want = ref.operator_values(field, pairs, 0.4, u)
    assert list(got) == list(want)
    assert all(exact(got[k]) == exact(want[k]) for k in want)


def test_empty_table_matches_reference():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        scheme = build_scheme(OSCILLATORS[0], TruncationPolicy(0.5, 0.5))
    field = FIELDS["linear"]()
    u = np.array([1.0 - 0.0j])
    for fn, averaged in ((step, False), (step_phase_averaged, True)):
        got = fn(scheme, field, 0.1, u, 0.1)
        assert got.contributions == ()
        assert_same(got, ref.step(scheme, field, 0.1, u, 0.1, averaged=averaged))


@pytest.mark.parametrize("policy", [(4, 2), (8, 2)], ids=["4-2", "8-2"])
@pytest.mark.parametrize("name", FIELDS)
def test_solve_matches_reference_step_by_step(name, policy, recordings):
    # a real start at t = 0 gives exact zeros that later steps do not have;
    # the jets keep them as values, so the tape of step 0 serves every step
    field = FIELDS[name]()
    scheme = build_scheme(OSCILLATORS[0], TruncationPolicy.from_order(*policy))
    u = np.full(field.m, 0.9 + 0.0j)
    h = 0.05
    traj = solve(scheme, field, 0.0, u, 5 * h, h)
    assert len(traj) == 6
    assert len(recordings) == 1
    for i, (t, got) in enumerate(traj[1:]):
        want = ref.step(scheme, field, i * h, u, h)
        assert repr(t) == repr(want.t_next)
        assert exact(got) == exact(want.u_next)
        u = want.u_next


def solve_outcome(call):
    """The trajectory, by ``repr``, or the exception's type and message."""
    try:
        return repr([(t, exact(u)) for t, u in call()])
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def stepped(fn, scheme, field, t0, u0, h, n):
    """``solve`` as a loop of `fn` steps, raising as solve does."""
    u = np.asarray(u0, dtype=complex)
    traj = [(t0, u.copy())]
    for i in range(n):
        # step 0 starts at t0 itself, as solve's does
        t_n = t0 + i * h if i else t0
        try:
            u = fn(scheme, field, t_n, u, h).u_next
        except (NumericStepError, ArithmeticError) as exc:
            raise type(exc)(f"step {i} (t = {t_n}): {exc}") from exc
        traj.append((t0 + (i + 1) * h, u.copy()))
    return traj


SOLVE_POLICIES = [(1, 1), (4, 2), (8, 2)]


@pytest.mark.parametrize("policy", SOLVE_POLICIES, ids=[f"{k}-{r}" for k, r in SOLVE_POLICIES])
@pytest.mark.parametrize("name", FIELDS)
def test_solve_matches_a_loop_of_steps(name, policy):
    field = FIELDS[name]()
    rng = np.random.default_rng([len(name), *policy, 24])
    osc = OSCILLATORS[SOLVE_POLICIES.index(policy)]
    scheme = build_scheme(osc, table_policy(policy, osc.nu))
    t0, u0, h, n = float(rng.uniform(-0.5, 1.0)), start_points(field.m, rng)[0][1], 0.05, 6
    want = solve_outcome(lambda: stepped(step, scheme, field, t0, u0, h, n))
    assert want == solve_outcome(lambda: stepped(ref.step, scheme, field, t0, u0, h, n))
    assert solve_outcome(lambda: solve(scheme, field, t0, u0, t0 + n * h, h)) == want


@pytest.mark.parametrize("policy", [(4, 2), (8, 2)], ids=["4-2", "8-2"])
def test_long_solves_span_blocks(policy):
    # 400 steps, at each type of h
    field = FIELDS["nonlinear"]()
    scheme = build_scheme(OSCILLATORS[1], TruncationPolicy.from_order(*policy))
    u0 = np.array([0.4 + 0.1j])
    for h in (0.0025, np.float64(0.0025)):
        got = solve_outcome(lambda: solve(scheme, field, 0.0, u0, 1.0, h))
        assert got == solve_outcome(lambda: stepped(step, scheme, field, 0.0, u0, h, 400))
    # an int step size from an int start: every start time is an int
    got = solve_outcome(lambda: solve(scheme, field, 0, u0, 400, 1))
    assert got == solve_outcome(lambda: stepped(step, scheme, field, 0, u0, 1, 400))


def test_a_solve_turning_non_finite_within_a_block_fails_as_its_steps_do():
    # a = 30 u^2 blows up: step 4 has a non-finite term
    field = make_field(1, lambda t, u: [30.0 * u[0] * u[0]], lambda t, u: [u[0]])
    scheme = build_scheme(OSCILLATORS[0], TruncationPolicy.from_order(4, 2))
    u0 = np.array([1.0 + 0.0j])
    want = solve_outcome(lambda: stepped(ref.step, scheme, field, 0.0, u0, 0.05, 40))
    assert want == "NumericStepError: step 4 (t = 0.2): non-finite contribution from term T"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solve_outcome(lambda: solve(scheme, field, 0.0, u0, 2.0, 0.05)) == want


def test_a_binding_with_an_infinite_constant_fails_as_a_step_does():
    # a term whose constant c h^p overflows at h = 10: step 0, which binds,
    # fails as a lone step does, and no warning comes from anywhere
    built = build_scheme(OSCILLATORS[2], TruncationPolicy.from_order(4, 2))
    huge = oscillator.BasisPoly.from_dict({(1, 0, 1, 0, 1): 1e308})
    entries = [replace(e, coeff=e.coeff + huge) if i == 3 else e
               for i, e in enumerate(built.entries)]
    scheme = SchemeTable(built.oscillator, built.policy, entries)
    field = FIELDS["linear"]()
    u0 = np.array([0.9 + 0.1j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = solve_outcome(lambda: stepped(step, scheme, field, 0.0, u0, 10.0, 3))
        assert want.startswith("NumericStepError: step 0 (t = 0.0): non-finite contribution")
        assert solve_outcome(lambda: solve(scheme, field, 0.0, u0, 30.0, 10.0)) == want
        assert not all(map(np.isfinite, scheme.entries.plan[1]._last[-1]))


def test_an_order_0_solve_reaching_zero_fails_as_a_non_finite_step():
    # h a = -u exactly, so step 0 lands on u = 0 and step 1 divides by it:
    # Python's complex numbers raise ZeroDivisionError, which names the step
    field = make_field(1, lambda t, u: [-8.0 * u[0]], lambda t, u: [0.0 / u[0]])
    scheme = build_scheme(OSCILLATORS[0], TruncationPolicy(1, 1))
    u0 = np.array([1.0 + 0.5j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = solve_outcome(lambda: stepped(step, scheme, field, 0.0, u0, 0.125, 4))
    assert want == "ZeroDivisionError: step 1 (t = 0.125): complex division by zero"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solve_outcome(lambda: stepped(ref.step, scheme, field, 0.0, u0, 0.125, 4)) \
            == want
        assert solve_outcome(lambda: solve(scheme, field, 0.0, u0, 0.5, 0.125)) == want


def test_a_sum_of_finite_terms_overflowing_within_a_block_fails_as_its_steps_do():
    # a = u grows by e each step from 1e300: at step 19 every term is
    # finite and their sum is not.  The step raises, whatever numpy's error
    # state, and nothing warns
    field = make_field(1, lambda t, u: [u[0]], lambda t, u: [0.0 * t])
    scheme = build_scheme(OSCILLATORS[0], TruncationPolicy.from_order(4, 2))
    u0 = np.array([1e300 + 1e299j])
    loop = lambda: stepped(step, scheme, field, 0.0, u0, 1.0, 30)
    whole = lambda: solve(scheme, field, 0.0, u0, 30.0, 1.0)
    want = ("NumericStepError: step 19 (t = 19.0): "
            "the sum of finite contributions overflowed")
    for state in ("raise", "warn"):
        with np.errstate(all=state), warnings.catch_warnings():
            warnings.simplefilter("error")
            assert solve_outcome(loop) == want
            assert solve_outcome(whole) == want


def test_a_constant_operator_value_multiplies_as_a_complex_number():
    # b = 10.0 is a constant output of the tape; it and every coefficient
    # reach the sum as complex numbers, so each product is the complex
    # product, on any Python version's rules for float times complex
    field = FIELDS["linear"]()
    scheme = build_scheme(OSCILLATORS[1], TruncationPolicy.from_order(4, 2))
    operators, coefficients = scheme.entries.plan
    u0 = np.array([0.9 - 0.3j])
    values = field._evaluate(operators, 0.4, u0.tolist())
    assert complex(10.0) in values
    assert {type(v) for v in values} == {complex}
    assert {type(c) for c in coefficients(scheme.oscillator, 0.05, 0.4)} == {complex}
    want = solve_outcome(lambda: stepped(step, scheme, field, 0.0, u0, 0.05, 20))
    assert solve_outcome(lambda: stepped(ref.step, scheme, field, 0.0, u0, 0.05, 20)) == want
    assert solve_outcome(lambda: solve(scheme, field, 0.0, u0, 1.0, 0.05)) == want


def test_sums_split_into_statements_match_reference(monkeypatch):
    # every generated sum is split into statements of jets._SUM_TERMS
    # terms; at 2, a (4,2) table's u_n and 11 terms take six statements per
    # component, and each coefficient of more than two summands several
    sources = []
    compiled = jets._compiled
    monkeypatch.setattr(jets, "_SUM_TERMS", 2)
    monkeypatch.setattr(jets, "_compiled", lambda source: sources.append(source) or compiled(source))
    stepping._assembly.cache_clear()
    try:
        field = FIELDS["m4-coupled"]()
        scheme = build_scheme(OSCILLATORS[1], TruncationPolicy.from_order(4, 2))
        t, u = start_points(field.m, np.random.default_rng(26))[0]
        assert_same(step(scheme, field, t, u, 0.05), ref.step(scheme, field, t, u, 0.05))
        want = solve_outcome(lambda: stepped(ref.step, scheme, field, t, u, 0.05, 6))
        assert solve_outcome(lambda: solve(scheme, field, t, u, t + 0.3, 0.05)) == want
        [assembly] = [s for s in sources if s.startswith("def assemble(")]
        for j in range(field.m):
            assert sum(line.startswith(f"    s{j} = ") for line in assembly.splitlines()) == 6
        osc = OSCILLATORS[0]
        polys = [e.coeff for e in build_scheme(osc, TruncationPolicy.from_order(4, 2)).entries]
        sources.clear()
        plan = oscillator.TermPlan(polys)
        for dt in (0.05, -0.0):
            for t in (0.0, 0.3, -0.7):
                want = [ref.eval_shifted(c, osc, dt, t) for c in polys]
                assert exact(plan(osc, dt, t)) == exact(want)
        # each coefficient of more than two constants is summed into its
        # own local, and the function returns every value in one list
        [source] = sources
        *_, last = source.splitlines()
        split = [i for i, c in enumerate(polys) if len({key[2] for key, _ in c.terms}) > 2]
        assert split and all(f"\n    c{i} = c{i} + " in source for i in split)
        assert last.startswith("    return [")
        items = last.removeprefix("    return [").removesuffix("]").split(", ")
        assert len(items) == len(polys)
        assert [i for i, item in enumerate(items) if item == f"c{i}"] == split
    finally:
        stepping._assembly.cache_clear()


INTEGRAL_EXPONENT_FIELDS = [
    (lambda: make_field(1, lambda t, u: [u[0] ** np.int64(2) * t],
                        lambda t, u: [u[0] ** np.int64(-2)]),
     lambda: make_field(1, lambda t, u: [u[0] ** 2 * t], lambda t, u: [u[0] ** -2])),
    (lambda: builtin_field("power", gamma=np.int64(3)), FIELDS["power"]),
]


@pytest.mark.parametrize("policy", [(4, 2), (8, 2)], ids=["4-2", "8-2"])
@pytest.mark.parametrize("fields", INTEGRAL_EXPONENT_FIELDS, ids=["u-powers", "power-gamma"])
def test_numpy_integer_exponents_step_as_ints(fields, policy):
    # a numpy integer exponent or gamma gives the bits of the int
    numpy_field, int_field = (make() for make in fields)
    rng = np.random.default_rng(29)
    for osc in OSCILLATORS[:2]:
        scheme = build_scheme(osc, TruncationPolicy.from_order(*policy))
        for t, u in start_points(1, rng):
            assert_same(step(scheme, numpy_field, t, u, 0.1), step(scheme, int_field, t, u, 0.1))
            assert solve_outcome(lambda: solve(scheme, numpy_field, t, u, t + 0.5, 0.1)) == \
                   solve_outcome(lambda: solve(scheme, int_field, t, u, t + 0.5, 0.1))


def test_jets_cancelling_to_zero_match_reference():
    # u*u - u*u leaves exact zeros mid-word, which the jets keep as values,
    # so L1 b and every word built on it are zero
    field = make_field(1, lambda t, u: [u[0] * u[0] * t - t * u[0] * u[0] + 0.5 * u[0]],
                       lambda t, u: [u[0] * u[0] - u[0] * u[0] + 1])
    rng = np.random.default_rng(5)
    for osc in OSCILLATORS:
        scheme = build_scheme(osc, table_policy((8, 2), osc.nu))
        for t, u in start_points(1, rng):
            assert_same(step(scheme, field, t, u, 0.1), ref.step(scheme, field, t, u, 0.1))
            assert_same(step_phase_averaged(scheme, field, t, u, 0.1),
                        ref.step(scheme, field, t, u, 0.1, averaged=True))


def test_plain_and_averaged_steps_alternate_on_one_table():
    field = FIELDS["nonlinear"]()
    scheme = build_scheme(OSCILLATORS[1], TruncationPolicy.from_order(4, 2))
    u = np.array([1.1 + 0.1j])
    for i in range(6):
        averaged = i % 2 == 1
        fn = step_phase_averaged if averaged else step
        got = fn(scheme, field, 0.1 * i, u, 0.1)
        assert_same(got, ref.step(scheme, field, 0.1 * i, u, 0.1, averaged=averaged))
        u = got.u_next


def test_cache_hits_step_with_one_plan(monkeypatch):
    compiled = []

    def counting(pairs):
        compiled.append(pairs)
        return plan_class(pairs)

    plan_class = jets.WordPlan
    monkeypatch.setattr(jets, "WordPlan", counting)
    monkeypatch.setattr(jets, "_PLANS", weakref.WeakValueDictionary())
    field = FIELDS["linear"]()
    # a Fourier structure no other test builds, so its entries start cold
    coeffs = {1: 0.4, -1: 0.4, 2: 0.05 - 0.1j}
    first = build_scheme(make_oscillator("fourier", 90.0, 0.3, coeffs=coeffs),
                         TruncationPolicy.from_order(4, 2))
    second = build_scheme(make_oscillator("fourier", 60.0, 2.1, coeffs=coeffs),
                          TruncationPolicy.from_order(4, 2))
    u = np.array([0.8 + 0.2j])
    for scheme in (first, second):
        assert_same(step(scheme, field, 0.2, u, 0.1), ref.step(scheme, field, 0.2, u, 0.1))
    assert first.entries.plan is second.entries.plan
    assert len(compiled) == 1


def test_hand_built_table_matches_reference():
    built = build_scheme(OSCILLATORS[2], TruncationPolicy.from_order(4, 2))
    scheme = SchemeTable(built.oscillator, built.policy, list(reversed(built.entries[2:])))
    field = FIELDS["m2-division"]()
    u = np.array([0.9 + 0.2j, 1.1 - 0.1j])
    assert_same(step(scheme, field, 0.3, u, 0.1), ref.step(scheme, field, 0.3, u, 0.1))
    assert_same(step_phase_averaged(scheme, field, 0.3, u, 0.1),
                ref.step(scheme, field, 0.3, u, 0.1, averaged=True))


# -- the operator tape ----------------------------------------------------------

def fresh_table(policy=(4, 2)):
    """A hand-built table, with a coefficient plan of its own."""
    built = build_scheme(OSCILLATORS[0], TruncationPolicy.from_order(*policy))
    return SchemeTable(built.oscillator, built.policy, list(built.entries))


def tapes(field) -> dict:
    """The tapes `field` keeps, by word plan, the one used last last; None
    for a plan whose recording was refused."""
    return dict(field._tapes)


@pytest.fixture
def recordings(monkeypatch):
    """The base point of every recording of a tape, in order."""
    out = []
    record = jets.CoefficientField._record

    def counting(field, plan, base):
        out.append(base)
        return record(field, plan, base)

    monkeypatch.setattr(jets.CoefficientField, "_record", counting)
    return out


ZERO_WORD_FIELDS = {
    # L0 b = -c + c * 1 cancels to an exact zero among constants
    "cancelling": lambda: make_field(1, lambda t, u: [0.7], lambda t, u: [u[0] - 0.7 * t]),
    # a * db/du = 1e-200 * 1e-200 underflows to zero, and at t = 0, where
    # b = u * 1e-200, L1 b = b * 1e-200 does too
    "underflowing": lambda: make_field(1, lambda t, u: [1e-200],
                                       lambda t, u: [-t * 0.7 + u[0] * 1e-200]),
}


@pytest.mark.parametrize("name", ZERO_WORD_FIELDS)
def test_word_zero_on_every_step_runs_the_kernels(name, recordings):
    # the zeros are values: the tape recorded at t = 0 serves every step
    field = ZERO_WORD_FIELDS[name]()
    scheme = fresh_table()
    u = np.array([0.9 + 0.0j])
    h = 0.05
    traj = solve(scheme, field, 0.0, u, 5 * h, h)
    assert len(recordings) == 1 and list(tapes(field)) == [scheme.entries.plan[0]]
    for i, (t, got) in enumerate(traj[1:]):
        want = ref.step(scheme, field, i * h, u, h)
        assert repr(t) == repr(want.t_next)
        assert exact(got) == exact(want.u_next)
        u = want.u_next
    # the pairs of the step plan, the entries whose coefficient has terms
    pairs = [(e.word.target, e.word.operator_word) for e in scheme.entries if e.coeff.terms]
    got = operator_values(field, pairs, 0.3, u)
    want = ref.operator_values(field, pairs, 0.3, u)
    assert all(exact(got[k]) == exact(want[k]) for k in want)
    assert len(recordings) == 1


def test_replay_resumes_after_a_zero_state(recordings):
    # L0 b = -1 + 0.5 * 2u is exactly zero at u = 1 only
    field = make_field(1, lambda t, u: [0.5], lambda t, u: [u[0] * u[0] - t])
    scheme = fresh_table()
    for t, u in ((0.1, 1.2), (0.2, 1.0), (0.3, 0.8 + 0.1j)):
        u = np.array([u], dtype=complex)
        assert_same(step(scheme, field, t, u, 0.1), ref.step(scheme, field, t, u, 0.1))
    assert len(recordings) == 1


def test_fields_of_two_dimensions_get_their_own_tapes(recordings):
    scheme = fresh_table((8, 2))
    rng = np.random.default_rng(9)
    fields = [FIELDS["nonlinear"](),
              make_field(2, lambda t, u: [u[1] * t, -u[0]], lambda t, u: [u[0] * u[1], 0.3])]
    for field in (fields[0], fields[1], fields[0]):
        t, u = start_points(field.m, rng)[0]
        assert_same(step(scheme, field, t, u, 0.1), ref.step(scheme, field, t, u, 0.1))
    # two recordings, then one replay
    assert len(recordings) == 2
    assert [list(tapes(field)) for field in fields] == [[scheme.entries.plan[0]]] * 2


def test_a_field_whose_sums_cancel_among_constants_never_trips(recordings):
    # the coupling constants build two terms of 0.020000000000000004 that
    # cancel in a sum; the recording folds them, so every step replays
    field = FIELDS["m4-coupled"]()
    scheme = fresh_table()
    t, u = start_points(field.m, np.random.default_rng(4))[0]
    h = 0.05
    traj = solve(scheme, field, t, u, t + 5 * h, h)
    assert len(recordings) == 1
    for i, (_, got) in enumerate(traj[1:]):
        want = ref.step(scheme, field, t + i * h, u, h)
        assert exact(got) == exact(want.u_next)
        u = want.u_next


def test_tapes_per_field_are_bounded(recordings):
    field = make_field(1, lambda t, u: [t + u[0]], lambda t, u: [0.5 * u[0] * u[0] + 1.0])
    # one word plan per list of pairs, one more than a field keeps tapes of
    plans = [[("a", ("L0",) * k), ("b", ("L1",))] for k in range(1, jets.TAPE_CACHE_SIZE + 2)]
    u = np.array([0.9 + 0.1j])
    # the first again at the end, after its tape was dropped
    for n, pairs in enumerate([*plans, plans[0]], 1):
        got = operator_values(field, pairs, 0.2, u)
        want = ref.operator_values(field, pairs, 0.2, u)
        assert all(exact(got[k]) == exact(want[k]) for k in want)
        assert len(tapes(field)) == min(n, jets.TAPE_CACHE_SIZE)
    assert len(recordings) == len(plans) + 1


DIVIDING_FIELDS = {
    "power-2": lambda: builtin_field("power", gamma=2),
    "power": FIELDS["power"],
    "m2-division": FIELDS["m2-division"],
}


@pytest.mark.parametrize("name", DIVIDING_FIELDS)
def test_dividing_fields_replay_their_tapes(name, recordings, monkeypatch):
    # a reciprocal's bracket 1 - f0 * (1/f0) is exactly zero for most f0
    # but not all; the jets keep it as a value either way, so one tape per
    # table serves all 200 steps at (4,2) and 60 at (8,2), and no step runs
    # the jets on numbers
    on_numbers = []
    run = jets.CoefficientField._run

    def counting(field, plan, origin, values):
        on_numbers.append(type(values[0]) is not jets._Register)
        return run(field, plan, origin, values)

    monkeypatch.setattr(jets.CoefficientField, "_run", counting)
    field = DIVIDING_FIELDS[name]()
    for policy, n in (((4, 2), 200), ((8, 2), 60)):
        scheme = build_scheme(OSCILLATORS[0], TruncationPolicy.from_order(*policy))
        rng = np.random.default_rng(11)
        for _ in range(n):
            t = float(rng.uniform(-0.5, 1.0))
            u = rng.uniform(0.5, 1.5, field.m) + 1j * rng.uniform(-0.3, 0.3, field.m)
            assert_same(step(scheme, field, t, u, 0.1), ref.step(scheme, field, t, u, 0.1))
    assert len(recordings) == 2 and on_numbers == [False, False]


def test_alternating_zero_outcomes_reuse_their_tapes(recordings):
    # b = u^2 - t is exactly zero at u = 0.5, t = 0.25 and nowhere else here
    field = make_field(1, lambda t, u: [0.5 * u[0]], lambda t, u: [u[0] * u[0] - t])
    scheme = fresh_table()
    for i in range(10):
        t, u = (0.25, 0.5) if i % 2 else (0.1 + 0.01 * i, 1.2)
        u = np.array([u], dtype=complex)
        assert_same(step(scheme, field, t, u, 0.1), ref.step(scheme, field, t, u, 0.1))
    assert len(recordings) == 1


def test_averaged_entries_share_the_word_plan(monkeypatch, bindings):
    # plain and phase-averaged steps, in either order and over two step
    # sizes, read one word plan and one coefficient plan, which binds once
    # per change of step size: the averages are its binding's prefix
    made = []
    init = oscillator.TermPlan.__init__
    monkeypatch.setattr(oscillator.TermPlan, "__init__",
                        lambda plan, polys: made.append(plan) or init(plan, polys))
    u = np.array([1.1 + 0.1j])
    runs = [(step, False), (step_phase_averaged, True)]
    for order in (runs, runs[::-1]):
        scheme = fresh_table()
        field = FIELDS["nonlinear"]()
        made.clear()
        for h in (0.1, 0.05, 0.1):
            for fn, averaged in (*order, *order[::-1]):
                assert_same(fn(scheme, field, 0.1, u, h),
                            ref.step(scheme, field, 0.1, u, h, averaged=averaged))
        words, coefficients = scheme.entries.plan
        assert made == [coefficients]
        assert bindings(scheme) == 3
        assert list(tapes(field)) == [words]


def test_tables_with_the_same_words_share_one_plan_and_tape():
    policy = TruncationPolicy.from_order(4, 2)
    cos, exp = (build_scheme(make_oscillator(kind, 100.0, 0.3), policy) for kind in ("cos", "exp"))
    assert cos.entries is not exp.entries
    assert [e.word for e in cos.entries] == [e.word for e in exp.entries]
    assert cos.entries.plan[0] is exp.entries.plan[0]
    field = FIELDS["nonlinear"]()
    u = np.array([1.1 + 0.1j])
    # other times, so that the second step does not take the first's values
    for scheme, t in ((cos, 0.2), (exp, 0.3)):
        assert_same(step(scheme, field, t, u, 0.1), ref.step(scheme, field, t, u, 0.1))
    assert len(tapes(field)) == 1


@pytest.mark.parametrize("order", [0, 2])
def test_field_jets_match_reference(order):
    # the field builds its variable jets from packed keys, keeping a zero
    # value, and a constant from the constructor, dropping a zero; t = 0,
    # u_j = 0 and b_2 = 0 give such zeros
    field = make_field(2, lambda t, u: [t, u[1]], lambda t, u: [u[0] - 1.0, 0.0])
    for t, u in [(0.0, [0.0, 1.0 - 0.5j]), (0.3, [0.5j, 0.0])]:
        u = np.array(u)
        origin = Jet((t, *u), order, {})
        for fn, got in zip((field._a, field._b), field._on_jets(origin, origin.base)):
            want = ref._field_jets(fn, 2, t, u, order)
            assert repr([list(j.coeffs.items()) for j in got]) == \
                   repr([list(j.coeffs.items()) for j in want])


# -- the oscillator at one time -------------------------------------------------

@pytest.mark.parametrize("nu", [0.0, -0.5, 0.3])
@pytest.mark.parametrize("kind", ["cos", "sin", "exp", "fourier"])
def test_value_at_one_time_matches_reference(kind, nu):
    # plain numbers take cmath, numpy scalars, bools and 0-d arrays numpy;
    # both must give the numpy formula's bits.  "fourier" is a seeded
    # four-mode complex series with a mean to remove.
    rng = np.random.default_rng(7)
    coeffs = {k: complex(*rng.uniform(-1.0, 1.0, 2)) for k in (-3, -1, 0, 2, 4)}
    times = [0, 0.0, -0.0, 1, 3e-9, -7e-7, True, np.float64(0.37), np.array(-1.3)]
    times += [float(t) for t in rng.uniform(-100.0, 100.0, 40)]
    for omega in (2.0, 100.0, 1e4):
        for phi in (0.0, 0.7):
            osc = make_oscillator(kind, omega, phi, nu, coeffs if kind == "fourier" else None)
            for t in times:
                assert repr(osc.value(t)) == repr(ref.oscillator_value(osc, t))


def test_value_is_complex_at_a_number_and_an_array_at_an_array():
    osc = make_oscillator("cos", 100.0, 0.3)
    assert type(osc.value(0.25)) is complex
    assert type(osc.value(np.float64(0.25))) is complex
    assert type(osc.value(np.array([0.25, 0.5]))) is np.ndarray


def test_value_at_nan_is_nan_without_a_warning():
    assert repr(make_oscillator("cos", 2.0).value(float("nan"))) == "(nan+nanj)"


@pytest.mark.parametrize("osc, t, want", [
    (make_oscillator("cos", 2.0), float("inf"), "(nan+nanj)"),
    (make_oscillator("cos", 2.0), float("-inf"), "(nan+nanj)"),
    # a finite time whose phase 2 omega t overflows
    (make_oscillator("fourier", 10.0, coeffs={2: 1.0, -1: 0.5j}), 1e307, "(nan+nanj)"),
    # a finite phase whose value overflows
    (make_oscillator("fourier", 1e10, nu=-0.9, coeffs={1: 1e300}), 0.0, "(inf+0j)"),
], ids=["inf", "-inf", "phase-overflow", "value-overflow"])
def test_value_not_finite_warns_as_numpy_does(osc, t, want):
    with pytest.warns(RuntimeWarning):
        got = osc.value(t)
    assert repr(got) == want


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(-6, 6).filter(bool),
                       st.complex_numbers(min_magnitude=1e-3, max_magnitude=10.0),
                       min_size=1, max_size=6),
       st.sampled_from([0.0, -0.5, 0.3]), st.floats(0.1, 1e4), st.floats(-10.0, 10.0),
       st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=8))
def test_value_on_an_array_has_each_elements_scalar_bits(coeffs, nu, omega, phi, times):
    osc = make_oscillator("fourier", omega, phi, nu, coeffs)
    got = osc.value(np.array(times))
    assert [repr(complex(z)) for z in got] == [repr(osc.value(t)) for t in times]


def test_an_evaluated_spec_pickles_copies_and_hashes_as_a_fresh_one():
    # nothing that evaluating v builds is kept on the spec
    make = lambda: make_oscillator("fourier", 100.0, 0.3, -0.5, {-2: 0.3 - 0.1j, 1: 0.7, 3: 0.25j})
    fresh, used = make(), make()
    used.value(0.2)
    used.value(np.array([0.1, 0.4]))
    oscillator.v_norm(used)
    rk4_micro_solve(builtin_field("linear"), used, 0.0, np.array([1.0 + 0j]), 0.01,
                    used.period / 40)
    assert vars(used) == vars(fresh)
    assert used == fresh and hash(used) == hash(fresh)
    assert pickle.loads(pickle.dumps(used)) == fresh
    assert copy.deepcopy(used) == fresh


def reference_rk4(field, osc, t0, u0, t_end, dt):
    """``rk4_micro_solve``'s arithmetic, written out on Python numbers: the
    state a list of complex numbers, every product a complex product, and
    the field's `a` and `b` called on the state's complex numbers as the
    reference step calls them."""
    span = t_end - t0
    n = max(1, round(span / dt))
    if n * dt < span - 1e-12 * span:
        n += 1
    dt = span / n
    h, h2, h6, two = complex(dt), complex(dt / 2), complex(dt / 6), complex(2)

    def rhs(t, u):
        x, v = np.array(u), ref.oscillator_value(osc, t)
        a = ref._field_values(field._a, t, x).tolist()
        b = ref._field_values(field._b, t, x).tolist()
        return [ai + bi * v for ai, bi in zip(a, b)]

    u = [complex(x) for x in u0]
    traj = [(t0, u)]
    t = t0
    for i in range(n):
        k1 = rhs(t, u)
        k2 = rhs(t + dt / 2, [x + h2 * k for x, k in zip(u, k1)])
        k3 = rhs(t + dt / 2, [x + h2 * k for x, k in zip(u, k2)])
        k4 = rhs(t + dt, [x + h * k for x, k in zip(u, k3)])
        u = [x + h6 * (p + two * q + two * r + s) for x, p, q, r, s in zip(u, k1, k2, k3, k4)]
        t = t0 + (i + 1) * dt
        traj.append((t, u))
    return traj


# the cos cases keep their plain ids; at exp and Fourier, b v is a product
# of two complex numbers, which numpy's dispatched array loops may fuse
@pytest.mark.parametrize("name, osc", [
    pytest.param(name, osc, id=name + suffix)
    for suffix, osc in (
        ("", make_oscillator("cos", 2.0, 0.3)),
        ("-exp", make_oscillator("exp", 2.0, 0.3)),
        ("-fourier-nu-half",
         make_oscillator("fourier", 2.0, 0.3, -0.5, coeffs={1: 0.6 - 0.2j, -2: 0.3 + 0.4j})))
    for name in ("linear", "power", "m2-division", "m4-coupled")])
def test_rk4_oracle_matches_reference(name, osc):
    # a slow oscillator allows steps long enough that a right-hand side off
    # in its last bit (order-0 jets, for one) shows in the trajectory;
    # 1.0 / 0.031 rounds down to 32 steps, too few, so the step shrinks to
    # 1.0 / 33
    field = FIELDS[name]()
    u0 = np.array([0.6 + 0.1j] * field.m)
    got = rk4_micro_solve(field, osc, 0.2, u0, 1.2, 0.031)
    want = reference_rk4(field, osc, 0.2, u0, 1.2, 0.031)
    assert repr([(t, exact(u)) for t, u in got]) == repr([(t, exact(u)) for t, u in want])


# -- the coefficient bindings ---------------------------------------------------

@pytest.fixture
def bindings(monkeypatch):
    """``bindings(scheme)``: how many bindings the coefficient plan of
    `scheme`'s entries has built so far, for plain and phase-averaged
    steps alike."""
    built = collections.Counter()
    bind = oscillator.TermPlan._bind

    def counting(plan, omega, nu, dt):
        built[plan] += 1
        return bind(plan, omega, nu, dt)

    monkeypatch.setattr(oscillator.TermPlan, "_bind", counting)

    def count(scheme):
        return built[scheme.entries.plan[1]]

    return count


def test_step_sizes_bind_by_value_sign_and_type(bindings):
    # 0.0, -0.0 and 0, or 0.05 and np.float64(0.05), are equal keys whose
    # powers differ in sign or type; the -0.0 components let zero signs
    # show in u_next.  A 0-d array binds by its type, dtype, value and sign.
    scheme = fresh_table()
    u = np.array([complex(0.9, -0.0), complex(-0.0, 0.4)])
    field = FIELDS["m2-division"]()
    for h in (0.02, 0.05, np.float64(0.05), 0.02, 0.0, -0.0, 0, np.float64(0.05),
              np.array(0.05)):
        for fn, averaged in ((step, False), (step_phase_averaged, True)):
            for t in (0.0, 0.3):
                assert_same(fn(scheme, field, t, u, h),
                            ref.step(scheme, field, t, u, h, averaged=averaged))
    # one binding per change of step size, shared by both kinds of step
    assert bindings(scheme) == 9


def test_a_solve_at_a_0d_step_size_binds_once(bindings):
    # every step of the solve shares the step size's binding, and matches
    # a loop of steps at that step size bit for bit
    scheme = fresh_table()
    field = FIELDS["linear"]()
    u0 = np.array([0.9 + 0.1j])
    h = np.array(0.02)
    want = solve_outcome(lambda: stepped(step, scheme, field, 0.0, u0, h, 50))
    assert bindings(scheme) == 1
    assert solve_outcome(lambda: solve(scheme, field, 0.0, u0, 1.0, h)) == want
    assert bindings(scheme) == 1
    # an array changed in place binds again
    h[()] = 0.04
    assert solve_outcome(lambda: solve(scheme, field, 0.0, u0, 1.0, h)) \
        == solve_outcome(lambda: stepped(ref.step, scheme, field, 0.0, u0, h, 25))
    assert bindings(scheme) == 2


def test_phases_share_one_binding_per_frequency_and_step_size(bindings):
    base = fresh_table()
    field = FIELDS["nonlinear"]()
    u = np.array([1.1 + 0.1j])
    for omega in (100.0, 57.0):
        for phi in np.linspace(0.0, 6.0, 7):
            scheme = SchemeTable(make_oscillator("cos", omega, float(phi)), base.policy,
                                 base.entries)
            for fn, averaged in ((step, False), (step_phase_averaged, True)):
                for t in (0.0, 0.3):
                    assert_same(fn(scheme, field, t, u, 0.1),
                                ref.step(scheme, field, t, u, 0.1, averaged=averaged))
    assert bindings(base) == 2


def test_eval_shifted_keeps_no_binding():
    # quadrature calls eval_shifted with a new dt every time
    for osc in OSCILLATORS:
        V = oscillator.big_v(osc)
        for dt in (0.01, 0.37, -0.0, 0, np.float64(0.2), 1.5, 0.01):
            assert repr(V.eval_shifted(osc, dt, 0.3)) == repr(ref.eval_shifted(V, osc, dt, 0.3))
        assert V._plan._last == (None, None)


def test_step_size_rebinds_after_another(bindings):
    scheme = fresh_table()
    field = FIELDS["linear"]()
    u = np.array([0.9 + 0.1j])
    # the first step size again at the end, after another was bound
    hs = [0.01 * (i + 1) for i in range(11)]
    for n, h in enumerate([*hs, hs[0]], 1):
        assert_same(step(scheme, field, 0.2, u, h), ref.step(scheme, field, 0.2, u, h))
        assert bindings(scheme) == n


TIMES = [0.0, -0.0, 0, 0.3, np.float64(0.3)]
STEP_SIZES = [0.02, np.float64(0.02), 0.05, 0.0, -0.0, 0]


@pytest.mark.parametrize("policy", [(1, 1), (4, 2)], ids=["1-1", "4-2"])
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(st.booleans(), st.sampled_from(TIMES), st.sampled_from(STEP_SIZES)),
                min_size=1, max_size=8))
def test_interleaved_steps_match_reference(policy, calls):
    # equal times and step sizes of other signs or types, plain and
    # phase-averaged, in any order: a kept binding or kept operator
    # values used for the wrong call would show.  At (1,1) the field runs
    # on plain numbers, where the sign of a zero t shows in `a`.
    scheme = fresh_table(policy)
    field = FIELDS["m2-division"]()
    u = np.array([complex(0.9, -0.0), complex(-0.0, 0.4)])
    for averaged, t, h in calls:
        fn = step_phase_averaged if averaged else step
        assert_same(fn(scheme, field, t, u, h),
                    ref.step(scheme, field, t, u, h, averaged=averaged))
