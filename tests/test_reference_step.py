"""The fast step reproduces the plain reference step bit for bit.

``reference_step`` evaluates the same tables with tuple-keyed jets,
one coefficient at a time and one contribution at a time.  Outputs are
compared by the ``repr`` of their Python values, so a changed rounding or
sign of zero fails.
"""

import warnings

import numpy as np
import pytest

import reference_step as ref
import oscistep.jets as jets
import oscistep.oscillator as oscillator
import oscistep.stepping as stepping
from oscistep import (TruncationPolicy, build_scheme, builtin_field, enumerate_words,
                      make_field, make_oscillator, operator_values, solve, step,
                      step_phase_averaged)
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
def test_solve_matches_reference_step_by_step(name, policy):
    # a real start at t = 0 gives sparser jets than later steps, all run
    # through the one plan the table compiled on its first step
    field = FIELDS[name]()
    scheme = build_scheme(OSCILLATORS[0], TruncationPolicy.from_order(*policy))
    u = np.full(field.m, 0.9 + 0.0j)
    h = 0.05
    traj = solve(scheme, field, 0.0, u, 5 * h, h)
    assert len(traj) == 6
    for i, (t, got) in enumerate(traj[1:]):
        want = ref.step(scheme, field, i * h, u, h)
        assert repr(t) == repr(want.t_next)
        assert exact(got) == exact(want.u_next)
        u = want.u_next


def test_jets_cancelling_to_zero_match_reference():
    # u*u - u*u leaves exact zeros that the jets drop mid-word, so L1 b
    # and every word built on it are empty jets
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

    plan_class = stepping.WordPlan
    monkeypatch.setattr(stepping, "WordPlan", counting)
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
    """A hand-built table, whose word plan starts with no tapes."""
    built = build_scheme(OSCILLATORS[0], TruncationPolicy.from_order(*policy))
    return SchemeTable(built.oscillator, built.policy, list(built.entries))


def tapes(scheme):
    return scheme.entries.plan[0].tapes


@pytest.fixture
def tripped(monkeypatch):
    """One entry per tape replay: whether it found a zero and left the
    step to the dict kernels."""
    out = []
    replay = jets._Tape.__call__

    def spying(tape, a, b):
        values = replay(tape, a, b)
        out.append(values is None)
        return values

    monkeypatch.setattr(jets._Tape, "__call__", spying)
    return out


ZERO_WORD_FIELDS = {
    # L0 b = -c + c * 1 cancels to an exact zero, whose key the kernels drop
    "cancelling": lambda: make_field(1, lambda t, u: [0.7], lambda t, u: [u[0] - 0.7 * t]),
    # a * db/du = 1e-200 * 1e-200 underflows to zero, so the kernels leave
    # L0 b = db/dt = -0.7 - 0j, and a replay that kept the zero would add
    # it and print -0.7 + 0j
    "underflowing": lambda: make_field(1, lambda t, u: [1e-200],
                                       lambda t, u: [-t * 0.7 + u[0] * 1e-200]),
}


@pytest.mark.parametrize("name", ZERO_WORD_FIELDS)
def test_word_zero_on_every_step_runs_the_kernels(name, tripped):
    field = ZERO_WORD_FIELDS[name]()
    scheme = fresh_table()
    u = np.array([0.9 + 0.0j])
    h = 0.05
    traj = solve(scheme, field, 0.0, u, 5 * h, h)
    assert tripped == [True] * 5
    for i, (t, got) in enumerate(traj[1:]):
        want = ref.step(scheme, field, i * h, u, h)
        assert repr(t) == repr(want.t_next)
        assert exact(got) == exact(want.u_next)
        u = want.u_next
    pairs = [(e.word.target, e.word.operator_word) for e in scheme.entries]
    got = operator_values(field, pairs, 0.3, u)
    want = ref.operator_values(field, pairs, 0.3, u)
    assert all(exact(got[k]) == exact(want[k]) for k in want)


def test_replay_resumes_after_a_zero_state(tripped):
    # L0 b = -1 + 0.5 * 2u is exactly zero at u = 1 only
    field = make_field(1, lambda t, u: [0.5], lambda t, u: [u[0] * u[0] - t])
    scheme = fresh_table()
    for t, u in ((0.1, 1.2), (0.2, 1.0), (0.3, 0.8 + 0.1j)):
        u = np.array([u], dtype=complex)
        assert_same(step(scheme, field, t, u, 0.1), ref.step(scheme, field, t, u, 0.1))
    assert tripped == [False, True, False]
    assert len(tapes(scheme)) == 1


def test_fields_of_two_dimensions_get_their_own_tapes(tripped):
    scheme = fresh_table((8, 2))
    rng = np.random.default_rng(9)
    fields = [FIELDS["nonlinear"](),
              make_field(2, lambda t, u: [u[1] * t, -u[0]], lambda t, u: [u[0] * u[1], 0.3])]
    for field in (fields[0], fields[1], fields[0]):
        t, u = start_points(field.m, rng)[0]
        assert_same(step(scheme, field, t, u, 0.1), ref.step(scheme, field, t, u, 0.1))
    assert tripped == [False] * 3
    assert len(tapes(scheme)) == 2


def pattern_field(i):
    """A field whose base jets have keys of their own for each i < 28:
    a = t^p + u and b = u^q keep p + 2 and q + 1 keys at order 7."""
    p, q = i % 4 + 1, i // 4 + 1
    return make_field(1, lambda t, u: [t ** p + u[0]], lambda t, u: [0.5 * u[0] ** q])


def test_tapes_per_plan_are_bounded():
    scheme = fresh_table((8, 2))
    u = np.array([0.9 + 0.1j])
    # the first field again at the end, after its tape was dropped
    for n, i in enumerate([*range(jets.TAPE_CACHE_SIZE + 3), 0], 1):
        field = pattern_field(i)
        assert_same(step(scheme, field, 0.2, u, 0.1), ref.step(scheme, field, 0.2, u, 0.1))
        assert len(tapes(scheme)) == min(n, jets.TAPE_CACHE_SIZE)


def test_averaged_entries_share_the_word_plan():
    scheme = fresh_table()
    field = FIELDS["nonlinear"]()
    u = np.array([1.1 + 0.1j])
    for fn, averaged in ((step, False), (step_phase_averaged, True)):
        assert_same(fn(scheme, field, 0.1, u, 0.1),
                    ref.step(scheme, field, 0.1, u, 0.1, averaged=averaged))
    words, coefficients = scheme.entries.plan
    assert scheme.entries.averaged.plan[0] is words
    assert scheme.entries.averaged.plan[1] is not coefficients
    assert len(words.tapes) == 1


@pytest.mark.parametrize("order", [0, 2])
def test_field_jets_match_reference(order):
    # the field builds its variable jets from packed keys, dropping a zero
    # value as the constructor does; t = 0, u_j = 0 and b_2 = 0 give such zeros
    field = make_field(2, lambda t, u: [t, u[1]], lambda t, u: [u[0] - 1.0, 0.0])
    for t, u in [(0.0, [0.0, 1.0 - 0.5j]), (0.3, [0.5j, 0.0])]:
        u = np.array(u)
        for got, fn in ((field.a_jets, field._a), (field.b_jets, field._b)):
            want = ref._field_jets(fn, 2, t, u, order)
            assert repr([list(j.coeffs.items()) for j in got(t, u, order)]) == \
                   repr([list(j.coeffs.items()) for j in want])


# -- the coefficient bindings ---------------------------------------------------

def bindings(scheme, averaged=False):
    entries = scheme.entries.averaged if averaged else scheme.entries
    return entries.plan[1].bindings


def test_step_sizes_bind_by_value_sign_and_type():
    # 0.0, -0.0 and 0, or 0.05 and np.float64(0.05), are equal keys whose
    # powers differ in sign or type; the -0.0 components let zero signs
    # show in u_next.  A 0-d array has no hash and binds for one call.
    scheme = fresh_table()
    u = np.array([complex(0.9, -0.0), complex(-0.0, 0.4)])
    field = FIELDS["m2-division"]()
    for h in (0.02, 0.05, 0.02, 0.0, -0.0, 0, np.float64(0.05), np.array(0.05)):
        for fn, averaged in ((step, False), (step_phase_averaged, True)):
            for t in (0.0, 0.3):
                assert_same(fn(scheme, field, t, u, h),
                            ref.step(scheme, field, t, u, h, averaged=averaged))
    assert len(bindings(scheme)) == len(bindings(scheme, averaged=True)) == 6


def test_phases_share_one_binding_per_frequency_and_step_size():
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
    assert len(bindings(base)) == len(bindings(base, averaged=True)) == 2


def test_bindings_per_plan_are_bounded():
    scheme = fresh_table()
    field = FIELDS["linear"]()
    u = np.array([0.9 + 0.1j])
    # the first step size again at the end, after its binding was dropped
    hs = [0.01 * (i + 1) for i in range(oscillator.BINDING_CACHE_SIZE + 3)]
    for n, h in enumerate([*hs, hs[0]], 1):
        assert_same(step(scheme, field, 0.2, u, h), ref.step(scheme, field, 0.2, u, h))
        assert len(bindings(scheme)) == min(n, oscillator.BINDING_CACHE_SIZE)
