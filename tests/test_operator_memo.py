"""Steps at the same ``(field, t, u)`` share their operator values.

A field keeps its last call's values, keyed by the word plan, the time
with its type and sign, and the bytes of the state.  Every result is
compared with ``reference_step``, which evaluates each call afresh, by the
``repr`` of its Python values.
"""

import gc
import math
import weakref

import numpy as np
import pytest

import reference_step as ref
import oscistep.jets as jets
from oscistep import (TruncationPolicy, build_scheme, builtin_field, make_field,
                      make_oscillator, operator_values, step, step_phase_averaged)
from test_reference_step import FIELDS, assert_same, exact, tapes

K = 5


def assert_same_values(got, want):
    assert list(got) == list(want)
    assert all(exact(got[k]) == exact(want[k]) for k in want)


@pytest.fixture
def evaluations(monkeypatch):
    """One entry per call that a field evaluated, not served from its
    memo: the time it was evaluated at."""
    out = []
    values = jets.CoefficientField._values

    def counting(field, plan, t, u):
        kept = field._last[-1]
        try:
            got = values(field, plan, t, u)
        except Exception:
            out.append(t)
            raise
        if got is not kept:
            out.append(t)
        return got

    monkeypatch.setattr(jets.CoefficientField, "_values", counting)
    return out


def phase_group(kind, policy, phi0=0.4):
    """The tables of K equispaced phases of one oscillator family."""
    return [build_scheme(make_oscillator(kind, 90.0, phi0 + 2 * math.pi * j / K),
                         TruncationPolicy.from_order(*policy)) for j in range(K)]


@pytest.mark.parametrize("averaged_first", [False, True], ids=["plain-first", "averaged-first"])
@pytest.mark.parametrize("policy", [(1, 1), (4, 2), (8, 2)], ids=["1-1", "4-2", "8-2"])
@pytest.mark.parametrize("name", ["linear", "m2-division", "m4-coupled"])
def test_phase_group_and_average_evaluate_once(name, policy, averaged_first, evaluations):
    field = FIELDS[name]()
    schemes = phase_group("exp" if name == "m4-coupled" else "cos", policy)
    u = np.linspace(0.7, 1.2, field.m) + 0.1j
    runs = [(step, s, False) for s in schemes] + [(step_phase_averaged, schemes[0], True)]
    if averaged_first:
        runs.reverse()
    for fn, scheme, averaged in runs:
        assert_same(fn(scheme, field, 0.3, u, 0.1),
                    ref.step(scheme, field, 0.3, u, 0.1, averaged=averaged))
    assert evaluations == [0.3]
    assert all(s.entries is schemes[0].entries for s in schemes)


@pytest.mark.parametrize("policy", [(1, 1), (4, 2)], ids=["1-1", "4-2"])
def test_times_that_compare_equal_are_evaluated_apart(policy, evaluations):
    # -0.0 and 0.0, or 0 and 0.0, are equal keys; the order-0 plan of (1,1)
    # evaluates a = u t on numbers, where the sign of t shows in the values
    field = builtin_field("linear", mu=10.0)
    scheme = build_scheme(make_oscillator("cos", 100.0, 0.3),
                          TruncationPolicy.from_order(*policy))
    u = np.array([complex(0.9, -0.0)])
    times = [0.0, -0.0, 0, np.float64(0.0), np.float64(-0.0), 0.0, 0.0]
    for t in times:
        assert_same(step(scheme, field, t, u, 0.1), ref.step(scheme, field, t, u, 0.1))
    assert [(repr(t), type(t)) for t in evaluations] == [(repr(t), type(t)) for t in times[:-1]]


def test_sign_of_t_shows_in_order_zero_values():
    field = builtin_field("linear", mu=10.0)
    pairs = [("a", ()), ("b", ())]
    u = [0.9 + 0.0j]
    assert exact(operator_values(field, pairs, 0.0, u)[("a", ())]) != \
        exact(operator_values(field, pairs, -0.0, u)[("a", ())])


def test_states_differing_in_the_sign_of_a_zero_are_evaluated_apart(evaluations):
    field = FIELDS["m2-division"]()
    scheme = build_scheme(make_oscillator("exp", 57.0, 1.1), TruncationPolicy.from_order(4, 2))
    states = [[complex(0.9, 0.0), complex(-0.0, 0.4)], [complex(0.9, -0.0), complex(0.0, 0.4)],
              [complex(0.9, -0.0), complex(-0.0, 0.4)], [complex(0.9, -0.0), complex(-0.0, 0.4)]]
    for u in states:
        u = np.array(u)
        for fn, averaged in ((step, False), (step_phase_averaged, True)):
            assert_same(fn(scheme, field, 0.0, u, 0.1),
                        ref.step(scheme, field, 0.0, u, 0.1, averaged=averaged))
    assert len(evaluations) == 3


def test_fields_are_told_apart_by_identity(evaluations):
    scheme = build_scheme(make_oscillator("cos", 100.0, 0.3), TruncationPolicy.from_order(4, 2))
    u = np.array([0.8 + 0.2j])
    # two objects with the same lambdas: both evaluated
    first = FIELDS["linear"]()
    second = make_field(1, first._a, first._b)
    # each field keeps its own last call, so the first is not evaluated again
    for field, count in ((first, 1), (second, 2), (first, 2)):
        assert_same(step(scheme, field, 0.2, u, 0.1), ref.step(scheme, field, 0.2, u, 0.1))
        assert len(evaluations) == count
    # the same lambda with other constants, each field dropped before the
    # next is made, so that a new field may take a dropped one's address
    for count, mu in enumerate((1.0, 2.0, -3.0, 1.0), 3):
        field = builtin_field("linear", mu=mu)
        assert_same(step(scheme, field, 0.2, u, 0.1), ref.step(scheme, field, 0.2, u, 0.1))
        assert len(evaluations) == count
        del field
    assert len(evaluations) == 6


def test_times_without_a_float_sign_are_evaluated_each_call(evaluations):
    field = FIELDS["m2-division"]()
    scheme = build_scheme(make_oscillator("cos", 100.0, 0.3), TruncationPolicy.from_order(4, 2))
    pairs = [(e.word.target, e.word.operator_word) for e in scheme.entries]
    u = [0.9 + 0.2j, 1.1 - 0.1j]
    for t in (0.3 + 0.1j, 0.3 + 0.1j, 0.3, 0.3 + 0j, 0.3):
        assert_same_values(operator_values(field, pairs, t, u),
                           ref.operator_values(field, pairs, t, u))
    assert len(evaluations) == 4
    # a 0-d array has a sign but no hash, and may change between calls
    t = np.array(0.3)
    for value in (0.3, 0.5):
        t[()] = value
        assert_same_values(operator_values(field, pairs, t, u),
                           ref.operator_values(field, pairs, value, u))
    assert len(evaluations) == 6


def test_a_field_that_raises_raises_on_every_call(evaluations):
    calls = []

    def b(t, u):
        calls.append(t)
        raise ValueError("no b here")

    field = make_field(1, lambda t, u: [u[0] * t], b)
    scheme = build_scheme(make_oscillator("cos", 100.0, 0.3), TruncationPolicy.from_order(4, 2))
    u = np.array([0.8 + 0.2j])
    for fn in (step, step, step_phase_averaged):
        with pytest.raises(ValueError, match="no b here"):
            fn(scheme, field, 0.2, u, 0.1)
    assert len(evaluations) == 3
    # every call records, and raises what the jets raise
    assert len(calls) == 3
    with pytest.raises(ValueError, match="no b here"):
        ref.step(scheme, field, 0.2, u, 0.1)


def test_a_division_by_zero_raises_on_every_call(evaluations):
    field = make_field(1, lambda t, u: [1 / (u[0] - t)], lambda t, u: [u[0]])
    scheme = build_scheme(make_oscillator("cos", 100.0, 0.3), TruncationPolicy.from_order(4, 2))
    good, bad = np.array([49.25 + 0j]), np.array([0.25 + 0j])
    assert_same(step(scheme, field, 0.25, good, 0.1), ref.step(scheme, field, 0.25, good, 0.1))
    for _ in range(2):
        with pytest.raises(ZeroDivisionError):
            step(scheme, field, 0.25, bad, 0.1)
    # the last values kept are still those of the good state
    assert_same(step(scheme, field, 0.25, good, 0.1), ref.step(scheme, field, 0.25, good, 0.1))
    assert len(evaluations) == 3


def test_returned_arrays_are_the_callers_own():
    field = FIELDS["m2-division"]()
    scheme = build_scheme(make_oscillator("exp", 57.0, 1.1), TruncationPolicy.from_order(4, 2))
    pairs = [(e.word.target, e.word.operator_word) for e in scheme.entries]
    u = np.array([0.9 + 0.2j, 1.1 - 0.1j])
    want = ref.operator_values(field, pairs, 0.3, u)
    for _ in range(2):
        got = operator_values(field, pairs, 0.3, u)
        assert_same_values(got, want)
        for values in got.values():
            values[:] = 99.0
    for _ in range(2):
        res = step(scheme, field, 0.3, u, 0.1)
        assert_same(res, ref.step(scheme, field, 0.3, u, 0.1))
        res.u_next[:] = 99.0
        res.contributions[0][:] = 99.0
    # the state may change in place between calls
    u[0] = 0.7
    assert_same(step(scheme, field, 0.3, u, 0.1), ref.step(scheme, field, 0.3, u, 0.1))


@pytest.mark.parametrize("calls", [("step",), ("operator_values",), ("step", "operator_values")])
def test_nothing_but_the_caller_holds_a_field(calls):
    scheme = build_scheme(make_oscillator("cos", 100.0, 0.3), TruncationPolicy.from_order(4, 2))
    pairs = [(e.word.target, e.word.operator_word) for e in scheme.entries]
    captured = {"mu": 0.5}
    field = make_field(1, lambda t, u: [u[0] * t], lambda t, u: [captured["mu"] * u[0]])
    u = np.array([0.8 + 0.2j])
    for call in calls:
        if call == "step":
            assert_same(step(scheme, field, 0.2, u, 0.1), ref.step(scheme, field, 0.2, u, 0.1))
        else:
            assert_same_values(operator_values(field, pairs, 0.2, u),
                               ref.operator_values(field, pairs, 0.2, u))
    assert tapes(field) and None not in tapes(field).values()
    alive = weakref.ref(field)
    del field
    gc.collect()
    assert alive() is None


def test_an_untaped_field_runs_once_for_a_phase_group():
    calls = []

    def a(t, u):
        # reading a value stops the recording, so every call runs on jets
        calls.append(t)
        return [u[0] * abs(u[0].value)]

    field = make_field(1, a, lambda t, u: [0.5 * u[0] * u[0]])
    schemes = phase_group("exp", (4, 2))
    step(schemes[0], field, 0.1, np.array([1.2 + 0.1j]), 0.1)
    assert list(tapes(field).values()) == [None]
    before = len(calls)
    step(schemes[0], field, 0.2, np.array([1.1 + 0.1j]), 0.1)
    one_step = len(calls) - before
    assert one_step > 0
    before = len(calls)
    u = np.array([0.9 - 0.2j])
    for scheme in schemes:
        assert_same(step(scheme, field, 0.3, u, 0.1), ref.step(scheme, field, 0.3, u, 0.1))
    assert_same(step_phase_averaged(schemes[0], field, 0.3, u, 0.1),
                ref.step(schemes[0], field, 0.3, u, 0.1, averaged=True))
    # ref.step runs the lambda too, once per step
    assert len(calls) - before == one_step + len(schemes) + 1


@pytest.mark.parametrize("averaged_first", [False, True], ids=["plain-first", "averaged-first"])
def test_a_step_and_its_averaged_twin_share_a_plan_past_empty_coefficients(averaged_first,
                                                                          evaluations):
    # at exp (8,2) 26 of 87 coefficients have no terms, and 79 once
    # averaged; the averaged entries leave out the plain table's 26 only,
    # so both steps read one word plan and evaluate once
    field = builtin_field("nonlinear", alpha=0.3, mu=2.0)
    scheme = build_scheme(make_oscillator("exp", 90.0, 0.4), TruncationPolicy.from_order(8, 2))
    entries = scheme.entries
    assert len(entries) - len(entries.live) == 26
    assert sum(not e.coeff.terms for e in entries.averaged) == 79
    assert entries.averaged.plan[0] is entries.plan[0]
    u = np.array([0.9 + 0.1j])
    runs = [(step, False), (step_phase_averaged, True)]
    for fn, averaged in (runs[::-1] if averaged_first else runs):
        assert_same(fn(scheme, field, 0.3, u, 0.1),
                    ref.step(scheme, field, 0.3, u, 0.1, averaged=averaged))
    assert evaluations == [0.3]
