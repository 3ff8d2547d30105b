"""The operator tape reproduces the jets and kernels bit for bit.

A field records its lambdas and a word plan's kernels on the values of
one call, with a guard per zero test, and replays the recording on later
calls whose zero tests come out the same; any other call records again.
Every result is compared with ``reference_step``, which runs the lambdas
on tuple-keyed jets, by the ``repr`` of its Python values; an exception
must be of the same type.
"""

import operator
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_step as ref
import oscistep.jets as jets
from oscistep import (NumericStepError, TruncationPolicy, build_scheme, builtin_field,
                      make_field, make_oscillator, operator_values, rk4_micro_solve, solve,
                      step, step_phase_averaged)
from oscistep.oscillator import absorb_mean
from oscistep.stepping import SchemeTable

OSC = make_oscillator("exp", 57.0, 1.1)

# ints, floats and complex numbers; zeros of each sign, and a tiny value
# whose products underflow to zero
CONSTANTS = [0, 0.0, -0.0, 0j, 1, 2, -1.5, 0.25, 1e-200, 0.3 - 0.2j]

BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def exact(values) -> str:
    """Every digit and the sign of every zero (numpy's own repr rounds)."""
    return repr(np.asarray(values).tolist())


def outcome(fn):
    """``repr`` of the step's values, or the type of the exception."""
    try:
        res = fn()
    except (ArithmeticError, ValueError, TypeError, NumericStepError) as exc:
        return type(exc)
    return exact(res.u_next), repr(res.t_next), [exact(c) for c in res.contributions]


def expressions(m: int, rational: bool):
    """Expression trees over t, u_0, ..., u_{m-1} and CONSTANTS; `x - x`
    of one subtree cancels exactly."""
    leaves = st.one_of(st.just(("t",)), st.tuples(st.just("u"), st.integers(0, m - 1)),
                       st.tuples(st.just("c"), st.sampled_from(CONSTANTS)))
    ops = ["+", "-", "*"] + (["/"] if rational else [])
    return st.recursive(leaves, lambda kids: st.one_of(
        st.tuples(st.sampled_from(ops), kids, kids),
        st.tuples(st.just("**"), kids, st.integers(-2 if rational else 0, 3)),
        kids.map(lambda x: ("-", x, x))), max_leaves=6)


def evaluate(node, t, u):
    op = node[0]
    if op == "t":
        return t
    if op == "u":
        return u[node[1]]
    if op == "c":
        return node[1]
    if op == "**":
        return evaluate(node[1], t, u) ** node[2]
    return BINARY[op](evaluate(node[1], t, u), evaluate(node[2], t, u))


@st.composite
def cases(draw):
    m = draw(st.sampled_from([1, 2, 3]))
    rational = draw(st.booleans())
    a, b = (draw(st.lists(expressions(m, rational), min_size=m, max_size=m)) for _ in "ab")
    values = st.sampled_from([0.0, -0.0, 1.0, 0.5 - 0.2j, 1.25 + 0.5j, -0.75])
    u = np.array(draw(st.lists(values, min_size=m, max_size=m)), dtype=complex)
    times = st.sampled_from([0.0, 0.3, -0.2])
    t = draw(times)
    policy = (2, 2) if m == 3 else draw(st.sampled_from([(2, 2), (4, 2)]))
    if draw(st.booleans()):
        # a_i = c and b_i = u_i - c t: L0 b_i = -c + c * 1 cancels among
        # constants, so the recording drops its key
        i = draw(st.integers(0, m - 1))
        c = draw(st.one_of(st.sampled_from(CONSTANTS),
                           st.complex_numbers(max_magnitude=4, allow_nan=False,
                                              allow_infinity=False)))
        a[i], b[i] = ("c", c), ("-", ("u", i), ("*", ("c", c), ("t",)))
    # a second call, whose zero tests may come out otherwise
    again = draw(times), np.array(draw(st.lists(values, min_size=m, max_size=m)), dtype=complex)
    return m, rational, a, b, t, u, policy, again


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_random_fields_match_reference(case):
    m, rational, a, b, t, u, policy, again = case
    field = make_field(m, lambda t, u: [evaluate(e, t, u) for e in a],
                       lambda t, u: [evaluate(e, t, u) for e in b])
    scheme = build_scheme(OSC, TruncationPolicy.from_order(*policy))
    h = 0.1
    with np.errstate(all="ignore"):
        assert outcome(lambda: step(scheme, field, t, u, h)) == \
               outcome(lambda: ref.step(scheme, field, t, u, h))
        # three steps: the second and later replay the tapes the first recorded
        want, v = [], u
        for i in range(3):
            try:
                v = ref.step(scheme, field, t + i * h, v, h).u_next
            except (ArithmeticError, ValueError, TypeError, NumericStepError) as exc:
                # the same exception from the same step
                assert outcome(lambda: solve(scheme, field, t, u, t + 3 * h, h)) is type(exc)
                break
            if not np.isfinite(v).all():
                # solve rejects the non-finite state, the reference steps on
                break
            want.append(exact(v))
        else:
            traj = solve(scheme, field, t, u, t + 3 * h, h)
            assert [exact(x) for _, x in traj[1:]] == want
        # another call, then the first again: each replays a tape whose
        # guards hold there, or records one
        for t2, u2 in (again, (t, u)):
            assert outcome(lambda: step(scheme, field, t2, u2, h)) == \
                   outcome(lambda: ref.step(scheme, field, t2, u2, h))
    if not rational:
        # a polynomial field is always recorded
        assert field._tapes and None not in [tape for _, tape in field._tapes]


def fresh_table(policy=(4, 2)):
    """A hand-built table, with a coefficient plan of its own."""
    built = build_scheme(OSC, TruncationPolicy.from_order(*policy))
    return SchemeTable(built.oscillator, built.policy, list(built.entries))


def swallowing(t, u):
    # catches the refusal; the recording still stops
    try:
        scale = abs(u[0].value)
    except Exception:
        scale = 1.0
    return [u[0] * scale]


# lambdas whose recording is refused: their calls run on jets
UNTAPED = {
    "reads value": lambda t, u: [u[0] * abs(u[0].value)],
    "branches on a value": lambda t, u: [u[0] * 2 if u[0].value.real > 1 else u[0] * 3],
    "reads coefficients": lambda t, u: [u[0] * len(u[0].coeffs)],
    "reads the base point": lambda t, u: [u[0] * abs(t.base[0])],
    "numpy scalar factor": lambda t, u: [u[0] * np.float64(0.5)],
    "swallows the refusal": swallowing,
}

# lambdas that raise on jets, and so while recorded
RAISING = {
    "numpy ufunc": lambda t, u: [np.exp(u[0])],
    "complex()": lambda t, u: [complex(u[0])],
    "raises": lambda t, u: [u[0] / 0],
}


@pytest.mark.parametrize("name", [*UNTAPED, *RAISING])
def test_lambdas_a_tape_cannot_follow_run_on_jets(name):
    field = make_field(1, {**UNTAPED, **RAISING}[name], lambda t, u: [u[0] * u[0]])
    scheme = fresh_table()
    for t, u in ((0.3, 1.2 + 0.1j), (0.4, 0.8 - 0.2j), (0.0, 0.9)):
        u = np.array([u], dtype=complex)
        assert outcome(lambda: step(scheme, field, t, u, 0.1)) == \
               outcome(lambda: ref.step(scheme, field, t, u, 0.1))
    # a refused plan keeps one entry, and a recording that raised none, so
    # every call records again and raises what the jets raise
    assert field._tapes == ([] if name in RAISING else [(scheme.entries.plan[0], None)])


@pytest.fixture
def field_misses(monkeypatch):
    """One entry per tape replay: whether a guard failed, so that the call
    went on to the field's next tape for the plan or recorded one."""
    out = []
    replay = jets._Tape.__call__

    def spying(tape, base):
        values = replay(tape, base)
        out.append(values is None)
        return values

    monkeypatch.setattr(jets._Tape, "__call__", spying)
    return out


def test_a_zero_the_recording_did_not_have_falls_back_once(field_misses):
    # b = u^2 - t is exactly zero at u = 0.5, t = 0.25: a second tape
    field = make_field(1, lambda t, u: [0.5 * u[0]], lambda t, u: [u[0] * u[0] - t])
    scheme = fresh_table()
    for t, u in ((0.1, 1.2), (0.25, 0.5), (0.2, 0.8 + 0.1j)):
        u = np.array([u], dtype=complex)
        assert outcome(lambda: step(scheme, field, t, u, 0.1)) == \
               outcome(lambda: ref.step(scheme, field, t, u, 0.1))
    # the last call tries the second tape first, then replays the first
    assert field_misses == [True, True, False]
    assert len(field._tapes) == 2


def test_a_division_by_zero_in_a_replay_falls_back_once(field_misses):
    # 1 / (u - t) divides by zero at u = t; the replay's guard on u - t
    # stops it before the division, and the recording there raises as the
    # jets do and keeps no tape
    field = make_field(1, lambda t, u: [1 / (u[0] - t)], lambda t, u: [u[0]])
    scheme = fresh_table()
    for t, u in ((0.25, 49.25), (0.5, 0.5), (0.5, 49.5)):
        u = np.array([u], dtype=complex)
        assert outcome(lambda: step(scheme, field, t, u, 0.1)) == \
               outcome(lambda: ref.step(scheme, field, t, u, 0.1))
    assert outcome(lambda: ref.step(scheme, field, 0.5, np.array([0.5 + 0j]), 0.1)) \
        is ZeroDivisionError
    assert field_misses == [True, False]
    assert len(field._tapes) == 1
    # the jets' own error, not the replay's
    with pytest.raises(ZeroDivisionError, match="jet with zero value has no reciprocal"):
        step(scheme, field, 0.5, np.array([0.5 + 0j]), 0.1)


# fields whose jets divide by a register
DIVIDING = {
    "power": lambda: builtin_field("power", gamma=2),
    "1/(1+u^2)": lambda: make_field(1, lambda t, u: [0.5 * u[0]],
                                    lambda t, u: [1 / (1 + u[0] * u[0])]),
    "1/(u-t)": lambda: make_field(1, lambda t, u: [1 / (u[0] - t)], lambda t, u: [u[0]]),
    "m2-division": lambda: make_field(
        2, lambda t, u: [u[1] / (1 + u[0] * u[0]), -u[0] * t],
        lambda t, u: [0.5 * u[0] * u[1], 1.0 / u[1]]),
}


@pytest.fixture
def sources(monkeypatch):
    """The source of every tape compiled."""
    out = []
    compiled = jets._function

    def spying(source):
        out.append(source)
        return compiled(source)

    monkeypatch.setattr(jets, "_function", spying)
    return out


def tape_lines(source: str) -> list[tuple[str | None, str | None]]:
    """Each line of a tape's source as ``(kind, register)``: "zero" for a
    guard ``if rN: return None`` (the recording found rN zero), "nonzero"
    for ``if not rN: return None``, "division" for a line that divides by
    rN, "update" for ``rN += ...``, and ``(None, None)`` for any other."""
    out = []
    for line in source.splitlines():
        line = line.strip()
        if m := re.fullmatch(r"if (not )?(\w+): return None", line):
            out.append(("nonzero" if m[1] else "zero", m[2]))
        elif m := re.fullmatch(r"\w+ = \w+ / (\w+)", line):
            out.append(("division", m[1]))
        elif m := re.fullmatch(r"(\w+) \+= .*", line):
            out.append(("update", m[1]))
        else:
            out.append((None, None))
    return out


def seeded_steps(field, policy, n=8):
    scheme = fresh_table(policy)
    rng = np.random.default_rng(7)
    for _ in range(n):
        t = float(rng.uniform(-0.5, 1.0))
        u = rng.uniform(0.5, 1.5, field.m) + 1j * rng.uniform(-0.3, 0.3, field.m)
        step(scheme, field, t, u, 0.1)


@pytest.mark.parametrize("policy", [(4, 2), (8, 2)], ids=["4-2", "8-2"])
@pytest.mark.parametrize("name", DIVIDING)
def test_a_replay_checks_each_divisor_before_dividing(name, policy, sources):
    seeded_steps(DIVIDING[name](), policy)
    assert sources
    for source in sources:
        lines = tape_lines(source)
        divisions = [(i, r) for i, (kind, r) in enumerate(lines) if kind == "division"]
        assert divisions
        for i, divisor in divisions:
            assert ("nonzero", divisor) in lines[:i]


@pytest.mark.parametrize("fn", [step, step_phase_averaged], ids=["plain", "averaged"])
@pytest.mark.parametrize("name, u", [("power", [0j]), ("m2-division", [0.5, 0j])],
                         ids=["power", "m2-division"])
def test_an_order_0_plan_dividing_by_zero_fails_as_a_non_finite_step(name, u, fn):
    # an order-0 plan runs the lambdas on numpy scalars, where a division
    # by zero gives NaN or inf: the step reports the non-finite term, and
    # numpy warns of nothing before it.  Plans of higher order raise the
    # jets' ZeroDivisionError (see above).
    scheme = build_scheme(make_oscillator("cos", 57.0), TruncationPolicy(1, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericStepError, match="^non-finite contribution from term V$"):
            fn(scheme, DIVIDING[name](), 0.1, np.array(u, dtype=complex), 0.1)


COUPLING = [[0.3, -0.1, 0.2, 0.05], [0.0, 0.4, -0.3, 0.1],
            [0.2, 0.1, -0.2, 0.3], [-0.1, 0.2, 0.1, 0.1]]

POLYNOMIAL = {
    "linear": lambda: builtin_field("linear", mu=10.0),
    "nonlinear": lambda: builtin_field("nonlinear", alpha=0.3 - 0.2j, mu=1.1),
    "m4-coupled": lambda: make_field(
        4, lambda t, u: [sum(COUPLING[i][j] * u[j] for j in range(4)) for i in range(4)],
        lambda t, u: [0.7 * u[i] * u[(i + 1) % 4] for i in range(4)]),
}


@pytest.mark.parametrize("name,policy", [
    pytest.param(name, policy, id=f"{name}-{policy[0]}-{policy[1]}")
    for name, policy in [*((n, p) for n in POLYNOMIAL for p in ((4, 2), (8, 2))),
                         *((n, (4, 2)) for n in DIVIDING)]])
def test_a_tape_tests_each_value_for_zero_once(name, policy, sources):
    # a register is tested where it is formed and again only after a
    # product sum adds to it; the one exception is a reciprocal's divisor,
    # tested again right before the division
    seeded_steps({**POLYNOMIAL, **DIVIDING}[name](), policy)
    assert sources
    for source in sources:
        lines = tape_lines(source)
        tested = set()
        for i, (kind, r) in enumerate(lines):
            if kind == "update":
                tested.discard(r)
            elif kind in ("zero", "nonzero"):
                assert r not in tested or lines[i + 1] == ("division", r), \
                    source.splitlines()[i]
                tested.add(r)


def test_each_function_gets_its_own_state_list():
    # `a` overwrites the list it is given; `b` must still see (t, u), and
    # so must the `b` of an absorbed mean, whose step is its pure twin's
    def a(t, u):
        u[0], u[1] = t, u[0] * u[1]
        return [u[1], u[0] * 0.5]

    def b(t, u):
        u.reverse()
        return [u[0] * u[1] + t, u[1]]

    field = make_field(2, a, b)
    with_mean = absorb_mean(field, 0.3 - 0.1j)
    twin = absorb_mean(make_field(2, lambda t, u: [u[0] * u[1], t * 0.5],
                                  lambda t, u: [u[1] * u[0] + t, u[0]]), 0.3 - 0.1j)
    scheme = fresh_table()
    for t, u in ((0.2, [0.9 + 0.1j, 1.1]), (0.3, [0.7, 1.2 - 0.2j])):
        u = np.array(u, dtype=complex)
        assert outcome(lambda: step(scheme, field, t, u, 0.1)) == \
               outcome(lambda: ref.step(scheme, field, t, u, 0.1))
        assert outcome(lambda: step(scheme, with_mean, t, u, 0.1)) == \
               outcome(lambda: step(scheme, twin, t, u, 0.1))
    assert len(field._tapes) == 1


def test_a_mean_field_calls_b_once_per_point(sources):
    # the absorbed a + mean * b takes the `b` its field call computed
    calls = []

    def b(t, u):
        calls.append(t)
        return [1.3 * u[0] ** -1]

    field = absorb_mean(make_field(1, lambda t, u: [0.7 * u[0]], b), 0.3)
    u = np.array([0.9 + 0.1j])
    step(fresh_table(), field, 0.2, u, 0.1)
    # one recording, so one call on jets, and `b`'s jets recorded once
    assert len(calls) == 1 and [len(s.splitlines()) for s in sources] == [130]
    step(build_scheme(OSC, TruncationPolicy(1, 1)), field, 0.3, u, 0.1)
    assert len(calls) == 2
    dt = OSC.period / 40
    traj = rk4_micro_solve(field, OSC, 0.0, u, 5 * dt, dt)
    assert len(calls) == 2 + 4 * (len(traj) - 1)


def test_a_failing_replay_stops_at_its_guard(sources):
    # power at gamma = 2 takes the reciprocal of u, whose bracket
    # 1 - u * (1/u) is exactly zero for some u and not for others
    def bracket(u):
        return (1 + 0j) + -(u * (1.0 / u))

    rng = np.random.default_rng(3)
    us = (rng.uniform(0.5, 1.5, 50) + 1j * rng.uniform(-0.3, 0.3, 50)).tolist()
    zero = next(u for u in us if bracket(u) == 0)
    nonzero = next(u for u in us if bracket(u) != 0)
    field = builtin_field("power", gamma=2)
    step(fresh_table(), field, 0.3, np.array([zero]), 0.1)
    [source] = sources
    [(_, tape)] = field._tapes
    # the replay's line events, with its locals at each
    events = []

    def local(frame, event, arg):
        if event == "line":
            events.append((frame.f_lineno, dict(frame.f_locals)))
        return local

    old = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code.co_filename == "<tape>" else None)
    try:
        assert tape((0.3 + 0j, nonzero)) is None
    finally:
        sys.settrace(old)
    numbers = [n for n, _ in events]
    last = numbers[-1]
    lines = source.splitlines()
    # straight-line code, run up to the bracket's guard and no further
    assert numbers == list(range(2, last + 1))
    guard = re.fullmatch(r"\s*if (r\d+): return None", lines[last - 1])
    assert guard and events[-1][1][guard[1]] == bracket(nonzero)
    # operations after the guard did not run
    assert any(re.match(r"\s*r\d+ \+?= ", line) for line in lines[last:])


def test_a_key_that_cancels_is_dropped_while_recording(field_misses):
    # u - u cancels, so neither the jets nor the tape multiply a
    # coefficient by 10**400, which would raise OverflowError
    field = make_field(1, lambda t, u: [(u[0] - u[0]) * 10**400 + t],
                       lambda t, u: [u[0] * 0.5])
    scheme = fresh_table()
    for t, u in ((0.2, 0.9), (0.3, 0.8 - 0.1j)):
        u = np.array([u], dtype=complex)
        assert outcome(lambda: step(scheme, field, t, u, 0.1)) == \
               outcome(lambda: ref.step(scheme, field, t, u, 0.1))
    assert field_misses == [False]
    assert len(field._tapes) == 1


def test_a_product_with_zero_is_checked_for_zero(field_misses):
    # 0.0 * u drops its key, which the jets keep as nan at u = inf
    field = make_field(1, lambda t, u: [0.0 * u[0] + t], lambda t, u: [u[0] * 0.5])
    scheme = fresh_table()
    pairs = [(e.word.target, e.word.operator_word) for e in scheme.entries]
    for u in (0.7 - 0.1j, complex("inf"), 0.9):
        got = operator_values(field, pairs, 0.3, [u])
        want = ref.operator_values(field, pairs, 0.3, [u])
        assert list(got) == list(want)
        assert all(exact(got[k]) == exact(want[k]) for k in want)
    # u = inf records a tape that keeps the nan; u = 0.9 misses it and
    # replays the first
    assert field_misses == [True, True, False]
    assert len(field._tapes) == 2


def scaled_field(c):
    return make_field(1, lambda t, u: [c * u[0] * t + c], lambda t, u: [u[0] * c])


def test_fields_differing_in_constants_share_the_compiled_replay():
    scheme = fresh_table()
    u = np.array([0.9 + 0.1j])
    fields = [scaled_field(0.5), scaled_field(-2.0)]
    for field in (*fields, fields[0]):
        assert outcome(lambda: step(scheme, field, 0.2, u, 0.1)) == \
               outcome(lambda: ref.step(scheme, field, 0.2, u, 0.1))
    first, second = (f._tapes[0][1] for f in fields)
    assert first is not second and first.constants != second.constants
    # constants are arguments, so the two share one compiled function
    assert first.replay is second.replay
    assert [len(f._tapes) for f in fields] == [1, 1]


def test_two_plans_on_one_field_get_separate_tapes(field_misses):
    field = scaled_field(0.5)
    schemes = [fresh_table((4, 2)), fresh_table((8, 2))]
    u = np.array([0.9 + 0.1j])
    # the first plan again at a new time replays the tape it recorded
    for scheme, t in ((schemes[0], 0.2), (schemes[1], 0.2), (schemes[0], 0.3)):
        assert outcome(lambda: step(scheme, field, t, u, 0.1)) == \
               outcome(lambda: ref.step(scheme, field, t, u, 0.1))
    # the tape used last comes first
    assert [plan for plan, _ in field._tapes] == [s.entries.plan[0] for s in schemes]
    assert field_misses == [False]


def on_the_value_register(use):
    """`a` that applies `use` to the register holding its state's value
    while it is recorded, reached through the jet's private terms, the one
    way a lambda meets a register; on numbers `use` gets a plain number,
    and reference jets have no such terms."""
    def a(t, u):
        terms = getattr(u[0], "_terms", None)
        if terms is not None:
            use(terms[0])
        return [0.5 * u[0]]
    return a


# uses of a register that jet arithmetic never makes, by the method that
# refuses each
REGISTER_USES = {
    "operand": lambda r: r * np.float64(0.5),
    "__eq__": lambda r: r == 1.5,
    "__bool__": lambda r: bool(r),
}


@pytest.mark.parametrize("name", REGISTER_USES)
def test_a_register_used_otherwise_refuses_the_recording(name, monkeypatch):
    refused_in = []
    refuse = jets._Recorder.refuse

    def spying(rec):
        refused_in.append(sys._getframe(1).f_code.co_name)
        refuse(rec)

    monkeypatch.setattr(jets._Recorder, "refuse", spying)
    field = make_field(1, on_the_value_register(REGISTER_USES[name]),
                       lambda t, u: [u[0] * u[0]])
    scheme = fresh_table()
    for t, u in ((0.3, 1.2 + 0.1j), (0.0, 0.9)):
        u = np.array([u], dtype=complex)
        assert outcome(lambda: step(scheme, field, t, u, 0.1)) == \
               outcome(lambda: ref.step(scheme, field, t, u, 0.1))
    # refused once, where the register was used; the plan then runs on numbers
    assert refused_in == [name]
    assert field._tapes == [(scheme.entries.plan[0], None)]
