"""The operator tape reproduces the jets and kernels bit for bit.

A field records its lambdas and a word plan's kernels once, on the values
of the plan's first call, and replays the recording on every later call;
its one kind of guard is a reciprocal's test of its divisor.  Every
result is compared with ``reference_step``, which runs the lambdas on
tuple-keyed jets, by the ``repr`` of its Python values; an exception must
be of the same type.
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
from test_reference_step import recordings, tapes  # noqa: F401  (a fixture)
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
        # constants to an exact zero, which the recording keeps
        i = draw(st.integers(0, m - 1))
        c = draw(st.one_of(st.sampled_from(CONSTANTS),
                           st.complex_numbers(max_magnitude=4, allow_nan=False,
                                              allow_infinity=False)))
        a[i], b[i] = ("c", c), ("-", ("u", i), ("*", ("c", c), ("t",)))
    # a second call, where other values may be exact zeros
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
        # another call, then the first again, each replaying the tape
        for t2, u2 in (again, (t, u)):
            assert outcome(lambda: step(scheme, field, t2, u2, h)) == \
                   outcome(lambda: ref.step(scheme, field, t2, u2, h))
    if not rational:
        # a polynomial field is always recorded
        assert len(tapes(field)) == 1 and None not in tapes(field).values()


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
    assert tapes(field) == ({} if name in RAISING else {scheme.entries.plan[0]: None})


def test_a_replay_meeting_a_zero_divisor_raises_and_records_nothing(recordings):
    # 1 / (u - t) divides by zero at u = t; the replay's guard on u - t
    # stops it before the division, and the jets on numbers raise
    field = make_field(1, lambda t, u: [1 / (u[0] - t)], lambda t, u: [u[0]])
    scheme = fresh_table()
    for t, u in ((0.25, 49.25), (0.5, 0.5), (0.5, 49.5)):
        u = np.array([u], dtype=complex)
        assert outcome(lambda: step(scheme, field, t, u, 0.1)) == \
               outcome(lambda: ref.step(scheme, field, t, u, 0.1))
    assert outcome(lambda: ref.step(scheme, field, 0.5, np.array([0.5 + 0j]), 0.1)) \
        is ZeroDivisionError
    [tape] = tapes(field).values()
    with pytest.raises(ZeroDivisionError, match="^jet with zero value has no reciprocal$") as info:
        step(scheme, field, 0.5, np.array([0.5 + 0j]), 0.1)
    # raised by the jets' reciprocal alone, with no error of the replay
    # chained to it; the next call replays the tape again
    assert info.traceback[-1].name == "reciprocal" and info.value.__context__ is None
    step(scheme, field, 0.6, np.array([49.5 + 0j]), 0.1)
    assert len(recordings) == 1 and list(tapes(field).values()) == [tape]


def catching(t, u):
    """`a` that catches the error of dividing by u - t = 0."""
    try:
        return [1 / (u[0] - t)]
    except ZeroDivisionError:
        return [0.25 * t]


@pytest.mark.parametrize("first", ["zero", "nonzero"])
def test_a_field_that_catches_a_zero_divisor_matches_the_reference(first, recordings):
    # recorded at the zero divisor, the caught error refuses the plan, which
    # then runs on numbers; recorded elsewhere, the tape's guard sends the
    # zero divisor to the numbers, where the lambda catches it again
    field = make_field(1, catching, lambda t, u: [u[0]])
    scheme = fresh_table()
    points = [(0.25, 49.25), (0.5, 0.5), (0.5, 49.5), (0.5, 0.5), (0.75, 1.5)]
    if first == "zero":
        points = points[1:] + points[:1]
    for t, u in points:
        u = np.array([u], dtype=complex)
        assert outcome(lambda: step(scheme, field, t, u, 0.1)) == \
               outcome(lambda: ref.step(scheme, field, t, u, 0.1))
    [kept] = tapes(field).values()
    assert len(recordings) == 1 and (kept is None) == (first == "zero")


def test_a_recording_meeting_a_zero_divisor_raises_and_keeps_no_tape(recordings):
    # the first call divides by zero: the jets raise while it is recorded,
    # and the next call records again
    field = make_field(1, lambda t, u: [1 / (u[0] - t)], lambda t, u: [u[0]])
    scheme = fresh_table()
    with pytest.raises(ZeroDivisionError, match="^jet with zero value has no reciprocal$") as info:
        step(scheme, field, 0.5, np.array([0.5 + 0j]), 0.1)
    assert info.traceback[-1].frame.code.raw.co_filename != "<generated>"
    assert tapes(field) == {}
    u = np.array([49.5 + 0j])
    assert outcome(lambda: step(scheme, field, 0.5, u, 0.1)) == \
           outcome(lambda: ref.step(scheme, field, 0.5, u, 0.1))
    assert len(recordings) == 2 and len(tapes(field)) == 1


def test_a_key_that_cancels_is_kept_while_recording(recordings):
    # u - u cancels to exact zeros, which stay values: the jets and the
    # recording both multiply them by 10**400, which raises OverflowError
    field = make_field(1, lambda t, u: [(u[0] - u[0]) * 10**400 + t],
                       lambda t, u: [u[0] * 0.5])
    scheme = fresh_table()
    for t, u in ((0.2, 0.9), (0.3, 0.8 - 0.1j)):
        u = np.array([u], dtype=complex)
        assert outcome(lambda: step(scheme, field, t, u, 0.1)) is OverflowError
        assert outcome(lambda: ref.step(scheme, field, t, u, 0.1)) is OverflowError
    # a recording that raised keeps no tape
    assert len(recordings) == 2 and tapes(field) == {}


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
    compiled = jets._compiled

    def spying(source):
        if source.startswith("def replay("):
            out.append(source)
        return compiled(source)

    monkeypatch.setattr(jets, "_compiled", spying)
    return out


def tape_lines(source: str) -> list[tuple[str | None, str | None]]:
    """Each line of a tape's source as ``(kind, register)``: "guard" for
    ``if not rN: raise ZeroDivisionError``, "division" for a line that
    divides by rN, and ``(None, None)`` for any other."""
    out = []
    for line in source.splitlines():
        line = line.strip()
        if m := re.fullmatch(r"if not (\w+): raise ZeroDivisionError", line):
            out.append(("guard", m[1]))
        elif m := re.fullmatch(r"\w+ = \w+ / (\w+)", line):
            out.append(("division", m[1]))
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
    [source] = sources
    lines = tape_lines(source)
    divisions = [(i, r) for i, (kind, r) in enumerate(lines) if kind == "division"]
    assert divisions
    for i, divisor in divisions:
        assert ("guard", divisor) in lines[:i]


@pytest.mark.parametrize("fn", [step, step_phase_averaged], ids=["plain", "averaged"])
@pytest.mark.parametrize("name, u", [("power", [0j]), ("m2-division", [0.5, 0j])],
                         ids=["power", "m2-division"])
def test_an_order_0_plan_dividing_by_zero_fails_as_a_non_finite_step(name, u, fn):
    # an order-0 plan runs the lambdas on Python's complex numbers, whose
    # zero divisor raises ZeroDivisionError, as the jets' reciprocal does at
    # order 1 and above; nothing warns before it
    python = {"power": "0.0 to a negative or complex power",
              "m2-division": "complex division by zero"}[name]
    for policy, message in (((1, 1), python), ((4, 2), "jet with zero value has no reciprocal")):
        scheme = build_scheme(make_oscillator("cos", 57.0), TruncationPolicy(*policy))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ZeroDivisionError, match=f"^{re.escape(message)}$"):
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
    # no value is tested for zero but a reciprocal's divisor, once, right
    # before the first division by it; seeded steps at other values all
    # replay one tape
    seeded_steps({**POLYNOMIAL, **DIVIDING}[name](), policy)
    [source] = sources
    lines = tape_lines(source)
    guards = [(i, r) for i, (kind, r) in enumerate(lines) if kind == "guard"]
    assert all(lines[i + 1] == ("division", r) for i, r in guards)
    assert len({r for _, r in guards}) == len(guards)
    assert bool(guards) == (name in DIVIDING)


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
    assert len(tapes(field)) == 1


def test_a_mean_field_calls_b_once_per_point(sources):
    # the absorbed a + mean * b takes the `b` its field call computed
    calls = []

    def b(t, u):
        calls.append(t)
        return [1.3 * u[0] ** -1]

    field = absorb_mean(make_field(1, lambda t, u: [0.7 * u[0]], b), 0.3)
    u = np.array([0.9 + 0.1j])
    step(fresh_table(), field, 0.2, u, 0.1)
    # one recording, so one call on jets, and `b`'s jets recorded once; the
    # tape covers the 10 of 11 entries whose coefficient has terms
    assert len(calls) == 1 and [len(s.splitlines()) for s in sources] == [99]
    step(build_scheme(OSC, TruncationPolicy(1, 1)), field, 0.3, u, 0.1)
    assert len(calls) == 2
    dt = OSC.period / 40
    traj = rk4_micro_solve(field, OSC, 0.0, u, 5 * dt, dt)
    assert len(calls) == 2 + 4 * (len(traj) - 1)


def test_a_failing_replay_stops_at_its_guard(sources):
    # power at gamma = 2 takes the reciprocal of u, whose guard tests the
    # state's register itself
    field = builtin_field("power", gamma=2)
    step(fresh_table(), field, 0.3, np.array([0.9 + 0.1j]), 0.1)
    [source] = sources
    [tape] = tapes(field).values()
    # the replay's line events, with its locals at each
    events = []

    def local(frame, event, arg):
        if event == "line":
            events.append((frame.f_lineno, dict(frame.f_locals)))
        return local

    old = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code.co_filename == "<generated>" else None)
    try:
        with pytest.raises(ZeroDivisionError):
            tape((0.3 + 0j, 0j))
    finally:
        sys.settrace(old)
    numbers = [n for n, _ in events]
    last = numbers[-1]
    lines = tape_lines(source)
    # straight-line code, run up to the divisor's guard and no further
    assert numbers == list(range(2, last + 1))
    kind, divisor = lines[last - 1]
    assert kind == "guard" and events[-1][1][divisor] == 0
    assert lines[last] == ("division", divisor)


def test_a_product_with_zero_keeps_its_key(recordings):
    # 0.0 * u keeps its key, which is nan at u = inf, as in the jets
    field = make_field(1, lambda t, u: [0.0 * u[0] + t], lambda t, u: [u[0] * 0.5])
    scheme = fresh_table()
    pairs = [(e.word.target, e.word.operator_word) for e in scheme.entries]
    for u in (0.7 - 0.1j, complex("inf"), 0.9):
        got = operator_values(field, pairs, 0.3, [u])
        want = ref.operator_values(field, pairs, 0.3, [u])
        assert list(got) == list(want)
        assert all(exact(got[k]) == exact(want[k]) for k in want)
    assert len(recordings) == 1


def scaled_field(c):
    return make_field(1, lambda t, u: [c * u[0] * t + c], lambda t, u: [u[0] * c])


def test_fields_differing_in_constants_share_the_compiled_replay():
    scheme = fresh_table()
    u = np.array([0.9 + 0.1j])
    fields = [scaled_field(0.5), scaled_field(-2.0)]
    for field in (*fields, fields[0]):
        assert outcome(lambda: step(scheme, field, 0.2, u, 0.1)) == \
               outcome(lambda: ref.step(scheme, field, 0.2, u, 0.1))
    [first], [second] = (tapes(f).values() for f in fields)
    assert first is not second and first.args != second.args
    # constants are arguments, so the two share one compiled function
    assert first.func is second.func


def test_two_plans_on_one_field_get_separate_tapes(recordings):
    field = scaled_field(0.5)
    schemes = [fresh_table((4, 2)), fresh_table((8, 2))]
    u = np.array([0.9 + 0.1j])
    # the first plan again at a new time replays the tape it recorded
    for scheme, t in ((schemes[0], 0.2), (schemes[1], 0.2), (schemes[0], 0.3)):
        assert outcome(lambda: step(scheme, field, t, u, 0.1)) == \
               outcome(lambda: ref.step(scheme, field, t, u, 0.1))
    # the tape used last comes last
    assert list(tapes(field)) == [s.entries.plan[0] for s in reversed(schemes)]
    assert len(recordings) == 2


def test_the_tape_used_longest_ago_goes(recordings):
    # one plan more than a field keeps tapes of; the first is used again
    # before the last is recorded, so the second goes
    field = scaled_field(0.5)
    u = np.array([0.9 + 0.1j])
    plans = [[("a", ("L0",) * k)] for k in range(1, jets.TAPE_CACHE_SIZE + 2)]
    for pairs in [*plans[:-1], plans[0], plans[-1], plans[0]]:
        got = operator_values(field, pairs, 0.2, u)
        want = ref.operator_values(field, pairs, 0.2, u)
        assert all(exact(got[k]) == exact(want[k]) for k in want)
    assert len(recordings) == len(plans)
    # the one used last last
    assert list(tapes(field)) == [jets._plan(p) for p in [*plans[2:], plans[0]]]


def on_the_value_register(use, refusals):
    """`a` that applies `use` to the register holding its state's value
    while it is recorded, reached through the jet's private terms, the one
    way a lambda meets a register inside jets, and notes in `refusals`
    whether the recording was refused before and after that use; on
    numbers `use` gets a plain number, and reference jets have no such
    terms."""
    def a(t, u):
        terms = getattr(u[0], "_terms", None)
        if terms is not None:
            noted(use, terms[0], refusals)
        return [0.5 * u[0]]
    return a


def noted(use, x, refusals):
    """`use` of `x`; for a register, whether its recording was refused
    before and after it, in `refusals`."""
    if type(x) is not jets._Register:
        return use(x)
    before = x._rec.failed
    out = use(x)
    refusals.append((before, x._rec.failed))
    return out


# uses of a register that a tape cannot follow, by the method of
# `jets._Register` that refuses each (a numpy scalar operand, in `__mul__`)
REGISTER_USES = {
    "operand": lambda r: r * np.float64(0.5),
    "__eq__": lambda r: r == 1.5,
    "__ne__": lambda r: r != 0,
    "__bool__": lambda r: bool(r),
}


@pytest.mark.parametrize("name", REGISTER_USES)
def test_a_register_used_otherwise_refuses_the_recording(name):
    refusals = []
    field = make_field(1, on_the_value_register(REGISTER_USES[name], refusals),
                       lambda t, u: [u[0] * u[0]])
    scheme = fresh_table()
    for t, u in ((0.3, 1.2 + 0.1j), (0.0, 0.9)):
        u = np.array([u], dtype=complex)
        assert outcome(lambda: step(scheme, field, t, u, 0.1)) == \
               outcome(lambda: ref.step(scheme, field, t, u, 0.1))
    # recorded once and refused exactly at that use; the plan then runs on
    # numbers
    assert refusals == [(False, True)]
    assert tapes(field) == {scheme.entries.plan[0]: None}


@pytest.mark.parametrize("name", REGISTER_USES)
def test_a_register_handed_to_the_lambdas_used_otherwise_refuses_the_recording(name):
    # a plan of order 0 hands the same registers to the lambdas themselves
    refusals = []

    def a(t, u):
        noted(REGISTER_USES[name], u[0], refusals)
        return [0.5 * u[0]]

    field = make_field(1, a, lambda t, u: [u[0] * u[0]])
    scheme = build_scheme(OSC, TruncationPolicy(1, 1))
    for t, u in ((0.3, 1.2 + 0.1j), (0.0, 0.9)):
        u = np.array([u], dtype=complex)
        assert outcome(lambda: step(scheme, field, t, u, 0.1)) == \
               outcome(lambda: ref.step(scheme, field, t, u, 0.1))
    assert refusals == [(False, True)]
    assert tapes(field) == {jets._PAIR: None}


def test_a_refused_recording_on_jets_calls_a_and_b_once(recordings):
    # `a` reads a jet's value, which refuses the recording: the recording's
    # call goes on, on plain numbers, and gives the point's values
    calls = []

    def a(t, u):
        calls.append("a")
        return [u[0] * abs(u[0].value)]

    def b(t, u):
        calls.append("b")
        return [u[0] * u[0]]

    field = make_field(1, a, b)
    scheme = fresh_table((4, 2))
    for t, u in ((0.3, 1.2 + 0.1j), (0.0, 0.9)):
        u = np.array([u], dtype=complex)
        want = outcome(lambda: ref.step(scheme, field, t, u, 0.1))
        calls.clear()
        assert outcome(lambda: step(scheme, field, t, u, 0.1)) == want
        assert calls == ["a", "b"]
    assert len(recordings) == 1 and tapes(field) == {scheme.entries.plan[0]: None}
