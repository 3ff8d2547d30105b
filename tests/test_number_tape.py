"""The number tape reproduces the numbers route bit for bit.

A field records `a` and `b` on plain-number registers once, for the word
plans of order 0 and the RK4 oracle, and replays that tape in place of
calling them on Python's complex numbers.  Every result is compared by
``repr`` with the numbers route itself: the same field with a refusal
forced at the start of `a`, whose calls all run Python's complex
arithmetic, or ``reference_rk4`` and ``reference_step``, which call the
lambdas on complex numbers.  A refused recording, and an exception, must
give the same outcome.
"""

import math
import operator
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_step as ref
import oscistep.jets as jets
from test_reference_step import recordings, reference_rk4, tapes  # noqa: F401  (a fixture)
from oscistep import (NumericStepError, TruncationPolicy, build_scheme, make_field,
                      make_oscillator, operator_values, rk4_micro_solve, solve)
from oscistep.oscillator import absorb_mean

OSC = make_oscillator("cos", 57.0, 0.3)
PAIRS = [("a", ()), ("b", ())]
INF, NAN = float("inf"), float("nan")

# ints, floats and complex numbers: zeros of each sign, a tiny value whose
# products underflow, a large one whose products overflow, and an int that
# rounds on its way to a float
CONSTANTS = [0, 3, -2, 2**60 + 1, 0.0, -0.0, 1.5, 1e-200, 1e300, 0j, complex(-0.0, 0.0),
             0.3 - 0.2j, complex(0.0, -1.5)]
# state components: finite ones, and signed zeros, infinities and NaNs
FINITE = [0.0, -0.0, 1.0, -1.0, 0.5 - 0.2j, complex(-0.0, 0.7), complex(0.3, -0.0)]
COMPONENTS = FINITE + [INF, -INF, NAN, complex(INF, -0.0), complex(0.0, NAN), 1e300,
                       complex(-1e-300, 1e300)]

BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def exact(values) -> str:
    """Every digit and the sign of every zero (numpy's own repr rounds)."""
    return repr(np.asarray(values).tolist())


def outcome(fn):
    """``repr`` of what `fn` gives, or the type and text of its exception."""
    try:
        return repr(fn())
    except (ArithmeticError, ValueError, TypeError, NumericStepError) as exc:
        return type(exc), str(exc)


def rows(traj) -> str:
    return repr([(t, exact(u)) for t, u in traj])


def trajectory(field, t0, u0, span=0.05, dt=OSC.period / 40):
    return outcome(lambda: rows(rk4_micro_solve(field, OSC, t0, np.array(u0, dtype=complex),
                                                t0 + span, dt)))


def values(field, t, u):
    return outcome(lambda: [(k, exact(v)) for k, v in
                            operator_values(field, PAIRS, t, np.array(u, dtype=complex)).items()])


def reference_values(field, t, u):
    """`values` of the lambdas called on complex numbers, by ``reference_step``."""
    want = ref.operator_values(field, PAIRS, t, np.array(u, dtype=complex))
    return repr([(k, exact(v)) for k, v in want.items()])


def forced(f):
    """`f` after an ``abs`` of its time, which refuses a recording on
    numbers before `f` runs; every call then does Python's complex
    arithmetic, as the numbers route does."""
    def g(t, u):
        abs(t)
        return f(t, u)
    return g


def expressions(m: int):
    """``+``, ``-``, ``*`` and unary ``-`` trees over t, u_0, ...,
    u_{m-1}, ``sum(u)`` and CONSTANTS."""
    leaves = st.one_of(st.just(("t",)), st.just(("sum",)),
                       st.tuples(st.just("u"), st.integers(0, m - 1)),
                       st.tuples(st.just("c"), st.sampled_from(CONSTANTS)))
    return st.recursive(leaves, lambda kids: st.one_of(
        st.tuples(st.sampled_from(sorted(BINARY)), kids, kids),
        st.tuples(st.just("neg"), kids)), max_leaves=6)


def evaluate(node, t, u):
    op = node[0]
    if op == "t":
        return t
    if op == "sum":
        return sum(u)
    if op == "u":
        return u[node[1]]
    if op == "c":
        return node[1]
    if op == "neg":
        return -evaluate(node[1], t, u)
    return BINARY[op](evaluate(node[1], t, u), evaluate(node[2], t, u))


@st.composite
def cases(draw):
    m = draw(st.sampled_from([1, 2, 4]))
    a, b = (draw(st.lists(expressions(m), min_size=m, max_size=m)) for _ in "ab")
    mean = draw(st.sampled_from([None, 0.3 - 0.1j, complex(-0.0, 1.0)]))
    states = st.lists(st.sampled_from(COMPONENTS), min_size=m, max_size=m)
    points = draw(st.lists(st.tuples(st.sampled_from([0.0, -0.0, 0.3, -0.2]), states),
                           min_size=2, max_size=3))
    start = draw(st.lists(st.sampled_from(FINITE), min_size=m, max_size=m))
    return m, a, b, mean, points, start


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_random_polynomial_fields_match_the_numbers_route(case):
    m, a, b, mean, points, start = case
    fa, fb = (lambda t, u, e=e: [evaluate(x, t, u) for x in e] for e in (a, b))
    taped, untaped = make_field(m, fa, fb), make_field(m, forced(fa), fb)
    if mean is not None:
        taped, untaped = absorb_mean(taped, mean), absorb_mean(untaped, mean)
    # the first point records, the others replay; the first again last
    for t, u in [*points, points[0]]:
        assert values(taped, t, u) == values(untaped, t, u)
    # an RK4 trajectory, which may overflow to a NumericStepError
    assert trajectory(taped, 0.2, start) == trajectory(untaped, 0.2, start)
    # a polynomial field is recorded, once, and the forced one refused
    assert list(tapes(taped)) == [jets._PAIR] and tapes(taped)[jets._PAIR] is not None
    assert tapes(untaped) == {jets._PAIR: None}


def counted(f, calls):
    """`f`, which notes each call's time in `calls`."""
    def g(t, u):
        calls.append(t)
        return f(t, u)
    return g


# `b`s whose recording on numbers is refused, by the first use of a
# register that a tape cannot follow
REFUSED = {
    "/": lambda t, u: [u[0] / (1.5 + t)],
    "reflected /": lambda t, u: [2.0 / u[0]],
    "**": lambda t, u: [u[0] ** 2],
    "<": lambda t, u: [u[0] * (2 if t.real < 0.25 else 3)],
    "==": lambda t, u: [u[0] * 2 if u[0] == 1 else u[0]],
    "!=": lambda t, u: [u[0] * 2 if u[0] != 1 else u[0]],
    "truth test": lambda t, u: [u[0] if u[0] else t],
    "complex()": lambda t, u: [complex(u[0]) * t],
    "float()": lambda t, u: [float(u[0]) * u[0]],
    "abs()": lambda t, u: [abs(u[0]) * u[0]],
    ".real": lambda t, u: [u[0].real * u[0]],
    ".conjugate()": lambda t, u: [u[0].conjugate() * t],
    "getattr default": lambda t, u: [getattr(u[0], "value", u[0]) * 2],
    "isinstance": lambda t, u: [u[0] * (2 if isinstance(u[0], complex) else 3)],
    "isinstance of t": lambda t, u: [u[0] * (2 if isinstance(t, complex) else 3)],
    "hash": lambda t, u: [u[0] * (hash(t) % 3)],
    "numpy float64": lambda t, u: [np.float64(0.5) * u[0]],
    "numpy longdouble": lambda t, u: [u[0] * np.longdouble(0.5)],
    "bool operand": lambda t, u: [u[0] * True],
    "math.sqrt": lambda t, u: [math.sqrt(2.0 + u[0].real) * u[0]],
    "numpy array": lambda t, u: list(np.array([u[0] * t]) * 2),
    "indexing": lambda t, u: [u[0][()] * t],
    # raised while recorded, not on numbers
    "numpy ufunc": lambda t, u: [np.exp(u[0]) * t],
    # after the refusal `u * 2` is a numpy scalar, which the ufunc takes
    "numpy ufunc after a refusal": lambda t, u: [abs(t) * np.exp(u[0] * 2)],
}

POINTS = [(0.3, [0.9 + 0.1j]), (0.0, [complex(-0.0, 0.4)]), (-0.2, [1.0]), (0.3, [0.9 + 0.1j])]

# uses that Python's complex numbers, like jets, do not support, by the
# message of their TypeError at order 0
UNSUPPORTED = {"float()": "float() argument must be a string or a real number, not 'complex'",
               "indexing": "'complex' object is not subscriptable"}


def drift(t, u):
    return [0.5 * u[0] - t]


@pytest.mark.parametrize("name", REFUSED)
def test_refused_recordings_run_the_lambdas_on_numbers(name, recordings):
    calls = []
    field = make_field(1, drift, counted(REFUSED[name], calls))
    plain = make_field(1, drift, REFUSED[name])
    dt = OSC.period / 40
    if name in UNSUPPORTED:
        # TypeError at every point and plan order, and from the oracle's
        # first stage; the recording's call raised, so its point ran `b`
        # again
        for t, u in POINTS:
            with pytest.raises(TypeError, match=f"^{re.escape(UNSUPPORTED[name])}$"):
                operator_values(field, PAIRS, t, np.array(u, dtype=complex))
            with pytest.raises(TypeError, match="'Jet'"):
                operator_values(plain, [("b", ("L0",))], t, np.array(u, dtype=complex))
        with pytest.raises(TypeError, match=f"^{re.escape(UNSUPPORTED[name])}$"):
            rk4_micro_solve(field, OSC, 0.2, np.array([0.9 + 0.1j]), 0.25, dt)
        assert len(recordings) == 1 + len(POINTS) and tapes(field) == {jets._PAIR: None}
        assert len(calls) == 1 + len(POINTS) + 1
        return
    for t, u in POINTS:
        assert values(field, t, u) == reference_values(plain, t, u)
    want = reference_rk4(plain, OSC, 0.2, [0.9 + 0.1j], 0.25, dt)
    got = rk4_micro_solve(field, OSC, 0.2, np.array([0.9 + 0.1j]), 0.25, dt)
    assert rows(got) == rows(want)
    # recorded once, refused, and never recorded again; `b` ran once per
    # point, the recording's call included, but where the lambdas raised
    # on the registers, whose point ran them again
    assert len(recordings) == 1 and tapes(field) == {jets._PAIR: None}
    raised = name == "numpy ufunc"
    assert len(calls) == len(POINTS) + 4 * (len(got) - 1) + raised


def catching_floor_division(t, u):
    # numpy's complex scalars have no `//`, and nor do the registers
    try:
        return [u[0] // 2]
    except TypeError:
        return [u[0] * t]


def test_an_error_that_numpy_raises_too_is_caught_alike(recordings):
    field = make_field(1, drift, catching_floor_division)
    for t, u in POINTS:
        assert values(field, t, u) == reference_values(field, t, u)
    assert len(recordings) == 1 and tapes(field)[jets._PAIR] is not None


def test_a_lambda_that_changes_its_state_list(recordings):
    # `a` overwrites and reverses the list it is given; `b` and the tape
    # still see (t, u)
    def a(t, u):
        u[0], u[1] = u[1] * t, u[0] - 2
        u.reverse()
        return [u[0] + u[1], u[0] * 0.5]

    def b(t, u):
        return [u[0] * u[1], sum(u) - t]

    field = make_field(2, a, b)
    for t, u in [(0.3, [0.9 + 0.1j, 1.1]), (0.0, [-0.0, 0.4j]), (0.3, [0.9 + 0.1j, 1.1])]:
        assert values(field, t, u) == reference_values(field, t, u)
    dt = OSC.period / 40
    want = reference_rk4(field, OSC, 0.2, [0.9 + 0.1j, 1.1], 0.3, dt)
    got = rk4_micro_solve(field, OSC, 0.2, np.array([0.9 + 0.1j, 1.1]), 0.3, dt)
    assert rows(got) == rows(want)
    assert len(recordings) == 1 and tapes(field)[jets._PAIR] is not None


# fields whose RK4 trajectory turns non-finite: a recorded one that
# overflows, and a dividing one, whose recording is refused
BLOWING_UP = {
    "taped": lambda t, u: [30.0 * u[0] * u[0] * u[0]],
    "dividing": lambda t, u: [u[0] * u[0] / (0.03 - t)],
}


@pytest.mark.parametrize("name", BLOWING_UP)
def test_a_trajectory_turning_non_finite_fails_at_the_same_time(name):
    field = make_field(1, BLOWING_UP[name], lambda t, u: [0.25 * u[0]])
    dt = OSC.period / 40
    want = reference_rk4(field, OSC, 0.0, [1.0 + 0j], 0.1, dt)
    first = next(t for t, u in want if not all(map(np.isfinite, u)))
    with pytest.raises(NumericStepError) as info:
        rk4_micro_solve(field, OSC, 0.0, np.array([1.0 + 0j]), 0.1, dt)
    assert str(info.value) == f"RK4 state not finite at t = {first}"
    assert (tapes(field)[jets._PAIR] is None) == (name == "dividing")


def test_a_recorded_field_calls_a_and_b_once_across_a_solve(recordings):
    # 400 micro-steps, four stages each, all replayed from the one tape
    calls = []
    field = make_field(2, counted(lambda t, u: [u[0] * t - u[1], 2 * u[0]], calls),
                       counted(lambda t, u: [0.5 * u[1], sum(u) * u[0]], calls))
    traj = rk4_micro_solve(field, OSC, 0.0, np.array([0.9 + 0.1j, 0.3]), 400 * OSC.period / 40,
                           OSC.period / 40)
    assert len(traj) == 401 and len(calls) == 2 and len(recordings) == 1
    # a table of policy (1,1) evaluates the same plan, and replays the tape
    scheme = build_scheme(OSC, TruncationPolicy(1, 1))
    solve(scheme, field, 0.0, np.array([0.9 + 0.1j, 0.3]), 1.0, 0.01)
    assert len(calls) == 2 and len(recordings) == 1
    assert list(tapes(field)) == [jets._PAIR]


def test_a_refused_field_is_not_recorded_again(recordings):
    calls = []
    field = make_field(1, counted(lambda t, u: [u[0] / 3], calls), lambda t, u: [u[0]])
    dt = OSC.period / 40
    for _ in range(2):
        traj = rk4_micro_solve(field, OSC, 0.0, np.array([0.9 + 0.1j]), 50 * dt, dt)
    # four calls per micro-step, the recording's among the first solve's
    assert len(calls) == 2 * 4 * (len(traj) - 1)
    assert len(recordings) == 1 and tapes(field) == {jets._PAIR: None}
