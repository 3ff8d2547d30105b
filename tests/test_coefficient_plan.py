"""The compiled coefficient plan reproduces term-by-term evaluation bit for bit.

``TermPlan`` compiles each table's coefficients into one straight-line
function of the binding's constants and Z.  Every value is compared with
``reference_step.eval_shifted``, which evaluates one basis polynomial term
by term, by its ``repr``, so a changed rounding or sign of zero fails.
"""

import cmath
import warnings

import numpy as np
import pytest

import reference_step as ref
from oscistep import TruncationPolicy, build_scheme, make_oscillator, oscillator
from oscistep.oscillator import BasisPoly, TermPlan

TABLES = {
    "cos-4-2": ("cos", 0.0, (4, 2)),
    "cos-4-1": ("cos", 0.0, (4, 1)),
    "cos-6-1": ("cos", 0.0, (6, 1)),
    "cos-8-2": ("cos", 0.0, (8, 2)),
    "exp-nu-half-8-2": ("exp", -0.5, (8, 2)),
}

PHASES = np.random.default_rng(21).uniform(-3.0, 3.0, 50).tolist()

# a frame's size in slots: its locals plus its stack
FRAME_SLOTS = 128


def table(name):
    kind, nu, policy = TABLES[name]
    osc = make_oscillator(kind, 100.0, 0.3, nu)
    return osc, build_scheme(osc, TruncationPolicy.from_order(*policy, nu))


def exact(values) -> str:
    return repr([complex(v) for v in values])


def frame_slots(plan: TermPlan, nu: float) -> int:
    code = plan._form(nu)[0].__code__
    return code.co_nlocals + code.co_stacksize


def large_poly(rng) -> BasisPoly:
    """3 080 terms: every p < 5, |k| <= 3, |q| <= 5, n < 4 and m < 2."""
    return BasisPoly.from_dict({
        (p, k, q, n, m): complex(*rng.normal(size=2))
        for p in range(5) for k in range(-3, 4) for q in range(-5, 6)
        for n in range(4) for m in range(2)})


@pytest.mark.parametrize("averaged", [False, True], ids=["plain", "averaged"])
@pytest.mark.parametrize("name", TABLES)
def test_plan_matches_term_by_term_evaluation(name, averaged):
    osc, scheme = table(name)
    entries = scheme.entries.averaged if averaged else scheme.entries
    plan = entries.plan[1]
    polys = [e.coeff for e in entries]
    function = None
    # a zero step of either sign, then a second step size and back
    for dt, phases in ((0.02, PHASES), (0.0, PHASES), (-0.0, PHASES), (0.05, PHASES[:5]),
                       (0.02, PHASES[:5])):
        for t in phases:
            got = plan(osc, dt, t)
            assert exact(got) == exact(ref.eval_shifted(c, osc, dt, t) for c in polys)
        # a new step size binds new constants to the same function
        function = function or plan._last[-1][0]
        assert plan._last[-1][0] is function


def test_empty_plans_match_term_by_term_evaluation():
    osc = make_oscillator("exp", 57.0, 1.1, -0.5)
    assert TermPlan([])(osc, 0.02, 0.3) == []
    v = BasisPoly.from_dict({(0, 1, 1, 0, 1): 1.0 + 0j, (2, 0, 0, 1, 0): -0.5j})
    polys = [BasisPoly(), v, BasisPoly()]
    for dt in (0.02, 0.0, -0.0):
        want = [ref.eval_shifted(c, osc, dt, 0.3) for c in polys]
        assert exact(TermPlan(polys)(osc, dt, 0.3)) == exact(want)
        assert repr(BasisPoly().eval_shifted(osc, dt, 0.3)) == repr(want[0])


def test_a_sum_longer_than_one_expression_compiles():
    # CPython's compiler raises RecursionError on one sum of a few
    # thousand terms; the plan sums in statements of a few hundred
    rng = np.random.default_rng(5)
    big = large_poly(rng)
    assert len(big.terms) > 3000
    osc = make_oscillator("fourier", 80.0, 0.2, -0.5, {-2: 0.3 - 0.1j, 1: 0.7, 3: 0.25j})
    small = BasisPoly.from_dict({(1, 2, 2, 1, 1): 0.5 - 0.5j})
    polys = [small, big, small, big, small]
    plan = TermPlan(polys)
    for dt in (0.03, -0.0):
        for t in PHASES[:5]:
            want = [ref.eval_shifted(c, osc, dt, t) for c in polys]
            assert exact(plan(osc, dt, t)) == exact(want)
            assert repr(big.eval_shifted(osc, dt, t)) == repr(want[1])


def test_frame_size_does_not_grow_with_the_table():
    # constants are read from the binding, never unpacked into locals, so
    # a call never needs a fresh chunk of the interpreter's frame stack
    osc, scheme = table("exp-nu-half-8-2")
    plans = [scheme.entries.plan[1], scheme.entries.averaged.plan[1],
             TermPlan([large_poly(np.random.default_rng(7))] * 2)]
    for plan in plans:
        assert frame_slots(plan, osc.nu) <= FRAME_SLOTS
    # four times the entries and terms: the same frame
    assert frame_slots(TermPlan([e.coeff for e in scheme.entries] * 4), osc.nu) \
        == frame_slots(plans[0], osc.nu)


# -- the batch layout that solve uses ------------------------------------------

FOURIER = {-2: 0.3 - 0.1j, 1: 0.7}

# a start time of each sign of zero and of type int, a large one and phases
START_TIMES = [0.0, -0.0, 0, 1e6, *PHASES[:11]]

# a float, an int and a numpy float
STEP_SIZES = [0.02, 2, np.float64(0.05)]


def batch_table(name):
    if name == "fourier-2-mode":
        osc = make_oscillator("fourier", 80.0, 0.2, 0.0, FOURIER)
        return osc, build_scheme(osc, TruncationPolicy.from_order(4, 2))
    return table(name)


def summands(plan: TermPlan, nu: float) -> int:
    return sum(map(len, plan._shape(nu)))


def rows(plan, osc, dt, times):
    out = [row for block in plan._blocks(osc, dt, times) for row in block]
    assert all(row.dtype == complex and row.shape == (len(plan._polys),) for row in out)
    return [exact(row) for row in out]


@pytest.mark.parametrize("averaged", [False, True], ids=["plain", "averaged"])
@pytest.mark.parametrize("name", [*TABLES, "fourier-2-mode"])
def test_batch_rows_match_the_compiled_function(name, averaged, monkeypatch):
    osc, scheme = batch_table(name)
    entries = scheme.entries.averaged if averaged else scheme.entries
    plan = entries.plan[1]
    polys = [e.coeff for e in entries]
    size = summands(plan, osc.nu)
    full = oscillator._BLOCK_VALUES // size
    times = (START_TIMES * (full // len(START_TIMES) + 1))[:max(full, len(START_TIMES))]
    for dt in STEP_SIZES:
        want = [exact(ref.eval_shifted(c, osc, dt, t) for c in polys) for t in times]
        assert [exact(plan(osc, dt, t)) for t in times] == want
        # full blocks, then blocks of 1, 2 and 7 times
        assert rows(plan, osc, dt, times) == want
        for block in (1, 2, 7):
            monkeypatch.setattr(oscillator, "_BLOCK_VALUES", block * size)
            assert rows(plan, osc, dt, START_TIMES) == want[:len(START_TIMES)]
            monkeypatch.undo()
    # the binding the plan keeps carries its layout, built once per binding
    binding = plan._last[-1]
    layout = binding[2]
    assert layout is not None
    list(plan._blocks(osc, STEP_SIZES[-1], START_TIMES[:1]))
    assert plan._last[-1] is binding and binding[2] is layout
    list(plan._blocks(osc, 0.03, START_TIMES[:1]))
    assert plan._last[-1] is not binding and plan._last[-1][2] is not None


def test_the_batch_never_warns_on_infinite_constants():
    # prefixes that overflow at this step size, times Z^q and an omega
    # factor, so that inf and nan meet zeros, and a plain constant too
    osc = make_oscillator("exp", 57.0, 1.1, -0.5)
    polys = [BasisPoly.from_dict({(1, 0, 1, 0, 1): 1e308, (0, 1, 2, 1, 0): 1.0 + 1.0j}),
             BasisPoly.from_dict({(0, 0, 0, 0, 0): 1.0, (2, 0, -1, 2, 0): 1e300j,
                                  (1, 2, 0, 0, 0): 1e308}),
             BasisPoly.from_dict({(1, -1, 0, 0, 0): -1e308, (0, 1, 1, 0, 0): 0.5})]
    plan = TermPlan(polys)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = rows(plan, osc, 10.0, START_TIMES)
    assert not all(cmath.isfinite(v) for v in plan._last[-1][1])
    assert got == [exact(plan(osc, 10.0, t)) for t in START_TIMES]
    assert got == [exact(ref.eval_shifted(c, osc, 10.0, t) for c in polys) for t in START_TIMES]


def test_empty_plans_give_empty_rows():
    osc = make_oscillator("exp", 57.0, 1.1, -0.5)
    assert rows(TermPlan([]), osc, 0.02, START_TIMES) == ["[]"] * len(START_TIMES)
    polys = [BasisPoly(), BasisPoly.from_dict({(0, 1, 1, 0, 1): 1.0 + 0j}), BasisPoly()]
    assert rows(TermPlan(polys), osc, -0.0, START_TIMES) \
        == [exact(ref.eval_shifted(c, osc, -0.0, t) for c in polys) for t in START_TIMES]
