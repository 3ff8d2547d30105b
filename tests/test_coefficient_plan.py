"""The compiled coefficient plan reproduces term-by-term evaluation bit for bit.

``TermPlan`` compiles each table's coefficients into one straight-line
function of the binding's constants and Z.  Every value is compared with
``reference_step.eval_shifted``, which evaluates one basis polynomial term
by term, summing the terms of each power of Z first, by its ``repr``, so a
changed rounding or sign of zero fails.  An mpmath evaluation of the same
polynomials checks how far the values are from the exact ones.
"""

import cmath
import warnings

import numpy as np
import pytest

import reference_step as ref
from oscistep import TruncationPolicy, build_scheme, make_oscillator
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
    # the plan covers the entries whose plain coefficient has terms
    polys = [entries[i].coeff for i in entries.live]
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


FOURIER = {-2: 0.3 - 0.1j, 1: 0.7}

# a start time of each sign of zero and of type int, a large one and phases
START_TIMES = [0.0, -0.0, 0, 1e6, *PHASES[:11]]

# a float, an int and a numpy float
STEP_SIZES = [0.02, 2, np.float64(0.05)]


def any_table(name):
    if name == "fourier-2-mode":
        osc = make_oscillator("fourier", 80.0, 0.2, 0.0, FOURIER)
        return osc, build_scheme(osc, TruncationPolicy.from_order(4, 2))
    return table(name)


@pytest.mark.parametrize("averaged", [False, True], ids=["plain", "averaged"])
@pytest.mark.parametrize("name", [*TABLES, "fourier-2-mode"])
def test_batch_rows_match_the_compiled_function(name, averaged):
    # a batch of rows, one per start time, as a solve reads them: each row
    # from the plan's kept binding equals the reference and each
    # polynomial's own compiled function, bound for its one call
    osc, scheme = any_table(name)
    entries = scheme.entries.averaged if averaged else scheme.entries
    plan = entries.plan[1]
    # the plan covers the entries whose plain coefficient has terms
    polys = [entries[i].coeff for i in entries.live]
    for dt in STEP_SIZES:
        want = [exact(ref.eval_shifted(c, osc, dt, t) for c in polys) for t in START_TIMES]
        assert [exact(plan(osc, dt, t)) for t in START_TIMES] == want
        assert [exact(c.eval_shifted(osc, dt, t) for c in polys) for t in START_TIMES] == want
        # one binding serves every start time
        binding = plan._last[-1]
        plan(osc, dt, 0.3)
        assert plan._last[-1] is binding


def test_infinite_constants_match_term_by_term_evaluation():
    # constants that overflow at this step size, times Z^q, so that inf and
    # nan meet zeros, and a plain constant too
    osc = make_oscillator("exp", 57.0, 1.1, -0.5)
    polys = [BasisPoly.from_dict({(1, 0, 1, 0, 1): 1e308, (0, 1, 2, 1, 0): 1.0 + 1.0j}),
             BasisPoly.from_dict({(0, 0, 0, 0, 0): 1.0, (2, 0, -1, 2, 0): 1e300j,
                                  (1, 2, 0, 0, 0): 1e308}),
             BasisPoly.from_dict({(1, -1, 0, 0, 0): -1e308, (0, 1, 1, 0, 0): 0.5})]
    plan = TermPlan(polys)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [exact(plan(osc, 10.0, t)) for t in START_TIMES]
    assert not all(cmath.isfinite(v) for v in plan._last[-1][1])
    assert got == [exact(ref.eval_shifted(c, osc, 10.0, t) for c in polys) for t in START_TIMES]


# -- the constants and their accuracy -------------------------------------------

# (distinct (live entry, power of Z), terms) of each table's live entries
CONSTANTS = {
    "cos-4-2": (17, 33),
    "cos-4-1": (79, 344),
    "cos-6-1": (447, 3035),
    "cos-8-2": (175, 474),
    "exp-nu-half-8-2": (247, 762),
}


@pytest.mark.parametrize("name", TABLES)
def test_a_binding_holds_one_constant_per_power_of_z(name):
    osc, scheme = table(name)
    entries = scheme.entries
    polys = [entries[i].coeff for i in entries.live]
    constants, terms = CONSTANTS[name]
    assert sum(len(poly.terms) for poly in polys) == terms
    assert len({(i, key[2]) for i, poly in enumerate(polys) for key, _ in poly.terms}) \
        == constants
    plan, averaged = entries.plan[1], entries.averaged.plan[1]
    plan(osc, 0.02, 0.3)
    averaged(osc, 0.02, 0.3)
    assert len(plan._last[-1][1]) == constants
    # averaging keeps the q = 0 terms: one constant per live entry, 0j
    # where it keeps none
    assert len(averaged._last[-1][1]) == len(entries.live)


@pytest.mark.parametrize("name", ["cos-4-2", "cos-8-2", "exp-nu-half-8-2"])
def test_plan_is_accurate_to_the_size_of_its_constants(name):
    # against the same polynomials in mpmath at 60 digits, at omega h = 2:
    # each value is off by at most a small multiple of eps times the sum
    # of its constants' magnitudes, a bound on the terms it adds (the
    # largest multiple seen here is about 10)
    mp = pytest.importorskip("mpmath")
    osc, scheme = table(name)
    entries = scheme.entries
    plan = entries.plan[1]
    polys = [entries[i].coeff for i in entries.live]
    h = 0.02
    with mp.workdps(60):
        om, nu = mp.mpf(osc.omega), mp.mpf(osc.nu)
        for t in (0.1, 0.3, 0.77):
            got = plan(osc, h, t)
            constants = iter(plan._last[-1][1])
            z = mp.expj(osc.omega * t + osc.phi)     # the phase as the plan rounds it
            for value, poly, qs in zip(got, polys, plan._groups):
                want = sum(mp.mpc(c.real, c.imag) * mp.mpf(h) ** p * mp.expj(k * om * h) * z ** q
                           * om ** -(n + m * nu) for (p, k, q, n, m), c in poly.terms)
                size = sum(abs(next(constants)) for _ in qs)
                assert abs(mp.mpc(value) - want) <= 32 * 2.0 ** -52 * size
