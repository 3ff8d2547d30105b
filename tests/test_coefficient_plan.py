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
import oscistep.jets as jets
from oscistep import TruncationPolicy, build_scheme, make_oscillator
from oscistep.oscillator import BasisPoly, TermPlan, phase_average

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


def frame_slots(plan: TermPlan) -> int:
    code = plan._function.__code__
    return code.co_nlocals + code.co_stacksize


@pytest.fixture
def compiled(monkeypatch):
    """The source of every function compiled from here on, in order."""
    sources = []
    compile_source = jets._compiled
    monkeypatch.setattr(jets, "_compiled",
                        lambda source: sources.append(source) or compile_source(source))
    return sources


def large_poly(rng) -> BasisPoly:
    """3 080 terms: every p < 5, |k| <= 3, |q| <= 5, n < 4 and m < 2."""
    return BasisPoly.from_dict({
        (p, k, q, n, m): complex(*rng.normal(size=2))
        for p in range(5) for k in range(-3, 4) for q in range(-5, 6)
        for n in range(4) for m in range(2)})


def live_polys(entries, averaged):
    """The coefficients the plan covers, those of the entries whose plain
    coefficient has terms, phase-averaged if `averaged`."""
    return [phase_average(entries[i].coeff) if averaged else entries[i].coeff
            for i in entries.live]


def evaluate(plan, averaged):
    """The plan's call, or its phase-averaged values."""
    return plan.averaged if averaged else plan


@pytest.mark.parametrize("averaged", [False, True], ids=["plain", "averaged"])
@pytest.mark.parametrize("name", TABLES)
def test_plan_matches_term_by_term_evaluation(name, averaged, compiled):
    osc, scheme = table(name)
    entries = scheme.entries
    plan = evaluate(entries.plan[1], averaged)
    polys = live_polys(entries, averaged)
    compiled.clear()
    # a zero step of either sign, then a second step size and back
    for dt, phases in ((0.02, PHASES), (0.0, PHASES), (-0.0, PHASES), (0.05, PHASES[:5]),
                       (0.02, PHASES[:5])):
        for t in phases:
            got = plan(osc, dt, t)
            assert exact(got) == exact(ref.eval_shifted(c, osc, dt, t) for c in polys)
    # a new step size binds new constants to the same function
    assert compiled == []


def test_empty_plans_match_term_by_term_evaluation():
    osc = make_oscillator("exp", 57.0, 1.1, -0.5)
    assert TermPlan([])(osc, 0.02, 0.3) == []
    v = BasisPoly.from_dict({(0, 1, 1, 0, 1): 1.0 + 0j, (2, 0, 0, 1, 0): -0.5j})
    polys = [BasisPoly(), v, BasisPoly()]
    for dt in (0.02, 0.0, -0.0):
        want = [ref.eval_shifted(c, osc, dt, 0.3) for c in polys]
        assert exact(TermPlan(polys)(osc, dt, 0.3)) == exact(want)
        assert repr(BasisPoly().eval_shifted(osc, dt, 0.3)) == repr(want[0])


def test_one_plan_serves_every_nu(compiled):
    # the plan compiles once, when it is made; each nu binds its own
    # constants, so one leaked from an earlier nu would fail a later bind.
    # Every polynomial has terms with m > 0, and in the last one
    # n + m nu is zero at nu = -1/2
    entries = build_scheme(make_oscillator("cos", 100.0, 0.3),
                           TruncationPolicy.from_order(4, 2)).entries
    polys = [e.coeff for e in entries if any(key[4] for key, _ in e.coeff.terms)]
    polys.append(BasisPoly.from_dict({(1, 1, 1, 1, 2): 0.5 - 0.25j, (0, 0, 0, 2, 1): 1.5}))
    assert len(polys) == 7
    compiled.clear()
    plan = TermPlan(polys)
    assert len(compiled) == 1
    for nu in (0.0, -0.5, 0.0):
        osc = make_oscillator("cos", 100.0, 0.3, nu)
        for t in PHASES[:5]:
            want = [ref.eval_shifted(c, osc, 0.02, t) for c in polys]
            assert exact(plan(osc, 0.02, t)) == exact(want)
    assert len(compiled) == 1


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
    # the phase-averaged coefficients of a table, one per live entry, with
    # only their Z^0 terms
    averaged = TermPlan(live_polys(scheme.entries, True))
    plans = [scheme.entries.plan[1], averaged,
             TermPlan([large_poly(np.random.default_rng(7))] * 2)]
    for plan in plans:
        assert frame_slots(plan) <= FRAME_SLOTS
    # four times the entries and terms: the same frame
    assert frame_slots(TermPlan([e.coeff for e in scheme.entries] * 4)) \
        == frame_slots(plans[0])


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
    entries = scheme.entries
    plan = entries.plan[1]
    polys = live_polys(entries, averaged)
    for dt in STEP_SIZES:
        want = [exact(ref.eval_shifted(c, osc, dt, t) for c in polys) for t in START_TIMES]
        assert [exact(evaluate(plan, averaged)(osc, dt, t)) for t in START_TIMES] == want
        assert [exact(c.eval_shifted(osc, dt, t) for c in polys) for t in START_TIMES] == want
        # one binding serves every start time, and the other evaluation too
        binding = plan._last[-1]
        evaluate(plan, not averaged)(osc, dt, 0.3)
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
    assert not all(cmath.isfinite(v) for v in plan._last[-1])
    assert got == [exact(ref.eval_shifted(c, osc, 10.0, t) for c in polys) for t in START_TIMES]


# -- the constants and their accuracy -------------------------------------------

# (distinct (live entry, power of Z), constants of a binding, terms) of
# each table's live entries
CONSTANTS = {
    "cos-4-2": (17, 22, 33),
    "cos-4-1": (79, 94, 344),
    "cos-6-1": (447, 510, 3035),
    "cos-8-2": (175, 210, 474),
    "exp-nu-half-8-2": (247, 486, 762),
}


@pytest.mark.parametrize("name", TABLES)
def test_a_binding_holds_one_constant_per_power_of_z(name):
    osc, scheme = table(name)
    entries = scheme.entries
    polys = [entries[i].coeff for i in entries.live]
    distinct, constants, terms = CONSTANTS[name]
    assert sum(len(poly.terms) for poly in polys) == terms
    assert len({(i, key[2]) for i, poly in enumerate(polys) for key, _ in poly.terms}) \
        == distinct
    # one Z^0 slot per live entry, then one constant per distinct nonzero
    # power of Z of each
    assert len(polys) + len({(i, key[2]) for i, poly in enumerate(polys)
                             for key, _ in poly.terms if key[2]}) == constants
    plan = entries.plan[1]
    plan(osc, 0.02, 0.3)
    binding = plan._last[-1]
    assert len(binding) == constants
    # the slot of an entry without Z^0 terms is 0j
    assert all(repr(binding[i]) == "0j" for i, poly in enumerate(polys)
               if not phase_average(poly).terms)
    # averaging keeps the q = 0 terms: the phase average is the binding's
    # prefix, one constant per live entry, read from the kept binding
    averaged = plan.averaged(osc, 0.02, 0.3)
    assert averaged == binding[:len(entries.live)] and plan._last[-1] is binding


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
            binding = plan._last[-1]
            nonzero = iter(binding[len(polys):])
            z = mp.expj(osc.omega * t + osc.phi)     # the phase as the plan rounds it
            for i, (value, poly) in enumerate(zip(got, polys)):
                want = sum(mp.mpc(c.real, c.imag) * mp.mpf(h) ** p * mp.expj(k * om * h) * z ** q
                           * om ** -(n + m * nu) for (p, k, q, n, m), c in poly.terms)
                # its Z^0 constant, 0j if it has none, and one constant per
                # distinct nonzero power of Z
                size = abs(binding[i]) + sum(abs(next(nonzero))
                                             for _ in {key[2] for key, _ in poly.terms} - {0})
                assert abs(mp.mpc(value) - want) <= 32 * 2.0 ** -52 * size
            assert next(nonzero, None) is None
