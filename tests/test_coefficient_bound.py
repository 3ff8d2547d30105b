"""The coefficient bound replays one recorded tape per call, and gives what
it gave when it ran the jets at every sample, bit for bit.

``references.coefficient_bound`` runs `a` and `b` on jets of numbers at
each sample, as `estimate_coefficient_bound` did before it recorded them.
K is compared by ``repr``, and an error by its type and message.
"""

import math

import numpy as np
import pytest

import oscistep.jets as jets
from oscistep import builtin_field, estimate_coefficient_bound, make_field
from oscistep.jets import CoefficientField
from oscistep.oscillator import absorb_mean
from oscistep.stepping import BOUND_T_SAMPLES, BOUND_U_SAMPLES
from references import coefficient_bound

T_RANGE = (0.0, 0.2)
TIMES = np.linspace(*T_RANGE, BOUND_T_SAMPLES)


def coupled_field(seed=11):
    """phase-ensemble's coupled m = 4 field (``perfbench/workloads.py``),
    drawn as that workload draws it: a = C u, b_i = beta_i u_i u_{i+1}."""
    rng = np.random.default_rng([seed, 10**6])
    coup = [[float(x) for x in row] for row in rng.normal(0.0, 0.3, (4, 4))]
    beta = [float(x) for x in rng.uniform(0.5, 1.0, 4)]
    return make_field(4, lambda t, u: [sum(coup[i][j] * u[j] for j in range(4)) for i in range(4)],
                      lambda t, u: [beta[i] * u[i] * u[(i + 1) % 4] for i in range(4)])


FIELDS = {
    "linear": lambda: builtin_field("linear", mu=10.0),
    "nonlinear": lambda: builtin_field("nonlinear", alpha=0.5, mu=1.0),
    "power-2": lambda: builtin_field("power", gamma=2),
    "nonlinear+mean": lambda: absorb_mean(builtin_field("nonlinear", alpha=0.5, mu=1.0),
                                          0.3 - 0.1j),
    "coupled": coupled_field,
    "coupled+mean": lambda: absorb_mean(coupled_field(), 0.3 - 0.1j),
}

# one centre per field with a -0.0 component
CENTRES = {1: [[1.0 + 0j], [complex(-0.0, 0.9)]],
           4: [[0.9 + 0j, complex(-0.0, 0.4), 1.1 - 0.2j, 0.7 + 0.3j]]}


def inverse_or_zero(x):
    """1 / x, or 0.0 where the jets find x zero."""
    try:
        return 1.0 / x
    except ZeroDivisionError:
        return 0.0


# each field takes one route, named by its id
ROUTES = {
    # reads a jet's value: the recording is refused, and every sample
    # runs the jets on numbers
    "refused-value": lambda: make_field(1, lambda t, u: [u[0] * u[0].value],
                                        lambda t, u: [u[0] * t]),
    # catches a zero divisor at the first sample: refused alike
    "refused-catching": lambda: make_field(1, lambda t, u: [inverse_or_zero(t) + u[0]],
                                           lambda t, u: [u[0] * u[0]]),
    # divides by t - TIMES[3], nonzero where recorded: the guard stops the
    # replay at TIMES[3], and the jets raise there
    "guard-raising": lambda: make_field(1, lambda t, u: [u[0] * t],
                                        lambda t, u: [1.0 / (t - float(TIMES[3]))]),
    # the same divisor, caught: at TIMES[3] the jets on numbers take the
    # other branch, whose partials have other keys
    "guard-catching": lambda: make_field(
        1, lambda t, u: [inverse_or_zero(t - float(TIMES[3])) * u[0]],
        lambda t, u: [u[0] * u[0]]),
    # divides by t, zero at the first sample: the recording raises there,
    # as the jets do
    "raising": lambda: make_field(1, lambda t, u: [u[0] / t], lambda t, u: [u[0]]),
    # a value whose square overflows at the last time alone
    "non-finite": lambda: make_field(1, lambda t, u: [(t + 1.0) * 1.13e154],
                                     lambda t, u: [u[0]]),
}
# samples per time at radius 0.5 and m = 1
STATES = 1 + BOUND_U_SAMPLES


def outcome(fn):
    """``repr`` of a value, or the type and message of an error."""
    try:
        return repr(fn())
    except Exception as exc:
        return type(exc), str(exc)


@pytest.fixture
def on_numbers(monkeypatch):
    """The base point of every run of the jets on numbers, in order."""
    out, run = [], CoefficientField._run

    def counting(field, plan, origin, values):
        if type(values[0]) is not jets._Register:
            out.append(origin.base)
        return run(field, plan, origin, values)

    monkeypatch.setattr(CoefficientField, "_run", counting)
    return out


@pytest.fixture
def recorders(monkeypatch):
    """Every recorder made, in order."""
    out = []

    class Counting(jets._Recorder):
        def __init__(self):
            out.append(self)
            super().__init__()

    monkeypatch.setattr(jets, "_Recorder", Counting)
    return out


@pytest.mark.parametrize("order", range(4))
@pytest.mark.parametrize("name", FIELDS)
def test_bound_matches_the_jets_at_every_sample(name, order, on_numbers):
    field = FIELDS[name]()
    for centre in CENTRES[field.m]:
        for radius in (0.0, 0.5):
            args = (field, T_RANGE, np.array(centre), radius, order)
            assert repr(estimate_coefficient_bound(*args)) == repr(coefficient_bound(*args))
    # every sample replayed the tape
    assert on_numbers == []


@pytest.mark.parametrize("name", ROUTES)
def test_each_route_matches_the_jets_at_every_sample(name, on_numbers):
    field = ROUTES[name]()
    args = (field, T_RANGE, np.array([1.0 + 0j]), 0.5, 2)
    got = outcome(lambda: estimate_coefficient_bound(*args))
    ran = list(on_numbers)
    assert got == outcome(lambda: coefficient_bound(*args))
    if name.startswith("refused"):
        assert type(got) is str and len(ran) == BOUND_T_SAMPLES * STATES
    elif name == "guard-raising":
        assert got == (ZeroDivisionError, "jet with zero value has no reciprocal")
        assert [base[0] for base in ran] == [complex(TIMES[3])]
    elif name == "guard-catching":
        assert type(got) is str and {base[0] for base in ran} == {complex(TIMES[3])}
        assert len(ran) == STATES
    elif name == "raising":
        assert got[0] is ZeroDivisionError and ran == []
    else:
        assert got[1] == f"non-finite coefficient partial at t = {TIMES[-1]}, u = [1.+0.j]"
        assert ran == []


@pytest.mark.parametrize("name", [*FIELDS, *ROUTES])
def test_a_call_records_one_tape(name, recorders):
    field = (FIELDS | ROUTES)[name]()
    centre = np.array(CENTRES[field.m][0])
    for order in (0, 2):
        outcome(lambda: estimate_coefficient_bound(field, T_RANGE, centre, 0.5, order))
    assert len(recorders) == 2


def test_bound_of_constant_zero_fields_is_zero():
    # no jet has a key, so no sample has a partial
    field = make_field(1, lambda t, u: [0.0], lambda t, u: [0.0])
    args = (field, T_RANGE, np.array([1.0 + 0j]), 0.5, 2)
    assert estimate_coefficient_bound(*args) == coefficient_bound(*args) == 0.0
    assert math.copysign(1.0, estimate_coefficient_bound(*args)) == 1.0
