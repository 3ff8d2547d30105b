"""The seeded outputs of the benchmark's stepping workloads, to compare
two source trees bit for bit.

    python tools/output_bits.py SRC          # print every output's repr
    python tools/output_bits.py SRC SRC2     # compare the two trees' outputs

SRC is a tree's ``src`` directory.  The outputs are every ``(t, u)`` row of
solve-scalar's five kinds at round 0 (3 seeds x 5 kinds x 51 rows = 765)
and every ``u_next`` of phase-ensemble's rounds 0-2 (3 seeds x 3 rounds x
18 steps = 162), for seeds 11-13, from the inputs that
``perfbench/workloads.py`` draws.  For the same kinds and states follow
the rows of a one-step solve from 0.0 (3 x 5 x 2 = 30) and of the whole
solve from t0 = -0.0 and from the int 0 (765 each), whose step 0 sees t0
itself.  Last come two (8,2) tables whose generated sums are split into
statements: solve-scalar's freqdep table (exp, nu = -1/2, 510 entries, so
a step's sum takes three statements) and a 3-mode Fourier table at
nu = -1/2 (510 entries, coefficients of up to 841 summands), each with
the freqdep field: for each seed, the rows of a solve over [0, 1] at
h = 0.02 from solve-scalar's freqdep u0 (2 x 3 x 51 = 306) and the
``u_next`` of a `step` from five seeded (t, u) (2 x 3 x 5 = 30).  Last,
the ``u_next`` of `step_phase_averaged` from five seeded (t, u) on each of
phase-ensemble's three configurations, at its round-0 phase and state, and
from the split-step starts on each of the two split tables (3 x 5 x 5 =
75).  Last, the ``iterated_integral`` of every word of cos (4,2) and of
exp nu = -1/2 (8,2) at three seeded ``(t_n, h)``, the last with
h = -0.0 ((11 + 510) x 3 = 1 563): each evaluates one `BasisPoly` with a
coefficient plan of its own.  Finally, on the same five tables and from
the same starts as the averaged steps, `step` and `step_phase_averaged`
alternating, plain first and then averaged first, each start stepped at
h = 0.02 and then 0.05 (3 x 5 x 2 x 5 x 2 x 2 = 600): plain and averaged
steps share a table's binding, so one kept for the wrong step size or the
wrong kind of step shows here.  After those, the K of
`estimate_coefficient_bound` over t in [0, 0.25] at orders 0-3 and radii
0 and 0.5: on the built-in linear (mu = 10), nonlinear (alpha = 0.5,
mu = 1) and power (gamma = 2) fields, that nonlinear field with the mean
0.3 - 0.1j absorbed, and a field whose `a` reads a jet's value, so that
the bound's recording is refused and every sample runs the jets on
numbers, about three centres, one of them -0.0 + 0.9j
(5 x 3 x 4 x 2 = 120), and on phase-ensemble's coupled m = 4 field of each
seed, and for seed 11 also on that field with the mean absorbed, about
two centres, one with a -0.0 component (4 x 2 x 4 x 2 = 64).  Last, for
each seed, every entry of the tables of scheme-build's six kinds at
round 0, each built truncated and raw: its word and the ``repr`` of its
coefficient's terms, keys and coefficients (36 tables, 2 694 entries).
Then, for each seed, the rows of `rk4_micro_solve` over 0.1 at a
fortieth of a period, from a seeded start
time and state: on the built-in linear, nonlinear and power fields and on
phase-ensemble's coupled m = 4 field, and for seed 11 also on that field
with the mean 0.3 - 0.1j absorbed, and on two fields of the tape of
order 0: an m = 2 field of ``-``, int constants and ``sum``, which is
recorded, and one whose recording ``**`` refuses, each on cos, exp and the
3-mode Fourier oscillator at nu = -1/2, all at omega = 100 and a seeded
phase (57 trajectories of 65 rows, 3 705).  Then, for each seed, the exit
code and every stdout line of cli-readme's seven commands, run by
``cli.main`` in this process (3 x 81 = 243).  Last, for each seed, the
rows of a policy (1,1) solve over [0, 1] at h = 0.02 on a cos table at a
seeded phase, from a seeded start, on the built-in linear, nonlinear and
power fields of the RK4 rows (3 x 3 x 51 = 459): plans of order 0, which
the power field's ``**`` refuses.  Then, for each seed, the ``u_next`` of
`step` from five seeded (t, u) on a cos (4,2) table and an exp
nu = -1/2 (8,2) table (omega = 100, phi = 0.3), for four fields whose word plans' tapes test a divisor or
are refused: the built-in power field (gamma = 2), ``1 / (1 + u^2)``, an
m = 2 field that divides in `a` and `b`, and a field whose `a` reads a
jet's value (3 x 4 x 2 x 5 = 120).  Then `OscillatorSpec.value` and
`v_norm` on cos, exp nu = -1/2 and a six-mode complex Fourier series: for
each, at each of three omegas and two phases, the ``repr`` of `value` at
eight seeded times one at a time and of `value` on one seeded array of
five, and `v_norm` (3 x 3 x 2 x (8 + 1 + 1) = 180).  That is 12 646
outputs in all.  Last come the generated sources: one line per distinct source that
``jets._compiled`` compiled over all of these runs, in the order first
compiled, with its sha256, its line count and its first line, so that
two trees whose tapes, coefficient plans, step sums, bound norms or RK4
steps differ by a byte differ here.  Both trees run with this checkout's
``perfbench``.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

SEEDS = (11, 12, 13)
KINDS = ("solve-scalar", "phase-ensemble", "solve-one-step", "solve-minus-zero",
         "solve-int-zero", "split-solve", "split-step", "averaged-step", "iterated-integral",
         "interleaved-step", "bound", "table", "rk4", "cli", "solve-order-0", "tape-step",
         "value", "sources")
# the step sizes of the interleaved steps
INTERLEAVED_H = (0.02, 0.05)
# the box of the bound estimates: times, radii and jet orders
BOUND_T, BOUND_RADII, BOUND_ORDERS = (0.0, 0.25), (0.0, 0.5), range(4)
# the 3-mode Fourier oscillator of the split tables
FOURIER_MODES = {-2: 0.3 - 0.1j, 1: 0.7, 3: 0.25j}
# the oscillators of the value rows, as make_oscillator's kind, nu and
# coefficients, and their omegas and phases
VALUE_OSCILLATORS = {"cos": ("cos", 0.0, None), "exp-nu-half": ("exp", -0.5, None),
                     "six-modes": ("fourier", 0.0, {-3: 0.2 + 0.1j, -2: 0.3, -1: 0.5j, 1: 0.7,
                                                    2: -0.25j, 3: 0.1 - 0.4j})}
VALUE_OMEGAS, VALUE_PHASES = (50.0, 100.0, 1e4), (0.0, 0.7)
PHASE_ROUNDS = 3
# the RK4 trajectories: their span, and the micro step as a share of a period
RK4_SPAN, RK4_STEPS_PER_PERIOD = 0.1, 40
# the policy (1,1) solves, on the built-in fields: their end and step size
ORDER0_T_END, ORDER0_H = 1.0, 0.02
# the tape steps' tables: kappa, rho and nu
TAPE_TABLES = {"cos-4-2": (4, 2, 0.0), "exp-nu-half-8-2": (8, 2, -0.5)}
PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


def _rk4_fields() -> dict:
    """The RK4 trajectories' fields beyond the workloads' own: one of
    ``-``, int constants and ``sum``, whose tape of order 0 is recorded,
    and one whose recording is refused by ``**``."""
    from oscistep import make_field
    return {"minus-int-sum": make_field(2, lambda t, u: [u[0] - 2 * u[1], sum(u) - t],
                                        lambda t, u: [3 - u[0] * u[1], 1 - sum(u)]),
            "refused-power": make_field(1, lambda t, u: [0.5 * u[0]],
                                        lambda t, u: [u[0] ** 2 - t])}


def _tape_fields() -> dict:
    """The tape steps' fields: three whose tapes guard a divisor, and one
    whose recording is refused by a read of a jet's value."""
    from oscistep import builtin_field, make_field
    return {"power": builtin_field("power", gamma=2),
            "inverse-square": make_field(1, lambda t, u: [0.5 * u[0]],
                                         lambda t, u: [1 / (1 + u[0] * u[0])]),
            "m2-division": make_field(2, lambda t, u: [u[1] / (1 + u[0] * u[0]), -u[0] * t],
                                      lambda t, u: [0.5 * u[0] * u[1], 1.0 / u[1]]),
            "refused-value": make_field(1, lambda t, u: [u[0] * abs(u[0].value)],
                                        lambda t, u: [u[0] * u[0]])}


def outputs() -> list[str]:
    """One line per output: the workload, its seed and inputs, and the
    ``repr`` of its Python values."""
    import contextlib
    import io

    import numpy as np
    import oscistep.jets as jets

    # every source compiled, in the order first compiled
    compiled, sources = jets._compiled, {}
    jets._compiled = lambda source: sources.setdefault(source, compiled(source))
    from oscistep import (TruncationPolicy, build_scheme, builtin_field, enumerate_words,
                          estimate_coefficient_bound, iterated_integral, make_field,
                          make_oscillator, rk4_micro_solve, solve, step, step_phase_averaged,
                          v_norm)
    from oscistep.cli import main as cli_main
    from oscistep.oscillator import absorb_mean
    from workloads import CliReadme, PhaseEnsemble, SchemeBuild, SolveScalar, _oscillator

    split = {"freqdep": make_oscillator("exp", 100.0, 0.0, -0.5),
             "fourier3": make_oscillator("fourier", 100.0, 0.3, -0.5, FOURIER_MODES)}
    split = {name: build_scheme(osc, TruncationPolicy.from_order(8, 2, -0.5))
             for name, osc in split.items()}
    lines, more, split_lines, averaged, interleaved, bounds, tables = [], [], [], [], [], [], []
    rk4, cli, order0, tape_steps = [], [], [], []
    tape_tables = {name: build_scheme(make_oscillator("exp" if nu else "cos", 100.0, 0.3, nu),
                                      TruncationPolicy.from_order(kappa, rho, nu))
                   for name, (kappa, rho, nu) in TAPE_TABLES.items()}

    def bound(label, field, centers):
        """K on each centre's boxes, at each order."""
        for u in centers:
            for radius in BOUND_RADII:
                for order in BOUND_ORDERS:
                    K = estimate_coefficient_bound(field, BOUND_T, np.array(u), radius, order)
                    bounds.append(f"bound {label} {u!r} {radius!r} {order} {K!r}")

    rng = np.random.default_rng(41)
    scalar = [[1.0 + 0j], [complex(*rng.uniform(0.5, 1.5, 2))], [complex(-0.0, 0.9)]]
    for name, params in (("linear", {"mu": 10.0}), ("nonlinear", {"alpha": 0.5, "mu": 1.0}),
                         ("power", {"gamma": 2})):
        bound(name, builtin_field(name, **params), scalar)
    bound("nonlinear+mean", absorb_mean(builtin_field("nonlinear", alpha=0.5, mu=1.0),
                                        0.3 - 0.1j), scalar)
    bound("refused", make_field(1, lambda t, u: [u[0] * u[0].value], lambda t, u: [u[0] * t]),
          scalar)

    def interleave(label, scheme, field, starts):
        """Plain and averaged steps in turn, plain first, then averaged."""
        for first in (False, True):
            for t, u in starts:
                for h in INTERLEAVED_H:
                    for avg in (first, not first):
                        res = (step_phase_averaged if avg else step)(scheme, field, t, u, h)
                        interleaved.append(f"interleaved-step {label} {avg} {h!r} {t!r} "
                                           f"{res.u_next.tolist()!r}")

    for seed in SEEDS:
        w = SolveScalar(seed)
        for inp in w.round_inputs(0):
            scheme, field = w.schemes[inp["problem"], inp["kappa"]], w.plain[inp["problem"]]
            for name, out, t0, t_end in (("solve-scalar", lines, 0.0, w.T_END),
                                         ("solve-one-step", more, 0.0, w.H),
                                         ("solve-minus-zero", more, -0.0, w.T_END),
                                         ("solve-int-zero", more, 0, w.T_END)):
                traj = solve(scheme, field, t0, inp["u0"], t_end, w.H)
                out += [f"{name} {seed} {inp['kind']} {t!r} {np.asarray(u).tolist()!r}"
                        for t, u in traj]
        [u0] = [inp["u0"] for inp in w.round_inputs(0) if inp["problem"] == "freqdep"]
        field, rng = w.plain["freqdep"], np.random.default_rng([seed, 29])
        starts = [(float(rng.uniform(0.0, 1.0)), u0 * complex(*rng.uniform(0.5, 1.5, 2)))
                  for _ in range(5)]
        for table, scheme in split.items():
            split_lines += [f"split-solve {seed} {table} {t!r} {np.asarray(u).tolist()!r}"
                            for t, u in solve(scheme, field, 0.0, u0, w.T_END, w.H)]
            split_lines += [f"split-step {seed} {table} {t!r} "
                            f"{step(scheme, field, t, u, w.H).u_next.tolist()!r}"
                            for t, u in starts]
            averaged += [f"averaged-step {seed} {table} {t!r} "
                         f"{step_phase_averaged(scheme, field, t, u, w.H).u_next.tolist()!r}"
                         for t, u in starts]
            interleave(f"{seed} {table}", scheme, field, starts)
        w = PhaseEnsemble(seed)
        for r in range(PHASE_ROUNDS):
            for i, inp in enumerate(w.round_inputs(r)):
                lines.append(f"phase-ensemble {seed} {r} {i} {inp['kind']} "
                             f"{w.run(inp).tolist()!r}")
        rng = np.random.default_rng([seed, 31])
        for inp in (inp for inp in w.round_inputs(0) if inp["averaged"]):
            osc = _oscillator(inp["problem"], inp["phi"])
            scheme = build_scheme(osc, TruncationPolicy.from_order(inp["kappa"], 2))
            starts = [(float(rng.uniform(0.0, 1.0)), inp["u0"] * complex(*rng.uniform(0.5, 1.5, 2)))
                      for _ in range(5)]
            for t, u in starts:
                u_next = step_phase_averaged(scheme, w.plain[inp["problem"]], t, u, w.H).u_next
                averaged.append(f"averaged-step {seed} {inp['kind']} {t!r} {u_next.tolist()!r}")
            interleave(f"{seed} {inp['kind']}", scheme, w.plain[inp["problem"]], starts)
        coupled = [[complex(*rng.uniform(0.5, 1.5, 2)) for _ in range(4)],
                   [0.9 + 0j, complex(-0.0, 0.4), 1.1 - 0.2j, 0.7 + 0.3j]]
        bound(f"coupled {seed}", w.plain["coupled"], coupled)
        if seed == SEEDS[0]:
            bound(f"coupled+mean {seed}", absorb_mean(w.plain["coupled"], 0.3 - 0.1j), coupled)
        rng = np.random.default_rng([seed, 43])
        fields = {name: builtin_field(name, **params) for name, params in (
            ("linear", {"mu": 10.0}), ("nonlinear", {"alpha": 0.5, "mu": 1.0}),
            ("power", {"gamma": 2}))}
        fields["coupled"] = w.plain["coupled"]
        if seed == SEEDS[0]:
            fields["coupled+mean"] = absorb_mean(w.plain["coupled"], 0.3 - 0.1j)
        fields.update(_rk4_fields())
        for name, field in fields.items():
            for kind, nu in (("cos", 0.0), ("exp", 0.0), ("fourier", -0.5)):
                osc = make_oscillator(kind, 100.0, float(rng.uniform(0.0, 6.0)), nu,
                                      FOURIER_MODES if kind == "fourier" else None)
                t0 = float(rng.uniform(0.0, 1.0))
                u0 = rng.uniform(0.5, 1.5, field.m) + 1j * rng.uniform(-0.3, 0.3, field.m)
                traj = rk4_micro_solve(field, osc, t0, u0, t0 + RK4_SPAN,
                                       osc.period / RK4_STEPS_PER_PERIOD)
                rk4 += [f"rk4 {seed} {name} {kind} {t!r} {u.tolist()!r}" for t, u in traj]
        rng = np.random.default_rng([seed, 47])
        scheme = build_scheme(make_oscillator("cos", 100.0, float(rng.uniform(0.0, 6.0))),
                              TruncationPolicy(1, 1))
        for name, field in list(fields.items())[:3]:
            u0 = rng.uniform(0.5, 1.5, 1) + 1j * rng.uniform(-0.3, 0.3, 1)
            order0 += [f"solve-order-0 {seed} {name} {t!r} {u.tolist()!r}"
                       for t, u in solve(scheme, field, 0.0, u0, ORDER0_T_END, ORDER0_H)]
        rng = np.random.default_rng([seed, 53])
        for name, field in _tape_fields().items():
            for table, scheme in tape_tables.items():
                for _ in range(5):
                    t = float(rng.uniform(0.0, 1.0))
                    u = rng.uniform(0.5, 1.5, field.m) + 1j * rng.uniform(-0.3, 0.3, field.m)
                    tape_steps.append(f"tape-step {seed} {name} {table} {t!r} "
                                      f"{step(scheme, field, t, u, 0.05).u_next.tolist()!r}")
        for name, argv in CliReadme(seed).commands.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli_main(argv)
            cli += [f"cli {seed} {name} {code} {line}" for line in out.getvalue().splitlines()]
        for inp in SchemeBuild(seed).round_inputs(0):
            for truncate in (True, False):
                scheme = build_scheme(inp["osc"], inp["policy"], truncate)
                tables += [f"table {seed} {inp['kind']} {truncate} {e.word} {e.coeff.terms!r}"
                           for e in scheme.entries]
    integrals, rng = [], np.random.default_rng(37)
    points = [(float(rng.uniform(0.0, 1.0)), float(h))
              for h in (*rng.uniform(0.005, 0.05, 2), -0.0)]
    for table, osc, order in (("cos-4-2", make_oscillator("cos", 100.0, 0.3), (4, 2)),
                              ("exp-nu-half-8-2", make_oscillator("exp", 100.0, 0.3, -0.5),
                               (8, 2, -0.5))):
        for word in enumerate_words(TruncationPolicy.from_order(*order)):
            integrals += [f"iterated-integral {table} {word} {t!r} {h!r} "
                          f"{iterated_integral(word, osc, t, h)!r}" for t, h in points]
    values, rng = [], np.random.default_rng(59)
    for name, (kind, nu, coeffs) in VALUE_OSCILLATORS.items():
        for omega in VALUE_OMEGAS:
            for phi in VALUE_PHASES:
                osc = make_oscillator(kind, omega, phi, nu, coeffs)
                label = f"value {name} {omega!r} {phi!r}"
                values += [f"{label} {t!r} {osc.value(t)!r}"
                           for t in rng.uniform(-10.0, 10.0, 8).tolist()]
                ts = rng.uniform(-10.0, 10.0, 5)
                values.append(f"{label} {ts.tolist()!r} {osc.value(ts).tolist()!r}")
                values.append(f"{label} v_norm {v_norm(osc)!r}")
    digests = [f"sources {hashlib.sha256(source.encode()).hexdigest()} "
               f"{len(source.splitlines())} {source[:source.index(':')]}" for source in sources]
    return (lines + more + split_lines + averaged + integrals + interleaved + bounds + tables
            + rk4 + cli + order0 + tape_steps + values + digests)


def run(src: str) -> list[str]:
    """The output lines of `src`, from a fresh interpreter."""
    out = subprocess.run([sys.executable, os.path.abspath(__file__), src],
                         check=True, capture_output=True, text=True).stdout
    return out.splitlines()


def main(argv: list[str]) -> int:
    if len(argv) == 1:
        sys.path[:0] = [os.path.abspath(argv[0]), PERFBENCH]
        print("\n".join(outputs()))
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    first, second = (run(src) for src in argv)
    for src, lines in zip(argv, (first, second)):
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        counts = {kind: sum(line.startswith(kind + " ") for line in lines)
                  for kind in KINDS}
        print(f"{src}: {counts} sha256 {digest}")
    differ = [(a, b) for a, b in zip(first, second) if a != b]
    for a, b in differ:
        print(f"- {a}\n+ {b}")
    same = not differ and len(first) == len(second)
    print("identical" if same else f"{len(differ)} outputs differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
