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
75).  Both trees run with this checkout's ``perfbench``.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

SEEDS = (11, 12, 13)
KINDS = ("solve-scalar", "phase-ensemble", "solve-one-step", "solve-minus-zero",
         "solve-int-zero", "split-solve", "split-step", "averaged-step")
# the 3-mode Fourier oscillator of the split tables
FOURIER_MODES = {-2: 0.3 - 0.1j, 1: 0.7, 3: 0.25j}
PHASE_ROUNDS = 3
PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


def outputs() -> list[str]:
    """One line per output: the workload, its seed and inputs, and the
    ``repr`` of its Python values."""
    import numpy as np
    from oscistep import (TruncationPolicy, build_scheme, make_oscillator, solve, step,
                          step_phase_averaged)
    from workloads import PhaseEnsemble, SolveScalar, _oscillator

    split = {"freqdep": make_oscillator("exp", 100.0, 0.0, -0.5),
             "fourier3": make_oscillator("fourier", 100.0, 0.3, -0.5, FOURIER_MODES)}
    split = {name: build_scheme(osc, TruncationPolicy.from_order(8, 2, -0.5))
             for name, osc in split.items()}
    lines, more, split_lines, averaged = [], [], [], []
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
        w = PhaseEnsemble(seed)
        for r in range(PHASE_ROUNDS):
            for i, inp in enumerate(w.round_inputs(r)):
                lines.append(f"phase-ensemble {seed} {r} {i} {inp['kind']} "
                             f"{w.run(inp).tolist()!r}")
        rng = np.random.default_rng([seed, 31])
        for inp in (inp for inp in w.round_inputs(0) if inp["averaged"]):
            osc = _oscillator(inp["problem"], inp["phi"])
            scheme = build_scheme(osc, TruncationPolicy.from_order(inp["kappa"], 2))
            for _ in range(5):
                t, u = float(rng.uniform(0.0, 1.0)), inp["u0"] * complex(*rng.uniform(0.5, 1.5, 2))
                u_next = step_phase_averaged(scheme, w.plain[inp["problem"]], t, u, w.H).u_next
                averaged.append(f"averaged-step {seed} {inp['kind']} {t!r} {u_next.tolist()!r}")
    return lines + more + split_lines + averaged


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
