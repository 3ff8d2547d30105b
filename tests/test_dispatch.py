"""The macro step's and the oracles' bits do not depend on numpy's SIMD
dispatch.

numpy picks, per CPU, among loops built for several instruction sets, and
some of them fuse a complex product's multiply and add.  A step adds its
contributions, the RK4 oracle does all its arithmetic, and the exact
oracle's quadrature evaluates and sums its integrand, on Python numbers,
so their trajectories, a step's contributions, and the output of a
command that measures against an oracle, the README's commands included,
are the same bytes in a child process with every dispatched instruction
set this CPU has disabled.  The variable that disables them,
``NPY_DISABLE_CPU_FEATURES``, is set for the child only.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oscistep import (TruncationPolicy, build_scheme, builtin_field, make_field,
                      make_oscillator, rk4_micro_solve, solve, step)
from oscistep.cli import main
import test_cli

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

# the dispatched instruction sets this CPU has
DISPATCHED = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]

SOLVE = ("solve --problem nonlinear --alpha 0,2 --mu 10 --kappa 4 --rho 2 --omega 100 "
         "--u0 1 --h 0.02 --tend 0.2 --oracle rk4")


def m2_field():
    return make_field(2, lambda t, u: [0.3 * u[0] - 0.1 * u[1], 0.2 * u[0] * u[1]],
                      lambda t, u: [0.7 * u[1], -0.4 * u[0] * u[0] / (1 + t)])


def macro_lines() -> list[str]:
    """Seeded 50-step solves, and one step's contributions, by ``repr``.
    Where numpy fuses a complex product's multiply and add, a step that
    takes numpy's product moves 18, 46, 22 and 48 of the solves' 51 rows,
    and the step's contributions."""
    rng = np.random.default_rng(48)
    cases = [(builtin_field("nonlinear", alpha=2j, mu=10.0), "cos", 0.0, 4),
             (builtin_field("nonlinear", alpha=0.3 - 0.2j, mu=1.1), "exp", -0.5, 4),
             (builtin_field("nonlinear", alpha=2j, mu=10.0), "exp", 0.0, 8),
             (m2_field(), "exp", 0.0, 4)]
    lines = []
    for field, kind, nu, kappa in cases:
        osc = make_oscillator(kind, 100.0, float(rng.uniform(0.0, 6.0)), nu)
        scheme = build_scheme(osc, TruncationPolicy.from_order(kappa, 2, nu))
        u0 = rng.uniform(0.5, 1.0, field.m) + 1j * rng.uniform(-0.25, 0.25, field.m)
        lines += [repr((t, u.tolist())) for t, u in solve(scheme, field, 0.0, u0, 1.0, 0.02)]
    res = step(scheme, field, 0.3, u0, 0.1)
    lines += [repr(res.u_next.tolist()), repr([c.tolist() for c in res.contributions])]
    return lines


def transcript() -> str:
    """Seeded macro solves and a step, RK4 trajectories, by ``repr``, then
    the stdout of `SOLVE`."""
    rng = np.random.default_rng(25)
    fields = [builtin_field("nonlinear", alpha=0.3 - 0.2j, mu=1.1), m2_field()]
    lines = macro_lines()
    for field in fields:
        phi = float(rng.uniform(0.0, 6.0))
        for osc in (make_oscillator("exp", 100.0, phi),
                    make_oscillator("fourier", 60.0, phi, -0.5,
                                    coeffs={1: 0.7 - 0.2j, 2: 0.3j, -1: 0.4 + 0.1j})):
            u0 = rng.uniform(0.5, 1.5, field.m) + 1j * rng.uniform(-0.3, 0.3, field.m)
            traj = rk4_micro_solve(field, osc, 0.1, u0, 0.4, osc.period / 50)
            lines += [repr((t, u.tolist())) for t, u in traj]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(SOLVE.split()) == 0
    return "\n".join(lines) + "\n" + out.getvalue()


def readme_transcript() -> str:
    """The README's commands and their exit codes and stdout, in the
    golden file's format."""
    parts = []
    for command in test_cli.TestReadmeGolden.COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(command.split())
        parts.append(f"$ oscistep {command}\n# exit {code}\n{out.getvalue()}")
    return "".join(parts)


def undispatched(name: str) -> str:
    """The stdout of this module's function `name`, called in a child
    process with every dispatched instruction set disabled, after a first
    line that lists the dispatched sets the child still has."""
    here = Path(__file__).parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(DISPATCHED),
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = f"import test_dispatch as d; print(d.DISPATCHED); print(d.{name}(), end='')"
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    return child.stdout


needs_dispatch = pytest.mark.skipif(
    not DISPATCHED, reason="numpy dispatches nothing beyond its baseline here")


@needs_dispatch
def test_step_and_rk4_bytes_do_not_depend_on_simd_dispatch():
    assert undispatched("transcript") == "[]\n" + transcript()


@needs_dispatch
def test_readme_commands_print_the_golden_bytes_without_simd_dispatch():
    # the exact oracle's quadrature summed by numpy moved 22 of its 87 lines
    golden = test_cli.TestReadmeGolden.GOLDEN.read_text()
    assert undispatched("readme_transcript") == "[]\n" + golden
