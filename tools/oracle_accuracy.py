"""The relative error of the exact oracle's values in the README commands,
against a 40-digit mpmath quadrature of the same integral.

    python tools/oracle_accuracy.py SRC        # e.g. src

SRC is a tree's ``src`` directory.  Each README command that measures
against the exact oracle (`step`, `solve`, `converge` and `bounds`) runs
through ``cli.main`` with ``cli.oracle_values`` watched, so every oracle
value the command computes is caught with its configuration, oscillator
and time, whichever way the tree batches them.  mpmath then evaluates the
problem's closed form at each time from the same doubles (omega, phi, nu,
the oscillator's coefficients, mu, alpha, u0 and the time), with the
inner integral ``int_0^t v(s) e^(-gamma A(s)) ds`` a Gauss-Legendre
quadrature over each half period.  One line per command gives the count
of values and the worst and the median relative error
``|oracle - mpmath| / |mpmath|``.  Only the README's problems are known:
`linear` (alpha(t) = t, gamma = 1) and `nonlinear` (gamma = -1).  Needs
mpmath.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import statistics
import sys

import mpmath as mp

COMMANDS = {
    "step": "step --problem linear --kappa 4 --rho 2 --omega 100 --mu 10 --u0 1 "
            "--h 0.1 --oracle exact --emit-contributions",
    "solve": "solve --problem nonlinear --alpha 0,2 --mu 10 --kappa 4 --rho 2 "
             "--omega 100 --u0 1 --h 0.02 --tend 1 --oracle exact",
    "converge": "converge --problem linear --kappa 4 --rho 2 --mu 10 --u0 1 "
                "--h-list 0.2,0.14,0.1,0.07,0.05 --couple-c 1.0",
    "bounds": "bounds --problem linear --kappa 4 --rho 2 --mu 10 --u0 1 "
              "--box-t 0.2 --box-radius 0.5",
}
DIGITS = 40


def mpc(z) -> mp.mpc:
    z = complex(z)
    return mp.mpc(z.real, z.imag)


def closed_form(cfg, osc, times) -> list:
    """u at each of the increasing `times` from ``cfg.u0`` at t = 0."""
    if cfg.problem == "linear":
        gamma, A = 1, lambda s: s * s / 2
    elif cfg.problem == "nonlinear":
        gamma, A = -1, lambda s: mpc(cfg.alpha) * s
    else:
        raise ValueError(f"no closed form here for problem {cfg.problem!r}")
    mu, u0 = mpc(cfg.mu), mpc(cfg.u0)
    om, phi = mp.mpf(osc.omega), mp.mpf(osc.phi)
    amp = om ** -mp.mpf(osc.nu)
    coeffs = [(k, mpc(c)) for k, c in osc.coeffs]
    offset = mpc(osc.removed_mean)

    def f(s):
        v = amp * mp.fsum(c * mp.expj(k * (om * s + phi)) for k, c in coeffs) + offset
        return v * mp.exp(-gamma * A(s))

    half_period = math.pi / osc.omega
    out, inner = [], mp.mpf(0)
    for t0, t1 in zip([0.0, *times], times):
        n = max(1, math.ceil((t1 - t0) / half_period))
        edges = [mp.mpf(t0) + (mp.mpf(t1) - mp.mpf(t0)) * i / n for i in range(n + 1)]
        inner += mp.quad(f, edges, method="gauss-legendre")
        if t1 == 0:
            out.append(u0)
        else:
            out.append(mp.exp(A(mp.mpf(t1))) * (gamma * mu * inner + u0 ** gamma) ** (
                mp.mpf(1) / gamma))
    return out


def main(src: str) -> None:
    sys.path.insert(0, os.path.abspath(src))
    from oscistep import cli

    mp.mp.dps = DIGITS
    oracle_values = cli.oracle_values
    print(f"{'command':<9} {'values':>6} {'worst':>9} {'median':>9}")
    for name, command in COMMANDS.items():
        caught = []

        def watched(cfg, prob, times):
            refs = oracle_values(cfg, prob, times)
            caught.append((cfg, prob.osc, list(times), refs))
            return refs

        cli.oracle_values = watched
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(command.split())
        finally:
            cli.oracle_values = oracle_values
        if code not in (0, 1):
            raise SystemExit(f"{name} exited {code}")
        errs = []
        for cfg, osc, times, refs in caught:
            want = closed_form(cfg, osc, times)
            errs += [float(abs(mpc(r) - w) / abs(w)) for r, w in zip(refs, want)]
        print(f"{name:<9} {len(errs):>6} {max(errs):>9.2e} {statistics.median(errs):>9.2e}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    main(sys.argv[1])
