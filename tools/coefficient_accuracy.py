"""The relative error of every live coefficient of a few scheme tables,
against a 60-digit mpmath evaluation of the same basis polynomial.

    python tools/coefficient_accuracy.py SRC        # e.g. src

SRC is a tree's ``src`` directory.  For each table and each omega*h in
``OMEGA_H``, at omega = 100 and phi = 0.3, the table's coefficient plan
gives the values of its live entries (those whose coefficient has terms) at
each start time in ``TIMES``; mpmath evaluates each entry's `BasisPoly`
term by term from the same inputs.  One line per table and omega*h gives,
over the entries and times, the worst, the median and the mean relative
error ``|plan - mpmath| / |mpmath|``, and the worst and the mean normwise
error ``|plan - mpmath| / sum|term|`` in units of eps = 2^-52.  A
coefficient whose terms nearly cancel at some start time has a relative
error far above eps whatever the order of its sum, and that one sample can
set the worst and the mean, but not the median of the 32 start times; the
normwise error is the one that any summation bounds by a small multiple
of eps.

The phase omega*t + phi is rounded to a double as the plan rounds it, and
mpmath starts from that double, as from the double omega and h: what is
measured is the error of the coefficient's own arithmetic, not of its
inputs.  Needs mpmath.
"""

from __future__ import annotations

import math
import os
import statistics
import sys

import mpmath as mp

TABLES = {
    "cos (4,2)": ("cos", 0.0, (4, 2)),
    "cos (4,1)": ("cos", 0.0, (4, 1)),
    "cos (6,1)": ("cos", 0.0, (6, 1)),
    "cos (8,2)": ("cos", 0.0, (8, 2)),
    "exp nu=-1/2 (8,2)": ("exp", -0.5, (8, 2)),
}
OMEGA, PHI = 100.0, 0.3
OMEGA_H = (2.0, 1e-1, 1e-2)
# 32 start times spread over [0.05, 2] by multiples of the golden ratio,
# so that their phases omega*t + phi spread too: the step of an even grid,
# 1.95/31, is within 0.01 of a period 2 pi / omega at omega = 100
TIMES = tuple(0.05 + 1.95 * (i * (math.sqrt(5.0) - 1.0) / 2.0 % 1.0) for i in range(32))
DIGITS = 60
EPS = 2.0 ** -52


def exact(poly, omega: float, nu: float, dt: float, phase: float):
    """`poly` at t_ref + dt, with the phase omega*t_ref + phi given as
    `phase`, in mpmath at ``DIGITS`` digits."""
    om, h = mp.mpf(omega), mp.mpf(dt)
    z = mp.expj(mp.mpf(phase))
    total = mp.mpc(0)
    for (p, k, q, n, m), c in poly.terms:
        total += (mp.mpc(c.real, c.imag) * h ** p * mp.expj(k * om * h) * z ** q
                  * om ** -(n + m * mp.mpf(nu)))
    return total


def main(src: str) -> None:
    sys.path.insert(0, os.path.abspath(src))
    from oscistep import TruncationPolicy, build_scheme, make_oscillator

    mp.mp.dps = DIGITS
    print(f"{'table':<18} {'omega*h':>8} {'worst':>9} {'median':>9} {'mean':>9} "
          f"{'normwise worst':>14} {'mean':>6}")
    for name, (kind, nu, order) in TABLES.items():
        osc = make_oscillator(kind, OMEGA, PHI, nu)
        entries = build_scheme(osc, TruncationPolicy.from_order(*order, nu)).entries
        polys = [entries[i].coeff for i in entries.live]
        plan = entries.plan[1]
        for omega_h in OMEGA_H:
            h = omega_h / OMEGA
            # |e^(ik omega h)| = |Z| = 1
            sizes = [sum(abs(c) * h ** p * OMEGA ** -(n + m * nu)
                         for (p, _, _, n, m), c in poly.terms) for poly in polys]
            errors, normwise = [], []
            for t in TIMES:
                phase = osc.omega * t + osc.phi
                for got, poly, size in zip(plan(osc, h, t), polys, sizes):
                    want = exact(poly, osc.omega, nu, h, phase)
                    error = float(abs(mp.mpc(got) - want))
                    errors.append(error / float(abs(want)))
                    normwise.append(error / size / EPS)
            print(f"{name:<18} {omega_h:>8g} {max(errors):>9.2e} "
                  f"{statistics.median(errors):>9.2e} "
                  f"{sum(errors) / len(errors):>9.2e} {max(normwise):>14.2f} "
                  f"{sum(normwise) / len(normwise):>6.3f}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
