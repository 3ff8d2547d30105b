"""The four benchmark workloads.

Each workload is a closed loop with one caller.  It works in rounds: a
round is one operation of every kind the workload mixes, with inputs drawn
from ``default_rng([seed, round])``, so a seed fixes every input whatever
the machine's speed.  ``run`` is the untraced operation, ``run_traced`` the
same operation with spans around the calls into each layer, and
``check_round`` judges a round's outputs against an oracle that does not
share code with the path under test.  Why each workload exists is in
NOTES.md.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
import time

import numpy as np

from oscistep import (TruncationPolicy, adaptive_quadrature, big_v,
                      build_scheme, enumerate_words, estimate_coefficient_bound,
                      exact_exp_macro, integration_call_count, make_field,
                      make_oscillator, phase_average, rk4_micro_solve, solve,
                      step, step_phase_averaged, term_count, v_norm, word_primitive)
from oscistep.cli import main as cli_main

from tracing import TimedField

OMEGA = 100.0
# random stream for draws made once per run; rounds use [seed, round]
RUN_STREAM = 10**6


# -- coefficient fields ---------------------------------------------------------

def _field_defs(seed: int) -> dict:
    """(m, a, b) of each problem; the m = 4 coupling is drawn from the seed."""
    rng = np.random.default_rng([seed, RUN_STREAM])
    coup = [[float(x) for x in row] for row in rng.normal(0.0, 0.3, (4, 4))]
    beta = [float(x) for x in rng.uniform(0.5, 1.0, 4)]
    return {
        # a = u t, b = mu (mu = 10): the README's linear problem
        "linear": (1, lambda t, u: [u[0] * t], lambda t, u: [10.0]),
        # a = alpha u, b = mu u^2 with alpha = 0.5, mu = 1
        "nonlinear": (1, lambda t, u: [0.5 * u[0]], lambda t, u: [u[0] * u[0]]),
        # the nonlinear pair with mu = 0.1, for the nu = -1/2 oscillator
        "freqdep": (1, lambda t, u: [0.5 * u[0]], lambda t, u: [0.1 * u[0] * u[0]]),
        # a = C u, b_i = beta_i u_i u_{i+1}: four coupled states
        "coupled": (4,
                    lambda t, u: [sum(coup[i][j] * u[j] for j in range(4)) for i in range(4)],
                    lambda t, u: [beta[i] * u[i] * u[(i + 1) % 4] for i in range(4)]),
    }


def _exact(problem: str, osc, t: float, u0: complex) -> complex:
    if problem == "linear":
        return exact_exp_macro(lambda s: s, 1, 10.0, osc, t, u0,
                               alpha_antideriv=lambda s: s * s / 2.0)
    mu = 0.1 if problem == "freqdep" else 1.0
    return exact_exp_macro(0.5, -1, mu, osc, t, u0)


def _oscillator(problem: str, phi: float = 0.0):
    if problem == "linear":
        return make_oscillator("cos", OMEGA, phi)
    return make_oscillator("exp", OMEGA, phi, -0.5 if problem == "freqdep" else 0.0)


def _u0(rng, m: int = 1) -> np.ndarray:
    return rng.uniform(0.5, 1.0, m) + 1j * rng.uniform(-0.25, 0.25, m)


def _jet_size(m: int, order: int) -> int:
    return math.comb(m + 1 + order, order)


def _traced_step(tracer, scheme, field, t_n, u, h, averaged=False):
    """One step inside a ``stepping.step`` span, then the coefficient layer
    timed on its own by direct calls with the step's arguments."""
    entries = scheme.entries
    with tracer.span("stepping.step", entries=len(entries), jet_order=scheme.jet_order,
                     jet_size=_jet_size(field.m, scheme.jet_order)):
        res = (step_phase_averaged if averaged else step)(scheme, field, t_n, u, h)
    with tracer.span("oscillator.eval_shifted", entries=len(entries)):
        for e in entries:
            e.coeff.eval_shifted(scheme.oscillator, h, t_n)
    with tracer.span("oscillator.phase_average", entries=len(entries)):
        for e in entries:
            phase_average(e.coeff)
    return res


class Workload:
    name = ""
    unit = ""            # what one unit of throughput is
    units_per_round = 1
    tail_pct = 90.0      # fixed tail percentile; see run.tail_ms
    rate_name = ""       # workload-specific names used in the report
    latency_name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.fields = _field_defs(seed)
        self._timed = {}

    def field(self, problem: str):
        m, a, b = self.fields[problem]
        return make_field(m, a, b, name=problem)

    def timed_field(self, problem: str, tracer):
        """The problem's field with spans around its jets, one per tracer."""
        key = (problem, id(tracer))
        if key not in self._timed:
            m, a, b = self.fields[problem]
            self._timed[key] = TimedField(m, a, b, tracer, name=problem)
        return self._timed[key]

    def rng(self, r: int):
        return np.random.default_rng([self.seed, r])


# -- solve-scalar ---------------------------------------------------------------

class SolveScalar(Workload):
    """Repeated fixed-step ``solve`` over [0, 1], h = 0.02 (50 macro steps)."""

    name = "solve-scalar"
    unit = "steps"
    tail_pct = 90.0
    rate_name = "solve_steps_per_s"
    latency_name = "solve_ms"
    H, T_END = 0.02, 1.0
    # (problem, kappa, relative tolerance of the endpoint against the exact
    # solution, about ten times the largest error seen over seeded u0)
    KINDS = (("linear", 4, 1e-5), ("nonlinear", 4, 3e-3), ("freqdep", 4, 5e-5),
             ("linear", 8, 5e-8), ("nonlinear", 8, 5e-6))
    units_per_round = len(KINDS) * 50

    def __init__(self, seed):
        super().__init__(seed)
        self.schemes = {}
        for problem, kappa, _ in self.KINDS:
            osc = _oscillator(problem)
            policy = TruncationPolicy.from_order(kappa, 2, osc.nu)
            self.schemes[problem, kappa] = build_scheme(osc, policy)
        self.plain = {p: self.field(p) for p in ("linear", "nonlinear", "freqdep")}

    def setup_specs(self):
        return [dict(kind="cos" if p == "linear" else "exp",
                     nu=-0.5 if p == "freqdep" else 0.0, kappa=k, rho=2)
                for p, k, _ in self.KINDS]

    def round_inputs(self, r):
        rng = self.rng(r)
        return [dict(kind=f"{p}-k{k}", problem=p, kappa=k, tol=tol, u0=_u0(rng))
                for p, k, tol in self.KINDS]

    def run(self, inp):
        scheme = self.schemes[inp["problem"], inp["kappa"]]
        traj = solve(scheme, self.plain[inp["problem"]], 0.0, inp["u0"], self.T_END, self.H)
        return traj[-1][1][0]

    def run_traced(self, inp, tracer):
        scheme = self.schemes[inp["problem"], inp["kappa"]]
        field = self.timed_field(inp["problem"], tracer)
        u = np.asarray(inp["u0"], dtype=complex)
        with tracer.span("op:solve-scalar", kind=inp["kind"]):
            # the steps solve() takes, one span each
            for i in range(round(self.T_END / self.H)):
                u = _traced_step(tracer, scheme, field, i * self.H, u, self.H).u_next
        return u[0]

    def check_round(self, inputs, outputs):
        ok = []
        for inp, out in zip(inputs, outputs):
            if out is None or not cmath.isfinite(out):
                ok.append(False)
                continue
            osc = self.schemes[inp["problem"], inp["kappa"]].oscillator
            ref = _exact(inp["problem"], osc, self.T_END, complex(inp["u0"][0]))
            ok.append(abs(out - ref) <= inp["tol"] * abs(ref))
        return ok


# -- phase-ensemble -------------------------------------------------------------

class PhaseEnsemble(Workload):
    """Independent single steps over seeded (phase, u0) samples.

    Per round and configuration: K plain steps at equispaced phases
    phi0 + 2 pi j / K (phi0 seeded) and one phase-averaged step from the
    same u0.  Every scheme table has |phase index| < K, so the mean of the
    K plain steps equals the phase-averaged step up to rounding.
    """

    name = "phase-ensemble"
    unit = "samples"
    tail_pct = 99.0
    rate_name = "ensemble_samples_per_s"
    latency_name = "sample_ms"
    H = 0.1
    K = 5
    # (problem, kappa, relative tolerance against the exact one-step solution
    # or None where no closed form exists)
    CONFIGS = (("nonlinear", 4, 5e-4), ("linear", 8, 1e-6), ("coupled", 4, None))
    units_per_round = len(CONFIGS) * (K + 1)
    MEAN_TOL = 1e-9

    def __init__(self, seed):
        super().__init__(seed)
        self.plain = {p: self.field(p) for p, _, _ in self.CONFIGS}

    def setup_specs(self):
        return [dict(kind="cos" if p == "linear" else "exp", nu=0.0, kappa=k, rho=2)
                for p, k, _ in self.CONFIGS]

    def round_inputs(self, r):
        rng = self.rng(r)
        out = []
        for p, k, tol in self.CONFIGS:
            m = self.fields[p][0]
            u0, phi0 = _u0(rng, m), rng.uniform(0.0, 2.0 * math.pi)
            for j in range(self.K):
                out.append(dict(kind=f"{p}-k{k}", problem=p, kappa=k, tol=tol, u0=u0,
                                phi=phi0 + 2.0 * math.pi * j / self.K, averaged=False))
            out.append(dict(kind=f"{p}-k{k}-avg", problem=p, kappa=k, tol=tol, u0=u0,
                            phi=phi0, averaged=True))
        return out

    def run(self, inp):
        osc = _oscillator(inp["problem"], inp["phi"])
        scheme = build_scheme(osc, TruncationPolicy.from_order(inp["kappa"], 2))
        stepper = step_phase_averaged if inp["averaged"] else step
        return stepper(scheme, self.plain[inp["problem"]], 0.0, inp["u0"], self.H).u_next

    def run_traced(self, inp, tracer):
        field = self.timed_field(inp["problem"], tracer)
        with tracer.span("op:phase-ensemble", kind=inp["kind"]):
            osc = _oscillator(inp["problem"], inp["phi"])
            with tracer.span("stepping.build_scheme") as attrs:
                before = integration_call_count()
                scheme = build_scheme(osc, TruncationPolicy.from_order(inp["kappa"], 2))
                attrs["new_antiderivatives"] = integration_call_count() - before
            return _traced_step(tracer, scheme, field, 0.0, inp["u0"], self.H,
                                averaged=inp["averaged"]).u_next

    def check_round(self, inputs, outputs):
        ok = [out is not None and bool(np.all(np.isfinite(out))) for out in outputs]
        group = self.K + 1
        for g in range(0, len(inputs), group):
            plain, avg = outputs[g:g + self.K], outputs[g + self.K]
            if not all(ok[g:g + group]):
                continue
            # plain-step phase mean against the phase-averaged step: within
            # 3 SEM and, the phases being equispaced, equal up to rounding
            samples = np.array(plain)
            mean = samples.mean(axis=0)
            sem = math.sqrt(float(np.sum(np.abs(samples - mean) ** 2))
                            / (self.K * (self.K - 1)))
            diff = float(np.linalg.norm(mean - avg))
            scale = 1.0 + float(np.linalg.norm(avg))
            if diff > self.MEAN_TOL * scale or diff > 3.0 * sem + 1e-12 * scale:
                ok[g + self.K] = False
            # spot check: the first phase against the exact solution
            inp = inputs[g]
            if inp["tol"] is not None:
                ref = _exact(inp["problem"], _oscillator(inp["problem"], inp["phi"]),
                             self.H, complex(inp["u0"][0]))
                if not abs(plain[0][0] - ref) <= inp["tol"] * abs(ref):
                    ok[g] = False
        return ok


# -- scheme-build ---------------------------------------------------------------

def _expected_words(policy: TruncationPolicy, kappa: int, rho: int, nu: float) -> int:
    """Word count of a policy, counted independently of enumerate_words."""
    if nu == 0.0:
        return term_count(kappa, rho)
    total = 0
    for q0 in range(int(policy.kappa0) + 1):
        for q1 in range(int(policy.kappa1) + 1):
            if q0 + q1 and q0 / policy.kappa0 + q1 / policy.kappa1 <= 1.0 + 1e-9:
                total += math.comb(q0 + q1, q0)
    return total


class SchemeBuild(Workload):
    """Cold ``build_scheme`` on seeded random Fourier oscillators, each
    followed by one warm rebuild (other frequency and phase, same modes)."""

    name = "scheme-build"
    unit = "builds"
    tail_pct = 95.0
    rate_name = "cold_builds_per_s"
    latency_name = "build_ms"
    # (kappa, rho, nu, Fourier modes, truncated table).  Mode counts are
    # fixed per kind so a seed changes coefficients and mode indices but
    # not the mix of costs.
    KINDS = ((4, 1, 0.0, 3, True), (4, 1, -0.5, 2, False), (6, 2, 0.0, 5, False),
             (6, 2, -0.5, 2, True), (8, 2, 0.0, 4, True), (8, 2, 0.0, 2, False))
    units_per_round = len(KINDS)
    CHECK_OMEGA = 50.0
    SHUFFLE_TOL = 1e-10

    def _oscillators(self, rng, modes, nu):
        ks = rng.choice([k for k in range(-4, 5) if k], size=modes, replace=False)
        coeffs = {int(k): complex(rng.normal(), rng.normal()) for k in ks}
        cold = make_oscillator("fourier", self.CHECK_OMEGA, rng.uniform(0, 2 * math.pi),
                               nu, coeffs)
        warm = make_oscillator("fourier", 80.0, rng.uniform(0, 2 * math.pi), nu, coeffs)
        return cold, warm

    def setup_specs(self):
        return [dict(kind="fourier", nu=nu, kappa=k, rho=r, truncate=t,
                     coeffs={str(kk): [c.real, c.imag] for kk, c in inp["osc"].coeffs})
                for (k, r, nu, _, t), inp in zip(self.KINDS, self.round_inputs(0))]

    def round_inputs(self, r):
        rng = self.rng(r)
        out = []
        for kappa, rho, nu, modes, trunc in self.KINDS:
            osc, warm = self._oscillators(rng, modes, nu)
            out.append(dict(kind=f"k{kappa}r{rho}-nu{nu:g}-m{modes}-{'trunc' if trunc else 'raw'}",
                            kappa=kappa, rho=rho, nu=nu, truncate=trunc, osc=osc, warm=warm,
                            policy=TruncationPolicy.from_order(kappa, rho, nu),
                            t_n=rng.uniform(0.0, 1.0), h=rng.uniform(0.05, 0.2)))
        return out

    def run(self, inp):
        cold = build_scheme(inp["osc"], inp["policy"], inp["truncate"])
        warm = build_scheme(inp["warm"], inp["policy"], inp["truncate"])
        return cold, warm

    def run_traced(self, inp, tracer):
        osc, policy = inp["osc"], inp["policy"]
        with tracer.span("op:scheme-build", kind=inp["kind"]) as op:
            before = integration_call_count()
            with tracer.span("terms.enumerate_words"):
                words = enumerate_words(policy)
            with tracer.span("terms.word_primitive", words=len(words)):
                for w in words:
                    word_primitive(w, osc)
            with tracer.span("stepping.build_scheme", after_primitives=True) as attrs:
                cold = build_scheme(osc, policy, inp["truncate"])
                attrs["new_antiderivatives"] = integration_call_count() - before
            op.update(antiderivatives=attrs["new_antiderivatives"], words=len(cold.entries),
                      basis_terms=sum(len(e.coeff.terms) for e in cold.entries))
            with tracer.span("stepping.build_scheme", warm=True) as attrs:
                before = integration_call_count()
                warm = build_scheme(inp["warm"], policy, inp["truncate"])
                attrs["new_antiderivatives"] = integration_call_count() - before
        return cold, warm

    def _check_one(self, inp, cold, warm) -> bool:
        if warm.entries != cold.entries:
            return False
        if len(cold.entries) != _expected_words(inp["policy"], inp["kappa"], inp["rho"],
                                                inp["nu"]):
            return False
        osc, t_n, h = inp["osc"], inp["t_n"], inp["h"]
        bv = big_v(osc)
        dv = bv.eval_shifted(osc, h, t_n) - bv.eval_shifted(osc, 0.0, t_n)
        # a priori bound on |Delta V| sets the scale of rounding error
        vmax = 2.0 * osc.omega ** (-osc.nu) * sum(abs(c) / (abs(k) * osc.omega)
                                                   for k, c in osc.coeffs)
        for e in cold.entries:
            letters = e.word.letters
            q = len(letters)
            if letters == ("T",):
                want, scale = h, h
            elif set(letters) == {"V"} and (q == 1 or not inp["truncate"]):
                # shuffle identity: the V...V integral is Delta V^q / q!
                want, scale = dv ** q / math.factorial(q), vmax ** q / math.factorial(q)
            else:
                continue
            got = e.coeff.eval_shifted(osc, h, t_n)
            if not abs(got - want) <= self.SHUFFLE_TOL * scale:
                return False
        return True

    def check_round(self, inputs, outputs):
        return [out is not None and self._check_one(inp, *out)
                for inp, out in zip(inputs, outputs)]


# -- cli-readme -----------------------------------------------------------------

README_COMMANDS = {
    "step": "step --problem linear --kappa 4 --rho 2 --omega 100 --mu 10 --u0 1 "
            "--h 0.1 --oracle exact --emit-contributions",
    "solve": "solve --problem nonlinear --alpha 0,2 --mu 10 --kappa 4 --rho 2 "
             "--omega 100 --u0 1 --h 0.02 --tend 1 --oracle exact",
    "converge": "converge --problem linear --kappa 4 --rho 2 --mu 10 --u0 1 "
                "--h-list 0.2,0.14,0.1,0.07,0.05 --couple-c 1.0",
    "termcount": "termcount --kappa 3 --rho 2",
    "bounds": "bounds --problem linear --kappa 4 --rho 2 --mu 10 --u0 1 "
              "--box-t 0.2 --box-radius 0.5",
    "stochastic_check": "stochastic-check --kappa 1.2 --rho-prime 0.75 --scheme euler",
}
# largest abs_error accepted per command: five times the value printed by
# the seed code (step 7.9e-5, solve 0.076, solve_rk4 7.3e-5).  converge
# prints a convergence study, judged by its slope (5.42 on the seed code).
CLI_ERROR_TOL = {"step": 4e-4, "solve": 0.4, "solve_rk4": 4e-4}


class CliReadme(Workload):
    """``oscistep.cli.main`` in-process over the README commands plus one
    short ``solve --oracle rk4``; a round is one suite in seeded order."""

    name = "cli-readme"
    unit = "suites"
    tail_pct = 95.0
    rate_name = "cli_suites_per_s"
    latency_name = "command_ms"

    def __init__(self, seed):
        super().__init__(seed)
        u0 = float(np.random.default_rng([seed, RUN_STREAM + 1]).uniform(0.5, 1.5))
        self.commands = {name: text.split() for name, text in README_COMMANDS.items()}
        self.commands["solve_rk4"] = (
            f"solve --problem linear --kappa 4 --rho 2 --omega 100 --mu 10 --u0 {u0!r} "
            "--h 0.05 --tend 0.2 --oracle rk4").split()
        self.u0 = u0
        self._first = {}

    def setup_specs(self):
        return ([dict(kind="cos", nu=0.0, kappa=4, rho=2),
                 dict(kind="exp", nu=0.0, kappa=4, rho=2)]
                + [dict(kind="cos", nu=0.0, kappa=k, rho=1) for k in (1, 2)])

    def round_inputs(self, r):
        names = list(self.commands)
        self.rng(r).shuffle(names)
        return [dict(kind=n, argv=self.commands[n]) for n in names]

    @staticmethod
    def _call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
        return code, out.getvalue()

    def run(self, inp):
        return self._call(inp["argv"])

    def run_traced(self, inp, tracer):
        name = inp["kind"]
        with tracer.span("op:cli-readme", kind=name):
            with tracer.span(f"cli.{name}"):
                res = self._call(inp["argv"])
            # the oracle and bounds layers the command relies on, timed by
            # direct calls with the command's arguments
            if name == "step":
                osc = make_oscillator("cos", OMEGA)
                with tracer.span("oracles.exact_exp_macro"):
                    _exact("linear", osc, 0.1, 1.0)
                with tracer.span("oracles.adaptive_quadrature") as attrs:
                    q = adaptive_quadrature(osc.value, 0.0, 0.1, 1e-10,
                                            half_period=math.pi / OMEGA)
                    attrs["evaluations"] = q.evaluations
            elif name == "bounds":
                field = self.field("linear")
                for order in (1, 2):
                    with tracer.span("stepping.estimate_coefficient_bound", order=order):
                        estimate_coefficient_bound(field, (0.0, 0.2), np.array([1.0 + 0j]),
                                                   0.5, order)
                with tracer.span("oscillator.v_norm"):
                    v_norm(make_oscillator("cos", OMEGA))
            elif name == "solve_rk4":
                osc = make_oscillator("cos", OMEGA)
                with tracer.span("oracles.rk4_micro_solve") as attrs:
                    traj = rk4_micro_solve(self.field("linear"), osc, 0.0,
                                           np.array([self.u0 + 0j]), 0.2, osc.period / 200.0)
                    attrs["steps"] = len(traj) - 1
        return res

    def _valid(self, name, code, text) -> bool:
        if code != 0:
            return False
        rows = [line.split(",") for line in text.splitlines()]
        header, body = rows[0], rows[1:]
        if "abs_error" in header and name in CLI_ERROR_TOL:
            col = header.index("abs_error")
            errs = [float(row[col]) for row in body]
            if not all(0.0 <= e <= CLI_ERROR_TOL[name] for e in errs):
                return False
        if name == "converge":
            slope = float(body[-1][1])
            return 3.0 <= slope <= 8.0
        if name == "termcount":
            return body == [["3", "2", str(term_count(3, 2))]]
        if name == "stochastic_check":
            return body[0][-1] == "true"
        if name == "bounds":
            return all(row[-1] == "true" for row in body)
        return bool(body)

    def check_round(self, inputs, outputs):
        ok = []
        for inp, out in zip(inputs, outputs):
            if out is None:
                ok.append(False)
                continue
            name = inp["kind"]
            # every later run of a command must repeat the first byte for byte
            first = self._first.setdefault(name, out[1])
            ok.append(out[1] == first and self._valid(name, *out))
        return ok


def macro_vs_rk4_speedup(tracer) -> float:
    """RK4 wall time over macro ``solve`` wall time at matched accuracy on
    linear/cos over [0, 1]: the macro solve is (4,2) with h = 0.02; the RK4
    step is the coarsest of period/(20 * 2^j) whose endpoint error against
    the exact solution is no larger than the macro solve's.  Each side is
    the median of three timed runs; u0 = 1."""
    osc = _oscillator("linear")
    field = make_field(*_field_defs(0)["linear"])
    scheme = build_scheme(osc, TruncationPolicy.from_order(4, 2))
    ref = _exact("linear", osc, 1.0, 1.0)
    u = np.array([1.0 + 0j])

    def timed(fn):
        times, res = [], None
        for _ in range(3):
            t0 = time.perf_counter()
            res = fn()
            times.append(time.perf_counter() - t0)
        return sorted(times)[1], res

    macro_s, traj = timed(lambda: solve(scheme, field, 0.0, u, 1.0, 0.02))
    macro_err = abs(traj[-1][1][0] - ref)
    for j in range(8):
        dt = osc.period / (20 * 2 ** j)
        with tracer.span("oracles.rk4_micro_solve", speedup_probe=True) as attrs:
            rk4_s, traj = timed(lambda: rk4_micro_solve(field, osc, 0.0, u, 1.0, dt))
            attrs["steps"] = 3 * (len(traj) - 1)
        if abs(traj[-1][1][0] - ref) <= macro_err:
            return rk4_s / macro_s
    return math.nan


WORKLOADS = {w.name: w for w in (SolveScalar, PhaseEnsemble, SchemeBuild, CliReadme)}
