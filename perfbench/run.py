"""oscistep benchmark: seeded workloads against the public API, outputs checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload solve-scalar --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs a short untraced window, then the same workload with
spans around every call into a layer, then one traced round of each other
workload so that every layer is measured, and reports the per-layer
metrics and the tracing overhead; spans are written to
``.perfbench_out/trace-<workload>-<seed>.jsonl``.

Every line before the last is a human-readable report; the last line is
one JSON object with the keys correct, attempted, failed and metrics.
The package is imported from ``src/`` of the checkout the script sits in,
and nowhere else.  Single process, single thread.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np

from calibrate import CALIBRATION_NOMINAL_S, reference_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_REPEATS = 7
MEMORY_ROUNDS = 5         # peak RSS is read after this many rounds
TAIL_GRID = (50.0, 75.0, 90.0, 95.0, 99.0)
TRACE_REFERENCE_SHARE = 1.0 / 3.0   # of --seconds, untraced, in a traced run

# one fresh interpreter: import the package and build the workload's
# schemes cold, then print its own speed factor; argv = [src, perfbench dir,
# json list of scheme specs]
SETUP_CODE = """
import json, sys
sys.path[:0] = sys.argv[1:3]
from oscistep import TruncationPolicy, build_scheme, make_oscillator
for s in json.loads(sys.argv[3]):
    coeffs = {int(k): complex(*v) for k, v in s["coeffs"].items()} if "coeffs" in s else None
    osc = make_oscillator(s["kind"], 100.0, 0.0, s["nu"], coeffs)
    build_scheme(osc, TruncationPolicy.from_order(s["kappa"], s["rho"], s["nu"]),
                 s.get("truncate", True))
from calibrate import CALIBRATION_NOMINAL_S, reference_s
print(CALIBRATION_NOMINAL_S / reference_s(5))
"""


def import_package():
    """Import oscistep from this checkout's src/, or exit with code 2."""
    if not (SRC / "oscistep" / "__init__.py").is_file():
        print(f"error: no oscistep package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import oscistep
    if SRC not in Path(oscistep.__file__).resolve().parents:
        print(f"error: oscistep imported from {oscistep.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return oscistep


# -- measurement ----------------------------------------------------------------

class Records:
    """Per-operation outcomes of a run: kind, seconds, round, failure."""

    def __init__(self):
        self.kinds: list[str] = []
        self.times: list[float] = []
        self.round_times: list[float] = []
        self.raw_round_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.first_error: str | None = None
        self.rss_mb: float | None = None


def run_rounds(wl, records: Records, seconds: float, first_round: int,
               tracer=None, tamper=None, min_rounds: int = 1) -> int:
    """Run whole rounds until `seconds` of wall time have passed and at
    least `min_rounds` ran; only the operations themselves are timed.

    The calibration loop runs right before and right after each operation
    (one run serves as the "after" of an operation and the "before" of the
    next), and the operation's time is scaled by CALIBRATION_NOMINAL_S over
    the mean of the two, so that the shared machine's changing speed
    cancels out.  Outputs are checked after the loop.  Returns the next
    round index.
    """
    pending = []
    r = first_round
    deadline = time.perf_counter() + seconds
    while True:
        inputs = wl.round_inputs(r)
        outputs, raw, scaled = [], [], []
        before = reference_s()
        for inp in inputs:
            t0 = time.perf_counter()
            try:
                out = wl.run(inp) if tracer is None else wl.run_traced(inp, tracer)
            except Exception:   # an operation that raises is counted as failed
                out = None
                if records.first_error is None:
                    records.first_error = traceback.format_exc()
            dt = time.perf_counter() - t0
            after = reference_s()
            outputs.append(out)
            raw.append(dt)
            scaled.append(dt * CALIBRATION_NOMINAL_S / (0.5 * (before + after)))
            before = after
        records.kinds.extend(inp["kind"] for inp in inputs)
        records.times.extend(scaled)
        records.round_times.append(sum(scaled))
        records.raw_round_times.append(sum(raw))
        pending.append((inputs, outputs))
        r += 1
        if records.rss_mb is None and r - first_round >= MEMORY_ROUNDS:
            records.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if r - first_round >= min_rounds and time.perf_counter() >= deadline:
            break
    for inputs, outputs in pending:
        if tamper is not None:
            outputs = [None if o is None else tamper(i, o) for i, o in zip(inputs, outputs)]
        try:
            ok = wl.check_round(inputs, outputs)
        except Exception:
            ok = [False] * len(inputs)
            if records.first_error is None:
                records.first_error = traceback.format_exc()
        records.attempted += len(ok)
        records.failed += sum(not x for x in ok)
    return r


def median_setup_s(wl) -> float:
    """Median wall time of fresh interpreters that import the package and
    build the workload's schemes cold.

    Each is scaled by the speed factor the interpreter measures itself at
    the end: the parent's own factor does not track the child, which may
    run on the other core."""
    specs = json.dumps(wl.setup_specs())
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE), specs],
                              capture_output=True, text=True, timeout=120)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"setup interpreter failed:\n{proc.stderr}")
        times.append(dt * float(proc.stdout.split()[-1]))
    return statistics.median(times)


def p50_ms(records: Records) -> float:
    """Geometric mean over operation kinds of each kind's median time."""
    by_kind: dict[str, list[float]] = {}
    for k, t in zip(records.kinds, records.times):
        by_kind.setdefault(k, []).append(t)
    logs = [math.log(statistics.median(ts)) for ts in by_kind.values()]
    return 1e3 * math.exp(sum(logs) / len(logs))


def tail_ms(records: Records, pct: float) -> tuple[float, float, int]:
    """The workload's fixed tail percentile over all operation times, or
    the highest grid percentile below it that leaves at least ten samples
    beyond it.  Returns (ms, percentile used, sample count)."""
    n = len(records.times)
    p = max([q for q in TAIL_GRID if q <= pct and n * (1.0 - q / 100.0) >= 10.0],
            default=TAIL_GRID[0])
    idx = max(0, min(n - 1, math.ceil(p / 100.0 * n) - 1))
    return 1e3 * sorted(records.times)[idx], p, n


def end_to_end(wl, records: Records, setup_s: float) -> tuple[dict, dict]:
    """(contract metrics, report figures under the workload's own names)."""
    round_s = statistics.median(records.round_times)
    rate = wl.units_per_round / round_s
    p50 = p50_ms(records)
    tail, pct, n = tail_ms(records, wl.tail_pct)
    metrics = {
        "throughput_per_s": (rate, "1/s"),
        "op_ms_p50": (p50, "ms"),
        "op_ms_tail": (tail, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (records.rss_mb, "MB"),
    }
    report = {
        wl.rate_name: (rate, f"{wl.unit}/s"),
        f"{wl.latency_name}.p50": (p50, "ms"),
        f"{wl.latency_name}.tail": (tail, f"ms (p{pct:g} of {n} operations)"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (records.rss_mb, "MB"),
    }
    if wl.name == "cli-readme":
        report["cli_suite_s"] = (round_s, "s")
    report["speed_factor"] = (round_s / statistics.median(records.raw_round_times),
                              "nominal/measured")
    return metrics, report


# -- the two kinds of run -------------------------------------------------------

def outcome(*parts: Records) -> Records:
    """Attempted and failed operations summed over several record sets."""
    total = Records()
    for rec in parts:
        total.attempted += rec.attempted
        total.failed += rec.failed
        total.first_error = total.first_error or rec.first_error
    return total


def run_untraced(wl, seconds: float):
    setup_s = median_setup_s(wl)
    warm_up = Records()     # one round fills the caches; checked, not timed
    r = run_rounds(wl, warm_up, 0.0, 0)
    records = Records()
    run_rounds(wl, records, seconds, r, min_rounds=MEMORY_ROUNDS)
    metrics, report = end_to_end(wl, records, setup_s)
    total = outcome(warm_up, records)
    report["failed_ratio"] = (total.failed / total.attempted, "ratio")
    return total, metrics, report


def run_traced(wl, seconds: float, workloads: dict):
    from tracing import LAYER_METRICS, Tracer, layer_metrics
    from workloads import macro_vs_rk4_speedup

    warm_up = Records()
    r = run_rounds(wl, warm_up, 0.0, 0)
    reference = Records()
    r = run_rounds(wl, reference, TRACE_REFERENCE_SHARE * seconds, r)

    tracer = Tracer()
    traced = Records()
    run_rounds(wl, traced, (1.0 - TRACE_REFERENCE_SHARE) * seconds, r, tracer=tracer)
    # one traced round of every other workload covers the layers this one skips
    probes = Records()
    for name, cls in workloads.items():
        if name != wl.name:
            run_rounds(cls(wl.seed), probes, 0.0, 0, tracer=tracer)

    speedup = macro_vs_rk4_speedup(tracer)
    # per-layer times get the traced window's speed factor, like op times
    factor = sum(traced.round_times) / sum(traced.raw_round_times)
    units = dict(LAYER_METRICS)
    values = {}
    for name, v in layer_metrics(tracer.spans).items():
        if units[name] in ("ms", "us"):
            v *= factor
        elif units[name] == "1/s":
            v /= factor
        values[name] = v
    values["macro_vs_rk4_speedup"] = speedup
    untraced_ms, traced_ms = p50_ms(reference), p50_ms(traced)
    values["trace.overhead_ms_per_op"] = traced_ms - untraced_ms
    values["trace.overhead_ratio"] = traced_ms / untraced_ms - 1.0
    missing = [n for n, _ in LAYER_METRICS if not math.isfinite(values.get(n, math.nan))]
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {missing}")

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"trace-{wl.name}-{wl.seed}.jsonl")
    total = outcome(warm_up, reference, traced, probes)
    metrics = {n: (values[n], unit) for n, unit in LAYER_METRICS}
    report = dict(metrics)
    report["untraced_op_ms.p50"] = (untraced_ms, "ms")
    report["traced_op_ms.p50"] = (traced_ms, "ms")
    report["failed_ratio"] = (total.failed / total.attempted, "ratio")
    return total, metrics, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    oscistep = import_package()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choices: {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed)
    if args.trace:
        records, metrics, report = run_traced(wl, args.seconds, WORKLOADS)
    else:
        records, metrics, report = run_untraced(wl, args.seconds)

    env = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "python": platform.python_version(),
           "numpy": np.__version__, "oscistep": oscistep.__version__,
           "nproc": len(os.sched_getaffinity(0))}
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in report.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    if records.first_error:
        print("# first failure:\n" + records.first_error.rstrip(), file=sys.stderr)
    print(json.dumps({**env, "report": {n: {"value": v, "unit": u}
                                        for n, (v, u) in report.items()}}))
    print(json.dumps({
        "correct": records.failed == 0,
        "attempted": records.attempted,
        "failed": records.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
