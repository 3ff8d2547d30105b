"""In-memory spans for the traced run, and the per-layer metrics derived from them.

A span is recorded around each call the benchmark makes into a layer of
``oscistep``: name, start, end, parent span and trace id (the id of the
root span of the operation that caused it).  Spans stay in memory and are
written out once, as JSON lines, when the run ends.  Nothing here is used
by the untraced run.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager

from oscistep import CoefficientField

# span record layout: [id, name, start, end, parent, trace, attrs]
ID, NAME, START, END, PARENT, TRACE, ATTRS = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span; the caller may add counts to the yielded attrs."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        trace = self.spans[parent][TRACE] if parent is not None else sid
        rec = [sid, name, time.perf_counter(), None, parent, trace, attrs]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield attrs
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, trace, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "trace": trace, "attrs": attrs}) + "\n")


class TimedField(CoefficientField):
    """A coefficient field whose jet evaluations are spans.

    Delegates to the real ``a_jets``/``b_jets``; the spans nest under the
    ``stepping.step`` span that is open when the stepper calls them.
    """

    def __init__(self, m, a, b, tracer: Tracer, name="custom"):
        super().__init__(m, a, b, name=name)
        self.tracer = tracer

    def a_jets(self, t, u, order):
        with self.tracer.span("jets.a_jets", order=order):
            return super().a_jets(t, u, order)

    def b_jets(self, t, u, order):
        with self.tracer.span("jets.b_jets", order=order):
            return super().b_jets(t, u, order)


CLI_COMMANDS = ("step", "solve", "converge", "termcount", "bounds",
                "stochastic_check", "solve_rk4")

# (metric name, unit) in the order they are printed
LAYER_METRICS = (
    ("jets.field_jets_ms_per_step", "ms"),
    ("jets.field_jet_calls_per_step", "count"),
    ("jets.jet_order", "count"),
    ("jets.jet_size", "count"),
    ("oscillator.eval_shifted_ms_per_step", "ms"),
    ("oscillator.phase_average_ms_per_step", "ms"),
    ("stepping.step_ms", "ms"),
    ("stepping.step_other_ms", "ms"),
    ("stepping.entries_per_step", "count"),
    ("terms.enumerate_words_ms", "ms"),
    ("terms.word_primitive_ms", "ms"),
    ("stepping.build_scheme_ms", "ms"),
    ("oscillator.antiderivatives_per_build", "count"),
    ("oscillator.basis_terms_per_build", "count"),
    ("terms.words_per_build", "count"),
    ("stepping.build_scheme_warm_us", "us"),
    ("stepping.scheme_cache_hit_ratio", "ratio"),
    ("oracles.rk4_steps_per_s", "1/s"),
    ("oracles.exact_macro_ms", "ms"),
    ("oracles.quadrature_evals", "count"),
    ("stepping.estimate_coefficient_bound_ms", "ms"),
    ("oscillator.v_norm_ms", "ms"),
) + tuple((f"cli.{c}_ms", "ms") for c in CLI_COMMANDS) + (
    ("macro_vs_rk4_speedup", "ratio"),
    ("trace.overhead_ms_per_op", "ms"),
    ("trace.overhead_ratio", "ratio"),
)


def _mean(xs) -> float:
    return sum(xs) / len(xs) if xs else math.nan


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures from the recorded spans.

    Times per step are means (layer time summed over steps, divided by the
    step count) so that ``step_other_ms`` = step - jets - eval_shifted is
    additive.  A metric whose spans are absent reads NaN.
    """
    dur = lambda s: s[END] - s[START]
    by_name: dict[str, list[list]] = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)
    get = lambda name: by_name.get(name, [])

    steps = get("stepping.step")
    step_ids = {s[ID] for s in steps}
    jets = [s for s in get("jets.a_jets") + get("jets.b_jets") if s[PARENT] in step_ids]
    n = len(steps) or math.nan
    step_ms = 1e3 * sum(map(dur, steps)) / n
    jets_ms = 1e3 * sum(map(dur, jets)) / n
    evals = get("oscillator.eval_shifted")
    eval_ms = 1e3 * sum(map(dur, evals)) / (len(evals) or math.nan)

    cold = get("op:scheme-build")
    builds = get("stepping.build_scheme")
    warm = [s for s in builds if s[ATTRS].get("warm")]
    rk4 = get("oracles.rk4_micro_solve")
    rk4_time = sum(map(dur, rk4))

    out = {
        "jets.field_jets_ms_per_step": jets_ms,
        "jets.field_jet_calls_per_step": len(jets) / n,
        "jets.jet_order": _mean([s[ATTRS]["jet_order"] for s in steps]),
        "jets.jet_size": _mean([s[ATTRS]["jet_size"] for s in steps]),
        "oscillator.eval_shifted_ms_per_step": eval_ms,
        "oscillator.phase_average_ms_per_step":
            1e3 * _mean([dur(s) for s in get("oscillator.phase_average")]),
        "stepping.step_ms": step_ms,
        "stepping.step_other_ms": step_ms - jets_ms - eval_ms,
        "stepping.entries_per_step": _mean([s[ATTRS]["entries"] for s in steps]),
        "terms.enumerate_words_ms":
            1e3 * _mean([dur(s) for s in get("terms.enumerate_words")]),
        "terms.word_primitive_ms":
            1e3 * _mean([dur(s) for s in get("terms.word_primitive")]),
        "stepping.build_scheme_ms":
            1e3 * _mean([dur(s) for s in builds if s[ATTRS].get("after_primitives")]),
        "oscillator.antiderivatives_per_build":
            _mean([s[ATTRS]["antiderivatives"] for s in cold]),
        "oscillator.basis_terms_per_build": _mean([s[ATTRS]["basis_terms"] for s in cold]),
        "terms.words_per_build": _mean([s[ATTRS]["words"] for s in cold]),
        "stepping.build_scheme_warm_us": 1e6 * _mean([dur(s) for s in warm]),
        "stepping.scheme_cache_hit_ratio":
            _mean([float(s[ATTRS]["new_antiderivatives"] == 0) for s in builds]),
        "oracles.rk4_steps_per_s":
            sum(s[ATTRS]["steps"] for s in rk4) / rk4_time if rk4_time else math.nan,
        "oracles.exact_macro_ms":
            1e3 * _mean([dur(s) for s in get("oracles.exact_exp_macro")]),
        "oracles.quadrature_evals":
            _mean([s[ATTRS]["evaluations"] for s in get("oracles.adaptive_quadrature")]),
        "stepping.estimate_coefficient_bound_ms":
            1e3 * _mean([dur(s) for s in get("stepping.estimate_coefficient_bound")]),
        "oscillator.v_norm_ms": 1e3 * _mean([dur(s) for s in get("oscillator.v_norm")]),
    }
    for c in CLI_COMMANDS:
        out[f"cli.{c}_ms"] = 1e3 * _mean([dur(s) for s in get(f"cli.{c}")])
    return out
