"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

run.import_package()

from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("name", [w["name"] for w in BENCH["workloads"]])
def test_smoke_every_workload_prints_the_end_to_end_metrics(name):
    proc = _bench("--workload", name, "--seed", "0", "--seconds", "0.01", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_the_per_layer_metrics():
    proc = _bench("--workload", "cli-readme", "--seed", "0", "--seconds", "0.01",
                  "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    spans = (run.OUT_DIR / "trace-cli-readme-0.jsonl").read_text().splitlines()
    first = json.loads(spans[0])
    assert set(first) == {"id", "name", "start", "end", "parent", "trace", "attrs"}


def _corrupt(inp, out):
    """Scale a state by 1 %, blow up printed errors, or drop a table entry."""
    if isinstance(out, tuple) and isinstance(out[1], str):     # cli: (code, text)
        return out[0], out[1].replace("e-", "e+")
    if isinstance(out, tuple):                                 # scheme-build
        cold, warm = out
        return dataclasses.replace(cold, entries=cold.entries[:-1]), warm
    return out * 1.01


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corrupted_outputs_are_counted_as_failed(name):
    wl = WORKLOADS[name](0)
    clean, bad = run.Records(), run.Records()
    run.run_rounds(wl, clean, 0.0, 0)
    run.run_rounds(WORKLOADS[name](0), bad, 0.0, 0, tamper=_corrupt)
    assert clean.attempted == bad.attempted > 0
    assert clean.failed == 0
    assert bad.failed > 0


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "solve-scalar", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
