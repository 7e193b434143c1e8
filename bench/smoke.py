"""The benchmark's own test, at tiny size (about half a minute).

    python3 bench/smoke.py

Checks that:
* every workload, untraced and traced, prints a last line with exactly the
  keys correct/attempted/failed/metrics and every metric that BENCHMARK.json
  names, with its unit, and no failed item;
* a corrupted figure digest, threshold reference or bistable reference is
  counted as failed, while the true references pass;
* a traced run survives a hooked function that is gone (reported absent)
  and reports zero calls for hooks the workload never reaches;
* a directory that holds only BENCHMARK.json and the benchmark fails with a
  non-zero exit and prints no result.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402  (puts src/ on sys.path)
import workloads  # noqa: E402


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def check_metric_names() -> None:
    spec = _spec()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[section]}
        for name in workloads.WORKLOADS:
            command = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "3",
                       "--seconds", "1", "--trace", str(trace), "--tiny"]
            out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
            assert out.returncode == 0, f"{name} trace={trace}: exit {out.returncode}\n{out.stderr}"
            result = json.loads(out.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected, f"{name} trace={trace}: {set(got) ^ set(expected)}"
            for key, metric in result["metrics"].items():
                assert math.isfinite(metric["value"]), (key, metric)
            print(f"ok   metrics {name} trace={trace}")


def _corrupt_figure(ref: dict) -> None:
    digest = ref["figures"]["fig1a"]
    ref["figures"]["fig1a"] = ("0" if digest[0] != "0" else "1") + digest[1:]


def _corrupt_threshold(ref: dict) -> None:
    ref["threshold"][1] *= 1.01


def _corrupt_bistable(ref: dict) -> None:
    # first item with an ok branch; perturb its eta far beyond 1e-9 relative
    for branches in ref["bistable"][: workloads.TINY_ITEMS]:
        for branch in branches:
            if branch[0] == "ok":
                branch[1] *= 1.0 + 1e-7
                return
    raise AssertionError("no ok branch among the tiny bistable items")


def check_corruption_caught() -> None:
    reference = json.loads((BENCH / "reference.json").read_text())
    cases = (("figures", _corrupt_figure), ("threshold", _corrupt_threshold),
             ("bistable", _corrupt_bistable))
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        args = argparse.Namespace(seconds=0.2, trace=0, out_dir=tmp)
        for name, corrupt in cases:
            bad = copy.deepcopy(reference)
            corrupt(bad)
            for ref, should_fail in ((reference, False), (bad, True)):
                wl = workloads.make(name, workloads.DEFAULT_SEED, ref, Path(tmp), tiny=True)
                result = worker._measure(wl, args)
                assert (result["failed"] > 0) == should_fail, (name, should_fail, result)
            print(f"ok   corrupted {name} reference counted as failed ({result['errors'][0]})")


def check_missing_hooks() -> None:
    from oment import sweep

    emit = sweep.emit
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        args = argparse.Namespace(seconds=0.2, trace=1, out_dir=tmp, seed=3)
        wl = workloads.make("threshold", 3, {"figures": {}}, Path(tmp), tiny=True)
        del sweep.emit
        try:
            result = worker._measure(wl, args)
        finally:
            sweep.emit = emit
    assert result["absent_hooks"] == ["sweep.emit"], result["absent_hooks"]
    assert result["failed"] == 0, result["errors"]
    layers = result["layers"]
    assert layers["sweep.emit.calls"][0] == 0 and layers["cli.main.calls"][0] == 0, layers
    assert layers["sweep.nth_entanglement_threshold.calls"][0] == workloads.TINY_ITEMS, layers
    print("ok   missing hook reported absent, unreached hooks report 0 calls")


def check_fails_without_sources() -> None:
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / BENCH.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        command = [sys.executable, f"{BENCH.name}/run.py", "--workload", "threshold",
                   "--seed", "1", "--seconds", "1", "--trace", "0"]
        out = subprocess.run(command, cwd=tmp, capture_output=True, text=True, timeout=180)
        assert out.returncode != 0, out
        assert '"metrics"' not in out.stdout, out.stdout
    print("ok   no sources: exit", out.returncode, "and no result")


if __name__ == "__main__":
    check_corruption_caught()
    check_missing_hooks()
    check_fails_without_sources()
    check_metric_names()
    print("smoke test passed")
