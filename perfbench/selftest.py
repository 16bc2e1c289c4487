"""Self-tests of the benchmark.

    python3 -m pytest perfbench/selftest.py
    python3 perfbench/selftest.py

They run every workload at smoke size in a fresh process, exactly as the
benchmark command does, so they take a minute or so.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _bench(workload: str, trace: int, seed: int = workloads.DEFAULT_SEED,
           cwd: Path = ROOT, script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(workload: str, trace: int, seed: int = workloads.DEFAULT_SEED) -> dict:
    proc = _bench(workload, trace, seed)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_declared_metrics_match_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.GENERATORS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(tracer.PER_LAYER)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m["unit"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_seed_fixes_the_inputs():
    for name in workloads.GENERATORS:
        a = workloads.build(name, 5, False, ROOT)
        assert a == workloads.build(name, 5, False, ROOT)
        assert a != workloads.build(name, 6, False, ROOT)


def test_every_workload_runs_at_smoke_size():
    for name in workloads.GENERATORS:
        for trace, declared in ((0, run.END_TO_END), (1, tracer.PER_LAYER)):
            res = _result(name, trace)
            assert set(res) == {"correct", "attempted", "failed", "metrics"}
            assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
            assert list(res["metrics"]) == [n for n, _, _ in declared]
            for metric, (_, unit, _) in zip(res["metrics"].values(), declared):
                assert metric["unit"] == unit
                assert isinstance(metric["value"], (int, float))


def test_layer_counts_repeat_across_traced_runs():
    for name in workloads.GENERATORS:
        first = _result(name, 1, seed=7)["metrics"]
        second = _result(name, 1, seed=7)["metrics"]
        for count in tracer.EXACT_COUNTS:
            assert first[count]["value"] == second[count]["value"], (name, count)
        for count in ("traffic.packets", "buffering.enqueues", "scheduler.selects",
                      "metrics.window_closes"):
            assert first[count]["value"] > 0, (name, count)


def test_fails_without_the_simulator_sources():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "perfbench")
    try:
        proc = _bench("dense_cell", 0, cwd=bare, script=bare / "perfbench" / "run.py")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    failed = 0
    for test_name, fn in list(globals().items()):
        if test_name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {test_name}")
            except AssertionError as e:
                failed += 1
                print(f"FAIL {test_name}: {e}")
    sys.exit(1 if failed else 0)
