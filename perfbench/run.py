"""Host-time benchmark of the qoesched simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the simulator is imported from ``src/`` of
the same checkout, never from an installed copy. A run is a closed loop,
split over ``WORKERS`` measuring processes started one after another, each
with its own fixed ``PYTHONHASHSEED``: string hashing decides dict layouts,
which moved a process's speed by several percent, so every run averages the
same set of layouts. Each worker sets the package up a few times, then runs
units (every simulation of the workload, then ``output.emit``) one after
another for its share of ``--seconds``. The first worker also checks the
workload at the default seed against recorded output digests. The parent
process pools the workers' samples and reports medians.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` the
workers alternate untraced and traced units and it prints the per-layer
metrics (see ``tracer.py``). Every run of every unit is checked for bit
conservation, and every unit's files must be byte-identical to the first
unit's, traced or not, in every worker. The last line of standard output is
one JSON object; the exit code is 0 when every check passed, 1 when one
failed and 2 when the checkout holds no simulator sources.

All times are host times, scaled by the host-speed probe of
``hostspeed.py``. Simulated statistics are not metrics: they are
deterministic and serve as the correctness gate. The model is unvalidated
against real-network measurements, so no accuracy figure is given.

``--smoke`` shrinks every workload for the self-tests; ``--digests`` prints
the default-seed digests that ``reference.json`` records.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import median, quantiles
from types import ModuleType

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (
    ("ue_tti_per_s", "UE-TTI/s", "higher"),
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)
WORKERS = 4           # measuring processes per run, hash seeds 1..WORKERS
SETUP_REPS = 3        # timed set-ups per worker, after one warm-up
MIN_UNITS = 2         # measured units per worker, however short --seconds is
MIN_TRACED_UNITS = 1  # traced units per worker
WORKER_TIMEOUT_S = 150


@dataclass
class Loaded:
    """The freshly imported package and the parsed scenario of a workload."""
    pkg: ModuleType
    engine: ModuleType
    output: ModuleType
    scenario: object


@dataclass
class Unit:
    wall_s: float      # first Simulation.run to the last file emit writes
    run_s: float       # host time inside Simulation.run, summed over runs
    ue_ttis: int
    runs: int
    bad_runs: int      # runs whose per-UE bit accounting does not add up
    digests: dict[str, str]
    rows: int          # CSV data rows written
    bytes: int         # bytes of every file written


def _purge() -> None:
    for name in [m for m in sys.modules if m == "qoesched" or m.startswith("qoesched.")]:
        del sys.modules[name]


def _simulations(loaded: Loaded, wl: workloads.Workload) -> list:
    return [
        loaded.engine.Simulation(loaded.scenario, policy=loaded.pkg.Policy(p),
                                 collect_trace=wl.collect_trace)
        for p in wl.policies
    ]


def load(wl: workloads.Workload, reps: int,
         probes: list[float] | None = None) -> tuple[list[float], list[float], Loaded]:
    """Import the package, parse the scenario and build the simulations.

    Done ``reps`` times after one untimed warm-up that compiles bytecode and
    imports numpy, probing the host speed before each timed set-up. Returns
    the total and parse times of the timed set-ups.
    """
    totals, parses = [], []
    for rep in range(reps + 1):
        if rep and probes is not None:
            probes.append(hostspeed.probe())
        _purge()
        gc.collect()
        t0 = time.perf_counter()
        pkg = importlib.import_module("qoesched")
        output = importlib.import_module("qoesched.output")
        t1 = time.perf_counter()
        scenario = pkg.parse_scenario(wl.scenario_json)
        t2 = time.perf_counter()
        loaded = Loaded(pkg, importlib.import_module("qoesched.engine"), output, scenario)
        _simulations(loaded, wl)
        t3 = time.perf_counter()
        if rep:
            totals.append(t3 - t0)
            parses.append(t2 - t1)
    if Path(pkg.__file__).resolve().parent != SRC / "qoesched":
        raise ImportError(f"qoesched imported from {pkg.__file__}, not from {SRC}")
    return totals, parses, loaded


def conserves(report) -> bool:
    """arrived = delivered + overflow drops + deadline drops + buffered, per UE."""
    for u in report.per_ue:
        parts = (u.delivered_bits, u.dropped_overflow_bits,
                 u.dropped_deadline_bits, u.buffered_bits)
        if min(parts) < 0 or u.arrived_bits != sum(parts):
            return False
    return (report.total_arrived_bits == sum(u.arrived_bits for u in report.per_ue)
            and report.total_delivered_bits == sum(u.delivered_bits for u in report.per_ue))


def run_unit(loaded: Loaded, wl: workloads.Workload, out_dir: Path) -> Unit:
    sims = _simulations(loaded, wl)
    gc.collect()
    reports = []
    run_s = 0.0
    t0 = time.perf_counter()
    for sim in sims:
        r0 = time.perf_counter()
        reports.append(sim.run())
        run_s += time.perf_counter() - r0
    written = loaded.output.emit(reports, loaded.scenario, out_dir, trace=wl.collect_trace)
    wall = time.perf_counter() - t0

    digests, rows, nbytes = {}, 0, 0
    for path in written:
        data = Path(path).read_bytes()
        digests[Path(path).name] = hashlib.sha256(data).hexdigest()
        nbytes += len(data)
        if path.suffix == ".csv":
            rows += data.count(b"\n") - 1
    sc = loaded.scenario
    return Unit(
        wall_s=wall, run_s=run_s, ue_ttis=len(sc.flows) * sc.duration_tti * len(sims),
        runs=len(sims), bad_runs=sum(1 for r in reports if not conserves(r)),
        digests=digests, rows=rows, bytes=nbytes,
    )


class Tally:
    """Counts simulation runs attempted and failed, and why they failed."""

    def __init__(self, runs_per_unit: int):
        self.runs_per_unit = runs_per_unit
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    @property
    def ok(self) -> bool:
        return self.failed == 0 and not self.problems

    def attempt(self, what: str, fn, expected: dict | None) -> Unit | None:
        """Run one unit; a raise, a conservation break or a digest mismatch fails it."""
        try:
            unit = fn()
        except Exception:
            traceback.print_exc()
            self.attempted += self.runs_per_unit
            self.failed += self.runs_per_unit
            self.problems.append(f"{what}: raised")
            return None
        self.attempted += unit.runs
        bad = unit.bad_runs
        if bad:
            self.problems.append(f"{what}: {bad} run(s) break bit conservation")
        if expected is not None and unit.digests != expected:
            bad = unit.runs
            self.problems.append(f"{what}: outputs differ from the reference {_diff(expected, unit.digests)}")
        self.failed += bad
        return unit


def _diff(expected: dict, got: dict) -> list[str]:
    return sorted(k for k in set(expected) | set(got) if expected.get(k) != got.get(k))


def _spread(xs: list[float]) -> str:
    if len(xs) < 2:
        return f"n={len(xs)}"
    q1, _, q3 = quantiles(xs, n=4)
    return f"q1 {q1:.6g}, q3 {q3:.6g}, n={len(xs)}"


def measure(loaded: Loaded, wl: workloads.Workload, seconds: float, tally: Tally,
            expected: dict | None, tr: tracer.Tracer | None, probes: list[float]):
    """Run units until ``seconds`` have passed; with a tracer, alternate.

    Probes the host speed before every unit. Returns the untraced units, the
    traced units and their trace summaries.
    """
    out_dir = OUT / wl.name
    plain, traced, summaries = [], [], []
    deadline = time.perf_counter() + seconds
    while tally.ok:
        probes.append(hostspeed.probe())
        unit = tally.attempt("unit", lambda: run_unit(loaded, wl, out_dir), expected)
        if unit is None:
            break
        expected = expected or unit.digests
        plain.append(unit)
        if tr is not None:
            probes.append(hostspeed.probe())
            tr.reset()
            tr.install()
            try:
                unit = tally.attempt("traced unit", lambda: run_unit(loaded, wl, out_dir), expected)
            finally:
                tr.remove()
            if unit is None:
                break
            traced.append(unit)
            summaries.append(tr.summary())
        enough = len(traced) >= MIN_TRACED_UNITS if tr is not None else len(plain) >= MIN_UNITS
        if enough and time.perf_counter() >= deadline:
            break
    return plain, traced, summaries


def unit_layer_metrics(s: dict, unit: Unit) -> dict[str, float]:
    """Per-layer metrics of one traced unit, from its trace summary."""
    calls, counts, self_s = s["calls"], s["counts"], s["self_s"]

    def n(*names: str) -> int:
        return sum(calls.get(name, 0) for name in names)

    def per(seconds: float, count: int) -> float:
        return seconds / count * 1e6 if count else 0.0

    steps = s["step_us"]
    enqueues, selects = n("UeBuffer.enqueue"), n("engine.select")
    return {
        "engine.self_s": self_s["engine"],
        "engine.step_us_p50": float(np.percentile(steps, 50)) if len(steps) else 0.0,
        "engine.step_us_p99": float(np.percentile(steps, 99)) if len(steps) else 0.0,
        "engine.ttis": n("Simulation.step"),
        "traffic.calls": n("engine.arrivals"),
        "traffic.packets": counts["packets"],
        "traffic.self_s": self_s["traffic"],
        "traffic.us_per_packet": per(self_s["traffic"], counts["packets"]),
        "traffic.adjustments": n("engine.apply_adjustment"),
        "buffering.enqueues": enqueues,
        "buffering.accept_ratio": counts["accepted"] / enqueues if enqueues else 0.0,
        "buffering.expire_drops": counts["expire_drops"],
        "buffering.drain_splits": counts["drain_splits"],
        "buffering.self_s": self_s["buffering"],
        "channel.calls": n("engine.cqi_step", "engine.rate_of"),
        "channel.self_s": self_s["channel"],
        "qoe.calls": sum(v for k, v in calls.items() if k.startswith("QoeState.")),
        "qoe.self_s": self_s["qoe"],
        "scheduler.selects": selects,
        "scheduler.candidates": counts["candidates"],
        "scheduler.idle_ratio": counts["idle"] / selects if selects else 0.0,
        "scheduler.self_s": self_s["scheduler"],
        "scheduler.us_per_candidate": per(self_s["scheduler"], counts["candidates"]),
        "metrics.window_closes": n("MetricsWindow.close"),
        "metrics.self_s": self_s["metrics"],
        "output.rows": unit.rows,
        "output.bytes": unit.bytes,
        "output.self_s": self_s["output"],
        "output.us_per_row": per(self_s["output"], unit.rows),
    }


def host_facts() -> str:
    return (f"host: nproc {os.cpu_count()}, Python {platform.python_version()}, "
            f"numpy {np.__version__}, {platform.machine()}")


def digests_for(name: str) -> dict:
    """Default-seed output digests of a workload at both sizes."""
    result = {}
    for size, smoke in (("full", False), ("smoke", True)):
        wl = workloads.build(name, workloads.DEFAULT_SEED, smoke, ROOT)
        _, _, loaded = load(wl, 1)
        result[size] = run_unit(loaded, wl, OUT / name).digests
    return result


def worker(args) -> int:
    """Measure in this process and print its raw samples as one JSON line."""
    wl = workloads.build(args.workload, args.seed, args.smoke, ROOT)
    setup_probes: list[float] = []
    totals, parses, loaded = load(wl, SETUP_REPS, setup_probes)
    tally = Tally(len(wl.policies))
    expected = None
    if args.worker == 0:
        size = "smoke" if args.smoke else "full"
        reference = json.loads((HERE / "reference.json").read_text())[args.workload][size]
        wl_default = workloads.build(args.workload, workloads.DEFAULT_SEED, args.smoke, ROOT)
        default = replace(loaded, scenario=loaded.pkg.parse_scenario(wl_default.scenario_json))
        tally.attempt(f"default seed {workloads.DEFAULT_SEED}",
                      lambda: run_unit(default, wl_default, OUT / wl.name), reference)
        if args.seed == workloads.DEFAULT_SEED:
            expected = reference

    tr = None
    if args.trace:
        tr = tracer.Tracer(loaded.engine, loaded.output)
        tr.calibrate()
    plain, traced, summaries, probes = [], [], [], []
    if tally.ok:
        plain, traced, summaries = measure(loaded, wl, args.seconds, tally, expected, tr, probes)
    if tr is not None and tally.ok and args.worker == WORKERS - 1:
        tr.write(OUT / wl.name / "spans", {"workload": wl.name, "seed": args.seed})

    sc = loaded.scenario
    print(json.dumps({
        "ok": tally.ok, "attempted": tally.attempted, "failed": tally.failed,
        "problems": tally.problems,
        "shape": [len(sc.flows), sc.duration_tti, len(wl.policies)],
        "setup": {"totals": totals, "parses": parses, "probes": setup_probes},
        "probes": probes,
        "units": [[u.ue_ttis, u.run_s, u.wall_s] for u in plain],
        "digests": plain[0].digests if plain else {},
        "traced_walls": [u.wall_s for u in traced],
        "layers": [unit_layer_metrics(s, u) for s, u in zip(summaries, traced)],
        "self_s": [s["self_s"] for s in summaries],
        "tracer_ns": [tr.outer_ns, tr.inner_ns] if tr is not None else [],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))
    return 0


def run_worker(args, index: int) -> dict | None:
    """Run one worker process to completion and return its samples."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds / WORKERS),
           "--trace", str(args.trace), "--worker", str(index)]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ, PYTHONHASHSEED=str(index + 1))
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker {index} timed out", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def end_to_end(records: list[dict]) -> dict[str, float]:
    """End-to-end metrics over every worker's untraced units."""
    units = [u for r in records for u in r["units"]]
    rates = [ue_ttis / run_s for ue_ttis, run_s, _ in units]
    walls = [wall for _, _, wall in units]
    scale = hostspeed.REFERENCE_S / median(p for r in records for p in r["probes"])
    setup = median(t for r in records for t in r["setup"]["totals"])
    setup_scale = hostspeed.REFERENCE_S / median(p for r in records for p in r["setup"]["probes"])
    values = {
        "ue_tti_per_s": median(rates) / scale,
        "wall_s": median(walls) * scale,
        "setup_s": setup * setup_scale,
        "peak_rss_mb": max(r["rss_mb"] for r in records),
    }
    notes = {
        "ue_tti_per_s": f"unscaled median {median(rates):.6g}, {_spread(rates)}",
        "wall_s": f"unscaled median {median(walls):.6g}, {_spread(walls)}",
        "setup_s": f"unscaled {setup:.6g}, median of {WORKERS * SETUP_REPS} set-ups",
        "peak_rss_mb": f"largest of {WORKERS} worker processes",
    }
    print(f"  host time scale {scale:.4f} (set-up {setup_scale:.4f})")
    for name, unit, _ in END_TO_END:
        print(f"  {name:<14} {values[name]:.6g} {unit}  {notes[name]}")
    return values


def layers(records: list[dict], problems: list[str]) -> dict[str, float]:
    """Per-layer metrics over every worker's traced units."""
    per_unit = [m for r in records for m in r["layers"]]
    scale = hostspeed.REFERENCE_S / median(p for r in records for p in r["probes"])
    setup_scale = hostspeed.REFERENCE_S / median(p for r in records for p in r["setup"]["probes"])
    values = {}
    for name, unit, _ in tracer.PER_LAYER:
        column = [m[name] for m in per_unit if name in m]
        if not column:
            continue
        if unit == "count" and len(set(column)) > 1:
            problems.append(f"{name} differs between traced units: {sorted(set(column))}")
        if unit == "count":
            values[name] = column[0]
        else:
            values[name] = median(column) * (scale if unit in ("s", "us") else 1.0)
    values["scenario.parse_s"] = median(t for r in records for t in r["setup"]["parses"]) * setup_scale
    plain_walls = [wall for r in records for _, _, wall in r["units"]]
    traced_walls = [w for r in records for w in r["traced_walls"]]
    values["trace.overhead_ratio"] = median(traced_walls) / median(plain_walls)

    self_s = {layer: median(s[layer] for r in records for s in r["self_s"])
              for layer in tracer.LAYERS}
    total = sum(self_s.values())
    outer = median(r["tracer_ns"][0] for r in records)
    inner = median(r["tracer_ns"][1] for r in records)
    print(f"  host time scale {scale:.4f}; {len(per_unit)} traced units; unscaled traced self "
          f"time {total:.6g} s vs untraced wall {median(plain_walls):.6g} s; tracer cost per "
          f"span {outer:.0f} ns outside, {inner:.0f} ns inside")
    for layer in tracer.LAYERS:
        print(f"  self share {layer:<10} {100 * self_s[layer] / total:5.1f} %")
    for name, unit, _ in tracer.PER_LAYER:
        print(f"  {name:<27} {values[name]:.6g} {unit}")
    return values


def parse_args(argv):
    p = argparse.ArgumentParser(description="Host-time benchmark of the qoesched simulator.")
    p.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="shrink the workload for self-tests")
    p.add_argument("--digests", action="store_true",
                   help="print the default-seed output digests and exit")
    p.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qoesched" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC / 'qoesched'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.digests:
        print(json.dumps(digests_for(args.workload), indent=2, sort_keys=True))
        return 0
    if args.worker is not None:
        return worker(args)

    print(host_facts())
    records, problems = [], []
    for index in range(WORKERS):
        record = run_worker(args, index)
        if record is None:
            problems.append(f"worker {index} gave no result")
        else:
            records.append(record)
            problems.extend(f"worker {index}: {p}" for p in record["problems"])
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len({json.dumps(r["digests"], sort_keys=True) for r in records}) > 1:
        problems.append("outputs differ between worker processes")

    metrics: dict[str, dict] = {}
    if not problems and failed == 0:
        ues, ttis, policies = records[0]["shape"]
        print(f"workload {args.workload} seed {args.seed}: {ues} UEs x {ttis} TTIs x "
              f"{policies} policies per unit, {sum(len(r['units']) for r in records)} units "
              f"in {WORKERS} workers")
        if args.trace:
            values, declared = layers(records, problems), tracer.PER_LAYER
        else:
            values, declared = end_to_end(records), END_TO_END
        if not problems:
            metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in declared}

    fail_ratio = failed / attempted if attempted else 1.0
    print(f"  fail_ratio     {fail_ratio:.6g} ratio  ({failed} of {attempted} runs)")
    for problem in problems:
        print(f"  FAILED: {problem}")
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
