"""Seeded scenario generators for the benchmark workloads.

Each workload is a scenario in the JSON form that ``parse_scenario`` accepts,
plus the policies it is run under and whether the simulator keeps its
per-TTI trace. The workload seed is also the simulation seed, so the same
seed always gives the same inputs and the same outputs.

The generators vary composition with the seed (class mix, loads, CQIs,
packet sizes, UE count) but hold the amount of simulated work nearly
constant: the run length is set from the UE count so that UE-TTIs per run
stay fixed, and per-UE loads are drawn around fixed means. Host time then
depends on the code, not on which seed a run was given.

Only ``random.Random.random`` is used to draw, because its sequence is
stable across Python versions.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 1
TABLE1 = Path("src/qoesched/scenarios/table1.json")

# Run length per simulation, full size and smoke size: TTIs for table1,
# UE-TTIs for the generated cells. A measured unit takes about 0.5 s of host
# time, so a run of a few tens of seconds gives a median over many units.
TABLE1_TTI = {False: 1_200, True: 100}
DENSE_UE_TTI = {False: 50_000, True: 2_000}
FLOOD_UE_TTI = {False: 4_000, True: 400}


@dataclass(frozen=True)
class Workload:
    name: str
    scenario_json: str
    policies: tuple[str, ...]
    collect_trace: bool


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.random()


def _int(rng: random.Random, lo: int, hi: int) -> int:
    """Integer drawn uniformly from lo..hi inclusive."""
    return lo + int((hi - lo + 1) * rng.random())


def table1_sweep(seed: int, smoke: bool, root: Path) -> Workload:
    """The bundled paper scenario, shortened, under all four policies."""
    raw = json.loads((root / TABLE1).read_text())
    raw["duration_tti"] = TABLE1_TTI[smoke]
    raw["seed"] = seed
    return Workload("table1_sweep", json.dumps(raw), ("BCQQ", "MLWDF", "PF", "RR"), False)


def dense_cell(seed: int, smoke: bool, root: Path) -> Workload:
    """~100 lightly loaded FTP and video UEs with short metric windows."""
    rng = random.Random(seed)
    n = _int(rng, 96, 104)
    video_share = _uniform(rng, 0.15, 0.25)
    flows = []
    for ue in range(1, n + 1):
        alpha = 10.0 ** -_uniform(rng, 2.0, 6.0)
        if rng.random() < video_share:
            load = _uniform(rng, 2e6, 6e6)
            interval = 33 if rng.random() < 0.5 else 40
            flows.append({
                "ue_id": ue, "class": "live_hd_video", "alpha": alpha,
                "beta_ms": _int(rng, 100, 200), "offered_load_bps": load,
                "max_packet_bits": int(3 * load * interval / 1000),
                "frame_interval_ms": interval, "adaptive": False,
            })
        else:
            flows.append({
                "ue_id": ue, "class": "ftp_download", "alpha": alpha,
                "beta_ms": _int(rng, 150, 300),
                "offered_load_bps": _uniform(rng, 2e5, 6e5),
                "mean_packet_bits": _int(rng, 50_000, 150_000), "adaptive": False,
            })
    scenario = {
        "name": f"dense_cell_{seed}",
        "duration_tti": max(1, round(DENSE_UE_TTI[smoke] / n)),
        "seed": seed,
        "policy": "BCQQ",
        "buffersize_bits": 2_000_000,
        "window_tti": 100,
        "channel": {
            "peak_rate_bps": 2e9,
            "walk_prob": 0.1,
            "initial_cqi": [_int(rng, 3, 15) for _ in range(n)],
        },
        "qoe": {"q_max": 100.0, "feedback_delay_tti": _int(rng, 1, 10)},
        "flows": flows,
    }
    return Workload("dense_cell", json.dumps(scenario), ("BCQQ",), False)


def flood_traced(seed: int, smoke: bool, root: Path) -> Workload:
    """A few adaptive FTP UEs flooded with small packets, traced per TTI.

    The cell is about twice overloaded, buffers are small and delay bounds
    tight, so tail drops, deadline drops, split drains and load
    adjustments all happen in every run.
    """
    rng = random.Random(seed)
    n = _int(rng, 3, 5)
    weights = [_uniform(rng, 0.8, 1.2) for _ in range(n)]
    scale = n / sum(weights)
    flows = []
    for ue, w in enumerate(weights, start=1):
        mean_bits = _int(rng, 1_200, 1_800)
        pkts_per_tti = 12.0 * w * scale
        flows.append({
            "ue_id": ue, "class": "ftp_download",
            "alpha": 10.0 ** -_uniform(rng, 2.0, 6.0),
            "beta_ms": _int(rng, 5, 9),
            "offered_load_bps": pkts_per_tti * mean_bits * 1000.0,
            "mean_packet_bits": mean_bits, "adaptive": True,
        })
    scenario = {
        "name": f"flood_traced_{seed}",
        "duration_tti": max(1, round(FLOOD_UE_TTI[smoke] / n)),
        "seed": seed,
        "policy": "BCQQ",
        "buffersize_bits": 40_000,
        "window_tti": 250,
        "channel": {
            "peak_rate_bps": 15e6 * n,
            "walk_prob": 0.2,
            "initial_cqi": [_int(rng, 8, 13) for _ in range(n)],
        },
        "qoe": {"q_max": 20.0, "feedback_delay_tti": 0},
        "adjustment": {
            "enabled": True, "occupancy_threshold": 0.7,
            "starvation_tti": 40, "factor": 0.99,
        },
        "flows": flows,
    }
    return Workload("flood_traced", json.dumps(scenario), ("BCQQ",), True)


GENERATORS = {
    "table1_sweep": table1_sweep,
    "dense_cell": dense_cell,
    "flood_traced": flood_traced,
}


def build(name: str, seed: int, smoke: bool, root: Path) -> Workload:
    return GENERATORS[name](seed, smoke, root)
