"""End-to-end acceptance gate.

Each ``test_cNN_*`` function checks one release criterion at its stated
tolerance and runtime budget; tests/conftest.py prints a one-line verdict
per criterion at the end of the session. Slow multi-seed runs are shared
through session-scoped fixtures so the whole gate stays within budget.
"""
from __future__ import annotations

import dataclasses
import filecmp
import math
import time
from dataclasses import replace
from importlib import resources
from itertools import groupby
from operator import itemgetter

import numpy as np
import pytest

from qoesched.engine import Scenario, Simulation, run
from qoesched.metrics import jfi, qoe_fi
from qoesched.output import emit
from qoesched.scenario import parse_scenario
from qoesched.scheduler import (
    TTIS_PER_SECOND,
    Policy,
    UeSchedInput,
    bcqq_priority,
    qos_weight,
    select,
)
from qoesched.traffic import FlowSpec, TrafficClass


def table1_scenario() -> Scenario:
    text = resources.files("qoesched").joinpath("scenarios/table1.json").read_text()
    return parse_scenario(text)


def ftp(ue_id, load, alpha=1e-6, beta_ms=300, adaptive=False,
        mean_packet_bits=500_000):
    return FlowSpec(ue_id=ue_id, traffic_class=TrafficClass.FTP_DOWNLOAD,
                    alpha=alpha, beta_ms=beta_ms, offered_load_bps=load,
                    adaptive=adaptive, mean_packet_bits=mean_packet_bits)


def video(ue_id, load, alpha=1e-6, beta_ms=150):
    return FlowSpec(ue_id=ue_id, traffic_class=TrafficClass.LIVE_HD_VIDEO,
                    alpha=alpha, beta_ms=beta_ms, offered_load_bps=load,
                    max_packet_bits=2_000_000)


# --- criterion 1: Jain fairness index unit oracle -------------------------

def test_c01_jfi_unit_oracle():
    start = time.monotonic()
    assert abs(jfi([1.0, 2.0, 3.0]) - 6.0 / 7.0) < 1e-12
    for n in (1, 2, 7, 50):
        for c in (0.5, 1.0, 3.25e6):
            assert abs(jfi([c] * n) - 1.0) < 1e-12
    rng = np.random.default_rng(101)
    for _ in range(1000):
        xs = list(rng.uniform(0.1, 100.0, size=int(rng.integers(2, 20))))
        scale = float(rng.uniform(0.01, 1e6))
        assert abs(jfi(xs) - jfi([scale * x for x in xs])) < 1e-12
    assert time.monotonic() - start < 1.0


# --- criterion 2: QoE fairness index unit oracle ---------------------------

def test_c02_qoe_fi_unit_oracle():
    start = time.monotonic()
    # ratios {0.5, 1.0}: ordered pairs contribute |0.5-1.0| twice
    assert qoe_fi([(1.0, 2.0), (4.0, 4.0)]) == 1.0
    # ratios {1.0, 0.5, 0.25}: 2 * (0.5 + 0.75 + 0.25)
    assert qoe_fi([(4.0, 4.0), (2.0, 4.0), (1.0, 4.0)]) == 3.0
    for n in (2, 3, 10):
        assert qoe_fi([(3.0, 6.0)] * n) == 0.0
    rng = np.random.default_rng(202)
    for _ in range(1000):
        n = int(rng.integers(2, 12))
        pairs = [(float(rng.uniform(0, 50)), float(rng.uniform(1, 50)))
                 for _ in range(n)]
        ratios = [y / y_req for y, y_req in pairs]
        unordered = sum(abs(ratios[i] - ratios[j])
                        for i in range(n) for j in range(i + 1, n))
        assert qoe_fi(pairs) == pytest.approx(2.0 * unordered, rel=1e-12)
    assert time.monotonic() - start < 1.0


# --- criterion 3: composite priority hand value and monotonicity -----------

def _sched_input(alpha=1e-6, beta_s=0.3, **overrides):
    base = dict(ue_id=0, buffer_bits=1_000_000, buffersize_bits=40_000_000,
                qos_weight=qos_weight(alpha, beta_s), q=1.0, rate_bps=1e8,
                hol_delay_s=0.0, avg_rate_bps=1e8, last_served_tti=-1)
    base.update(overrides)
    return UeSchedInput(**base)


def test_c03_priority_hand_value_and_monotonicity():
    # ratio 0.5 * (-ln 1e-6 / 0.3) * 1 * 1e8 = 2.302585e9
    u = _sched_input(buffer_bits=20_000_000)
    assert bcqq_priority(u) == pytest.approx(2.302585e9, rel=1e-6)
    exact = 0.5 * (-math.log(1e-6) / 0.3) * 1.0 * 1e8
    assert bcqq_priority(u) == pytest.approx(exact, rel=1e-12)

    rng = np.random.default_rng(303)
    for _ in range(10_000):
        buffer_bits = int(rng.integers(1, 20_000_000))
        q = float(rng.uniform(1, 50))
        rate_bps = float(rng.uniform(1e6, 6e9))
        alpha = float(rng.uniform(1e-9, 0.5))
        beta_s = float(rng.uniform(0.01, 1.0))
        base = _sched_input(buffer_bits=buffer_bits, q=q, rate_bps=rate_bps,
                            alpha=alpha, beta_s=beta_s)
        p0 = bcqq_priority(base)
        bump = 1.0 + float(rng.uniform(0.01, 1.0))
        assert bcqq_priority(replace(base, buffer_bits=base.buffer_bits * 2)) > p0
        assert bcqq_priority(replace(base, q=base.q * bump)) > p0
        assert bcqq_priority(replace(base, rate_bps=base.rate_bps * bump)) > p0
        # halving the delay bound doubles the QoS weight
        halved = _sched_input(buffer_bits=buffer_bits, q=q, rate_bps=rate_bps,
                              alpha=alpha, beta_s=beta_s / 2)
        assert bcqq_priority(halved) == pytest.approx(2 * p0, rel=1e-9)


# --- criterion 4: bit conservation at every window close -------------------

def _conservation_scenario(policy: Policy) -> Scenario:
    return Scenario(
        name="conservation",
        duration_tti=100_000,
        flows=(ftp(1, 4e8), ftp(2, 4e8), ftp(3, 4e8),
               video(4, 5e8), video(5, 5e8)),
        peak_rate_bps=2e9, walk_prob=0.1, initial_cqi_per_ue=(13, 11, 9, 11, 13),
        buffersize_bits=40_000_000,
        policy=policy,
        seed=404,
        window_tti=1000,
    )


def test_c04_conservation_every_window_all_policies():
    start = time.monotonic()
    for policy in Policy:
        sim = Simulation(_conservation_scenario(policy))
        for tti in range(sim.scenario.duration_tti):
            sim.step(tti)
            if (tti + 1) % 1000 == 0:
                for u in sim.ues:
                    b = u.buffer
                    assert b.conservation_holds(), (
                        f"{policy} ue={u.flow.ue_id} tti={tti}")
                    assert (b.arrived_bits == b.delivered_bits
                            + b.dropped_overflow_bits + b.dropped_deadline_bits
                            + b.occupied_bits)
        report = sim._report()
        assert report.total_arrived_bits > 0
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"conservation sweep took {elapsed:.1f}s"


# --- criterion 5: deterministic byte-identical outputs ----------------------

def test_c05_byte_identical_outputs(tmp_path):
    scenario = table1_scenario()
    scenario = replace(scenario, duration_tti=3000)
    dirs = []
    for name in ("a", "b"):
        out = tmp_path / name
        report = run(scenario, policy=Policy.BCQQ, seed=7, collect_trace=True)
        emit([report], scenario, out, trace=True)
        dirs.append(out)
    for fname in ("summary.json", "metrics.csv", "trace.csv"):
        assert (dirs[0] / fname).exists(), fname
        assert filecmp.cmp(dirs[0] / fname, dirs[1] / fname, shallow=False), (
            f"{fname} differs between identical runs")
        assert (dirs[0] / fname).read_bytes() == (dirs[1] / fname).read_bytes()


# --- criteria 6 and 7: multi-seed comparison against the baseline ----------

@pytest.fixture(scope="session")
def multiseed_runs():
    scenario = table1_scenario()
    seeds = list(range(1, 11))
    results: dict[str, dict[int, object]] = {"bcqq": {}, "mlwdf": {}}
    start = time.monotonic()
    for seed in seeds:
        results["bcqq"][seed] = run(scenario, policy=Policy.BCQQ, seed=seed)
        results["mlwdf"][seed] = run(scenario, policy=Policy.MLWDF, seed=seed)
    elapsed = time.monotonic() - start
    return seeds, results, elapsed


def test_c06_throughput_gain_over_baseline(multiseed_runs):
    seeds, results, elapsed = multiseed_runs
    mean_bcqq = np.mean([results["bcqq"][s].total_throughput_bps for s in seeds])
    mean_mlwdf = np.mean([results["mlwdf"][s].total_throughput_bps for s in seeds])
    gain = mean_bcqq / mean_mlwdf - 1.0
    assert gain >= 0.10, (
        f"composite scheduler gain {gain:.1%} below the 10% bar "
        f"({mean_bcqq / 1e6:.1f} vs {mean_mlwdf / 1e6:.1f} Mbps)")
    assert elapsed < 60.0, f"20 comparison runs took {elapsed:.1f}s"


def test_c07_fairness_ordering(multiseed_runs):
    seeds, results, _ = multiseed_runs
    qoe_wins = 0
    jfi_close = 0
    for s in seeds:
        b, m = results["bcqq"][s], results["mlwdf"][s]
        assert b.qoe_fi is not None and m.qoe_fi is not None
        assert b.jfi is not None and m.jfi is not None
        if b.qoe_fi < m.qoe_fi:
            qoe_wins += 1
        if abs(b.jfi - m.jfi) <= 0.15:
            jfi_close += 1
    assert qoe_wins >= 8, f"QoE unfairness lower in only {qoe_wins}/10 seeds"
    assert jfi_close >= 8, f"Jain indices within 0.15 in only {jfi_close}/10 seeds"


# --- criterion 8: delay-weighted baseline reduces to proportional fair -----

def test_c08_baseline_reduces_to_pf():
    rng = np.random.default_rng(808)
    for _ in range(1000):
        n = int(rng.integers(2, 8))
        hol = float(rng.uniform(0.001, 0.3))
        inputs = [
            _sched_input(
                ue_id=i,
                buffer_bits=int(rng.integers(1, 40_000_000)),
                rate_bps=float(rng.uniform(1e6, 6e9)),
                avg_rate_bps=float(rng.uniform(1e5, 6e9)),
                hol_delay_s=hol,
                last_served_tti=int(rng.integers(-1, 1000)),
            )
            for i in range(n)
        ]
        mlwdf = select(inputs, Policy.MLWDF)
        pf = select(inputs, Policy.PF)
        assert mlwdf.selected_ue == pf.selected_ue


# --- criterion 9: selection invariant to uniform QoE rescaling -------------

def test_c09_argmax_invariance():
    # BCQQ's inputs, rebuilt from the rows of a traced run: a UE's bits at
    # selection are what its row leaves queued plus what it sent, and its
    # last service is the last earlier TTI whose row marks it selected.
    # BCQQ reads neither the head-of-line delay nor the served rate.
    scenario = replace(table1_scenario(), duration_tti=10_000)
    report = run(scenario, policy=Policy.BCQQ, seed=9, collect_trace=True)
    weight = {f.ue_id: qos_weight(f.alpha, f.beta_ms / TTIS_PER_SECOND)
              for f in scenario.flows}
    last_served = dict.fromkeys(weight, -1)
    rng = np.random.default_rng(909)
    ttis = 0
    for tti, rows in groupby(report.trace_rows, key=itemgetter(0)):
        inputs, priorities, winner = [], [], None
        for _tti, ue, _cqi, rate, buffered, q, priority, selected, tx, *_drops in rows:
            if selected:
                winner = ue
            if buffered + tx:
                inputs.append(_sched_input(
                    ue_id=ue, buffer_bits=buffered + tx,
                    buffersize_bits=scenario.buffersize_bits, qos_weight=weight[ue],
                    q=q, rate_bps=rate, last_served_tti=last_served[ue]))
                priorities.append(priority)
        assert inputs, tti
        # the trace's priority and selected columns are BCQQ's on these inputs
        assert [bcqq_priority(u) for u in inputs] == priorities, tti
        base = select(inputs, Policy.BCQQ).selected_ue
        assert base == winner, tti
        c = float(rng.uniform(0.01, 100.0))
        scaled = select([replace(u, q=u.q * c) for u in inputs],
                        Policy.BCQQ).selected_ue
        assert scaled == base
        last_served[winner] = tti
        ttis += 1
    assert ttis == 10_000


# --- criterion 10: service adjustment loop ----------------------------------

def _adjustment_scenario(enabled: bool) -> Scenario:
    # UE 1 holds a far better channel and a steady small-packet overload,
    # so it is always backlogged and always wins; UE 2 starves with a
    # near-full buffer and only an offered-load cut can help it.
    return Scenario(
        name="adjustment",
        duration_tti=5000,
        flows=(ftp(1, 2e8, beta_ms=100_000, adaptive=True,
                   mean_packet_bits=20_000),
               ftp(2, 2e8, beta_ms=100_000, adaptive=True,
                   mean_packet_bits=100_000)),
        peak_rate_bps=1e8, walk_prob=0.0, initial_cqi_per_ue=(15, 1),
        buffersize_bits=1_000_000,
        policy=Policy.BCQQ,
        seed=10,
        q_max=1.0,
        adjustment_enabled=enabled,
        occupancy_threshold=0.8,
        starvation_tti=100,
        adjustment_factor=0.75,
    )


def test_c10_adjustment_reduces_overflow_and_replays():
    adj = _adjustment_scenario(True)
    base = _adjustment_scenario(False)
    r_adj = run(adj, collect_trace=True)
    r_base = run(base)

    overflow_adj = sum(u.dropped_overflow_bits for u in r_adj.per_ue)
    overflow_base = sum(u.dropped_overflow_bits for u in r_base.per_ue)
    assert r_adj.adjustment_events, "no adjustment event fired"
    assert not r_base.adjustment_events
    assert overflow_adj < overflow_base, (
        f"overflow did not drop: {overflow_adj} vs {overflow_base}")

    # Replay each event against the trace: occupancy above threshold,
    # starvation at least the configured span, events spaced >= the span,
    # and the new load equal to the floored multiplicative cut.
    buffer_at = {}
    selected_ttis: dict[int, list[int]] = {}
    for row in r_adj.trace_rows:
        tti, ue, _cqi, _rate, buf, _q, _prio, sel, *_rest = row
        buffer_at[(tti, ue)] = buf
        if sel:
            selected_ttis.setdefault(ue, []).append(tti)

    last_event: dict[int, int] = {}
    for ev in r_adj.adjustment_events:
        occ = buffer_at[(ev.tti, ev.ue_id)] / adj.buffersize_bits
        assert occ > adj.occupancy_threshold
        assert ev.occupancy_ratio == pytest.approx(occ, rel=1e-12)
        served = [t for t in selected_ttis.get(ev.ue_id, []) if t <= ev.tti]
        starved = ev.tti - served[-1] if served else ev.tti + 1
        assert starved >= adj.starvation_tti
        assert ev.starved_tti == starved
        if ev.ue_id in last_event:
            assert ev.tti - last_event[ev.ue_id] >= adj.starvation_tti
        last_event[ev.ue_id] = ev.tti
        flow = next(f for f in adj.flows if f.ue_id == ev.ue_id)
        expected = max(ev.old_load_bps * adj.adjustment_factor,
                       0.1 * flow.offered_load_bps)
        assert ev.new_load_bps == pytest.approx(expected, rel=1e-12)
