import dataclasses
import json
import math
import tracemalloc
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import DenseSimulation, update_avg_rate
from qoesched import engine
from qoesched.channel import rate_of
from qoesched.engine import Scenario, Simulation, run
from qoesched.output import emit, fmt_real
from qoesched.scenario import parse_scenario
from qoesched.scheduler import READS_AVG_RATE, READS_Q, TTIS_PER_SECOND, Policy
from qoesched.streams import BLOCK, CHUNK, DRAW_MAX, BufferedStream
from qoesched.traffic import FlowSpec, TrafficClass

TINY_LOAD = 1e-3  # bps; effectively no arrivals over short runs


def ftp_flow(ue_id, load=5e8, adaptive=False, mean=500_000, beta=300):
    return FlowSpec(
        ue_id=ue_id,
        traffic_class=TrafficClass.FTP_DOWNLOAD,
        alpha=1e-6,
        beta_ms=beta,
        offered_load_bps=load,
        mean_packet_bits=mean,
        adaptive=adaptive,
    )


def video_flow(ue_id, load=1e9, beta=150):
    return FlowSpec(
        ue_id=ue_id,
        traffic_class=TrafficClass.LIVE_HD_VIDEO,
        alpha=1e-6,
        beta_ms=beta,
        offered_load_bps=load,
        max_packet_bits=2_000_000,
    )


def make_scenario(flows, duration=1000, peak=6e9, walk=0.0, cqis=None, **kw):
    return Scenario(
        name="test",
        duration_tti=duration,
        flows=tuple(flows),
        peak_rate_bps=peak,
        walk_prob=walk,
        initial_cqi_per_ue=tuple(cqis) if cqis else (),
        buffersize_bits=kw.pop("buffersize_bits", 40_000_000),
        **kw,
    )


class TestStep:
    def test_idle_step(self):
        sc = make_scenario([ftp_flow(0, load=TINY_LOAD)], cqis=[15])
        sim = Simulation(sc)
        decision = sim.step(0)
        assert decision.selected_ue is None
        assert sim.ues[0].buffer.delivered_bits == 0

    def test_steps_run_in_order(self):
        # a skipped or repeated TTI would break the sleepers' catch-up
        sim = Simulation(make_scenario([ftp_flow(0, load=TINY_LOAD)], duration=3, cqis=[15]))
        sim.step(0)
        for tti in (2, 0):
            with pytest.raises(ValueError, match="in order"):
                sim.step(tti)
        sim.step(1)
        sim.step(2)
        # past the run the wake scan stops and the feedback pipe is too short
        with pytest.raises(ValueError, match="from 0 to 2"):
            sim.step(3)

    def test_full_packet_drained_in_one_tti_at_peak(self):
        # budget at CQI 15 is 6e9 * 0.001 = 6e6 bits
        sc = make_scenario([ftp_flow(0, load=TINY_LOAD)], peak=6e9, cqis=[15])
        sim = Simulation(sc)
        sim.ues[0].buffer.enqueue([6_000_000], 0, 500)
        decision = sim.step(0)
        assert decision.selected_ue == 0
        assert decision.budget_bits == 6_000_000
        assert sim.ues[0].buffer.occupied_bits == 0
        assert sim.ues[0].buffer.delivered_bits == 6_000_000

    def test_bcqq_prefers_fuller_buffer(self):
        sc = make_scenario(
            [ftp_flow(0, load=TINY_LOAD), ftp_flow(1, load=TINY_LOAD)],
            cqis=[10, 10],
            buffersize_bits=10_000_000,
        )
        sim = Simulation(sc, policy=Policy.BCQQ)
        sim.ues[0].buffer.enqueue([1_000_000], 0, 500)   # ratio 0.1
        sim.ues[1].buffer.enqueue([9_000_000], 0, 500)   # ratio 0.9
        assert sim.step(0).selected_ue == 1

    def test_expiry_behind_a_live_head(self):
        # 1 bit per TTI of service: the partly sent head and the packet
        # behind it expire together at their shared deadline; a packet with
        # an earlier deadline cannot be queued behind the head
        sc = make_scenario([ftp_flow(0, load=TINY_LOAD)], peak=1e3, cqis=[15])
        sim = Simulation(sc)
        buf = sim.ues[0].buffer
        buf.enqueue([1_000], 0, 3)
        with pytest.raises(ValueError, match="tail"):
            buf.enqueue([700], 0, 2)
        buf.enqueue([700], 0, 3)
        for tti in range(3):
            sim.step(tti)
        assert buf.dropped_deadline_bits == 0 and buf.delivered_bits == 3
        sim.step(3)
        assert buf.dropped_deadline_bits == 1_697 and not buf.queue
        assert buf.conservation_holds()

    def test_served_rate_ema_matches_update_avg_rate(self):
        sc = make_scenario([ftp_flow(0, load=2e9), video_flow(1), ftp_flow(2, load=1e6)],
                           duration=3000, peak=1e9, walk=0.2, cqis=[9, 12, 4])
        sim = Simulation(sc, policy=Policy.PF, seed=3, collect_trace=True)
        report = sim.run()
        avg = {u.spec.ue_id: 1.0 for u in sim.ues}
        for row in report.trace_rows:
            avg[row[1]] = update_avg_rate(avg[row[1]], row[8])
        assert {u.spec.ue_id: u.sched.avg_rate_bps for u in sim.ues} == avg


class TestRun:
    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            make_scenario([ftp_flow(0)], duration=0)

    def test_determinism_same_seed(self):
        sc = make_scenario([ftp_flow(0), video_flow(1)], duration=2000, walk=0.2, cqis=[9, 12])
        r1 = run(sc, seed=5, collect_trace=True)
        r2 = run(sc, seed=5, collect_trace=True)
        assert r1.trace_rows == r2.trace_rows
        assert r1.total_delivered_bits == r2.total_delivered_bits
        assert [u._asdict() for u in r1.per_ue] == [u._asdict() for u in r2.per_ue]

    def test_buffer_of_an_unknown_ue_names_the_id_and_the_cell(self):
        sim = Simulation(make_scenario([ftp_flow(3), video_flow(0)]))
        with pytest.raises(ValueError, match=r"^buffer\(99\): no UE has that id; "
                                             r"the cell's ue_ids are \[3, 0\]$"):
            sim.buffer(99)
        assert sim.buffer(0) is sim.ues[1].buffer

    def test_policy_sweep_populates_reports(self):
        sc = make_scenario(
            [ftp_flow(0), ftp_flow(1), ftp_flow(2), video_flow(3), video_flow(4)],
            duration=2000,
            walk=0.1,
            cqis=[13, 11, 9, 11, 13],
        )
        for policy in (Policy.BCQQ, Policy.MLWDF, Policy.PF):
            r = run(sc, policy=policy, seed=1)
            assert r.policy == policy.value
            assert r.total_delivered_bits > 0
            assert r.jfi is not None

    @pytest.mark.parametrize("entry", [run, Simulation])
    def test_seed_override_checked_as_the_scenarios(self, entry):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            entry(make_scenario([ftp_flow(0)]), seed=-1)

    def test_policy_given_by_name(self):
        sc = make_scenario([ftp_flow(0), video_flow(1)], duration=200, walk=0.2, cqis=[9, 12])
        assert run(sc, policy="PF", seed=1) == run(sc, policy=Policy.PF, seed=1)
        with pytest.raises(ValueError, match="'XX' is not a valid Policy"):
            Simulation(sc, policy="XX")

    def test_rng_stream_separation(self):
        # changing flow 1's parameters must not perturb flow 0's arrivals
        def arrivals_of_ue0(flows):
            sc = make_scenario(flows, duration=2000, cqis=[9] * len(flows))
            sim = Simulation(sc, seed=3)
            seen = []
            prev = 0
            for tti in range(sc.duration_tti):
                sim.step(tti)
                cur = sim.ues[0].buffer.arrived_bits
                seen.append(cur - prev)
                prev = cur
            return seen

        base = arrivals_of_ue0([ftp_flow(0), ftp_flow(1, load=2e8)])
        changed = arrivals_of_ue0([ftp_flow(0), ftp_flow(1, load=9e8, mean=100_000)])
        assert base == changed

    def test_conservation_at_every_window_close(self):
        sc = make_scenario(
            [ftp_flow(0, load=2e9), video_flow(1)],
            duration=10_000,
            peak=1e9,
            walk=0.1,
            cqis=[8, 8],
            window_tti=500,
        )
        sim = Simulation(sc, policy=Policy.BCQQ, seed=9)
        for tti in range(sc.duration_tti):
            sim.step(tti)
            if (tti + 1) % 500 == 0:
                for u in sim.ues:
                    assert u.buffer.conservation_holds()
        report = sim._report()
        assert len(report.windows) == 20

    def test_tx_never_exceeds_rate_budget(self):
        sc = make_scenario(
            [ftp_flow(0, load=2e9), ftp_flow(1, load=2e9)],
            duration=2000,
            peak=1e9,
            walk=0.3,
            cqis=[8, 8],
        )
        r = run(sc, seed=4, collect_trace=True)
        for row in r.trace_rows:
            rate_bps, tx_bits = row[3], row[8]
            assert tx_bits <= int(rate_bps * 0.001)

    def test_window_demand_matches_buffer_arrivals(self):
        # full-run window: y_req per UE reconciles with the traffic module's
        # arrived_bits counter exactly
        sc = make_scenario(
            [ftp_flow(0), video_flow(1)], duration=3000, walk=0.1, cqis=[9, 12]
        )
        sim = Simulation(sc, seed=2)
        report = sim.run()
        assert len(report.windows) == 1
        w = report.windows[0]
        for u in sim.ues:
            assert w.per_ue_y_req_bits[u.spec.ue_id] == u.buffer.arrived_bits
            assert w.per_ue_y_bits[u.spec.ue_id] == u.buffer.delivered_bits

    def test_outside_enqueue_counts_in_its_window(self):
        # the window volumes are read off the buffer, so bits enqueued
        # between steps count in the window they arrive in, accepted or not
        sc = make_scenario([ftp_flow(0, load=TINY_LOAD), ftp_flow(1, load=1e8)],
                           duration=300, peak=1e6, cqis=[15, 15],
                           buffersize_bits=100_000, window_tti=100)
        sim = Simulation(sc)
        for tti in range(sc.duration_tti):
            if tti == 150:
                assert sim.buffer(0).enqueue([60_000, 70_000], tti, tti + 500) == 60_000
            sim.step(tti)
        buf = sim.ues[0].buffer
        assert [w.per_ue_y_req_bits[0] for w in sim.window.records] == [0, 130_000, 0]
        assert sum(w.per_ue_y_bits[0] for w in sim.window.records) == buf.delivered_bits > 0


class TestFeedbackDelay:
    def test_delayed_q_stays_at_one_initially(self):
        flows = [ftp_flow(0, load=2e9)]
        delayed = make_scenario(flows, duration=20, cqis=[1],
                                qoe_feedback_delay_tti=5)
        r = run(delayed, seed=1, collect_trace=True)
        q_by_tti = {row[0]: row[5] for row in r.trace_rows}
        assert all(q_by_tti[t] == 1.0 for t in range(5))
        immediate = make_scenario(flows, duration=20, cqis=[1])
        r0 = run(immediate, seed=1, collect_trace=True)
        q0 = {row[0]: row[5] for row in r0.trace_rows}
        assert q0[0] > 1.0  # demand arrived at TTI 0 and is visible at once

    @pytest.mark.parametrize("policy", list(Policy))
    def test_delay_at_or_past_the_run_length_shows_q_of_one(self, policy):
        flows = [ftp_flow(0, load=2e9), video_flow(1), ftp_flow(2, load=TINY_LOAD)]
        reports = [
            run(make_scenario(flows, duration=300, walk=0.2, cqis=[1, 9, 12], window_tti=70,
                              qoe_feedback_delay_tti=delay),
                policy=policy, seed=2, collect_trace=True)
            for delay in (300, 301, 10**6)
        ]
        assert reports[0] == reports[1] == reports[2]
        assert {row[5] for row in reports[0].trace_rows} == {1.0}


class TestAdjustment:
    def overload_scenario(self, enabled, duration=4000):
        # UE 1 sits at CQI 1 and starves under BCQQ with q capped at 1
        return make_scenario(
            [ftp_flow(0, load=3e9), ftp_flow(1, load=3e9, adaptive=True)],
            duration=duration,
            peak=1e9,
            walk=0.0,
            cqis=[15, 1],
            q_max=1.0,
            adjustment_enabled=enabled, occupancy_threshold=0.8, starvation_tti=100,
            adjustment_factor=0.75,
        )

    def test_events_fire_and_respect_trigger_rule(self):
        r = run(self.overload_scenario(True), seed=1)
        assert r.adjustment_events
        last_by_ue = {}
        for e in r.adjustment_events:
            assert e.occupancy_ratio > 0.8
            assert e.starved_tti >= 100
            assert e.new_load_bps < e.old_load_bps or e.new_load_bps == pytest.approx(
                0.1 * 3e9
            )
            if e.ue_id in last_by_ue:
                assert e.tti - last_by_ue[e.ue_id] >= 100
            last_by_ue[e.ue_id] = e.tti

    def test_disabled_never_fires(self):
        r = run(self.overload_scenario(False), seed=1)
        assert r.adjustment_events == []

    def test_recently_served_ue_not_adjusted(self):
        # a single overloaded UE is served every TTI, so it never starves
        sc = make_scenario(
            [ftp_flow(0, load=3e9, adaptive=True)],
            duration=2000,
            peak=1e8,
            walk=0.0,
            cqis=[15],
            adjustment_enabled=True,
        )
        r = run(sc, seed=1)
        assert r.adjustment_events == []

    def test_rescaled_flow_floors_at_a_tenth_of_its_own_load(self):
        # a flow rescaled with dataclasses.replace floors at a tenth of the
        # load it now has, not of the load it was built with
        sc = self.overload_scenario(True)
        flows = (sc.flows[0], dataclasses.replace(sc.flows[1], offered_load_bps=6e9))
        events = run(dataclasses.replace(sc, flows=flows), seed=1).adjustment_events
        loads = [e.new_load_bps for e in events if e.ue_id == 1]
        assert min(loads) == loads[-1] == 0.1 * 6e9

    def test_adjustment_reduces_overflow(self):
        on = run(self.overload_scenario(True), seed=7)
        off = run(self.overload_scenario(False), seed=7)
        over_on = sum(u.dropped_overflow_bits for u in on.per_ue)
        over_off = sum(u.dropped_overflow_bits for u in off.per_ue)
        assert over_on < over_off


class TestScenarioValidation:
    def test_duplicate_ue_id(self):
        with pytest.raises(ValueError):
            make_scenario([ftp_flow(0), ftp_flow(0)])

    def test_initial_cqi_length_mismatch_rejected_by_scenario(self):
        with pytest.raises(ValueError, match="^initial_cqi_per_ue must give one CQI per flow"):
            make_scenario([ftp_flow(0), ftp_flow(1)], cqis=[9])

    def test_initial_cqis_shortened_after_construction_fail_loudly(self):
        sc = make_scenario([ftp_flow(0), ftp_flow(1)], cqis=[9, 12])
        with pytest.raises(dataclasses.FrozenInstanceError):
            sc.initial_cqi_per_ue = (9,)
        # forced past the frozen dataclass, the CQI count is still caught
        object.__setattr__(sc, "initial_cqi_per_ue", (9,))
        with pytest.raises(ValueError):
            Simulation(sc)

    @pytest.mark.parametrize("key, value", [
        ("peak_rate_bps", math.nan), ("peak_rate_bps", math.inf),
        ("offered_load_bps", math.nan), ("offered_load_bps", math.inf), ("q_max", math.inf),
    ])
    def test_non_finite_values_rejected(self, key, value):
        # each used to be taken and to fail in the run or reach summary.json
        build = {"peak_rate_bps": lambda: make_scenario([ftp_flow(0)], peak=value),
                 "offered_load_bps": lambda: ftp_flow(0, load=value),
                 "q_max": lambda: make_scenario([ftp_flow(0)], q_max=value)}[key]
        with pytest.raises(ValueError, match=f"^{key} must be (positive|>= 1)"):
            build()

    @pytest.mark.parametrize("build", [
        lambda: make_scenario([ftp_flow(0)]),
        lambda: ftp_flow(0),
    ], ids=["Scenario", "FlowSpec"])
    def test_fields_cannot_be_assigned(self, build):
        # an assignment would skip the __post_init__ invariants
        obj = build()
        for f in dataclasses.fields(obj):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, f.name, getattr(obj, f.name))

    def test_report_totals_reconcile(self):
        sc = make_scenario([ftp_flow(0), video_flow(1)], duration=2000, walk=0.1, cqis=[9, 12])
        r = run(sc, seed=6)
        assert r.total_arrived_bits == sum(u.arrived_bits for u in r.per_ue)
        assert r.total_delivered_bits == sum(u.delivered_bits for u in r.per_ue)
        for u in r.per_ue:
            assert u.arrived_bits == (
                u.delivered_bits + u.dropped_overflow_bits
                + u.dropped_deadline_bits + u.buffered_bits
            )


def light_cell(n=80):
    """n UEs, mostly light FTP (about one packet per 200 TTIs) plus video."""
    flows = []
    for ue in range(n):
        if ue % 5 == 4:
            flows.append(FlowSpec(ue, TrafficClass.LIVE_HD_VIDEO, alpha=10.0 ** -(2 + ue % 4),
                                  beta_ms=100 + ue, offered_load_bps=2e6 + 5e4 * ue,
                                  max_packet_bits=400_000, frame_interval_ms=33 + ue % 8))
        else:
            flows.append(ftp_flow(ue, load=2e5 + 4e3 * ue, mean=50_000 + 1_000 * ue,
                                  beta=150 + ue))
    return make_scenario(flows, duration=700, peak=2e9, walk=0.1,
                         cqis=[3 + i % 13 for i in range(n)], buffersize_bits=2_000_000,
                         window_tti=100, qoe_feedback_delay_tti=3)


def decades(lo, hi):
    """Floats spread evenly over the decades from 10**lo to 10**hi."""
    return st.floats(lo, hi).map(lambda x: 10.0 ** x)


@st.composite
def fuzz_flows(draw, ue_id):
    beta, alpha, adaptive = draw(st.integers(1, 400)), draw(decades(-6, -0.5)), draw(st.booleans())
    bits = round(draw(decades(3, 6.3)))  # mean packet or frame size
    if draw(st.booleans()):
        lam = draw(decades(-3, 1.6))  # packets per TTI, on both sides of 10
        return FlowSpec(ue_id, TrafficClass.FTP_DOWNLOAD, alpha, beta,
                        lam * bits * TTIS_PER_SECOND, adaptive, mean_packet_bits=bits)
    interval = draw(st.integers(1, 40))
    return FlowSpec(ue_id, TrafficClass.LIVE_HD_VIDEO, alpha, beta,
                    bits * TTIS_PER_SECOND / interval, adaptive,
                    max_packet_bits=round(draw(decades(3, 6.5))), frame_interval_ms=interval)


@st.composite
def fuzz_cells(draw):
    """1-8 FTP or video UEs for up to 400 TTIs, with any windows, feedback
    delay, channel, buffer and service adjustment."""
    ids = draw(st.lists(st.integers(0, 1000), min_size=1, max_size=8, unique=True))
    cqis = draw(st.one_of(st.just(()), st.tuples(*[st.integers(1, 15)] * len(ids))))
    return Scenario(
        name="fuzz",
        duration_tti=draw(st.integers(1, 400)),
        flows=tuple(draw(fuzz_flows(ue)) for ue in ids),
        peak_rate_bps=draw(decades(6, 10)),
        walk_prob=draw(st.floats(0.0, 1.0)),
        initial_cqi_per_ue=cqis,
        buffersize_bits=round(draw(decades(4, 7.5))),
        qoe_feedback_delay_tti=draw(st.integers(0, 12)),
        q_max=draw(st.floats(1.0, 200.0)),
        window_tti=draw(st.none() | st.integers(1, 150)),
        adjustment_enabled=draw(st.booleans()),
        occupancy_threshold=draw(st.floats(0.05, 0.95)),
        starvation_tti=draw(st.integers(1, 200)),
        adjustment_factor=draw(st.floats(0.05, 1.0)),
    )


@st.composite
def outside_changes(draw, args, change):
    """A ``between(sim, tti)`` that calls ``change(sim, tti, pick, *args)``
    every few TTIs, cycling through a few drawn (pick, args) pairs; ``pick``
    chooses the UE."""
    every = draw(st.integers(1, 40))
    plan = draw(st.lists(st.tuples(st.integers(0, 7), args), min_size=1, max_size=6))

    def between(sim, tti):
        if tti % every == every - 1:
            pick, a = plan[tti // every % len(plan)]
            change(sim, tti, pick, *a)
    return between


FUZZ = settings(max_examples=80, derandomize=True, database=None, deadline=None)
RUNS = dict(cell=fuzz_cells(), policy=st.sampled_from(Policy), trace=st.booleans(),
            seed=st.integers(0, 2 ** 32))


def outside_enqueue(sim, tti, pick, sizes, beta_share):
    # a deadline within the flow's beta and not before its queue's tail,
    # as the engine's own arrivals at tti + beta keep them
    flow = sim.scenario.flows[pick % len(sim.scenario.flows)]
    buf = sim.buffer(flow.ue_id)
    tail = buf.queue[-1][3] if buf.queue else 0  # the tail batch's deadline
    buf.enqueue(sizes, tti, max(tail, tti + math.ceil(beta_share * flow.beta_ms)))


def outside_drain(sim, tti, pick, budget_share):
    # one of the UEs with queued bits
    backlogged = [u.spec.ue_id for u in sim.ues if u.buffer.occupied_bits]
    if backlogged:
        buf = sim.buffer(backlogged[pick % len(backlogged)])
        buf.drain(round(budget_share * buf.occupied_bits), tti)


class TestTraceObserves:
    """Switching the trace on changes what is written, not what is run."""

    @staticmethod
    def traced_and_not(policy, monkeypatch):
        """The arrivals calls, report and end state of each UE of one run
        untraced and one traced. Under a policy that does not read q, the
        trace alone keeps the feedback pipe, so it is left out."""
        sc = light_cell()
        calls = []
        arrivals = engine.arrivals

        def spy_arrivals(spec, tti, rng):
            calls.append((spec.ue_id, tti))
            return arrivals(spec, tti, rng)

        monkeypatch.setattr(engine, "arrivals", spy_arrivals)
        seen = []
        for trace in (False, True):
            calls.clear()
            sim = Simulation(sc, policy=policy, seed=17, collect_trace=trace)
            report = sim.run()
            seen.append((list(calls), report._replace(trace_rows=None),
                         [(u.spec, u.cqi, u.sched.avg_rate_bps,
                           list(u.q_pipe) if policy in READS_Q else None,
                           u.sched.last_served_tti, u.next_arrival_tti, list(u.buffer.queue))
                          for u in sim.ues]))
        # idle TTIs and sleepers stay out of both runs
        assert 0 < sum(u.sched_count for u in report.per_ue) < 700
        assert len(calls) < 80 * 700
        return seen

    def test_trace_makes_the_same_arrivals_and_select_calls(self, monkeypatch):
        untraced, traced = self.traced_and_not(Policy.MLWDF, monkeypatch)
        assert untraced == traced

    def test_trace_feeds_bcqq_the_same_q(self, monkeypatch):
        untraced, traced = self.traced_and_not(Policy.BCQQ, monkeypatch)
        assert untraced == traced

    @pytest.mark.parametrize("policy", list(Policy))
    def test_ue_with_nothing_queued_has_priority_zero(self, policy):
        # Expiry precedes selection, so a row that sent nothing and ends
        # empty is a UE with nothing queued at selection.
        report = run(light_cell(), policy=policy, seed=17, collect_trace=True)
        empty = [row for row in report.trace_rows if row[8] == 0 and row[4] == 0]
        assert len(empty) > len(report.trace_rows) // 2
        assert all(row[6] == 0.0 for row in empty)

    @pytest.mark.parametrize("policy", list(Policy))
    def test_drop_columns_sum_to_the_report_totals(self, policy):
        # small buffers and tight deadlines: both kinds of drop happen
        sc = make_scenario(
            [ftp_flow(0, load=1.5e9, mean=50_000, beta=3), ftp_flow(1, load=2e9, mean=200_000),
             video_flow(2, load=8e8, beta=20), ftp_flow(3, load=TINY_LOAD)],
            duration=800, peak=2e9, walk=0.3, cqis=[12, 5, 9, 14], buffersize_bits=1_500_000,
        )
        report = run(sc, policy=policy, seed=9, collect_trace=True)
        for u in report.per_ue:
            rows = [row for row in report.trace_rows if row[1] == u.ue_id]
            assert len(rows) == 800
            assert sum(row[9] for row in rows) == u.dropped_deadline_bits
            assert sum(row[10] for row in rows) == u.dropped_overflow_bits
        assert all(sum(getattr(u, f"dropped_{kind}_bits") for u in report.per_ue)
                   for kind in ("deadline", "overflow"))

    def test_rate_column_is_rate_of_the_rows_cqi(self):
        # walk_prob=1.0 moves each CQI every TTI; from 1, 8 and 15 the walks
        # cover the whole scale, a sleeper's caught-up rows too
        sc = make_scenario([ftp_flow(0), video_flow(1), ftp_flow(2, load=TINY_LOAD)],
                           duration=600, peak=3.7e9, walk=1.0, cqis=[1, 8, 15])
        report = run(sc, policy=Policy.PF, seed=5, collect_trace=True)
        assert {row[2] for row in report.trace_rows} == set(range(1, 16))
        for row in report.trace_rows:
            assert row[3] == rate_of(row[2], 3.7e9), row

    def test_overflow_of_an_outside_enqueue_shows_in_the_next_row(self):
        # UE 0 has no arrivals of its own; a packet offered to its full
        # buffer between steps 40 and 41 is tail-dropped whole
        sc = make_scenario([ftp_flow(0, load=TINY_LOAD), ftp_flow(1, load=1e8)],
                           duration=100, peak=1e6, cqis=[15, 15], buffersize_bits=100_000)
        sim = Simulation(sc, collect_trace=True)
        for tti in range(sc.duration_tti):
            if tti == 41:
                buf = sim.buffer(0)
                buf.enqueue([buf.capacity_bits - buf.occupied_bits], tti, tti + 500)
                assert buf.enqueue([3_000], tti, tti + 500) == 0
            sim.step(tti)
        overflow = {row[0]: row[10] for row in sim.trace_rows if row[1] == 0}
        assert overflow[41] == 3_000
        assert sum(overflow.values()) == buf.dropped_overflow_bits == 3_000


class TestReportFigures:
    """The run report's cell figures are the figures of one run-long window."""

    @pytest.mark.parametrize("policy", list(Policy))
    @pytest.mark.parametrize("cell", ["table1", "one_idle_ue", "idle"])
    def test_report_equals_its_one_window(self, policy, cell):
        if cell == "table1":
            text = resources.files("qoesched").joinpath("scenarios/table1.json").read_text()
            sc = dataclasses.replace(parse_scenario(text), duration_tti=2000)
        elif cell == "one_idle_ue":
            sc = make_scenario([ftp_flow(0, load=3e9), video_flow(1, load=8e8),
                                ftp_flow(2, load=TINY_LOAD)],
                               duration=1500, walk=0.2, cqis=[9, 12, 6])
        else:
            sc = make_scenario([ftp_flow(0, load=TINY_LOAD)], duration=300, cqis=[9])
        assert sc.window_tti is None
        report = run(sc, policy=policy, seed=3)
        (window,) = report.windows
        assert (window.tx_bits, window.throughput_bps, window.jfi, window.qoe_fi) == (
            report.total_delivered_bits, report.total_throughput_bps, report.jfi, report.qoe_fi)
        if cell == "idle":
            assert report.jfi is None and report.qoe_fi is None
        else:
            assert report.jfi is not None and report.qoe_fi is not None

    def test_loss_rate_counts_overflow_and_deadline_drops(self, tmp_path):
        # small buffers overflow and 5-TTI deadlines expire, on both UEs
        sc = make_scenario([ftp_flow(0, load=3e9, beta=5), ftp_flow(1, load=1e9, beta=5)],
                           duration=300, peak=1e9, buffersize_bits=8_000_000)
        report = run(sc, policy=Policy.PF, seed=2)
        emit([report], sc, tmp_path)
        (summary,) = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))["runs"]
        for u, written in zip(report.per_ue, summary["per_ue"], strict=True):
            assert u.dropped_overflow_bits > 0 and u.dropped_deadline_bits > 0
            loss = (u.dropped_overflow_bits + u.dropped_deadline_bits) / u.arrived_bits
            assert u.loss_rate == loss
            assert written["loss_rate"] == float(fmt_real(loss))


class TestScalarStreamReference:
    """The sparse engine on buffered streams gives the dense engine's report.

    The reference (``dense_reference.DenseSimulation``) processes every UE
    on every TTI with scalar draws from plain ``Generator`` substreams.
    """

    def both(self, build, between=None, steps=None):
        """Run ``build(cls)`` under both engines and compare every report
        field. After every step, compare each UE that the sparse engine left
        synced with the dense loop's UE: its CQI, served rate, feedback pipe,
        arrived bits and queued bits. The served rate is compared under the
        policies that read it, PF and M-LWDF; under BCQQ and RR the sparse
        engine keeps none, and it stays at 1.0. The feedback pipe is compared
        under BCQQ and when a trace is collected, which read q; otherwise the
        sparse engine keeps no q, and the pipe stays at its initial 1.0s.

        ``between(sim, tti)``, if given, runs before each ``step(tti)``.
        ``steps``, if given, gets the dense loop's record of those five, per
        TTI and UE; the dense loop leaves every UE synced.
        """
        def state(u):
            return (u.cqi, u.sched.avg_rate_bps, list(u.q_pipe), u.buffer.arrived_bits,
                    u.buffer.occupied_bits)

        def same(sim, u, want):
            # what the sparse engine keeps no account of stays as it starts
            cqi, avg, pipe, *bits = want
            if sim.policy not in READS_AVG_RATE:
                avg = 1.0
            if sim.policy not in READS_Q and sim.trace_rows is None:
                pipe = [1.0] * len(pipe)
            return state(u) == (cqi, avg, pipe, *bits)

        record = [] if steps is None else steps

        def keep(sim, tti):
            record.append([state(u) for u in sim.ues])

        def check(sim, tti):
            for u, want in zip(sim.ues, record[tti], strict=True):
                if u.synced_tti > tti:
                    assert same(sim, u, want), (tti, u.spec.ue_id)

        sims, reports = [], []
        for cls, after in ((DenseSimulation, keep), (Simulation, check)):
            sim = build(cls)

            def step(tti, sim=sim, step=sim.step, after=after):
                if between is not None:
                    between(sim, tti)
                decision = step(tti)
                after(sim, tti)
                return decision
            sim.step = step
            reports.append(sim.run())
            sims.append(sim)
        dense, sparse = sims
        assert isinstance(sparse.ues[0].traffic_rng, BufferedStream)
        assert isinstance(dense.ues[0].traffic_rng, np.random.Generator)
        want, got = (r._asdict() for r in reports)
        for name in want:
            assert got[name] == want[name], name
        # run() leaves every UE caught up to the end of the run
        for a, b in zip(sparse.ues, dense.ues):
            assert same(sparse, a, state(b)), a.spec.ue_id
        return reports[1]

    @pytest.mark.parametrize("policy", list(Policy))
    def test_mixed_traffic_with_feedback_delay(self, policy):
        # FTP lam ranges from ~0.3 to 40 packets per TTI; light flows leave
        # idle TTIs; some FTP deadlines expire; q reaches the scheduler late.
        sc = make_scenario(
            [ftp_flow(0, load=4e9, mean=100_000, beta=20),
             ftp_flow(1, load=1.5e8, mean=500_000),
             ftp_flow(2, load=4e8, mean=10_000, beta=5),
             video_flow(3, load=3e8),
             video_flow(4, load=1e8, beta=30)],
            duration=1500, peak=2e9, walk=0.3, cqis=[12, 6, 9, 14, 3],
            buffersize_bits=2_000_000, window_tti=250, qoe_feedback_delay_tti=4,
        )
        traced = self.both(lambda cls: cls(sc, policy=policy, seed=21, collect_trace=True))
        plain = self.both(lambda cls: cls(sc, policy=policy, seed=21))
        assert traced.trace_rows and plain.trace_rows is None
        assert traced._replace(trace_rows=None) == plain
        assert any(u.dropped_deadline_bits for u in plain.per_ue)
        assert any(row[7] is None for row in traced.trace_rows)

    def test_idle_cell(self):
        sc = make_scenario([ftp_flow(0, load=1e5, mean=1_000), video_flow(1, load=1e5)],
                           duration=600, walk=0.5, cqis=[5, 9])
        report = self.both(lambda cls: cls(sc, seed=4, collect_trace=True))
        assert sum(u.sched_count for u in report.per_ue) < 600

    def test_adjustment_moves_lam_below_ten(self):
        # UE 1 starts at lam = 15 packets per TTI and starves at CQI 1, so the
        # adjustment loop cuts its load below lam = 10 and on towards the floor.
        sc = make_scenario(
            [ftp_flow(0, load=2e8, mean=20_000, beta=100_000, adaptive=True),
             ftp_flow(1, load=1.5e7, mean=1_000, beta=100_000, adaptive=True)],
            duration=1500, peak=1e8, cqis=[15, 1], buffersize_bits=500_000, q_max=1.0,
            adjustment_enabled=True, occupancy_threshold=0.8, starvation_tti=20,
            adjustment_factor=0.75,
        )
        for trace in (True, False):
            report = self.both(lambda cls: cls(sc, seed=10, collect_trace=trace))
            lams = [(e.old_load_bps / 1e6, e.new_load_bps / 1e6)
                    for e in report.adjustment_events if e.ue_id == 1]
            assert any(old >= 10.0 > new for old, new in lams)
            assert lams[-1][1] < 5.0

    def test_non_monotone_deadlines(self):
        # outside enqueues keep the deadline order that the engine's own
        # arrivals at tti + beta keep; both engines expire the early ones alike
        sc = make_scenario([ftp_flow(0, load=2e8, beta=40), ftp_flow(1, load=2e8, beta=60)],
                           duration=400, peak=3e8, walk=0.2, cqis=[7, 11])

        def build(cls):
            sim = cls(sc, policy=Policy.MLWDF, seed=8, collect_trace=True)
            buf = sim.ues[0].buffer
            for deadline in (3, 12, 30, 40):
                buf.enqueue([200_000], 0, deadline)
            with pytest.raises(ValueError, match="tail"):
                buf.enqueue([200_000], 0, 39)
            return sim

        report = self.both(build)
        assert report.per_ue[0].dropped_deadline_bits > 0

    @pytest.mark.parametrize(
        "policy, trace",
        [(p, False) for p in Policy] + [(p, True) for p in Policy],
        ids=[p.value for p in Policy] + [f"{p.value}-traced" for p in Policy],
    )
    def test_light_cell_sleeps_across_windows(self, monkeypatch, policy, trace):
        # 80 UEs, about one arrival per UE per 200 TTIs, 100-TTI windows and
        # delayed q: UEs sleep for longer than a stream block and through
        # window closes, and PF and MLWDF read the decayed served rates.
        sc = light_cell()
        spans = []
        catch_up = Simulation._catch_up

        def record(sim, u, until):
            spans.append((u.spec.ue_id, u.synced_tti, until))
            catch_up(sim, u, until)

        monkeypatch.setattr(Simulation, "_catch_up", record)
        report = self.both(lambda cls: cls(sc, policy=policy, seed=17, collect_trace=trace))
        assert sum(u.sched_count for u in report.per_ue) < 700
        if trace:
            # the trace catches each sleeper up through every TTI it writes
            assert spans and all(until == start + 1 for _, start, until in spans)
            assert len(report.trace_rows) == 80 * 700
            return
        assert max(until - start for _, start, until in spans) > BLOCK
        # A UE's catch-ups are contiguous, each from where the last ended: a
        # sleeper sleeps through a window close with no catch-up ending
        # there, and a later one spans the close.
        closes = range(100, 700, 100)
        assert any(start < end < until for _, start, until in spans for end in closes)

    @pytest.mark.parametrize("delay", [1, 7])
    @pytest.mark.parametrize("policy", [Policy.BCQQ, Policy.PF])
    def test_wake_within_the_feedback_delay_after_a_slept_close(self, policy, delay):
        # UE 0, a flow of one packet per ~3,000 TTIs, gets a packet larger
        # than its buffer through the door 10 TTIs before each window close:
        # it is dropped whole, so its q rises, and UE 0 sleeps through the
        # close, after which its q is 1. The door wakes it delay - 1 TTIs
        # after the close with a packet it keeps, so the pipe's head, which
        # BCQQ reads, is still a q of before the close when it is scheduled.
        # PF reads no q, so its engine keeps none and no close snapshot: its
        # runs check the served rate across the same slept closes.
        sc = make_scenario([ftp_flow(0, load=3e4, mean=100_000), ftp_flow(1, load=5e7),
                            video_flow(2, load=4e6)],
                           duration=600, peak=1e9, walk=0.2, cqis=[4, 9, 12],
                           buffersize_bits=2_000_000, window_tti=50,
                           qoe_feedback_delay_tti=delay)
        spanned = []

        def door(sim, tti):
            phase = tti % 50
            if phase == 40 or (phase == delay - 1 and tti > 50):
                u = sim.ues[0]
                if (phase != 40 and not isinstance(sim, DenseSimulation)
                        and u.close_tti == tti - phase and u.close_q > 1.0):
                    spanned.append(tti)
                buf = sim.buffer(0)
                tail = buf.queue[-1][3] if buf.queue else 0
                size = 3_000_000 if phase == 40 else 300_000
                buf.enqueue([size], tti, max(tail, tti + 50))

        self.both(lambda cls: cls(sc, policy=policy, seed=5), door)
        assert len(spanned) >= 8 if policy in READS_Q else not spanned

    @pytest.mark.parametrize("policy", [Policy.BCQQ, Policy.PF])
    def test_catch_up_spans_cross_cqi_chunks(self, monkeypatch, policy):
        # Over two CQI chunks and a shorter third, some sleeper's catch-up
        # takes the moves of two chunks, drawing the second on the way.
        sc = dataclasses.replace(light_cell(20), duration_tti=2 * CHUNK + 200)
        spans = []
        catch_up = Simulation._catch_up

        def record(sim, u, until):
            spans.append((u.synced_tti, until))
            catch_up(sim, u, until)

        monkeypatch.setattr(Simulation, "_catch_up", record)
        self.both(lambda cls: cls(sc, policy=policy, seed=23))
        crossings = [m for start, until in spans for m in (CHUNK, 2 * CHUNK)
                     if start < m < until]
        assert CHUNK in crossings and 2 * CHUNK in crossings

    def test_adjustment_rearms_a_pending_wake(self, monkeypatch):
        # UE 1 (lam = 0.04) gets a big packet about every 25 TTIs and starves
        # at CQI 1 behind UE 0, so it is adjusted while its wake TTI lies ahead.
        sc = make_scenario(
            [ftp_flow(0, load=2e8, mean=20_000, beta=100_000),
             ftp_flow(1, load=1.6e7, mean=400_000, beta=100_000, adaptive=True)],
            duration=1500, peak=1e8, cqis=[15, 1], buffersize_bits=500_000, q_max=1.0,
            adjustment_enabled=True, occupancy_threshold=0.5, starvation_tti=20,
            adjustment_factor=0.5,
        )
        calls = []
        wake_tti = engine.next_arrival_tti

        def record(spec, tti, rng, end_tti):
            wake = wake_tti(spec, tti, rng, end_tti)
            calls.append((spec, tti, wake))
            return wake

        monkeypatch.setattr(engine, "next_arrival_tti", record)
        report = self.both(lambda cls: cls(sc, seed=10))
        events = [e for e in report.adjustment_events if e.ue_id == 1]
        # An adjustment replaces the UE's spec and re-arms its wake TTI with
        # it at once, so each new spec's first call is that event's re-arm.
        rearms, spec = [], sc.flows[1]
        for call_spec, pending, wake in calls:
            if call_spec.ue_id == 1 and call_spec is not spec:
                spec = call_spec
                rearms.append((spec.offered_load_bps, pending, wake))
        assert len(events) == len(rearms) >= 3
        assert all(load == e.new_load_bps for e, (load, _, _) in zip(events, rearms))
        # Loads never rise, so TTIs skipped under the old load stay empty.
        assert all(e.new_load_bps <= e.old_load_bps for e in events)
        assert all(e.old_load_bps / 400_000_000 < 10.0 for e in events)
        assert any(wake > pending > e.tti + 1 for e, (_, pending, wake) in zip(events, rearms))

    def test_adjustments_on_one_tti_keep_the_order_of_the_ues(self):
        # UE 0, far stricter, takes every grant; UEs 1 and 2 fill past the
        # threshold and starve together, so both trigger on the same TTIs,
        # first when starved for starvation_tti and then once per
        # starvation_tti, and their events come out in the order of the UEs
        ftp = [dataclasses.replace(ftp_flow(i, load=load, mean=100_000, beta=beta,
                                            adaptive=i > 0), alpha=alpha)
               for i, (alpha, beta, load) in enumerate(
                   [(1e-9, 10, 5e9), (0.5, 5000, 2e8), (0.5, 5000, 2e8)])]
        sc = make_scenario(ftp, duration=3000, peak=1e9, cqis=[15, 15, 15],
                           buffersize_bits=4_000_000, adjustment_enabled=True,
                           occupancy_threshold=0.5, starvation_tti=50)
        report = self.both(lambda cls: cls(sc, policy=Policy.BCQQ, seed=1))
        events = [(e.tti, e.ue_id) for e in report.adjustment_events]
        assert events == [(tti, ue) for tti in range(49, 3000, 50) for ue in (1, 2)]

    def test_packet_enqueued_into_a_sleeping_ue(self, trace=False):
        sc = make_scenario([ftp_flow(0, load=3e5, mean=100_000), ftp_flow(1, load=5e5),
                            video_flow(2, load=4e6)],
                           duration=600, peak=1e9, walk=0.2, cqis=[4, 9, 12],
                           window_tti=100, qoe_feedback_delay_tti=2)
        woken = []

        def enqueue(sim, tti):
            if tti % 37 != 5:
                return
            u = sim.ues[0]
            if not isinstance(sim, DenseSimulation):
                assert tti < u.next_arrival_tti and not u.buffer.queue
                woken.append(tti)
            sim.buffer(0).enqueue([300_000], tti, tti + 50)

        report = self.both(lambda cls: cls(sc, policy=Policy.PF, seed=5, collect_trace=trace),
                           enqueue)
        assert len(woken) >= 10
        assert report.per_ue[0].delivered_bits >= 300_000 * len(woken)

    def test_packet_enqueued_into_a_sleeping_ue_traced(self):
        self.test_packet_enqueued_into_a_sleeping_ue(trace=True)

    def test_door_wakes_a_sleeper_from_the_calendar(self):
        # UE 0, a light flow, sleeps in the wake calendar between door
        # enqueues, often with its wake TTI far ahead. The door makes it due
        # on the next TTI and takes it out of its calendar bucket.
        sc = make_scenario([ftp_flow(0, load=3e5, mean=100_000), ftp_flow(1, load=5e5),
                            video_flow(2, load=4e6)],
                           duration=1000, peak=1e9, walk=0.2, cqis=[4, 9, 12],
                           window_tti=100, qoe_feedback_delay_tti=2)
        early = []

        def fill(sim, tti):
            if tti % 25 != 10:
                return
            u = sim.ues[0]
            sparse = not isinstance(sim, DenseSimulation)
            if sparse and u.asleep and tti + 50 <= u.next_arrival_tti < sc.duration_tti:
                assert u in sim._calendar[u.next_arrival_tti]
                early.append(tti)
            sim.buffer(0).enqueue([300_000], tti, tti + 50)
            if sparse:
                assert not u.asleep and u in sim._due
                assert all(u not in bucket for bucket in sim._calendar.values())

        self.both(lambda cls: cls(sc, policy=Policy.BCQQ, seed=5), fill)
        assert len(early) >= 5

    @pytest.mark.parametrize("policy, trace", [(Policy.PF, False), (Policy.BCQQ, True)])
    def test_light_cell_scans_past_a_draw_to_the_end_of_the_run(self, policy, trace):
        # Flows of one packet per ~200 to ~2,500 TTIs over 3 * DRAW_MAX TTIs:
        # some wake TTIs lie more than a draw ahead, and some scans reach the
        # end of the run, where the UE sleeps on in no calendar bucket.
        flows = [ftp_flow(ue, load=2e4 * (ue + 1), mean=50_000) for ue in range(12)]
        sc = make_scenario([*flows, video_flow(12, load=2e6)], duration=3 * DRAW_MAX,
                           peak=2e9, walk=0.1, cqis=[3 + i for i in range(13)],
                           window_tti=200, qoe_feedback_delay_tti=3)
        far, sims = [], []

        def look(sim, tti):
            if not isinstance(sim, DenseSimulation):
                far.extend(u.next_arrival_tti - tti for u in sim.ues
                           if u.asleep and u.next_arrival_tti < sc.duration_tti)

        def build(cls):
            sims.append(cls(sc, policy=policy, seed=3, collect_trace=trace))
            return sims[-1]

        self.both(build, look)
        assert max(far) > DRAW_MAX + BLOCK
        ended = [u for u in sims[1].ues if u.asleep and u.next_arrival_tti == sc.duration_tti]
        assert ended
        assert all(u not in bucket for u in ended for bucket in sims[1]._calendar.values())

    @pytest.mark.parametrize("change, delay", [
        *(pytest.param("enqueue", d, id=str(d)) for d in (0, 2, 5)),
        *(pytest.param("drain", d, id=f"drain-{d}") for d in (3, 5, 11)),
    ])
    def test_outside_bits_reach_q_as_in_the_dense_loop(self, change, delay):
        # Bits enqueued or drained between steps through the door move the
        # UE's q from the next TTI on; the TTIs a sleeper slept before the
        # change keep the q of before it, and a UE drained empty sleeps on
        # with its new q. BCQQ reads q, and the scheduler sees the dense
        # loop's q on every TTI.
        load = 5e7 if change == "drain" else 5e5
        sc = make_scenario([ftp_flow(0, load=3e5, mean=100_000), ftp_flow(1, load=load),
                            video_flow(2, load=4e6)],
                           duration=600, peak=1e9, walk=0.2, cqis=[4, 9, 12],
                           window_tti=100, qoe_feedback_delay_tti=delay)
        def enqueue(sim, tti):
            if tti % 37 == 5:
                sim.buffer(0).enqueue([300_000], tti, tti + 50)

        asleep = []

        def drain(sim, tti):
            # empty the fullest UE; one whose wake TTI lies ahead sleeps
            if tti % 11 == 5:
                u = max(sim.ues, key=lambda u: u.buffer.occupied_bits)
                buf = sim.buffer(u.spec.ue_id)
                buf.drain(buf.occupied_bits, tti)
                if not isinstance(sim, DenseSimulation) and tti < u.next_arrival_tti:
                    asleep.append(tti)

        steps = []
        self.both(lambda cls: cls(sc, policy=Policy.BCQQ, seed=5),
                  enqueue if change == "enqueue" else drain, steps)
        if change == "enqueue":
            # the head of UE 0's pipe, the q the scheduler reads
            assert any(ues[0][2][0] > 1.0 for ues in steps)
        else:
            assert len(asleep) >= 3


class TestDifferentialFuzz:
    """Random cells give the dense loop's report under the sparse engine,
    alone and with outside changes through the door between steps."""

    both = TestScalarStreamReference.both

    @FUZZ
    @given(**RUNS)
    def test_plain_cells(self, cell, policy, trace, seed):
        self.both(lambda cls: cls(cell, policy=policy, seed=seed, collect_trace=trace))

    @FUZZ
    @given(data=st.data(), **RUNS)
    def test_outside_enqueues(self, data, cell, policy, trace, seed):
        # batches up to twice the buffer, so some are tail-dropped whole
        sizes = st.lists(st.integers(1, 2 * cell.buffersize_bits), min_size=1, max_size=4)
        args = st.tuples(sizes, st.floats(0.0, 1.0, exclude_min=True))
        between = data.draw(outside_changes(args, outside_enqueue))
        self.both(lambda cls: cls(cell, policy=policy, seed=seed, collect_trace=trace), between)

    @FUZZ
    @given(data=st.data(), **RUNS)
    def test_outside_drains(self, data, cell, policy, trace, seed):
        args = st.tuples(st.just(1.0) | st.floats(0.0, 1.0))
        between = data.draw(outside_changes(args, outside_drain))
        self.both(lambda cls: cls(cell, policy=policy, seed=seed, collect_trace=trace), between)


class TestMemory:
    @classmethod
    def peak_bytes(cls, duration_tti, delay=0):
        text = resources.files("qoesched").joinpath("scenarios/table1.json").read_text()
        return cls.run_peak_bytes(dataclasses.replace(
            parse_scenario(text), duration_tti=duration_tti, qoe_feedback_delay_tti=delay))

    @staticmethod
    def run_peak_bytes(sc):
        tracemalloc.start()
        try:
            run(sc, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_untraced_run_memory_is_bounded_in_run_length(self):
        # the delay record is a histogram, so an untraced run retains what
        # grows with windows and adjustment events only (table1 has neither)
        self.peak_bytes(100)  # first-use allocations of numpy and the package
        short, long = self.peak_bytes(1_000), self.peak_bytes(10_000)
        assert long < 2 * short, (short, long)

    def test_feedback_pipe_is_bounded_by_the_run_length(self):
        # a delay past the run shows q = 1 throughout, however long it is
        self.peak_bytes(100)  # first-use allocations of numpy and the package
        assert self.peak_bytes(100, delay=10**6) < 2 * self.peak_bytes(100)

    def test_sleeping_light_cell_memory_is_bounded_in_run_length(self):
        # table1's flows seldom scan past a block; here wake scans reach past
        # DRAW_MAX, and what a stream draws ahead must not grow with the run
        def peak(duration_tti):
            return self.run_peak_bytes(dataclasses.replace(
                light_cell(20), duration_tti=duration_tti, window_tti=None))

        peak(100)  # first-use allocations of numpy and the package
        short, long = peak(1_000), peak(10_000)
        assert long < 2 * short, (short, long)
