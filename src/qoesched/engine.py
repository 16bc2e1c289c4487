"""Deterministic TTI loop: arrivals, expiry, channel, QoE, scheduling, drain.

A single run is strictly single-threaded; the whole trace is a pure
function of (scenario, seed). Each (ue, purpose) pair gets its own
counter-based RNG substream so changing one flow's parameters never
perturbs another flow's arrival sequence.

Substreams are consumed in blocks (see ``streams.BufferedStream``): each
draws its doubles ``BLOCK`` at a time and serves the simulator's scalar calls
from the buffer. The sequence of values is identical to scalar ``Generator``
calls, so outputs do not depend on the block size. Small-``lam`` Poisson
samples are replayed from the buffered doubles with numpy's multiplication
sampler; that replay depends on numpy's sampler and is guarded by the
stream equivalence test in ``tests/test_streams.py``.

Per-TTI event order is fixed:
  1. generate arrivals and enqueue them in one call: the TTI's packet sizes
     share its arrival TTI and the deadline ``tti + beta_ms``
  2. expire past-deadline batches from the queue head
  3. step CQI by the scenario's ``walk_prob``; a rate is ``rate_of`` the CQI
     and its ``peak_rate_bps``
  4. read q off the buffer and feed it back (honoring the feedback delay)
  5. compute priorities and select one UE
  6. drain the winner with budget rate * TTI
  7. update served-rate EMAs
  8. evaluate the service-adjustment trigger

Steps 1-4 and the scheduling input of step 5 touch only one UE's state, so
they run in one loop over the UEs, in that order within each UE. Only UEs
with queued bits are scheduling inputs. A TTI without inputs is idle and
does not reach ``select``.

Idle UEs sleep. A UE is due on a TTI, and processed, when its wake TTI
``next_arrival_tti`` has come or when it has queued bits. In a TTI it sleeps
through, a UE has no arrival, no queued bits and no grant, so what remains
depends only on its own substreams and state, and is caught up exactly and
lazily when the UE is next processed, at each window close and at the end of
``run``: one CQI walk step per TTI from its CQI stream, its q fed into the
feedback pipe once per TTI, and one served-rate decay per TTI, multiplied
out in order because ``decay**k`` is not the same float. ``synced_tti`` marks
the first TTI not yet applied. A sleeper's q does not move, so the catch-up
reads it live, and the window close, which moves the buffer marks q reads,
catches every UE up first. The trace, written after the step, catches each
sleeper up through every TTI, so it changes no decision. Its drop columns are
the changes in the buffer's drop totals since its last row.

Two invariants keep the skipping exact:

* The traffic substream has been consumed for exactly the TTIs before the
  wake TTI, and ``arrivals`` is called on every processed TTI from the wake
  TTI on. An ``arrivals`` call that returns no packets re-arms the wake TTI
  with ``traffic.next_arrival_tti``, which consumes the draws of the TTIs it
  skips. A call that returns packets leaves the UE due on the next TTI, so a
  flow with arrivals in most TTIs never scans.
* Loads never rise under service adjustment (``factor <= 1``). A lower
  ``lam`` raises ``exp(-lam)``, so TTIs skipped under the old load stay
  arrival-free, and an adjusted UE's scan resumes from its pending wake TTI
  with the new ``lam``. ``BufferedStream`` relies on the rule too: a
  traffic stream that went to blocks at ``lam < 10`` raises if its ``lam``
  rises back to 10 while buffered doubles are pending.

``step(tti)`` therefore takes ``tti = 0, 1, 2, ..., duration_tti - 1`` in
order, as ``run`` does, and raises on any other. Between steps, a buffer
changes only through ``Simulation.buffer(ue_id)``, which first catches the UE
up through the last stepped TTI. Any change, a batch tail-dropped whole too,
then counts in q from the next TTI on, and queued bits wake their UE.
"""
from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Any

import numpy as np

from .buffering import UeBuffer
from .channel import CQI_MAX, CQI_MIN, cqi_step, cqi_walk, rate_of
from .metrics import MetricsWindow, WindowRecord, figures, q_of
from .scheduler import (
    AVG_RATE_FLOOR,
    EMA_DECAY,
    EMA_GAIN,
    PRIORITY_FN,
    Policy,
    SchedDecision,
    TTI_SECONDS,
    TTIS_PER_SECOND,
    UeSchedInput,
    qos_weight,
    select,
)
from .streams import BufferedStream
from .traffic import FlowSpec, apply_adjustment, arrivals, check_types, next_arrival_tti

# Default CQI stagger applied cyclically when a scenario gives no initial CQIs.
DEFAULT_CQI_PATTERN = (13, 11, 9, 11, 13)


@dataclass(frozen=True)
class Scenario:
    duration_tti: int
    flows: tuple[FlowSpec, ...]
    buffersize_bits: int
    peak_rate_bps: float
    name: str = "scenario"
    policy: Policy = Policy.BCQQ
    seed: int = 0
    # the CQI walk of step 3; no initial CQIs means DEFAULT_CQI_PATTERN
    walk_prob: float = 0.1
    initial_cqi_per_ue: tuple[int, ...] = ()
    qoe_feedback_delay_tti: int = 0
    q_max: float = 100.0
    window_tti: int | None = None  # None = one window spanning the full run
    # the service adjustment of step 8, read by _adjustment_check
    adjustment_enabled: bool = False
    occupancy_threshold: float = 0.8
    starvation_tti: int = 100
    adjustment_factor: float = 0.75
    annotations: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        check_types(self)
        if self.duration_tti < 1:
            raise ValueError("duration_tti must be >= 1")
        if not self.flows:
            raise ValueError("flows must not be empty")
        ids = [f.ue_id for f in self.flows]
        if len(set(ids)) != len(ids):
            raise ValueError("flows must have distinct ue_ids")
        if not 0.0 < self.peak_rate_bps < math.inf:
            raise ValueError("peak_rate_bps must be positive and finite")
        if not 0.0 <= self.walk_prob <= 1.0:
            raise ValueError("walk_prob must be in [0, 1]")
        for c in self.initial_cqi_per_ue:
            if type(c) is not int:
                raise ValueError(f"initial_cqi_per_ue must be an integer, got {c!r}")
            if not CQI_MIN <= c <= CQI_MAX:
                raise ValueError(f"initial_cqi_per_ue entry {c} outside [{CQI_MIN}, {CQI_MAX}]")
        n_cqis = len(self.initial_cqi_per_ue)
        if n_cqis and n_cqis != len(self.flows):
            raise ValueError(f"initial_cqi_per_ue must give one CQI per flow, "
                             f"got {n_cqis} for {len(self.flows)} flows")
        if self.buffersize_bits <= 0:
            raise ValueError("buffersize_bits must be positive")
        if self.qoe_feedback_delay_tti < 0:
            raise ValueError("qoe_feedback_delay_tti must be >= 0")
        if self.window_tti is not None and self.window_tti < 1:
            raise ValueError("window_tti must be >= 1")
        if not 1.0 <= self.q_max < math.inf:
            raise ValueError(f"q_max must be >= 1 and finite, got {self.q_max}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.occupancy_threshold < 1.0:
            raise ValueError("occupancy_threshold must be in (0, 1)")
        if self.starvation_tti < 1:
            raise ValueError("starvation_tti must be >= 1")
        if not 0.0 < self.adjustment_factor <= 1.0:
            raise ValueError("adjustment_factor must be in (0, 1]")
        # summary.json repeats the annotations, so they must be strict JSON
        # that reads back as themselves: string keys, lists and no NaN
        try:
            back = json.loads(json.dumps(self.annotations, allow_nan=False))
        except ValueError:
            raise ValueError("annotations must hold only finite numbers") from None
        except TypeError as e:
            raise ValueError(f"annotations must hold only JSON values: {e}") from None
        if back != self.annotations:
            raise ValueError(f"annotations must hold only JSON values: "
                             f"{self.annotations!r} reads back as {back!r}")


@dataclass
class UeState:
    flow: FlowSpec  # as the scenario configured it
    spec: FlowSpec  # the flow as adjusted so far
    buffer: UeBuffer
    cqi: int
    traffic_rng: BufferedStream
    cqi_rng: BufferedStream
    # q feedback pipeline: index 0 is the value the scheduler sees now.
    q_pipe: deque[float]
    # fixed per flow: service adjustment changes only the load
    qos_weight: float
    avg_rate_bps: float = 1.0
    last_served_tti: int = -1
    last_adjust_tti: int | None = None
    # wake TTI: the traffic stream is consumed for exactly the TTIs before
    # it, which have no arrivals; arrivals() runs on every TTI from it on
    # that the UE is processed
    next_arrival_tti: int = 0
    # first TTI whose CQI step, q feedback and EMA decay are not yet applied
    synced_tti: int = 0
    sched_count: int = 0
    # the buffer's drop totals at the UE's last trace row, kept by _trace
    traced_deadline_bits: int = 0
    traced_overflow_bits: int = 0


@dataclass
class AdjustmentEvent:
    tti: int
    ue_id: int
    occupancy_ratio: float
    starved_tti: int
    old_load_bps: float
    new_load_bps: float


@dataclass
class UeReport:
    ue_id: int
    traffic_class: str
    arrived_bits: int
    delivered_bits: int
    dropped_overflow_bits: int
    dropped_deadline_bits: int
    buffered_bits: int
    throughput_bps: float
    sched_count: int
    mean_delay_ms: float | None
    p99_delay_ms: float | None
    loss_rate: float | None


@dataclass
class SimReport:
    policy: str
    seed: int
    duration_tti: int
    per_ue: list[UeReport]
    total_arrived_bits: int
    total_delivered_bits: int
    total_throughput_bps: float
    jfi: float | None
    qoe_fi: float | None
    windows: list[WindowRecord]
    adjustment_events: list[AdjustmentEvent]
    trace_rows: list[tuple] | None = None


def _substream(seed: int, ue_id: int, purpose: int) -> BufferedStream:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(ue_id, purpose))
    return BufferedStream(np.random.Generator(np.random.Philox(ss)))


_PURPOSE_TRAFFIC = 0
_PURPOSE_CQI = 1


class Simulation:
    """Mutable state for one run; step() executes one TTI."""

    def __init__(self, scenario: Scenario, policy: Policy | str | None = None,
                 seed: int | None = None, collect_trace: bool = False):
        # a seed is checked as the scenario's; a policy's name is taken too,
        # and an unknown one fails before the run
        self.scenario = scenario if seed is None else replace(scenario, seed=seed)
        self.policy = Policy(policy if policy is not None else scenario.policy)

        init_cqis = scenario.initial_cqi_per_ue or tuple(
            DEFAULT_CQI_PATTERN[i % len(DEFAULT_CQI_PATTERN)]
            for i in range(len(scenario.flows))
        )

        # The scheduler reads the pipe's head: q from ``delay`` TTIs back, or
        # 1.0 before then, so a delay past the run length shows 1.0 throughout.
        delay = min(scenario.qoe_feedback_delay_tti, scenario.duration_tti)
        self.ues = [
            UeState(
                flow=flow, spec=flow,
                buffer=UeBuffer(scenario.buffersize_bits),
                cqi=cqi0,
                traffic_rng=_substream(self.scenario.seed, flow.ue_id, _PURPOSE_TRAFFIC),
                cqi_rng=_substream(self.scenario.seed, flow.ue_id, _PURPOSE_CQI),
                q_pipe=deque([1.0] * (delay + 1), maxlen=delay + 1),
                qos_weight=qos_weight(flow.alpha, flow.beta_ms / TTIS_PER_SECOND),
            )
            for flow, cqi0 in zip(scenario.flows, init_cqis, strict=True)
        ]
        self._ue_by_id = {u.spec.ue_id: u for u in self.ues}

        self.window = MetricsWindow({u.spec.ue_id: u.buffer for u in self.ues})
        self.adjustment_events: list[AdjustmentEvent] = []
        self.trace_rows: list[tuple] | None = [] if collect_trace else None
        self._next_tti = 0

    def step(self, tti: int) -> SchedDecision:
        # Sleepers are caught up by TTI count, so no TTI may be skipped or
        # repeated; the wake scan and the feedback pipe end with the run.
        sc = self.scenario
        if tti != self._next_tti or tti >= sc.duration_tti:
            raise ValueError(f"step({tti}): TTIs run in order from 0 to "
                             f"{sc.duration_tti - 1}, the next is {self._next_tti}")
        self._next_tti = tti + 1
        walk_prob = sc.walk_prob
        peak = sc.peak_rate_bps
        q_max = sc.q_max

        # Steps 1-5 per due UE; only UEs with queued bits become inputs.
        due: list[UeState] = []
        inputs: list[UeSchedInput] = []
        for u in self.ues:
            if tti < u.next_arrival_tti and not u.buffer.queue:
                continue
            due.append(u)
            if tti > u.synced_tti:
                self._catch_up(u, tti)
            u.synced_tti = tti + 1
            spec = u.spec
            ue_id = spec.ue_id
            buf = u.buffer

            # 1. arrivals; a TTI without any re-arms the wake TTI
            if tti >= u.next_arrival_tti:
                sizes = arrivals(spec, tti, u.traffic_rng)
                if not sizes:
                    u.next_arrival_tti = next_arrival_tti(spec, tti + 1, u.traffic_rng,
                                                          sc.duration_tti)
                else:
                    buf.enqueue(sizes, tti, tti + spec.beta_ms)

            # 2. deadline expiry, due once the head batch's deadline has come
            if buf.queue and buf.queue[0][3] <= tti:
                buf.expire(tti)

            # 3. channel
            cqi = u.cqi = cqi_step(u.cqi, walk_prob, u.cqi_rng)

            # 4. QoE feedback (possibly delayed)
            pipe = u.q_pipe
            pipe.append(q_of(buf, q_max))

            # 5a. scheduling input, built positionally: keyword arguments
            # cost several times more per call
            if buf.occupied_bits:
                inputs.append(
                    UeSchedInput(
                        ue_id,                                    # ue_id
                        buf.occupied_bits,                        # buffer_bits
                        sc.buffersize_bits,                       # buffersize_bits
                        u.qos_weight,                             # qos_weight
                        pipe[0],                                  # q
                        rate_of(cqi, peak),                       # rate_bps
                        buf.hol_delay_tti(tti) * TTI_SECONDS,     # hol_delay_s
                        u.avg_rate_bps,                           # avg_rate_bps
                        u.last_served_tti,                        # last_served_tti
                    )
                )

        # 5b. selection; a TTI without candidates is idle
        decision = select(inputs, self.policy) if inputs else SchedDecision(None, 0)

        # 6. transmission
        winner = None
        tx = 0
        if decision.selected_ue is not None:
            winner = self._ue_by_id[decision.selected_ue]
            tx = winner.buffer.drain(decision.budget_bits, tti)[0]
            winner.sched_count += 1
            winner.last_served_tti = tti

        # 7. served-rate EMAs of the due UEs, by the scheduler's EMA_DECAY
        # and EMA_GAIN; sleeping UEs decay at their catch-up. A UE not served
        # adds EMA_GAIN * 0.0 == 0.0, which leaves the positive decayed rate
        # exactly as it is, so that term is left out.
        for u in due:
            avg = EMA_DECAY * u.avg_rate_bps
            if u is winner:
                avg = avg + EMA_GAIN * (tx / TTI_SECONDS)
            u.avg_rate_bps = AVG_RATE_FLOOR if avg < AVG_RATE_FLOOR else avg

        # 8. adjustment trigger
        if sc.adjustment_enabled:
            self._adjustment_check(tti, due)

        if self.trace_rows is not None:
            self._trace(tti, inputs, decision, winner, tx)

        if sc.window_tti is not None and (tti + 1 - self.window.start_tti) >= sc.window_tti:
            self._close_window(tti + 1)
        return decision

    def _trace(self, tti: int, inputs: list[UeSchedInput], decision: SchedDecision,
               winner: UeState | None, tx: int) -> None:
        """Append one row per UE for this TTI; a UE with nothing queued has priority 0.

        Drop columns are the changes in the buffer's drop totals since the
        UE's last row: a drop between steps shows in the next row."""
        peak = self.scenario.peak_rate_bps
        pfn = PRIORITY_FN[self.policy]
        priority_of = {i.ue_id: pfn(i) for i in inputs}
        for u in self.ues:
            if u.synced_tti <= tti:
                self._catch_up(u, tti + 1)
            buf = u.buffer
            deadline = buf.dropped_deadline_bits - u.traced_deadline_bits
            overflow = buf.dropped_overflow_bits - u.traced_overflow_bits
            u.traced_deadline_bits = buf.dropped_deadline_bits
            u.traced_overflow_bits = buf.dropped_overflow_bits
            ue_id = u.spec.ue_id
            self.trace_rows.append((  # output.TRACE_COLUMNS
                tti, ue_id, u.cqi, rate_of(u.cqi, peak), buf.occupied_bits, u.q_pipe[0],
                priority_of.get(ue_id, 0.0), 1 if decision.selected_ue == ue_id else None,
                tx if u is winner else 0, deadline, overflow,
            ))

    def buffer(self, ue_id: int) -> UeBuffer:
        """UE ``ue_id``'s buffer, the one door for changing it between steps:
        the UE is caught up first, so its slept TTIs keep their q."""
        u = self._ue_by_id[ue_id]
        if self._next_tti > u.synced_tti:
            self._catch_up(u, self._next_tti)
        return u.buffer

    def _catch_up(self, u: UeState, until: int) -> None:
        """Apply the TTIs from ``u.synced_tti`` to ``until`` that the UE slept, at its q now."""
        k = until - u.synced_tti
        u.synced_tti = until
        u.cqi = cqi_walk(u.cqi, self.scenario.walk_prob, u.cqi_rng.random(k))
        pipe = u.q_pipe
        pipe.extend([q_of(u.buffer, self.scenario.q_max)] * min(k, pipe.maxlen))
        # k decays, multiplied out in order: decay**k differs in the last
        # bits. The rate only falls, so it ends below the floor exactly when
        # the floored rate would have reached the floor, which it keeps.
        avg = u.avg_rate_bps
        if avg > AVG_RATE_FLOOR:
            avg = math.prod(repeat(EMA_DECAY, k), start=avg)
            u.avg_rate_bps = AVG_RATE_FLOOR if avg < AVG_RATE_FLOOR else avg

    def _adjustment_check(self, tti: int, due: list[UeState]) -> None:
        # A UE that slept this TTI has no queued bits, so its occupancy is at
        # or below any threshold in (0, 1): only due UEs can trigger.
        sc = self.scenario
        for u in due:
            if not u.spec.adaptive:
                continue
            ratio = u.buffer.occupied_bits / sc.buffersize_bits
            starved = tti - u.last_served_tti
            if ratio <= sc.occupancy_threshold or starved < sc.starvation_tti:
                continue
            if u.last_adjust_tti is not None and tti - u.last_adjust_tti < sc.starvation_tti:
                continue
            old_load = u.spec.offered_load_bps
            u.spec = apply_adjustment(u.spec, sc.adjustment_factor, u.flow.offered_load_bps)
            u.last_adjust_tti = tti
            # The load did not rise, so the TTIs already skipped stay
            # arrival-free; scan on from the pending wake TTI with the new lam.
            u.next_arrival_tti = next_arrival_tti(u.spec, max(u.next_arrival_tti, tti + 1),
                                                  u.traffic_rng, sc.duration_tti)
            self.adjustment_events.append(
                AdjustmentEvent(
                    tti=tti,
                    ue_id=u.spec.ue_id,
                    occupancy_ratio=ratio,
                    starved_tti=starved,
                    old_load_bps=old_load,
                    new_load_bps=u.spec.offered_load_bps,
                )
            )

    def _close_window(self, end_tti: int) -> None:
        # the close moves the marks q reads, so sleepers catch up first
        for u in self.ues:
            if end_tti > u.synced_tti:
                self._catch_up(u, end_tti)
        self.window.close(end_tti)

    def run(self) -> SimReport:
        # The last window closes at the end of the run, in the last step or
        # here, and leaves every UE caught up.
        for tti in range(self.scenario.duration_tti):
            self.step(tti)
        if self.window.start_tti < self.scenario.duration_tti:
            self._close_window(self.scenario.duration_tti)
        return self._report()

    def _report(self) -> SimReport:
        duration_s = self.scenario.duration_tti * TTI_SECONDS
        per_ue = []
        for u in self.ues:
            b = u.buffer
            delay = b.delay_mean_p99()
            dropped = b.dropped_overflow_bits + b.dropped_deadline_bits
            per_ue.append(
                UeReport(
                    ue_id=u.spec.ue_id,
                    traffic_class=u.spec.traffic_class.value,
                    arrived_bits=b.arrived_bits,
                    delivered_bits=b.delivered_bits,
                    dropped_overflow_bits=b.dropped_overflow_bits,
                    dropped_deadline_bits=b.dropped_deadline_bits,
                    buffered_bits=b.occupied_bits,
                    throughput_bps=b.delivered_bits / duration_s,
                    sched_count=u.sched_count,
                    mean_delay_ms=delay[0] if delay else None,
                    p99_delay_ms=float(delay[1]) if delay else None,
                    loss_rate=(dropped / b.arrived_bits) if b.arrived_bits else None,
                )
            )
        arrived = [r.arrived_bits for r in per_ue]
        tx, throughput, jfi_val, fi_val = figures(
            [r.delivered_bits for r in per_ue], arrived, self.scenario.duration_tti)
        return SimReport(
            policy=self.policy.value,
            seed=self.scenario.seed,
            duration_tti=self.scenario.duration_tti,
            per_ue=per_ue,
            total_arrived_bits=sum(arrived),
            total_delivered_bits=tx,
            total_throughput_bps=throughput,
            jfi=jfi_val,
            qoe_fi=fi_val,
            windows=self.window.records,
            adjustment_events=self.adjustment_events,
            trace_rows=self.trace_rows,
        )


def run(scenario: Scenario, policy: Policy | str | None = None, seed: int | None = None,
        collect_trace: bool = False) -> SimReport:
    """Execute one deterministic run of the scenario."""
    return Simulation(scenario, policy=policy, seed=seed, collect_trace=collect_trace).run()
