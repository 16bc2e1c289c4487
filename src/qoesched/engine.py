"""Deterministic TTI loop: arrivals, expiry, channel, QoE, scheduling, drain.

A single run is strictly single-threaded; the whole trace is a pure
function of (scenario, seed). Each (ue, purpose) pair gets its own
counter-based RNG substream (``streams.substream``) so changing one flow's
parameters never perturbs another flow's arrival sequence.

Substreams are consumed in blocks and chunks: a traffic stream
(``streams.BufferedStream``) draws its doubles ``BLOCK`` at a time and serves
from the buffer an FTP arrival TTI's Poisson count and its packet uniforms in
one call, a video frame's uniform and a wake scan's zero samples; a CQI
stream (``streams.MoveStream``) draws its doubles in numpy chunks and keeps
only the walk's moves, the doubles below ``walk_prob`` with their TTIs. The
sequence of values is identical to scalar ``Generator`` calls, so outputs do
not depend on the block or chunk size. Small-``lam`` Poisson samples are
replayed from the buffered doubles with numpy's multiplication sampler;
that replay depends on numpy's sampler and is guarded by the stream
equivalence test in ``tests/test_streams.py``.

Per-TTI event order is fixed:
  1. generate arrivals and enqueue them in one call: the TTI's packet sizes
     share its arrival TTI and the deadline ``tti + beta_ms``
  2. expire past-deadline batches from the queue head
  3. step CQI by the scenario's ``walk_prob``, on the TTIs its stream moves
     it; a rate is read from the cell's rate table, which ``rate_of`` fills
     once per CQI from ``peak_rate_bps``
  4. under BCQQ or with a trace, feed the UE's q, ``UeState.q_now``, back
     (honoring the feedback delay)
  5. select one UE: each UE's one scheduling record, refreshed, is its input
  6. drain the winner with budget rate * TTI
  7. count the winner's grant and, under PF and M-LWDF, whose priorities read
     them, update the served-rate EMAs
  8. evaluate the service-adjustment trigger

A UE's q is ``q_of(buffer, q_max)``, which moves only with the buffer's
arrived and delivered totals and its window marks. So ``q_now`` holds it and
is recomputed when they move: after the UE's arrivals are enqueued, after the
winner's drain, for every UE at a window close, and at the start of a step
for each UE that went through the door ``Simulation.buffer`` and, before the
first step, for every UE. q is read only by BCQQ's priority and by the
trace's q column (``scheduler.READS_Q``), so it is kept only under BCQQ or
when a trace is collected. Otherwise the engine computes no q, feeds no
pipe and takes no close snapshot, and each pipe and record keeps its initial
1.0, as the EMA does under BCQQ and RR.

Steps 1-4 and the scheduling input of step 5 touch only one UE's state, so
they run in one loop over the due UEs, in that order within each UE. Only UEs
with queued bits are scheduling inputs: a UE's record (``UeState.sched``,
made once per run) gets its per-TTI fields refreshed and joins the inputs, so
no input is built per TTI. ``select`` writes each input's priority to the
record, where the trace reads it. A TTI without inputs is idle and does not
reach ``select``. Steps 7 and 8 touch one UE each too, so after the drain
and the winner's grant one closing pass walks the due UEs: per UE, the
served-rate EMA under PF and M-LWDF, the adjustment trigger if the UE is
adaptive with queued bits, and sleep if it has no queued bits and a wake TTI
after the next. Adjustment events thus keep the order of ``ues`` within a
TTI. Under BCQQ and RR each record's EMA stays at the floor it starts at.

Idle UEs sleep. A UE is due on a TTI, and processed, when its wake TTI
``next_arrival_tti`` has come or when it has queued bits. The step walks only
the due UEs, kept in the order of ``ues``; the sleepers wait in a wake
calendar (R. Brown, "Calendar queues", CACM 31(10), 1988), a dict from wake
TTI to the UEs asleep until then. A due UE falls asleep in the closing pass;
one whose wake TTI is at or past the run's end enters no bucket. A bucket
wakes its UEs on its TTI, merged into the due UEs in the order of ``ues``.
The closing pass lists the next TTI's due UEs as it walks this TTI's, so a
cell whose UEs are all due pays one list append per UE and TTI for the
calendar. In a TTI it sleeps through, a UE has no arrival, no queued bits and
no grant, so what remains depends only on its own substreams and state, and
is caught up exactly and lazily when the UE is next processed, by the trace
and at the end of ``run``: the CQI walk's moves in the slept TTIs, taken
from its CQI stream in one ``cqi_step`` call, where q is kept its q fed into
the feedback pipe once per TTI, and under PF and M-LWDF one served-rate
decay per TTI, multiplied out in order because ``decay**k`` is not the same
float.
``synced_tti`` marks the first TTI not yet applied. A sleeper's q moves only
at a window close, so a close catches no UE up: a UE asleep through one
keeps its ``q_now`` of before the first close it sleeps through, with that
close's TTI, and its catch-up feeds that q for the TTIs before the close and
``q_now`` after it, which is 1 since the UE's window volumes are then 0. The
trace, written after the step, catches each sleeper up through every TTI, and
keeps q under every policy, which only BCQQ's decisions read, so it changes
no decision. Its drop columns are the changes in the buffer's drop
totals since its last row.

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
up through the last stepped TTI and wakes it: it leaves its calendar bucket
and is due on the next TTI, which is exact, as processing a sleeper's TTI is
the same as catching it up by one. Any change, a batch tail-dropped whole
too, then counts in q from the next TTI on, whose step recomputes the UE's
``q_now`` first.
"""
from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import repeat
from operator import attrgetter
from typing import Any, NamedTuple

from .buffering import UeBuffer
from .channel import CQI_MAX, CQI_MIN, cqi_step, rate_of
from .metrics import MetricsWindow, WindowRecord, figures, q_of
from .scheduler import (
    AVG_RATE_FLOOR,
    EMA_DECAY,
    EMA_GAIN,
    Policy,
    SchedDecision,
    TTI_SECONDS,
    TTIS_PER_SECOND,
    READS_AVG_RATE,
    READS_Q,
    UeSchedInput,
    qos_weight,
    select,
)
from .streams import BufferedStream, MoveStream, substream
from .traffic import FlowSpec, apply_adjustment, arrivals, check_types, next_arrival_tti

# Default CQI stagger applied cyclically when a scenario gives no initial CQIs.
DEFAULT_CQI_PATTERN = (13, 11, 9, 11, 13)


@dataclass(frozen=True)
class Scenario:
    """One cell's settings: its flows, buffer, channel, QoE and adjustment."""
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


class UeState:
    """One UE's run state. ``flow`` is the flow as the scenario configured it,
    ``spec`` the flow as adjusted so far, ``sched`` the UE's scheduling record:
    the one account of its QoS weight, served-rate EMA and last grant."""

    def __init__(self, index: int, flow: FlowSpec, buffer: UeBuffer, cqi: int,
                 traffic_rng: BufferedStream, cqi_rng: MoveStream, q_pipe: deque[float],
                 sched: UeSchedInput):
        self.index = index  # position in Simulation.ues, the order of the due UEs
        self.flow = self.spec = flow
        self.buffer = buffer
        self.cqi = cqi
        self.traffic_rng = traffic_rng
        self.cqi_rng = cqi_rng
        # q feedback pipeline: index 0 is the value the scheduler sees now.
        self.q_pipe = q_pipe
        self.sched = sched
        self.last_adjust_tti: int | None = None
        # wake TTI: the traffic stream is consumed for exactly the TTIs before
        # it, which have no arrivals; arrivals() runs on every TTI from it on
        # that the UE is processed
        self.next_arrival_tti = 0
        # first TTI whose CQI step, q feedback and EMA decay are not yet applied
        self.synced_tti = 0
        # q_of(buffer, q_max), recomputed when the buffer's totals or marks move
        self.q_now = 1.0
        # the first window close the UE slept through since its last catch-up,
        # if any, and its q_now before that close
        self.close_tti: int | None = None
        self.close_q = 1.0
        # not due until the wake TTI: in the wake calendar, or past the run's end
        self.asleep = False
        self.sched_count = 0
        # the buffer's drop totals at the UE's last trace row, kept by _trace
        self.traced_deadline_bits = 0
        self.traced_overflow_bits = 0


class AdjustmentEvent(NamedTuple):
    tti: int
    ue_id: int
    occupancy_ratio: float
    starved_tti: int
    old_load_bps: float
    new_load_bps: float


class UeReport(NamedTuple):
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


class SimReport(NamedTuple):
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


_PURPOSE_TRAFFIC = 0
_PURPOSE_CQI = 1

_INDEX = attrgetter("index")


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
                index=i,
                flow=flow,
                buffer=UeBuffer(scenario.buffersize_bits),
                cqi=cqi0,
                traffic_rng=BufferedStream(
                    substream(self.scenario.seed, flow.ue_id, _PURPOSE_TRAFFIC)),
                cqi_rng=MoveStream(substream(self.scenario.seed, flow.ue_id, _PURPOSE_CQI),
                                   scenario.walk_prob, scenario.duration_tti),
                q_pipe=deque([1.0] * (delay + 1), maxlen=delay + 1),
                # the QoS weight is fixed per flow: adjustment changes only the load
                sched=UeSchedInput(
                    ue_id=flow.ue_id, buffer_bits=0, buffersize_bits=scenario.buffersize_bits,
                    qos_weight=qos_weight(flow.alpha, flow.beta_ms / TTIS_PER_SECOND),
                    q=1.0, rate_bps=0.0, hol_delay_s=0.0, avg_rate_bps=1.0, last_served_tti=-1),
            )
            for i, (flow, cqi0) in enumerate(zip(scenario.flows, init_cqis, strict=True))
        ]
        self._ue_by_id = {u.spec.ue_id: u for u in self.ues}
        # CQI -> rate, the index being the CQI: rate_of once per CQI, not per use
        self._rates = [None] * CQI_MIN + [rate_of(c, scenario.peak_rate_bps)
                                          for c in range(CQI_MIN, CQI_MAX + 1)]

        self.window = MetricsWindow({u.spec.ue_id: u.buffer for u in self.ues})
        self.adjustment_events: list[AdjustmentEvent] = []
        self.trace_rows: list[tuple] | None = [] if collect_trace else None
        # q is kept only where read: by BCQQ's priority and by the trace
        self._keep_q = self.policy in READS_Q or collect_trace
        self._next_tti = 0
        # the UEs due on the next TTI, in the order of self.ues, and the wake
        # calendar: wake TTI -> the UEs asleep until then
        self._due = list(self.ues)
        self._calendar: dict[int, list[UeState]] = {}
        # the UEs whose q_now the next step recomputes: those that went
        # through the door, and before the first step every UE
        self._opened = list(self.ues)

    def step(self, tti: int) -> SchedDecision:
        # Sleepers are caught up by TTI count, so no TTI may be skipped or
        # repeated; the wake scan and the feedback pipe end with the run.
        sc = self.scenario
        if tti != self._next_tti or tti >= sc.duration_tti:
            raise ValueError(f"step({tti}): TTIs run in order from 0 to "
                             f"{sc.duration_tti - 1}, the next is {self._next_tti}")
        self._next_tti = tti + 1
        walk_prob = sc.walk_prob
        rates = self._rates
        q_max = sc.q_max
        mlwdf = self.policy is Policy.MLWDF
        keep_q = self._keep_q
        # the q of each buffer changed through the door since the last step
        if keep_q:
            for u in self._opened:
                u.q_now = q_of(u.buffer, q_max)
        self._opened.clear()

        # Steps 1-5 per due UE; only UEs with queued bits become inputs.
        due = self._due
        woken = self._calendar.pop(tti, None)
        if woken:
            for u in woken:
                u.asleep = False
            due = sorted(due + woken, key=_INDEX)
        inputs: list[UeSchedInput] = []
        for u in due:
            if tti > u.synced_tti:
                self._catch_up(u, tti)
            u.synced_tti = tti + 1
            spec = u.spec
            buf = u.buffer

            # 1. arrivals; a TTI without any re-arms the wake TTI
            if tti >= u.next_arrival_tti:
                sizes = arrivals(spec, tti, u.traffic_rng)
                if not sizes:
                    u.next_arrival_tti = next_arrival_tti(spec, tti + 1, u.traffic_rng,
                                                          sc.duration_tti)
                else:
                    buf.enqueue(sizes, tti, tti + spec.beta_ms)
                    if keep_q:
                        u.q_now = q_of(buf, q_max)

            # 2. deadline expiry, due once the head batch's deadline has come
            if buf.queue and buf.queue[0][3] <= tti:
                buf.expire(tti)

            # 3. channel: the CQI moves on the TTIs of its stream's moves
            cqi_rng = u.cqi_rng
            if tti >= cqi_rng.next_index:
                u.cqi = cqi_step(u.cqi, walk_prob, cqi_rng.take(tti + 1))

            # 4. QoE feedback (possibly delayed), where q is kept
            if keep_q:
                u.q_pipe.append(u.q_now)

            # 5a. scheduling input: the record with its per-TTI fields refreshed
            if buf.occupied_bits:
                s = u.sched
                s.buffer_bits = buf.occupied_bits
                if keep_q:
                    s.q = u.q_pipe[0]
                s.rate_bps = rates[u.cqi]
                if mlwdf:
                    s.hol_delay_s = buf.hol_delay_tti(tti) * TTI_SECONDS
                inputs.append(s)

        # 5b. selection; a TTI without candidates is idle
        decision = select(inputs, self.policy) if inputs else SchedDecision(None, 0)

        # 6. transmission
        winner = None
        tx = 0
        if decision.selected_ue is not None:
            winner = self._ue_by_id[decision.selected_ue]
            tx = winner.buffer.drain(decision.budget_bits, tti)[0]
            if keep_q:
                winner.q_now = q_of(winner.buffer, q_max)
            winner.sched_count += 1
            winner.sched.last_served_tti = tti

        # 7-8. The closing pass over the due UEs, in their order. A UE not
        # served adds EMA_GAIN * 0.0 == 0.0 to its EMA, which leaves the
        # positive decayed rate exactly as it is, so that term is left out.
        # The UEs that stay awake are due on the next TTI.
        adjust = sc.adjustment_enabled
        ema = self.policy in READS_AVG_RATE  # the EMA is kept only where read
        awake = []
        for u in due:
            if ema:
                s = u.sched
                avg = EMA_DECAY * s.avg_rate_bps
                if u is winner:
                    avg = avg + EMA_GAIN * (tx / TTI_SECONDS)
                s.avg_rate_bps = AVG_RATE_FLOOR if avg < AVG_RATE_FLOOR else avg
            if u.buffer.occupied_bits:
                if adjust and u.spec.adaptive:
                    self._adjustment_check(tti, u)
            elif u.next_arrival_tti > tti + 1:
                # a wake TTI at or past the run's end enters no bucket
                u.asleep = True
                if u.next_arrival_tti < sc.duration_tti:
                    self._calendar.setdefault(u.next_arrival_tti, []).append(u)
                continue
            awake.append(u)
        self._due = awake

        if self.trace_rows is not None:
            self._trace(tti, inputs, winner, tx)

        if sc.window_tti is not None and (tti + 1 - self.window.start_tti) >= sc.window_tti:
            self._close_window(tti + 1)
        return decision

    def _trace(self, tti: int, inputs: list[UeSchedInput], winner: UeState | None,
               tx: int) -> None:
        """Append one row per UE for this TTI; a UE with nothing queued has priority 0.

        ``inputs`` are records of ``self.ues`` in their order, so one walk
        pairs each UE with the priority ``select`` wrote, if it was scored.
        Drop columns are the changes in the buffer's drop totals since the
        UE's last row: a drop between steps shows in the next row."""
        rates = self._rates
        scored = iter(inputs)
        nxt = next(scored, None)
        for u in self.ues:
            if u.sched is nxt:
                priority = nxt.priority
                nxt = next(scored, None)
            else:
                priority = 0.0
            if u.synced_tti <= tti:
                self._catch_up(u, tti + 1)
            buf = u.buffer
            deadline = buf.dropped_deadline_bits - u.traced_deadline_bits
            overflow = buf.dropped_overflow_bits - u.traced_overflow_bits
            u.traced_deadline_bits = buf.dropped_deadline_bits
            u.traced_overflow_bits = buf.dropped_overflow_bits
            self.trace_rows.append((  # output.TRACE_COLUMNS
                tti, u.spec.ue_id, u.cqi, rates[u.cqi], buf.occupied_bits, u.q_pipe[0],
                priority, 1 if u is winner else None, tx if u is winner else 0,
                deadline, overflow,
            ))

    def buffer(self, ue_id: int) -> UeBuffer:
        """UE ``ue_id``'s buffer, the one door for changing it between steps:
        the UE is caught up first, so its slept TTIs keep their q, and is due
        on the next TTI, so queued bits count from then on."""
        u = self._ue_by_id.get(ue_id)
        if u is None:
            raise ValueError(f"buffer({ue_id!r}): no UE has that id; "
                             f"the cell's ue_ids are {list(self._ue_by_id)}")
        if self._next_tti > u.synced_tti:
            self._catch_up(u, self._next_tti)
        self._opened.append(u)
        if u.asleep:
            # processing a sleeper's TTI is the same as catching it up by one
            if u.next_arrival_tti < self.scenario.duration_tti:
                self._calendar[u.next_arrival_tti].remove(u)
            u.asleep = False
            self._due = sorted([*self._due, u], key=_INDEX)
        return u.buffer

    def _catch_up(self, u: UeState, until: int) -> None:
        """Apply the TTIs from ``u.synced_tti`` to ``until`` that the UE slept:
        its q is ``close_q`` before ``close_tti``, if it slept through a
        close, and ``q_now`` from then on."""
        start = u.synced_tti
        u.synced_tti = until
        if until > u.cqi_rng.next_index:
            u.cqi = cqi_step(u.cqi, self.scenario.walk_prob, u.cqi_rng.take(until))
        if self._keep_q:
            pipe = u.q_pipe
            mid = start
            if u.close_tti is not None:
                mid, u.close_tti = u.close_tti, None
                pipe.extend([u.close_q] * min(mid - start, pipe.maxlen))
            pipe.extend([u.q_now] * min(until - mid, pipe.maxlen))
        # One decay per TTI, multiplied out in order: decay**k differs in the
        # last bits. The rate only falls, so it ends below the floor exactly
        # when the floored rate would have reached the floor, which it keeps.
        # Under a policy that keeps no EMA the rate stays at the floor it
        # starts at, so the check skips it.
        s = u.sched
        avg = s.avg_rate_bps
        if avg > AVG_RATE_FLOOR:
            avg = math.prod(repeat(EMA_DECAY, until - start), start=avg)
            s.avg_rate_bps = AVG_RATE_FLOOR if avg < AVG_RATE_FLOOR else avg

    def _adjustment_check(self, tti: int, u: UeState) -> None:
        """Step 8 for an adaptive UE with queued bits: a UE over the occupancy
        threshold and starved for ``starvation_tti`` has its load cut, at most
        once per ``starvation_tti``."""
        sc = self.scenario
        ratio = u.buffer.occupied_bits / sc.buffersize_bits
        starved = tti - u.sched.last_served_tti
        if ratio <= sc.occupancy_threshold or starved < sc.starvation_tti:
            return
        if u.last_adjust_tti is not None and tti - u.last_adjust_tti < sc.starvation_tti:
            return
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
        # The close moves the marks q reads and catches no UE up: a UE asleep
        # through it keeps its q of before the first close it sleeps through
        # for its catch-up.
        self.window.close(end_tti)
        if not self._keep_q:
            return
        q_max = self.scenario.q_max
        for u in self.ues:
            if u.synced_tti < end_tti and u.close_tti is None:
                u.close_tti, u.close_q = end_tti, u.q_now
            u.q_now = q_of(u.buffer, q_max)

    def run(self) -> SimReport:
        # The last window closes at the end of the run, in the last step or
        # here; then every UE is caught up to the end.
        end = self.scenario.duration_tti
        for tti in range(end):
            self.step(tti)
        if self.window.start_tti < end:
            self._close_window(end)
        for u in self.ues:
            if u.synced_tti < end:
                self._catch_up(u, end)
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
