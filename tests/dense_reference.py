"""The dense engine loop, kept as the reference for the sparse one.

``DenseSimulation`` processes every UE on every TTI: it calls ``arrivals``,
steps the CQI, feeds q into the feedback pipe and decays the served-rate
EMA for each UE in each TTI, and draws from plain ``Generator`` substreams
with scalar calls. Its ``step``, ``_adjustment_check``, ``_close_window``
and ``run`` are the engine's loop as it stood before idle UEs could sleep,
changed since only where the buffer, window, channel, scheduler and trace
interfaces changed (one ``enqueue`` call per TTI's packets, an ``expire``
call on every TTI, window volumes and delivery delays kept by the buffer, an
``int`` CQI, a per-flow QoS weight, trace drop columns as changes in the drop
totals); only set-up and
the report are shared with ``Simulation``. Its ``buffer(ue_id)``, the door
for outside changes, is a plain lookup: no UE sleeps, so there is nothing to
catch up. Its served-rate EMA is ``update_avg_rate``, written from
``AVG_RATE_TC`` and not from the ``EMA_DECAY`` and ``EMA_GAIN`` the engine
uses, so a wrong coefficient shows. Tests compare the two engines' reports
and scheduling inputs field by field.
"""
from __future__ import annotations

import numpy as np

from qoesched import engine
from qoesched.channel import cqi_step, rate_of
from qoesched.engine import AdjustmentEvent, SimReport, Simulation
from qoesched.metrics import q_of
from qoesched.scheduler import (
    AVG_RATE_FLOOR,
    AVG_RATE_TC,
    PRIORITY_FN,
    SchedDecision,
    TTI_SECONDS,
    UeSchedInput,
    select,
)
from qoesched.traffic import apply_adjustment, arrivals


def update_avg_rate(avg_rate_bps: float, served_bits: int) -> float:
    """One TTI of the served-rate EMA over AVG_RATE_TC TTIs, floored at AVG_RATE_FLOOR."""
    updated = ((1.0 - 1.0 / AVG_RATE_TC) * avg_rate_bps
               + (1.0 / AVG_RATE_TC) * (served_bits / TTI_SECONDS))
    return max(updated, AVG_RATE_FLOOR)


def scalar_substream(seed, ue_id, purpose):
    """The unbuffered substream: a plain Generator on the same Philox key."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(ue_id, purpose))
    return np.random.Generator(np.random.Philox(ss))


class DenseSimulation(Simulation):
    """Every UE processed on every TTI, on scalar substreams."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        seed = self.scenario.seed
        for u in self.ues:
            u.traffic_rng = scalar_substream(seed, u.spec.ue_id, engine._PURPOSE_TRAFFIC)
            u.cqi_rng = scalar_substream(seed, u.spec.ue_id, engine._PURPOSE_CQI)

    def step(self, tti: int) -> SchedDecision:
        sc = self.scenario
        collect = self.trace_rows is not None

        # Steps 1-5 per UE. Only UEs with queued bits become scheduling
        # inputs, unless the trace needs a row for every UE; an empty UE's
        # row shows priority 0.
        inputs: list[UeSchedInput] = []
        for u in self.ues:
            spec = u.spec
            ue_id = spec.ue_id
            buf = u.buffer

            # 1. arrivals
            sizes = arrivals(spec, tti, u.traffic_rng)
            if sizes:
                buf.enqueue(sizes, tti, tti + spec.beta_ms)

            # 2. deadline expiry, every TTI: a call with nothing due is a no-op
            buf.expire(tti)

            # 3. channel
            cqi = u.cqi = cqi_step(u.cqi, sc.walk_prob, u.cqi_rng)

            # 4. QoE feedback (possibly delayed)
            pipe = u.q_pipe
            pipe.append(q_of(buf, sc.q_max))

            # 5a. scheduling input, built positionally: keyword arguments
            # cost several times more per call
            if buf.occupied_bits or collect:
                inputs.append(
                    UeSchedInput(
                        ue_id,                                    # ue_id
                        buf.occupied_bits,                        # buffer_bits
                        sc.buffersize_bits,                       # buffersize_bits
                        u.qos_weight,                             # qos_weight
                        pipe[0],                                  # q
                        rate_of(cqi, sc.peak_rate_bps),           # rate_bps
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

        # 7. served-rate EMAs
        for u in self.ues:
            u.avg_rate_bps = update_avg_rate(u.avg_rate_bps, tx if u is winner else 0)

        # 8. adjustment trigger
        if sc.adjustment_enabled:
            self._adjustment_check(tti)

        if collect:
            # inputs holds every UE, in the order of self.ues; the drop
            # columns are the changes in the drop totals since the UE's last
            # row, so a drop between steps shows in the next row
            pfn = PRIORITY_FN[self.policy]
            for u, i in zip(self.ues, inputs):
                buf = u.buffer
                drops = (buf.dropped_deadline_bits - u.traced_deadline_bits,
                         buf.dropped_overflow_bits - u.traced_overflow_bits)
                u.traced_deadline_bits = buf.dropped_deadline_bits
                u.traced_overflow_bits = buf.dropped_overflow_bits
                self.trace_rows.append(
                    (
                        tti,
                        i.ue_id,
                        u.cqi,
                        i.rate_bps,
                        u.buffer.occupied_bits,
                        i.q,
                        pfn(i) if i.buffer_bits else 0.0,
                        1 if decision.selected_ue == i.ue_id else None,
                        tx if u is winner else 0,
                        *drops,
                    )
                )

        if sc.window_tti is not None and (tti + 1 - self.window.start_tti) >= sc.window_tti:
            self._close_window(tti + 1)
        return decision

    def buffer(self, ue_id: int):
        return self._ue_by_id[ue_id].buffer

    def _adjustment_check(self, tti: int) -> None:
        sc = self.scenario
        for u in self.ues:
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
        self.window.close(end_tti)

    def run(self) -> SimReport:
        for tti in range(self.scenario.duration_tti):
            self.step(tti)
        if self.window.start_tti < self.scenario.duration_tti:
            self._close_window(self.scenario.duration_tti)
        return self._report()
