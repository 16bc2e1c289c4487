"""Per-UE downlink queue: tail-drop on overflow, deadline expiry, FIFO drain.

All quantities are integer bits so the conservation identity

    arrived = delivered + dropped_overflow + dropped_deadline + occupied

holds exactly after every operation.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .traffic import Packet


@dataclass(slots=True)
class QueuedPacket:
    size_bits: int
    remaining_bits: int
    arrival_tti: int
    deadline_tti: int


class UeBuffer:
    def __init__(self, capacity_bits: int):
        if capacity_bits <= 0:
            raise ValueError("capacity_bits must be positive")
        self.capacity_bits = capacity_bits
        self.queue: deque[QueuedPacket] = deque()
        self.occupied_bits = 0
        self.arrived_bits = 0
        self.delivered_bits = 0
        self.dropped_overflow_bits = 0
        self.dropped_deadline_bits = 0
        # Deadlines are monotone along the queue for a single flow (FIFO
        # arrivals, fixed delay bound), letting expire() pop from the head
        # only, and callers skip expire() while the head is live.
        # Mixed-deadline enqueues clear the flag and force full scans.
        self.deadlines_monotone = True

    def enqueue(self, pkt: Packet) -> bool:
        """Append the packet whole, or tail-drop it whole if it won't fit.

        Returns True if the packet was accepted. arrived_bits counts the
        packet either way.
        """
        self.arrived_bits += pkt.size_bits
        if self.occupied_bits + pkt.size_bits > self.capacity_bits:
            self.dropped_overflow_bits += pkt.size_bits
            return False
        if self.queue and pkt.deadline_tti < self.queue[-1].deadline_tti:
            self.deadlines_monotone = False
        self.queue.append(
            QueuedPacket(pkt.size_bits, pkt.size_bits, pkt.arrival_tti, pkt.deadline_tti)
        )
        self.occupied_bits += pkt.size_bits
        return True

    def expire(self, now_tti: int) -> int:
        """Drop every queued packet whose deadline has passed.

        Remaining (untransmitted) bits of partially sent packets are dropped
        too; already-sent bits stay in delivered accounting. Returns the bits
        dropped by this call.
        """
        dropped = 0
        queue = self.queue
        while queue and queue[0].deadline_tti <= now_tti:
            dropped += queue.popleft().remaining_bits
        if not self.deadlines_monotone and queue:
            survivors = deque()
            for qp in queue:
                if qp.deadline_tti <= now_tti:
                    dropped += qp.remaining_bits
                else:
                    survivors.append(qp)
            self.queue = survivors
            self.deadlines_monotone = all(
                a.deadline_tti <= b.deadline_tti
                for a, b in zip(survivors, list(survivors)[1:])
            )
        if dropped:
            self.occupied_bits -= dropped
            self.dropped_deadline_bits += dropped
        return dropped

    def drain(self, budget_bits: int, now_tti: int = 0) -> tuple[int, list[int]]:
        """Transmit up to budget_bits FIFO from the head, splitting packets.

        A packet counts as delivered at the TTI its last bit leaves; the
        returned list holds the delivery delay (now - arrival, in TTIs) of
        each packet completed by this call.
        """
        if budget_bits < 0:
            raise ValueError("budget_bits must be non-negative")
        tx = 0
        delays: list[int] = []
        remaining = budget_bits
        while remaining > 0 and self.queue:
            head = self.queue[0]
            take = min(remaining, head.remaining_bits)
            head.remaining_bits -= take
            tx += take
            remaining -= take
            if head.remaining_bits == 0:
                delays.append(now_tti - head.arrival_tti)
                self.queue.popleft()
        self.occupied_bits -= tx
        self.delivered_bits += tx
        return tx, delays

    def hol_delay_tti(self, now_tti: int) -> int:
        """Waiting time of the oldest queued packet, 0 if empty."""
        if not self.queue:
            return 0
        return now_tti - self.queue[0].arrival_tti

    def conservation_holds(self) -> bool:
        return (
            self.arrived_bits
            == self.delivered_bits
            + self.dropped_overflow_bits
            + self.dropped_deadline_bits
            + self.occupied_bits
        )
