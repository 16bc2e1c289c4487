"""Per-UE downlink queue: tail-drop on overflow, deadline expiry, FIFO drain.

All quantities are integer bits so the conservation identity

    arrived = delivered + dropped_overflow + dropped_deadline + occupied

holds exactly after every operation.

``enqueue(sizes, arrival_tti, deadline_tti)`` takes one TTI's packets of one
flow in one call: they share the arrival TTI and the deadline. It validates
the batch once (``deadline_tti > arrival_tti`` and every size at least 1,
else ``ValueError``), tail-drops each packet whole, in order, and queues a
``Packet`` only for the packets that fit. It returns the bits accepted.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass


@dataclass(slots=True)
class Packet:
    """A queued packet: the bits still to send, its arrival and deadline."""

    remaining_bits: int
    arrival_tti: int
    deadline_tti: int


class UeBuffer:
    def __init__(self, capacity_bits: int):
        if capacity_bits <= 0:
            raise ValueError("capacity_bits must be positive")
        self.capacity_bits = capacity_bits
        self.queue: deque[Packet] = deque()
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

    def enqueue(self, sizes: list[int], arrival_tti: int, deadline_tti: int) -> int:
        """Queue one TTI's packets, tail-dropping each whole if it won't fit.

        arrived_bits counts every packet; returns the bits accepted.
        """
        if deadline_tti <= arrival_tti:
            raise ValueError("deadline_tti must exceed arrival_tti")
        if min(sizes, default=1) < 1:
            raise ValueError("packet sizes must be positive")
        arrived = sum(sizes)
        self.arrived_bits += arrived
        queue = self.queue
        # The batch shares one deadline, so one look at the tail decides
        # whether its first accepted packet, and so the batch, breaks order.
        behind = bool(queue) and deadline_tti < queue[-1].deadline_tti
        free = self.capacity_bits - self.occupied_bits
        accepted = 0
        for size in sizes:
            if size <= free:
                free -= size
                accepted += size
                queue.append(Packet(size, arrival_tti, deadline_tti))
        if accepted and behind:
            self.deadlines_monotone = False
        self.occupied_bits += accepted
        self.dropped_overflow_bits += arrived - accepted
        return accepted

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

    def drain(self, budget_bits: int, now_tti: int) -> tuple[int, list[int]]:
        """Transmit up to budget_bits FIFO from the head, splitting packets.

        A packet counts as delivered at the TTI its last bit leaves; the
        returned list holds the delivery delay (now - arrival, in TTIs) of
        each packet completed by this call.
        """
        if budget_bits < 0:
            raise ValueError("budget_bits must be non-negative")
        queue = self.queue
        delays: list[int] = []
        remaining = budget_bits
        while queue:
            head = queue[0]
            bits = head.remaining_bits
            if bits > remaining:
                # the head leaves only partly sent (or not at all)
                head.remaining_bits = bits - remaining
                remaining = 0
                break
            remaining -= bits
            delays.append(now_tti - head.arrival_tti)
            queue.popleft()
        tx = budget_bits - remaining
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
