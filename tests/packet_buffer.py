"""Reference buffer for the differential tests: one ``Packet`` per packet.

``PacketBuffer`` is ``UeBuffer`` as it was before the queue entry became the
arrival batch: every accepted packet is queued on its own, ``expire`` pops
packets and ``drain`` walks them one at a time, adding one ``delay_counts``
count per completed packet. It has the same operations, return values and
totals, so ``tests/test_buffering.py`` can run both on one operation sequence
and compare them after every step.
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


class PacketBuffer:
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
        # delivery delay in TTIs -> packets completed with it
        self.delay_counts: dict[int, int] = {}

    def enqueue(self, sizes: list[int], arrival_tti: int, deadline_tti: int) -> int:
        """Queue one TTI's packets, tail-dropping each whole if it won't fit."""
        if deadline_tti <= arrival_tti:
            raise ValueError("deadline_tti must exceed arrival_tti")
        queue = self.queue
        if queue and deadline_tti < queue[-1].deadline_tti:
            raise ValueError("deadline_tti must not precede the queue tail's")
        if min(sizes, default=1) < 1:
            raise ValueError("packet sizes must be positive")
        arrived = sum(sizes)
        self.arrived_bits += arrived
        free = self.capacity_bits - self.occupied_bits
        accepted = 0
        for size in sizes:
            if size <= free:
                free -= size
                accepted += size
                queue.append(Packet(size, arrival_tti, deadline_tti))
        self.occupied_bits += accepted
        self.dropped_overflow_bits += arrived - accepted
        return accepted

    def expire(self, now_tti: int) -> int:
        """Drop every queued packet whose deadline has passed."""
        dropped = 0
        queue = self.queue
        while queue and queue[0].deadline_tti <= now_tti:
            dropped += queue.popleft().remaining_bits
        self.occupied_bits -= dropped
        self.dropped_deadline_bits += dropped
        return dropped

    def drain(self, budget_bits: int, now_tti: int) -> tuple[int, int]:
        """Transmit up to budget_bits FIFO from the head, splitting packets."""
        if budget_bits < 0:
            raise ValueError("budget_bits must be non-negative")
        queue = self.queue
        counts = self.delay_counts
        queued = len(queue)
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
            delay = now_tti - head.arrival_tti
            counts[delay] = counts.get(delay, 0) + 1
            queue.popleft()
        tx = budget_bits - remaining
        self.occupied_bits -= tx
        self.delivered_bits += tx
        return tx, queued - len(queue)

    def delay_mean_p99(self) -> tuple[float, int] | None:
        """Mean and p99 delivery delay in TTIs, None before any."""
        counts = self.delay_counts
        n = sum(counts.values())
        if not n:
            return None
        rank = min(n - 1, int(0.99 * n))
        for p99 in sorted(counts):
            rank -= counts[p99]
            if rank < 0:
                break
        return sum(d * c for d, c in counts.items()) / n, p99

    def hol_delay_tti(self, now_tti: int) -> int:
        """Waiting time of the oldest queued packet, 0 if empty."""
        if not self.queue:
            return 0
        return now_tti - self.queue[0].arrival_tti
