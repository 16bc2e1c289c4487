"""Per-UE downlink queue: tail-drop on overflow, deadline expiry, FIFO drain.

``UeBuffer`` is the one account of a UE's bits, queue order and delivery
delays. All quantities are integer bits so the conservation identity

    arrived = delivered + dropped_overflow + dropped_deadline + occupied

holds exactly after every operation.

``enqueue(sizes, arrival_tti, deadline_tti)`` takes one TTI's packets of one
flow in one call: they share the arrival TTI and the deadline. It validates
the batch once (a deadline after ``arrival_tti`` and not before the queue
tail's, so ``expire`` pops from the head only, and every size at least 1,
else ``ValueError``) and tail-drops each packet whole, in order: a batch that
fits skips the per-packet walk. It returns the bits accepted.

The queue holds one entry per batch that accepted at least one bit, a list

    [sent, accepted, arrival_tti, deadline_tti, ends]

of the bits sent from it so far, its accepted bits, its arrival and deadline,
and ``ends``, the prefix sums of its accepted packet sizes: packet k is
complete once ``sent >= ends[k]``. Packets stay the unit of the accounting,
the batch is the unit of the work. ``expire`` pops whole batches from the
head and drops their unsent bits. ``drain`` completes whole batches in one
step and adds each one's packets not yet completed to ``delay_counts`` in one
increment, since they share a delay; only in the batch it splits does it find
the packets completed, by bisecting ``ends``.

The buffer also keeps its window marks, ``arrived_mark`` and
``delivered_mark``: its totals when the metrics window opened. The window's
volumes are the totals less the marks; ``metrics.q_of`` reads q off them and
``metrics.MetricsWindow.close`` moves them.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import deque
from itertools import accumulate


class UeBuffer:
    def __init__(self, capacity_bits: int):
        if capacity_bits <= 0:
            raise ValueError("capacity_bits must be positive")
        self.capacity_bits = capacity_bits
        # one [sent, accepted, arrival_tti, deadline_tti, ends] per batch
        self.queue: deque[list] = deque()
        self.occupied_bits = 0
        self.arrived_bits = 0
        self.delivered_bits = 0
        self.dropped_overflow_bits = 0
        self.dropped_deadline_bits = 0
        # delivery delay in TTIs -> packets completed with it
        self.delay_counts: dict[int, int] = {}
        # arrived and delivered totals when the metrics window opened: the
        # window's demand Y and delivered volume y are the totals less these
        self.arrived_mark = 0
        self.delivered_mark = 0

    def enqueue(self, sizes: list[int], arrival_tti: int, deadline_tti: int) -> int:
        """Queue one TTI's packets, tail-dropping each whole if it won't fit.

        arrived_bits counts every packet; returns the bits accepted.
        """
        if deadline_tti <= arrival_tti:
            raise ValueError("deadline_tti must exceed arrival_tti")
        queue = self.queue
        if queue and deadline_tti < queue[-1][3]:
            raise ValueError("deadline_tti must not precede the queue tail's")
        if min(sizes, default=1) < 1:
            raise ValueError("packet sizes must be positive")
        arrived = sum(sizes)
        self.arrived_bits += arrived
        free = self.capacity_bits - self.occupied_bits
        if arrived <= free:
            accepted = arrived
            ends = list(accumulate(sizes))
        else:
            accepted = 0
            ends = []
            for size in sizes:
                if size <= free:
                    free -= size
                    accepted += size
                    ends.append(accepted)
        if accepted:
            queue.append([0, accepted, arrival_tti, deadline_tti, ends])
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
        while queue and queue[0][3] <= now_tti:
            sent, accepted, _, _, _ = queue.popleft()
            dropped += accepted - sent
        self.occupied_bits -= dropped
        self.dropped_deadline_bits += dropped
        return dropped

    def drain(self, budget_bits: int, now_tti: int) -> tuple[int, int]:
        """Transmit up to budget_bits FIFO from the head, splitting packets.

        A packet counts as delivered at the TTI its last bit leaves, and its
        delay (now - arrival, in TTIs) in ``delay_counts``. Returns the bits
        sent and the packets completed by this call.
        """
        if budget_bits < 0:
            raise ValueError("budget_bits must be non-negative")
        queue = self.queue
        counts = self.delay_counts
        completed = 0
        remaining = budget_bits
        # an entry always holds unsent bits, so a spent budget completes nothing
        while queue and remaining:
            head = queue[0]
            sent, accepted, arrival, _, ends = head
            unsent = accepted - sent
            if unsent <= remaining:
                remaining -= unsent
                queue.popleft()
                n = len(ends) - bisect_right(ends, sent)
            else:
                # the head batch leaves partly sent: its packets that end
                # within the budget complete
                head[0] = sent + remaining
                n = bisect_right(ends, sent + remaining) - bisect_right(ends, sent)
                remaining = 0
            if n:
                delay = now_tti - arrival
                counts[delay] = counts.get(delay, 0) + n
                completed += n
        tx = budget_bits - remaining
        self.occupied_bits -= tx
        self.delivered_bits += tx
        return tx, completed

    def delay_mean_p99(self) -> tuple[float, int] | None:
        """Mean and p99 delivery delay in TTIs, None before any: the exact
        sum over n, and the delay of rank min(n - 1, int(0.99 * n)) in order."""
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
        return now_tti - self.queue[0][2]

    def conservation_holds(self) -> bool:
        return (
            self.arrived_bits
            == self.delivered_bits
            + self.dropped_overflow_bits
            + self.dropped_deadline_bits
            + self.occupied_bits
        )
