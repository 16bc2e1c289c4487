import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from packet_buffer import Packet, PacketBuffer
from qoesched.buffering import UeBuffer


def packets(buf):
    """(remaining_bits, arrival_tti, deadline_tti) of each queued packet of
    either buffer: a batch entry expands into its packets not yet complete."""
    if isinstance(buf, PacketBuffer):
        return [(p.remaining_bits, p.arrival_tti, p.deadline_tti) for p in buf.queue]
    out = []
    for sent, _, arrival, deadline, ends in buf.queue:
        start = 0
        for end in ends:
            if end > sent:
                out.append((end - max(start, sent), arrival, deadline))
            start = end
    return out


def enq(buf, size, arrival=0, deadline=None):
    """Enqueue one packet as a batch of one; returns the bits accepted."""
    return buf.enqueue([size], arrival, deadline if deadline is not None else arrival + 100)


class TestEnqueue:
    def test_direct_insert(self):
        buf = UeBuffer(40_000_000)
        enq(buf, 1_000_000)
        assert buf.occupied_bits == 1_000_000
        assert buf.arrived_bits == 1_000_000

    def test_full_buffer_tail_drop(self):
        buf = UeBuffer(1_000_000)
        enq(buf, 1_000_000)
        assert not enq(buf, 500)
        assert buf.dropped_overflow_bits == 500
        assert buf.occupied_bits == 1_000_000
        assert buf.arrived_bits == 1_000_500

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            UeBuffer(0)

    def test_batch_validation(self):
        buf = UeBuffer(10_000)
        for sizes, arrival, deadline in (([0], 0, 10), ([100, -5, 100], 0, 10),
                                         ([100], 5, 5), ([100], 5, 4)):
            with pytest.raises(ValueError):
                buf.enqueue(sizes, arrival, deadline)
        # a rejected batch leaves no trace
        assert buf.arrived_bits == 0 and not buf.queue
        assert buf.enqueue([], 0, 1) == 0

    @pytest.mark.parametrize("sizes", [[0, 300, 200], [300, -4, 200], [300, 200, 0],
                                       [-1], [2_000, 0]])
    def test_bad_size_anywhere_rejected_before_any_change(self, sizes):
        # the size check runs in the pass that sums the batch: a bad size at
        # any position raises before a total, the queue or the tail moves
        buf = UeBuffer(1_000)
        buf.enqueue([400, 500], 0, 20)
        buf.drain(450, now_tti=1)
        buf.enqueue([700], 1, 30)  # tail-dropped whole
        before = (_state(buf), buf.delivered_bits, buf.dropped_deadline_bits,
                  buf.queue[-1][3])
        with pytest.raises(ValueError, match="positive"):
            buf.enqueue(sizes, 2, 40)
        assert (_state(buf), buf.delivered_bits, buf.dropped_deadline_bits,
                buf.queue[-1][3]) == before
        assert buf.conservation_holds()

    def test_batch_returns_bits_accepted(self):
        buf = UeBuffer(1_000)
        assert buf.enqueue([300, 800, 200, 500], 3, 9) == 1_000
        assert packets(buf) == [(300, 3, 9), (200, 3, 9), (500, 3, 9)]
        assert buf.dropped_overflow_bits == 800
        assert buf.arrived_bits == 1_800
        # nothing fits in a full buffer
        assert buf.enqueue([1, 1], 4, 10) == 0
        assert buf.dropped_overflow_bits == 802
        assert buf.conservation_holds()

    def test_earlier_deadline_batch_rejected_before_accounting(self):
        buf = UeBuffer(1_000)
        buf.enqueue([600], 0, 50)
        buf.drain(100, now_tti=1)
        buf.enqueue([900], 1, 50)  # tail-dropped whole
        before = _state(buf), buf.delivered_bits, buf.dropped_deadline_bits
        for sizes in ([700], [300, 100], [2_000], []):
            with pytest.raises(ValueError, match="tail"):
                buf.enqueue(sizes, 2, 49)
        assert (_state(buf), buf.delivered_bits, buf.dropped_deadline_bits) == before
        assert buf.conservation_holds()

    def test_earlier_deadline_batch_clears_order_only_if_accepted(self):
        # the bar is the live tail's deadline: an equal deadline keeps the
        # order, and an earlier one is accepted only once the queue is empty
        buf = UeBuffer(1_000)
        buf.enqueue([600], 0, 50)
        assert buf.enqueue([300], 1, 50) == 300
        assert buf.drain(600, now_tti=2) == (600, 1)
        with pytest.raises(ValueError, match="tail"):
            buf.enqueue([100], 2, 10)  # the tail is still queued
        assert buf.drain(300, now_tti=3) == (300, 1)
        assert buf.enqueue([100], 3, 10) == 100
        assert [d for _, _, d in packets(buf)] == [10]
        assert buf.conservation_holds()


class TestExpire:
    def test_noop_before_deadline(self):
        buf = UeBuffer(10_000)
        enq(buf, 100, arrival=0, deadline=10)
        assert buf.expire(5) == 0
        assert buf.occupied_bits == 100

    def test_partial_packet_expiry(self):
        # half-transmitted packet: the sent half stays delivered, the rest
        # is counted as a deadline drop
        buf = UeBuffer(10_000_000)
        enq(buf, 1_000_000, arrival=0, deadline=5)
        tx, _ = buf.drain(500_000, now_tti=1)
        assert tx == 500_000
        dropped = buf.expire(5)
        assert dropped == 500_000
        assert buf.delivered_bits == 500_000
        assert buf.dropped_deadline_bits == 500_000
        assert buf.occupied_bits == 0
        assert buf.conservation_holds()

    def test_all_expired_empties_buffer(self):
        buf = UeBuffer(10_000_000)
        for k in range(5):
            enq(buf, 1000, arrival=k, deadline=k + 10)
        assert buf.expire(100) == 5000
        assert buf.occupied_bits == 0

    def test_non_monotone_deadlines_still_expire(self):
        # an interleaved deadline is refused, so the head-only scan still
        # removes every expired packet of the queue that stays
        buf = UeBuffer(10_000)
        enq(buf, 100, arrival=0, deadline=50)
        with pytest.raises(ValueError, match="tail"):
            enq(buf, 200, arrival=0, deadline=10)
        enq(buf, 300, arrival=0, deadline=60)
        assert buf.expire(10) == 0
        assert buf.expire(50) == 100
        assert [d for _, _, d in packets(buf)] == [60]
        assert buf.expire(60) == 300
        assert buf.occupied_bits == 0 and buf.dropped_deadline_bits == 400
        assert buf.conservation_holds()


class TestDrain:
    def test_zero_budget(self):
        buf = UeBuffer(10_000)
        enq(buf, 100)
        assert buf.drain(0, now_tti=0) == (0, 0)
        assert buf.occupied_bits == 100 and buf.delay_counts == {}

    def test_full_drain(self):
        buf = UeBuffer(10_000_000)
        enq(buf, 3_000_000)
        tx, _ = buf.drain(6_000_000, now_tti=0)
        assert tx == 3_000_000
        assert buf.occupied_bits == 0

    def test_fifo_split(self):
        buf = UeBuffer(10_000_000)
        enq(buf, 2_000_000, arrival=0)
        enq(buf, 2_000_000, arrival=0)
        assert buf.drain(3_000_000, now_tti=4) == (3_000_000, 1)
        assert buf.delay_counts == {4: 1}  # only the first packet completed
        assert packets(buf)[0][0] == 1_000_000

    def test_delivery_delay_at_last_bit(self):
        buf = UeBuffer(10_000_000)
        enq(buf, 1_000_000, arrival=2)
        assert buf.drain(400_000, now_tti=3) == (400_000, 0)
        assert buf.drain(600_000, now_tti=9) == (600_000, 1)
        assert buf.delay_counts == {7: 1}

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            UeBuffer(100).drain(-1, now_tti=0)

    def test_empty_queue(self):
        buf = UeBuffer(100)
        assert buf.drain(50, now_tti=3) == (0, 0)
        assert buf.drain(0, now_tti=3) == (0, 0)
        assert buf.occupied_bits == buf.delivered_bits == 0

    def test_budget_equal_to_head_remaining(self):
        buf = UeBuffer(10_000)
        buf.enqueue([300, 200], 1, 50)
        assert buf.drain(300, now_tti=5) == (300, 1)
        assert buf.delay_counts == {4: 1}
        assert [bits for bits, _, _ in packets(buf)] == [200]
        assert buf.occupied_bits == 200

    def test_split_head_then_complete(self):
        buf = UeBuffer(10_000)
        buf.enqueue([300], 0, 50)
        assert buf.drain(120, now_tti=1) == (120, 0)
        assert packets(buf)[0][0] == 180
        assert buf.drain(180, now_tti=2) == (180, 1)
        assert buf.delay_counts == {2: 1}
        assert not buf.queue and buf.delivered_bits == 300

    def test_several_completed_in_one_call(self):
        buf = UeBuffer(10_000)
        buf.enqueue([100], 0, 50)
        buf.enqueue([200, 50], 2, 52)
        buf.enqueue([300], 3, 53)
        assert buf.drain(500, now_tti=7) == (500, 3)
        assert buf.delay_counts == {7: 1, 5: 2}
        assert [bits for bits, _, _ in packets(buf)] == [150]
        assert buf.drain(1_000, now_tti=8) == (150, 1)
        assert buf.delay_counts == {7: 1, 5: 3}
        assert buf.occupied_bits == 0 and buf.delivered_bits == 650
        assert buf.conservation_holds()


class TestConservationReplay:
    def test_random_sequence_conservation(self):
        # brute-force replay oracle: recompute every counter independently
        # from the operation log and compare exactly
        rng = np.random.default_rng(2024)
        buf = UeBuffer(5_000_000)
        arrived = delivered = over = dead = 0
        now = deadline = 0
        for _ in range(10_000):
            op = rng.integers(0, 3)
            if op == 0:
                size = int(rng.integers(1, 2_000_000))
                fits = buf.occupied_bits + size <= buf.capacity_bits
                # deadlines never fall along the queue
                deadline = max(deadline, now + int(rng.integers(1, 50)))
                buf.enqueue([size], now, deadline)
                arrived += size
                if not fits:
                    over += size
            elif op == 1:
                before = buf.occupied_bits
                tx, _ = buf.drain(int(rng.integers(0, 3_000_000)), now)
                delivered += tx
                assert tx <= before
            else:
                now += int(rng.integers(0, 10))
                dead += buf.expire(now)
            assert buf.arrived_bits == arrived
            assert buf.delivered_bits == delivered
            assert buf.dropped_overflow_bits == over
            assert buf.dropped_deadline_bits == dead
            assert buf.conservation_holds()
            assert buf.occupied_bits == sum(bits for bits, _, _ in packets(buf))
            assert buf.occupied_bits <= buf.capacity_bits


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(1, 500), st.integers(0, 30)),
        max_size=60,
    )
)
def test_property_occupancy_and_conservation(ops):
    buf = UeBuffer(2_000)
    now = deadline = 0
    for op, amount, dt in ops:
        if op == 0:
            deadline = max(deadline, now + dt + 1)
            enq(buf, amount, arrival=now, deadline=deadline)
        elif op == 1:
            buf.drain(amount, now)
        else:
            now += dt
            buf.expire(now)
        assert buf.occupied_bits <= buf.capacity_bits
        assert buf.conservation_holds()


def test_fifo_order_preserved():
    buf = UeBuffer(1_000_000)
    for k in range(10):
        enq(buf, 100, arrival=k, deadline=k + 1000)
    seen = []
    for _ in range(10):
        before = dict(buf.delay_counts)
        assert buf.drain(100, now_tti=1000 - 1) == (100, 1)
        (delay,) = buf.delay_counts.keys() - before.keys()
        seen.append(delay)
    # earlier arrivals finish first: delays strictly decreasing
    assert seen == sorted(seen, reverse=True) == list(range(999, 989, -1))


def enqueue_per_packet(buf, sizes, arrival_tti, deadline_tti):
    """Reference: the tail drop one packet at a time, as a single-packet
    enqueue did it. Returns the bits accepted."""
    accepted = 0
    for size in sizes:
        buf.arrived_bits += size
        if buf.occupied_bits + size > buf.capacity_bits:
            buf.dropped_overflow_bits += size
            continue
        buf.queue.append(Packet(size, arrival_tti, deadline_tti))
        buf.occupied_bits += size
        accepted += size
    return accepted


def _state(buf):
    return (packets(buf), buf.occupied_bits, buf.arrived_bits,
            buf.dropped_overflow_bits, dict(buf.delay_counts))


_batch = st.tuples(
    st.lists(st.integers(1, 1_200), max_size=8),  # sizes
    st.integers(0, 50),                            # arrival
    st.integers(1, 60),                            # deadline - arrival, at least
    st.integers(0, 900),                           # drain budget before it
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3_000), st.lists(_batch, max_size=12))
@example(1_000, [([1_200, 5], 0, 10, 0)])               # small fits after a large drop
@example(1_000, [([1_000], 0, 10, 0), ([3, 1], 1, 5, 0)])  # nothing fits
@example(2_000, [([500], 0, 50, 0), ([400, 300], 1, 5, 0)])  # equal deadline behind
def test_batched_enqueue_equals_per_packet_tail_drop(capacity, batches):
    batched, reference = UeBuffer(capacity), PacketBuffer(capacity)
    deadline = 0
    for sizes, arrival, delay, budget in batches:
        # drains leave partly sent heads and free room at random points
        assert batched.drain(budget, arrival) == reference.drain(budget, arrival)
        # deadlines never fall along the queue
        deadline = max(deadline, arrival + delay)
        expected = enqueue_per_packet(reference, sizes, arrival, deadline)
        assert batched.enqueue(sizes, arrival, deadline) == expected
        assert _state(batched) == _state(reference)
        assert batched.conservation_holds()


_TOTALS = ("arrived_bits", "delivered_bits", "dropped_overflow_bits",
           "dropped_deadline_bits", "occupied_bits")

_op = st.one_of(
    st.tuples(st.just("enqueue"), st.lists(st.integers(1, 1_200), max_size=8),
              st.integers(1, 60)),                           # sizes, deadline - now
    st.tuples(st.just("drain"), st.integers(0, 4_000)),      # budget
    st.tuples(st.just("expire"), st.integers(0, 30)),        # TTIs that pass first
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3_000), st.lists(_op, max_size=40))
# a budget exactly equal to a batch's unsent bits, first partly sent
@example(3_000, [("enqueue", [300, 200], 10), ("drain", 100), ("drain", 400),
                 ("enqueue", [50], 10), ("drain", 50)])
# a split that ends exactly on a packet boundary
@example(3_000, [("enqueue", [300, 200, 100], 10), ("drain", 500), ("expire", 1),
                 ("drain", 100)])
# a split head that then completes
@example(3_000, [("enqueue", [300], 10), ("drain", 120), ("expire", 1), ("drain", 180)])
# a tail drop where a later, smaller packet still fits
@example(1_000, [("enqueue", [600], 10), ("enqueue", [500, 300, 200], 10),
                 ("drain", 1_000)])
def test_batch_queue_equals_packet_queue(capacity, ops):
    """The batch queue and the per-packet reference agree after every
    operation: return values, totals, delay histogram and figures, and the
    queued packets."""
    buf, ref = UeBuffer(capacity), PacketBuffer(capacity)
    now = 0
    for kind, *args in ops:
        if kind == "enqueue":
            sizes, delay = args
            # deadlines never fall along the queue
            tail = ref.queue[-1].deadline_tti if ref.queue else 0
            deadline = max(tail, now + delay)
            assert buf.enqueue(sizes, now, deadline) == ref.enqueue(sizes, now, deadline)
        elif kind == "drain":
            assert buf.drain(args[0], now) == ref.drain(args[0], now)
        else:
            now += args[0]
            assert buf.expire(now) == ref.expire(now)
        assert packets(buf) == packets(ref)
        assert [getattr(buf, t) for t in _TOTALS] == [getattr(ref, t) for t in _TOTALS]
        assert buf.delay_counts == ref.delay_counts
        assert buf.hol_delay_tti(now) == ref.hol_delay_tti(now)
        assert buf.delay_mean_p99() == ref.delay_mean_p99()
        assert buf.conservation_holds()


def sorted_list_delay_figures(delays):
    """Mean and p99 of the delays as the report once took them from a sorted list."""
    delays = sorted(delays)
    return sum(delays) / len(delays), delays[min(len(delays) - 1, int(0.99 * len(delays)))]


_delays = st.integers(0, 100_000)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(_delays, min_size=1, max_size=3),
                 st.lists(_delays, min_size=100, max_size=101),
                 st.lists(st.integers(0, 40), min_size=1, max_size=400)))
@example([7])
@example(list(range(100)))
@example(list(range(101)))
@example([3] * 99 + [10**9])
def test_delay_histogram_equals_sorted_list(delays):
    buf = UeBuffer(10**6)
    assert buf.delay_mean_p99() is None
    for d in delays:
        buf.enqueue([1], 0, 10**10)
        assert buf.drain(1, now_tti=d) == (1, 1)
    mean, p99 = buf.delay_mean_p99()
    # the same floats, bit for bit
    assert (mean, p99) == sorted_list_delay_figures(delays)
    assert type(mean) is float and type(p99) is int
    assert sum(buf.delay_counts.values()) == len(delays)
