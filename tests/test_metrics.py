import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qoesched.buffering import UeBuffer
from qoesched.metrics import MetricsWindow, figures, jfi, q_of, qoe_fi


def qoe_fi_index_loop(pairs):
    """The index double loop over i != j on the float ratios, summed exactly.

    A float is an integer over a power of two, so over the largest of the
    ratios' denominators each ratio is an integer and the loop adds Python
    ints. Returns the exact sum as a Fraction.
    """
    ratios = [Fraction(y / y_req) for y, y_req in pairs]
    den = max(r.denominator for r in ratios)
    nums = [r.numerator * (den // r.denominator) for r in ratios]
    n = len(nums)
    total = 0
    for i in range(n):
        for j in range(n):
            if i != j:
                total += abs(nums[i] - nums[j])
    return Fraction(total, den)


def assert_near_index_loop(pairs):
    """qoe_fi is within its bound, n * sum(r) * 2**-51, of the exact loop."""
    bound = len(pairs) * sum(Fraction(y / y_req) for y, y_req in pairs) / 2**51
    assert abs(Fraction(qoe_fi(pairs)) - qoe_fi_index_loop(pairs)) <= bound


def peak_traced_bytes(fn, *args):
    """The peak of the memory Python and numpy allocate while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def window_over(n):
    bufs = {u: UeBuffer(10**12) for u in range(n)}
    return MetricsWindow(bufs), bufs


def feed(buf, y_req, y):
    """Put y_req bits through the UE's buffer and send y of them."""
    buf.enqueue([y_req], 0, 10**9)
    buf.drain(y, now_tti=1)


def filled(y_req=0, y=0):
    """A fresh buffer that has taken y_req bits and sent y."""
    buf = UeBuffer(10**12)
    if y_req:
        buf.enqueue([y_req], 0, 10**9)
    buf.drain(y, now_tti=1)
    return buf


def volumes(buf):
    """The window's (Y, y): the buffer's totals less its window marks."""
    return buf.arrived_bits - buf.arrived_mark, buf.delivered_bits - buf.delivered_mark


class TestRequirement:
    def test_zero_arrivals_unchanged(self):
        buf = filled()
        buf.enqueue([], 0, 1)
        assert volumes(buf) == (0, 0)

    def test_additivity(self):
        buf = filled()
        buf.enqueue([1_000_000], 0, 10)
        buf.enqueue([2_000_000], 1, 11)
        assert volumes(buf)[0] == 3_000_000

    def test_negative_rejected(self):
        # the buffer refuses what would make a volume fall
        buf = filled(500, 100)
        with pytest.raises(ValueError):
            buf.enqueue([-1], 2, 10**9)
        with pytest.raises(ValueError):
            buf.drain(-1, now_tti=2)
        assert volumes(buf) == (500, 100)


class TestQ:
    def test_satisfied_user(self):
        assert q_of(filled(10_000, 10_000), 100.0) == 1.0

    def test_direct_ratio(self):
        assert q_of(filled(4_000_000, 1_000_000), 100.0) == 4.0

    def test_cap(self):
        assert q_of(filled(1_000_000_000), 100.0) == 100.0

    def test_idle_user_q_is_one(self):
        assert q_of(filled(), 100.0) == 1.0

    @pytest.mark.parametrize("y", [0, 1])
    def test_small_demand_with_at_most_one_bit_delivered(self, y):
        # under 2 * q_max bits of demand, the divisor max(y, 1) = 1 shows:
        # q is the demand itself, clamped at q_max
        assert q_of(filled(50 + y, y), 100.0) == 50.0 + y
        assert q_of(filled(150, y), 100.0) == 100.0

    def test_monotonicity(self):
        rng = np.random.default_rng(8)
        for _ in range(2000):
            y_req = int(rng.integers(1, 10**9))
            y = int(rng.integers(0, y_req + 1))
            buf = filled(y_req, y)
            q0 = q_of(buf, 100.0)
            # more delivered bits never raise q
            buf.drain(min(int(rng.integers(1, 10**6)), y_req - y), now_tti=2)
            assert q_of(buf, 100.0) <= q0
            # more demand never lowers q
            q1 = q_of(buf, 100.0)
            buf.enqueue([int(rng.integers(1, 10**6))], 2, 10**9)
            assert q_of(buf, 100.0) >= q1

    def test_window_reset(self):
        buf = filled(500, 100)
        MetricsWindow({0: buf}).close(10)
        assert volumes(buf) == (0, 0)
        assert q_of(buf, 100.0) == 1.0
        # the next window counts from the buffer's totals at the close
        buf.enqueue([50], 2, 10**9)
        buf.drain(400, now_tti=3)
        assert volumes(buf) == (50, 400)
        assert (buf.arrived_bits, buf.delivered_bits) == (550, 500)


class TestJfi:
    def test_constant_vector_is_one(self):
        for c in (0.5, 1.0, 7e9):
            assert jfi([c, c, c, c]) == pytest.approx(1.0, abs=1e-12)

    def test_hand_value(self):
        assert jfi([1, 2, 3]) == pytest.approx(6 / 7, abs=1e-12)

    def test_single_active_user(self):
        assert jfi([1, 0, 0, 0]) == pytest.approx(0.25, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            xs = list(rng.uniform(0, 1e9, size=int(rng.integers(2, 20))))
            c = float(rng.uniform(1e-6, 1e6))
            assert jfi([c * x for x in xs]) == pytest.approx(jfi(xs), rel=1e-12)

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            jfi([])
        with pytest.raises(ValueError):
            jfi([0.0, 0.0])
        with pytest.raises(ValueError):
            jfi([1.0, -1.0])


class TestQoeFi:
    def test_all_equal_ratios_zero(self):
        assert qoe_fi([(1, 2), (2, 4), (50, 100)]) == 0.0

    def test_two_users_hand_sum(self):
        # ratios {0.5, 1.0}: each ordered pair contributes 0.5
        assert qoe_fi([(1, 2), (3, 3)]) == 1.0

    def test_three_users_hand_sum(self):
        # ratios {1.0, 0.5, 0.25} -> 2 * (0.5 + 0.75 + 0.25)
        assert qoe_fi([(4, 4), (2, 4), (1, 4)]) == 3.0

    def test_double_loop_equals_twice_unordered(self):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            n = int(rng.integers(2, 12))
            pairs = [(float(rng.uniform(0, 100)), float(rng.uniform(1, 100))) for _ in range(n)]
            ratios = [y / yr for y, yr in pairs]
            unordered = sum(
                abs(ratios[i] - ratios[j]) for i in range(n) for j in range(i + 1, n)
            )
            assert qoe_fi(pairs) == pytest.approx(2 * unordered, rel=1e-12)

    def test_common_scaling_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            pairs = [(float(rng.uniform(0, 10)), float(rng.uniform(1, 10))) for _ in range(5)]
            c = float(rng.uniform(0.1, 10))
            scaled = [(c * y, c * yr) for y, yr in pairs]
            assert qoe_fi(scaled) == pytest.approx(qoe_fi(pairs), rel=1e-9)

    @given(st.lists(st.tuples(st.floats(0.0, 1e12), st.floats(1e-6, 1e12)),
                    min_size=2, max_size=300))
    @example([(0.0, 1.0), (1.0, 1.0), (1.0, 1.0), (5e-324, 1.0)])
    @example([(5e-324, 1e12), (1e12, 1e-6), (0.0, 3.0), (1e12, 1e-6)])
    def test_equals_index_loop_skipping_diagonal(self, pairs):
        assert_near_index_loop(pairs)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.0, 1e12), st.floats(1e-6, 1e12)),
                    min_size=100, max_size=300))
    def test_equals_index_loop_at_cell_sizes(self, pairs):
        # the lists above stay short; a dense cell has ~100 UEs
        assert_near_index_loop(pairs)

    def test_memory_is_linear_in_users(self):
        # 1 MB is an eighth of one n x n float64 array at 1,000 users
        ys = list(range(1000))
        y_reqs = [2 * y + 1 for y in ys]
        pairs = [(float(y), float(r)) for y, r in zip(ys, y_reqs)]
        assert peak_traced_bytes(qoe_fi, pairs) < 2**20
        assert peak_traced_bytes(figures, ys, y_reqs, 1000) < 2**20

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            qoe_fi([(1.0, 1.0)])
        with pytest.raises(ValueError):
            qoe_fi([(1.0, 1.0), (1.0, 0.0)])


class TestWindowClose:
    def test_empty_window(self):
        w, _ = window_over(2)
        rec = w.close(1000)
        assert rec.tx_bits == 0
        assert rec.throughput_bps == 0
        assert rec.jfi is None
        assert rec.qoe_fi is None

    def test_single_active_ue_qoefi_absent(self):
        w, bufs = window_over(2)
        feed(bufs[0], 1000, 500)
        rec = w.close(100)
        assert rec.qoe_fi is None
        assert rec.jfi is not None

    def test_synthetic_window_matches_hand_values(self):
        w, bufs = window_over(3)
        ys = {0: 4_000_000, 1: 2_000_000, 2: 1_000_000}
        for u, y in ys.items():
            feed(bufs[u], 4_000_000, y)
        rec = w.close(1000)
        # ratios {1.0, 0.5, 0.25} -> qoe_fi 3.0
        assert rec.qoe_fi == pytest.approx(3.0, abs=1e-12)
        expected_jfi = jfi([4e6, 2e6, 1e6])
        assert rec.jfi == pytest.approx(expected_jfi, abs=1e-12)
        assert rec.tx_bits == 7_000_000
        assert rec.throughput_bps == pytest.approx(7_000_000 / 1.0)

    def test_reset_after_close(self):
        w, bufs = window_over(1)
        feed(bufs[0], 400, 100)
        assert q_of(bufs[0], 100.0) == 4.0
        first = w.close(10)
        assert first.per_ue_y_bits[0] == 100
        assert first.per_ue_y_req_bits[0] == 400
        assert volumes(bufs[0]) == (0, 0)
        assert q_of(bufs[0], 100.0) == 1.0
        second = w.close(20)
        assert second.per_ue_y_bits[0] == 0
        assert second.start_tti == 10
        assert second.index == 1
