import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qoesched.buffering import UeBuffer
from qoesched.metrics import MetricsWindow, jfi, qoe_fi
from qoesched.qoe import QoeState


def qoe_fi_index_loop(pairs):
    """qoe_fi's earlier form: an index double loop that skips i == j."""
    ratios = [y / y_req for y, y_req in pairs]
    n = len(ratios)
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                total += abs(ratios[i] - ratios[j])
    return total


def window_over(n):
    qoes = [QoeState(ue_id=u, buffer=UeBuffer(10**12)) for u in range(n)]
    return MetricsWindow(qoes), qoes


def feed(qoe, y_req, y):
    """Put y_req bits through the UE's buffer and send y of them."""
    qoe.buffer.enqueue([y_req], 0, 10**9)
    qoe.buffer.drain(y, now_tti=1)


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
                    min_size=2, max_size=30))
    @example([(0.0, 1.0), (1.0, 1.0), (1.0, 1.0), (5e-324, 1.0)])
    @example([(5e-324, 1e12), (1e12, 1e-6), (0.0, 3.0), (1e12, 1e-6)])
    def test_equals_index_loop_skipping_diagonal(self, pairs):
        # a finite ratio's diagonal term adds +0.0, so the result is the same float
        assert qoe_fi(pairs) == qoe_fi_index_loop(pairs)

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
        w, qoes = window_over(2)
        feed(qoes[0], 1000, 500)
        rec = w.close(100)
        assert rec.qoe_fi is None
        assert rec.jfi is not None

    def test_synthetic_window_matches_hand_values(self):
        w, qoes = window_over(3)
        ys = {0: 4_000_000, 1: 2_000_000, 2: 1_000_000}
        for u, y in ys.items():
            feed(qoes[u], 4_000_000, y)
        rec = w.close(1000)
        # ratios {1.0, 0.5, 0.25} -> qoe_fi 3.0
        assert rec.qoe_fi == pytest.approx(3.0, abs=1e-12)
        expected_jfi = jfi([4e6, 2e6, 1e6])
        assert rec.jfi == pytest.approx(expected_jfi, abs=1e-12)
        assert rec.tx_bits == 7_000_000
        assert rec.throughput_bps == pytest.approx(7_000_000 / 1.0)

    def test_reset_after_close(self):
        w, qoes = window_over(1)
        feed(qoes[0], 400, 100)
        assert qoes[0].q_of() == 4.0
        first = w.close(10)
        assert first.per_ue_y_bits[0] == 100
        assert first.per_ue_y_req_bits[0] == 400
        assert (qoes[0].y_bits, qoes[0].y_req_bits) == (0, 0)
        assert qoes[0].q_of() == 1.0
        second = w.close(20)
        assert second.per_ue_y_bits[0] == 0
        assert second.start_tti == 10
        assert second.index == 1
