import numpy as np
import pytest

from qoesched.buffering import UeBuffer
from qoesched.qoe import QoeState


def state(y_req=0, y=0, q_max=100.0):
    """A QoeState over a fresh buffer that has taken y_req bits and sent y."""
    st = QoeState(ue_id=0, buffer=UeBuffer(10**12), q_max=q_max)
    if y_req:
        st.buffer.enqueue([y_req], 0, 10**9)
    st.buffer.drain(y, now_tti=1)
    return st


class TestRequirement:
    def test_zero_arrivals_unchanged(self):
        st = state()
        st.buffer.enqueue([], 0, 1)
        assert st.y_req_bits == 0

    def test_additivity(self):
        st = state()
        st.buffer.enqueue([1_000_000], 0, 10)
        st.buffer.enqueue([2_000_000], 1, 11)
        assert st.y_req_bits == 3_000_000

    def test_negative_rejected(self):
        # the buffer refuses what would make a volume fall
        st = state(500, 100)
        with pytest.raises(ValueError):
            st.buffer.enqueue([-1], 2, 10**9)
        with pytest.raises(ValueError):
            st.buffer.drain(-1, now_tti=2)
        assert (st.y_req_bits, st.y_bits) == (500, 100)


class TestQ:
    def test_satisfied_user(self):
        assert state(10_000, 10_000).q_of() == 1.0

    def test_direct_ratio(self):
        assert state(4_000_000, 1_000_000).q_of() == 4.0

    def test_cap(self):
        assert state(1_000_000_000).q_of() == 100.0

    def test_idle_user_q_is_one(self):
        assert state().q_of() == 1.0

    def test_monotonicity(self):
        rng = np.random.default_rng(8)
        for _ in range(2000):
            y_req = int(rng.integers(1, 10**9))
            y = int(rng.integers(0, y_req + 1))
            st = state(y_req, y)
            q0 = st.q_of()
            # more delivered bits never raise q
            st.buffer.drain(min(int(rng.integers(1, 10**6)), y_req - y), now_tti=2)
            assert st.q_of() <= q0
            # more demand never lowers q
            q1 = st.q_of()
            st.buffer.enqueue([int(rng.integers(1, 10**6))], 2, 10**9)
            assert st.q_of() >= q1

    def test_window_reset(self):
        st = state(500, 100)
        st.reset_window()
        assert st.y_bits == 0 and st.y_req_bits == 0
        assert st.q_of() == 1.0
        # the next window counts from the buffer's totals at the reset
        st.buffer.enqueue([50], 2, 10**9)
        st.buffer.drain(400, now_tti=3)
        assert (st.y_req_bits, st.y_bits) == (50, 400)
        assert (st.buffer.arrived_bits, st.buffer.delivered_bits) == (550, 500)
