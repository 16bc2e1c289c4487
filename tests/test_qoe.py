import numpy as np
import pytest

from qoesched.qoe import QoeState


class TestRequirement:
    def test_zero_arrivals_unchanged(self):
        st = QoeState(ue_id=0)
        st.update_requirement(0)
        assert st.y_req_bits == 0

    def test_additivity(self):
        st = QoeState(ue_id=0)
        st.update_requirement(1_000_000)
        st.update_requirement(2_000_000)
        assert st.y_req_bits == 3_000_000

    def test_negative_rejected(self):
        st = QoeState(ue_id=0)
        with pytest.raises(ValueError):
            st.update_requirement(-1)
        with pytest.raises(ValueError):
            st.record_delivered(-1)


class TestQ:
    def test_satisfied_user(self):
        st = QoeState(ue_id=0)
        st.update_requirement(10_000)
        st.record_delivered(10_000)
        assert st.q_of() == 1.0

    def test_direct_ratio(self):
        st = QoeState(ue_id=0, q_max=100.0)
        st.update_requirement(4_000_000)
        st.record_delivered(1_000_000)
        assert st.q_of() == 4.0

    def test_cap(self):
        st = QoeState(ue_id=0, q_max=100.0)
        st.update_requirement(1_000_000_000)
        assert st.q_of() == 100.0

    def test_idle_user_q_is_one(self):
        assert QoeState(ue_id=0).q_of() == 1.0

    def test_monotonicity(self):
        rng = np.random.default_rng(8)
        for _ in range(2000):
            y_req = int(rng.integers(1, 10**9))
            y = int(rng.integers(0, y_req + 1))
            st = QoeState(ue_id=0)
            st.update_requirement(y_req)
            st.record_delivered(y)
            q0 = st.q_of()
            # more delivered bits never raise q
            st.record_delivered(int(rng.integers(1, 10**6)))
            assert st.q_of() <= q0
            # more demand never lowers q
            q1 = st.q_of()
            st.update_requirement(int(rng.integers(1, 10**6)))
            assert st.q_of() >= q1

    def test_window_reset(self):
        st = QoeState(ue_id=0)
        st.update_requirement(500)
        st.record_delivered(100)
        st.reset_window()
        assert st.y_bits == 0 and st.y_req_bits == 0
        assert st.q_of() == 1.0
