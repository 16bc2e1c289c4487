import math
from dataclasses import replace

import numpy as np
import pytest
from dense_reference import update_avg_rate
from hypothesis import given
from hypothesis import strategies as st

from qoesched.scheduler import (
    PRIORITY_FN,
    TTI_SECONDS,
    Policy,
    SchedDecision,
    UeSchedInput,
    bcqq_priority,
    mlwdf_priority,
    pf_priority,
    qos_weight,
    select,
)


def ue(ue_id=0, buffer_bits=1_000_000, buffersize_bits=40_000_000, alpha=1e-6,
       beta_s=0.3, q=1.0, rate_bps=1e8, hol_delay_s=0.0, avg_rate_bps=1e8,
       last_served_tti=-1):
    return UeSchedInput(ue_id, buffer_bits, buffersize_bits, qos_weight(alpha, beta_s), q,
                        rate_bps, hol_delay_s, avg_rate_bps, last_served_tti)


class TestPerFlowQosWeight:
    """The per-flow weight gives the float the inline ``-ln(alpha) / beta_s`` gave."""

    @given(
        buffer_bits=st.integers(1, 40_000_000),
        alpha=st.floats(1e-12, 1.0, exclude_max=True),
        beta_ms=st.integers(1, 10_000),
        q=st.floats(1.0, 100.0),
        rate_bps=st.floats(1e5, 6e9),
        hol_delay_s=st.floats(0.0, 10.0),
        avg_rate_bps=st.floats(1.0, 6e9),
    )
    def test_priorities_equal_inline_expression(self, buffer_bits, alpha, beta_ms, q,
                                                rate_bps, hol_delay_s, avg_rate_bps):
        beta_s = beta_ms / 1000.0
        u = ue(buffer_bits=buffer_bits, alpha=alpha, beta_s=beta_s, q=q, rate_bps=rate_bps,
               hol_delay_s=hol_delay_s, avg_rate_bps=avg_rate_bps)
        occupancy = buffer_bits / u.buffersize_bits
        assert bcqq_priority(u) == occupancy * (-math.log(alpha) / beta_s) * q * rate_bps
        assert mlwdf_priority(u) == \
            (-math.log(alpha) / beta_s) * hol_delay_s * rate_bps / avg_rate_bps


class TestBcqqPriority:
    def test_hand_value(self):
        u = ue(buffer_bits=20_000_000, buffersize_bits=40_000_000, alpha=1e-6,
               beta_s=0.3, q=1.0, rate_bps=1e8)
        expected = 0.5 * (-math.log(1e-6) / 0.3) * 1.0 * 1e8
        assert bcqq_priority(u) == pytest.approx(expected, rel=1e-12)
        assert bcqq_priority(u) == pytest.approx(2.302585e9, rel=1e-6)

    def test_empty_buffer_zero(self):
        assert bcqq_priority(ue(buffer_bits=0)) == 0.0

    def test_stricter_delay_doubles_priority(self):
        loose = ue(beta_s=0.300)
        strict = ue(beta_s=0.150)
        assert bcqq_priority(strict) == pytest.approx(2 * bcqq_priority(loose), rel=1e-12)

    def test_strictly_increasing_in_each_factor(self):
        rng = np.random.default_rng(17)
        for _ in range(2000):
            base = ue(
                buffer_bits=int(rng.integers(1, 40_000_000)),
                q=float(rng.uniform(1, 100)),
                rate_bps=float(rng.uniform(1e6, 6e9)),
                alpha=float(rng.uniform(1e-9, 0.5)),
                beta_s=float(rng.uniform(0.01, 1.0)),
            )
            p0 = bcqq_priority(base)
            bigger_buf = replace(base, buffer_bits=min(base.buffer_bits * 2, 40_000_000))
            if bigger_buf.buffer_bits > base.buffer_bits:
                assert bcqq_priority(bigger_buf) > p0
            assert bcqq_priority(replace(base, q=base.q * 1.5)) > p0
            assert bcqq_priority(replace(base, rate_bps=base.rate_bps * 1.5)) > p0

    def test_invalid_qos_rejected(self):
        with pytest.raises(ValueError):
            qos_weight(1.5, 0.3)
        with pytest.raises(ValueError):
            qos_weight(1e-6, 0.0)


class TestMlwdfPriority:
    def test_hand_value(self):
        u = ue(hol_delay_s=0.1, alpha=1e-6, beta_s=0.3, rate_bps=2e8, avg_rate_bps=1e8)
        assert mlwdf_priority(u) == pytest.approx(9.2103, rel=1e-4)

    def test_fresh_queue_zero(self):
        assert mlwdf_priority(ue(hol_delay_s=0.0)) == 0.0


class TestPfPriority:
    def test_equal_rates_unity(self):
        assert pf_priority(ue(rate_bps=1e8, avg_rate_bps=1e8)) == 1.0

    def test_linearity(self):
        u = ue(rate_bps=1e8)
        u2 = ue(rate_bps=2e8)
        assert pf_priority(u2) == 2 * pf_priority(u)


class TestSelect:
    def test_tie_broken_by_least_recently_served(self):
        # priorities [3, 7, 7, 1, 0] via PF with unit averages; UE 4 empty
        priorities = [3, 7, 7, 1, 0]
        last_served = [5, 2, 9, 1, 0]
        inputs = [
            ue(ue_id=i, rate_bps=float(p), avg_rate_bps=1.0,
               buffer_bits=0 if p == 0 else 100, last_served_tti=ls)
            for i, (p, ls) in enumerate(zip(priorities, last_served))
        ]
        decision = select(inputs, Policy.PF)
        assert decision.selected_ue == 1

    def test_tie_then_lowest_ue_id(self):
        inputs = [
            ue(ue_id=2, rate_bps=7.0, avg_rate_bps=1.0, last_served_tti=3),
            ue(ue_id=1, rate_bps=7.0, avg_rate_bps=1.0, last_served_tti=3),
        ]
        assert select(inputs, Policy.PF).selected_ue == 1

    def test_all_empty_is_idle(self):
        inputs = [ue(ue_id=i, buffer_bits=0) for i in range(3)]
        decision = select(inputs, Policy.BCQQ)
        assert decision.selected_ue is None
        assert decision.budget_bits == 0

    def test_single_nonempty_wins_any_policy(self):
        for policy in Policy:
            inputs = [ue(ue_id=0, buffer_bits=0), ue(ue_id=1, buffer_bits=5)]
            assert select(inputs, policy).selected_ue == 1

    def test_rr_picks_least_recently_served(self):
        inputs = [
            ue(ue_id=0, last_served_tti=10),
            ue(ue_id=1, last_served_tti=4),
            ue(ue_id=2, last_served_tti=7),
        ]
        assert select(inputs, Policy.RR).selected_ue == 1

    @pytest.mark.parametrize("policy", list(Policy))
    def test_each_candidate_keeps_its_priority(self, policy):
        inputs = [ue(ue_id=0, buffer_bits=0), ue(ue_id=1, q=3.0, hol_delay_s=0.01),
                  ue(ue_id=2, rate_bps=2e8, hol_delay_s=0.02, last_served_tti=4)]
        select(inputs, policy)
        # an empty input is not scored and keeps the default
        assert [u.priority for u in inputs] == [0.0] + [PRIORITY_FN[policy](u)
                                                        for u in inputs[1:]]
        assert inputs[1].priority != inputs[2].priority

    def test_budget_is_rate_times_tti(self):
        decision = select([ue(rate_bps=6e9)], Policy.BCQQ)
        assert decision.budget_bits == 6_000_000

    def test_budget_truncates_a_partial_bit(self):
        # 1,999,999 bps is 1,999.999 bits in a TTI: the budget is whole bits sent
        assert select([ue(rate_bps=1_999_999.0)], Policy.BCQQ).budget_bits == 1_999

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            select([], Policy.BCQQ)


def select_by_key(inputs, policy):
    """select's earlier form: the first input with the largest key
    (priority, -last_served_tti, -ue_id) among those with queued bits."""
    priority_fn = PRIORITY_FN[policy]
    best = best_key = None
    for u in inputs:
        if u.buffer_bits == 0:
            continue
        key = (priority_fn(u), -u.last_served_tti, -u.ue_id)
        if best_key is None or key > best_key:
            best, best_key = u, key
    if best is None:
        return SchedDecision(None, 0)
    return SchedDecision(best.ue_id, int(best.rate_bps * TTI_SECONDS))


# small value sets, so that equal priorities and equal last_served_tti occur
_candidate = st.builds(
    ue,
    ue_id=st.integers(0, 15),
    buffer_bits=st.sampled_from([0, 1_000, 20_000_000]),
    beta_s=st.sampled_from([0.15, 0.3]),
    q=st.sampled_from([1.0, 2.0]),
    rate_bps=st.sampled_from([1e6, 2e6, 3e6]),
    hol_delay_s=st.sampled_from([0.0, 0.01, 0.02]),
    avg_rate_bps=st.sampled_from([1e6, 2e6]),
    last_served_tti=st.sampled_from([-1, 0, 5]),
)


class TestSelectEqualsKeyOrder:
    @given(st.lists(_candidate, min_size=1, max_size=12, unique_by=lambda u: u.ue_id))
    def test_same_decision_as_the_tuple_key(self, inputs):
        for policy in Policy:
            assert select(inputs, policy) == select_by_key(inputs, policy)


class TestMlwdfEqualsPf:
    def test_identical_qos_and_hol_gives_same_selection(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            hol = float(rng.uniform(0.001, 0.3))
            inputs = [
                ue(
                    ue_id=i,
                    buffer_bits=int(rng.integers(0, 1_000_000)),
                    rate_bps=float(rng.uniform(1e6, 6e9)),
                    avg_rate_bps=float(rng.uniform(1e5, 6e9)),
                    hol_delay_s=hol,
                    last_served_tti=int(rng.integers(-1, 100)),
                )
                for i in range(5)
            ]
            if all(u.buffer_bits == 0 for u in inputs):
                continue
            assert select(inputs, Policy.MLWDF).selected_ue == select(inputs, Policy.PF).selected_ue


class TestQScalingInvariance:
    def test_bcqq_argmax_invariant_under_common_q_scale(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            c = float(rng.uniform(0.01, 100))
            inputs = [
                ue(
                    ue_id=i,
                    buffer_bits=int(rng.integers(1, 40_000_000)),
                    q=float(rng.uniform(1, 100)),
                    rate_bps=float(rng.uniform(1e6, 6e9)),
                    beta_s=float(rng.choice([0.15, 0.3])),
                    last_served_tti=int(rng.integers(-1, 50)),
                )
                for i in range(5)
            ]
            scaled = [replace(u, q=u.q * c) for u in inputs]
            assert select(inputs, Policy.BCQQ).selected_ue == select(scaled, Policy.BCQQ).selected_ue


class TestAvgRate:
    def test_floor_never_zero(self):
        avg = 1e9
        for _ in range(100_000):
            avg = update_avg_rate(avg, 0)
        assert avg == 1.0

    def test_convergence_to_constant_service(self):
        # geometric-series oracle: after 5*T_c steps the EMA is within
        # (1 - 1/T_c)^(5 T_c) ~ e^-5 of the served rate
        r_bits = 3_000_000
        avg = 1.0
        for _ in range(5000):
            avg = update_avg_rate(avg, r_bits)
        target = r_bits / 0.001
        residual = (target - 1.0) * (1 - 1 / 1000) ** 5000
        assert abs(avg - target) <= residual * 1.001
        assert abs(avg - target) / target < 0.01
