import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qoesched.channel import (
    CQI_EFFICIENCY,
    CQI_MAX,
    CQI_MIN,
    cqi_step,
    rate_of,
)
from qoesched.engine import Scenario
from qoesched.traffic import FlowSpec, TrafficClass


class TestCqiStep:
    def test_frozen_channel(self):
        cqi = 9
        for u in np.random.default_rng(0).random(1000).tolist():
            cqi = cqi_step(cqi, 0.0, (u,))
            assert cqi == 9

    def test_clamp_at_top(self):
        # u in [0.5, 1) is an upward step
        assert cqi_step(15, 1.0, [0.9]) == 15

    def test_clamp_at_bottom(self):
        assert cqi_step(1, 1.0, [0.1]) == 1

    def test_stationary_distribution_symmetric(self):
        # Monte-Carlo oracle: the clamped +/-1 walk mixes to a distribution
        # symmetric about the midpoint 8.
        cqi = 8
        counts = np.zeros(16)
        n = 1_000_000
        for u in np.random.default_rng(123).random(n).tolist():
            cqi = cqi_step(cqi, 1.0, (u,))
            counts[cqi] += 1
        freqs = counts / n
        mean = sum(k * freqs[k] for k in range(1, 16))
        assert abs(mean - 8.0) <= 0.05 * 8.0
        for k in range(1, 16):
            assert abs(freqs[k] - freqs[16 - k]) < 0.05

    def test_determinism(self):
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        ca, cb = 7, 7
        for _ in range(5000):
            ca = cqi_step(ca, 0.3, (a.random(),))
            cb = cqi_step(cb, 0.3, (b.random(),))
            assert ca == cb

    @settings(max_examples=200, deadline=None)
    @given(cqi=st.integers(CQI_MIN, CQI_MAX), walk_prob=st.floats(0.0, 1.0),
           us=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=60))
    def test_walk_of_many_uniforms_is_its_steps_and_only_its_moves(self, cqi, walk_prob, us):
        # one call over a span is the span's steps one by one, and the
        # uniforms at or above walk_prob, which a move stream drops, move nothing
        stepped = cqi
        for u in us:
            stepped = cqi_step(stepped, walk_prob, (u,))
        assert cqi_step(cqi, walk_prob, us) == stepped
        assert cqi_step(cqi, walk_prob, [u for u in us if u < walk_prob]) == stepped


class TestRateOf:
    def test_cqi15_is_peak(self):
        assert rate_of(15, 6e9) == 6e9

    def test_cqi1_hand_value(self):
        expected = 6e9 * 0.1523 / 5.5547
        assert rate_of(1, 6e9) == pytest.approx(expected, rel=1e-12)
        assert rate_of(1, 6e9) == pytest.approx(1.645e8, rel=1e-3)

    def test_monotone_non_decreasing(self):
        for k in range(1, 15):
            assert rate_of(k, 6e9) <= rate_of(k + 1, 6e9)

    def test_bounds(self):
        for k in range(1, 16):
            assert 0 < rate_of(k, 6e9) <= 6e9

    def test_out_of_range_rejected(self):
        for k in (0, 16, -3):
            with pytest.raises(ValueError):
                rate_of(k, 6e9)


def one_ue_cell(**channel):
    flow = FlowSpec(ue_id=0, traffic_class=TrafficClass.FTP_DOWNLOAD, alpha=1e-6,
                    beta_ms=300, offered_load_bps=1e6, mean_packet_bits=1_000)
    return Scenario(duration_tti=10, flows=(flow,), buffersize_bits=10**6, **channel)


class TestParams:
    def test_validation(self):
        # the channel settings are Scenario fields, checked by its __post_init__
        with pytest.raises(ValueError, match="^peak_rate_bps must be positive"):
            one_ue_cell(peak_rate_bps=0)
        with pytest.raises(ValueError, match="^walk_prob must be in"):
            one_ue_cell(peak_rate_bps=1e9, walk_prob=1.5)
        with pytest.raises(ValueError, match="^initial_cqi_per_ue entry 0 outside"):
            one_ue_cell(peak_rate_bps=1e9, initial_cqi_per_ue=(0,))
        with pytest.raises(ValueError, match="^initial_cqi_per_ue entry 16 outside"):
            one_ue_cell(peak_rate_bps=1e9, initial_cqi_per_ue=(16,))
        one_ue_cell(peak_rate_bps=1e9, walk_prob=1.0, initial_cqi_per_ue=(15,))

    def test_efficiency_table_shape(self):
        assert len(CQI_EFFICIENCY) == 15
        assert list(CQI_EFFICIENCY) == sorted(CQI_EFFICIENCY)
