import numpy as np
import pytest

from qoesched.channel import (
    CQI_EFFICIENCY,
    cqi_step,
    rate_of,
)
from qoesched.engine import Scenario
from qoesched.traffic import FlowSpec, TrafficClass


class FixedRng:
    """Stub returning a scripted sequence of uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


class TestCqiStep:
    def test_frozen_channel(self):
        cqi = 9
        rng = np.random.default_rng(0)
        for _ in range(1000):
            cqi = cqi_step(cqi, 0.0, rng)
            assert cqi == 9

    def test_clamp_at_top(self):
        # u in [0.5, 1) is an upward step
        assert cqi_step(15, 1.0, FixedRng([0.9])) == 15

    def test_clamp_at_bottom(self):
        assert cqi_step(1, 1.0, FixedRng([0.1])) == 1

    def test_stationary_distribution_symmetric(self):
        # Monte-Carlo oracle: the clamped +/-1 walk mixes to a distribution
        # symmetric about the midpoint 8.
        rng = np.random.default_rng(123)
        cqi = 8
        counts = np.zeros(16)
        n = 1_000_000
        for _ in range(n):
            cqi = cqi_step(cqi, 1.0, rng)
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
            ca = cqi_step(ca, 0.3, a)
            cb = cqi_step(cb, 0.3, b)
            assert ca == cb


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
