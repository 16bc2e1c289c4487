import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_reference import reference_bits
from qoesched.buffering import UeBuffer
from qoesched.engine import Scenario, Simulation
from qoesched.streams import BufferedStream
from qoesched.traffic import (
    FlowSpec,
    TrafficClass,
    apply_adjustment,
    arrivals,
    ftp_lam,
)


def ftp_spec(**kw):
    base = dict(
        ue_id=0,
        traffic_class=TrafficClass.FTP_DOWNLOAD,
        alpha=1e-6,
        beta_ms=300,
        offered_load_bps=5e8,
        mean_packet_bits=500_000,
    )
    base.update(kw)
    return FlowSpec(**base)


def video_spec(**kw):
    base = dict(
        ue_id=1,
        traffic_class=TrafficClass.LIVE_HD_VIDEO,
        alpha=1e-6,
        beta_ms=150,
        offered_load_bps=1e9,
        max_packet_bits=2_000_000,
        frame_interval_ms=16,
    )
    base.update(kw)
    return FlowSpec(**base)


def stream(seed):
    """A buffered stream on numpy's default generator, as ``arrivals`` takes."""
    return BufferedStream(np.random.default_rng(seed))


class StubStream:
    """Serves given uniforms: ``poisson_random`` all of them, ``random()``
    the next one."""

    def __init__(self, us):
        self.us = list(us)

    def poisson_random(self, lam):
        us, self.us = self.us, []
        return us

    def random(self):
        return self.us.pop(0)


class TestFtpArrivals:
    def test_mean_size_half_megabit(self):
        # lambda per TTI chosen so one call yields ~1e6 packets
        spec = ftp_spec(offered_load_bps=5e14)
        sizes = arrivals(spec, 0, stream(42))
        assert len(sizes) > 900_000
        mean = sum(sizes) / len(sizes)
        assert abs(mean - 500_000) / 500_000 < 0.01

    def test_zero_load_rejected_at_construction(self):
        with pytest.raises(ValueError):
            ftp_spec(offered_load_bps=0)
        with pytest.raises(ValueError):
            ftp_spec(mean_packet_bits=0)

    def test_inverse_cdf_median(self):
        # u = 0.5 lands on mean * ln 2
        sizes = arrivals(ftp_spec(), 0, StubStream([0.5]))
        assert sizes == [round(5e5 * math.log(2))] == [346574]

    def test_deadlines_stamped(self):
        # the engine stamps a TTI's packets with that TTI and tti + beta_ms
        sc = Scenario(name="stamp", duration_tti=10, flows=(ftp_spec(offered_load_bps=5e9),),
                      peak_rate_bps=1e3, walk_prob=0.0,
                      buffersize_bits=10**12)
        sim = Simulation(sc)
        for tti in range(8):
            sim.step(tti)
        # a queue entry is [sent, accepted, arrival_tti, deadline_tti, ends]
        queue = sim.ues[0].buffer.queue
        assert any(arrival == 7 for _, _, arrival, _, _ in queue)
        for _, _, arrival, deadline, _ in queue:
            assert deadline == arrival + 300

    def test_class_branch_draws_only_its_class_draws(self):
        # the class branch is the only class test: video draws nothing off a
        # frame TTI and one double on one, FTP a Poisson count and its sizes;
        # the stream then serves the next double the scalar draws do
        rng, plain = stream(0), np.random.default_rng(0)
        assert arrivals(video_spec(), 7, rng) == []
        frame = [min(reference_bits(plain.random(), 1e9 * 16 / 1000.0), 2_000_000)]
        assert arrivals(video_spec(), 16, rng) == frame
        spec = ftp_spec(offered_load_bps=1.5e9)
        n = plain.poisson(ftp_lam(spec))
        assert n > 0
        sizes = [reference_bits(u, spec.mean_packet_bits) for u in plain.random(n).tolist()]
        assert arrivals(spec, 7, rng) == sizes
        assert rng.random() == plain.random()


_uniform = st.floats(0.0, 1.0, exclude_max=True)


class TestPacketSizes:
    """``arrivals`` turns each uniform the stream serves into a size:
    ``max(1, round(-mean * log1p(-u)))``. An integer mean goes through an FTP
    flow; a float one through video frames one second apart at a load equal
    to the mean, whose frame mean is ``mean * 1000 / 1000``."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_uniform, max_size=20),
           st.one_of(st.integers(1, 10**8), st.floats(1e-3, 1e8)))
    @example([0.0, 1e-12, 0.5, 0.999_999_999_999], 3)    # 0.0 and values rounding to 0
    @example([0.0, 1e-300, 5e-324], 1e8)
    @example([1.0 - 2.0**-53], 0.5)
    @example([1e-12, 0.1, 0.5, 0.75], 2**53 + 1)  # an int mean no float holds exactly
    # -mean * log1p(-u) is exactly 2.5 and 346574.5 with glibc's log1p: each
    # rounds half to even, to 2 and 346574, where half-up rounding gives 1 more;
    # mean * 1000 / 1000 == mean for both, so video frames reach these means
    @example([0.13436424411240122], 17.32609025672327)
    @example([0.763774618976614], 240181.54092731967)
    def test_equals_max_one_rounded_inverse_cdf(self, us, mean_bits):
        if type(mean_bits) is int:
            sizes = arrivals(ftp_spec(mean_packet_bits=mean_bits), 0, StubStream(us))
            assert sizes == [reference_bits(u, mean_bits) for u in us]
            return
        spec = video_spec(offered_load_bps=mean_bits, frame_interval_ms=1000,
                          max_packet_bits=2**62)
        frame_mean = mean_bits * 1000 / 1000
        sizes = [arrivals(spec, 0, StubStream([u]))[0] for u in us]
        assert sizes == [reference_bits(u, frame_mean) for u in us]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32), st.floats(1e3, 1e10), st.integers(1, 5_000_000))
    def test_video_frame_clamps_at_cap(self, seed, load, cap):
        spec = video_spec(offered_load_bps=load, max_packet_bits=cap)
        u = np.random.default_rng(seed).random()
        expected = min(reference_bits(u, load * 16 / 1000.0), cap)
        assert arrivals(spec, 32, StubStream([u])) == [expected]


class TestVideoArrivals:
    def test_one_frame_per_interval_and_cap(self):
        spec = video_spec()
        rng = stream(1)
        sizes = []
        for k in range(200_000):
            frame = arrivals(spec, k * 16, rng)
            assert len(frame) == 1
            sizes.append(frame[0])
        assert max(sizes) <= 2_000_000

    def test_off_frame_tti_empty(self):
        spec = video_spec()
        assert arrivals(spec, 7, stream(2)) == []

    def test_truncation_pulls_mean_below_cap(self):
        # untruncated frame mean 1.6e7 bits >> 2e6 cap
        spec = video_spec(offered_load_bps=1e9, frame_interval_ms=16)
        rng = stream(3)
        sizes = [arrivals(spec, k * 16, rng)[0] for k in range(100_000)]
        assert max(sizes) <= 2_000_000
        # sampling oracle for the clipped-exponential mean
        oracle = np.minimum(
            np.random.default_rng(99).exponential(1.6e7, 500_000), 2_000_000
        ).mean()
        empirical = sum(sizes) / len(sizes)
        assert empirical < 2_000_000
        assert abs(empirical - oracle) / oracle < 0.02


class TestLongRunRate:
    def test_ftp_rate_converges_to_offered_load(self):
        spec = ftp_spec(offered_load_bps=5e8)
        rng = stream(11)
        total = 0
        ttis = 1_000_000
        for tti in range(ttis):
            total += sum(arrivals(spec, tti, rng))
        rate = total / (ttis / 1000.0)
        assert abs(rate - 5e8) / 5e8 < 0.02

    def test_video_rate_converges_to_truncated_mean(self):
        spec = video_spec(offered_load_bps=2e8, frame_interval_ms=16)
        # sampling oracle for the truncated per-frame mean
        frame_mean = 2e8 * 16 / 1000.0
        oracle = np.minimum(
            np.random.default_rng(5).exponential(frame_mean, 2_000_000), 2_000_000
        ).mean()
        rng = stream(12)
        ttis = 1_000_000
        total = 0
        for tti in range(0, ttis, 16):
            total += arrivals(spec, tti, rng)[0]
        rate = total / (ttis / 1000.0)
        expected = oracle * 1000.0 / 16
        assert abs(rate - expected) / expected < 0.02


class TestReproducibility:
    def test_identical_seed_identical_sequence(self):
        spec = ftp_spec()
        a = stream(77)
        b = stream(77)
        for tti in range(2000):
            assert arrivals(spec, tti, a) == arrivals(spec, tti, b)

    def test_packet_invariants(self):
        # packets are checked once per batch, where they enter a buffer
        with pytest.raises(ValueError):
            UeBuffer(1_000).enqueue([0], 0, 10)
        with pytest.raises(ValueError):
            UeBuffer(1_000).enqueue([100], 5, 5)


class TestAdjustment:
    def test_identity_factor(self):
        spec = ftp_spec(adaptive=True)
        assert apply_adjustment(spec, 1.0, spec.offered_load_bps) == spec

    def test_direct_scaling(self):
        spec = ftp_spec(adaptive=True, offered_load_bps=1e9)
        assert apply_adjustment(spec, 0.5, 1e9).offered_load_bps == 5e8

    def test_floor_at_ten_percent(self):
        spec = ftp_spec(adaptive=True, offered_load_bps=1e9)
        for _ in range(11):
            spec = apply_adjustment(spec, 0.5, 1e9)
        assert spec.offered_load_bps == 1e8

    def test_non_adaptive_unchanged(self):
        spec = ftp_spec(adaptive=False, offered_load_bps=1e9)
        assert apply_adjustment(spec, 0.5, 1e9) == spec

    def test_bad_factor_rejected(self):
        spec = ftp_spec(adaptive=True)
        for f in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                apply_adjustment(spec, f, spec.offered_load_bps)
