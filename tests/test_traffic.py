import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_reference import reference_bits, scalar_arrivals, scalar_substream
from qoesched.buffering import UeBuffer
from qoesched.engine import Scenario, Simulation
from qoesched.scheduler import TTIS_PER_SECOND
from qoesched.streams import BLOCK, DRAW_MAX, BufferedStream, substream
from qoesched.traffic import (
    ArrivalSource,
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
    """A buffered stream on numpy's default generator, as a source holds."""
    return BufferedStream(np.random.default_rng(seed))


def source(spec, rng, end_tti=10**9):
    """An arrival source of ``spec`` on ``rng``, first popped at TTI 0."""
    return ArrivalSource(spec, rng, end_tti)


class StubStream:
    """Serves given uniforms: ``poisson_random`` all of them, ``random()``
    the next one; a scan skips no TTI."""

    def __init__(self, us):
        self.us = list(us)

    def poisson_random(self, lam):
        us, self.us = self.us, []
        return us

    def random(self):
        return self.us.pop(0)

    def skip_zeros(self, lam, max_k):
        return 0


class TestFtpArrivals:
    def test_mean_size_half_megabit(self):
        # lambda per TTI chosen so one call yields ~1e6 packets
        spec = ftp_spec(offered_load_bps=5e14)
        sizes = arrivals(source(spec, stream(42)))
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
        sizes = arrivals(source(ftp_spec(), StubStream([0.5])))
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
        # the class branch is the only class test: video draws one double per
        # frame and names the next frame, FTP a Poisson count and its sizes;
        # two sources on one stream leave it serving the next double the
        # scalar draws do
        rng, plain = stream(0), np.random.default_rng(0)
        video = source(video_spec(), rng)
        frame = [min(reference_bits(plain.random(), 1e9 * 16 / 1000.0), 2_000_000)]
        assert arrivals(video) == frame and video.next_tti == 16
        spec = ftp_spec(offered_load_bps=1.5e9)
        n = plain.poisson(ftp_lam(spec))
        assert n > 0
        sizes = [reference_bits(u, spec.mean_packet_bits) for u in plain.random(n).tolist()]
        ftp = source(spec, rng)
        assert arrivals(ftp) == sizes and ftp.next_tti == 1
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
            sizes = arrivals(source(ftp_spec(mean_packet_bits=mean_bits), StubStream(us)))
            assert sizes == [reference_bits(u, mean_bits) for u in us]
            return
        spec = video_spec(offered_load_bps=mean_bits, frame_interval_ms=1000,
                          max_packet_bits=2**62)
        frame_mean = mean_bits * 1000 / 1000
        sizes = [arrivals(source(spec, StubStream([u])))[0] for u in us]
        assert sizes == [reference_bits(u, frame_mean) for u in us]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32), st.floats(1e3, 1e10), st.integers(1, 5_000_000))
    def test_video_frame_clamps_at_cap(self, seed, load, cap):
        spec = video_spec(offered_load_bps=load, max_packet_bits=cap)
        u = np.random.default_rng(seed).random()
        expected = min(reference_bits(u, load * 16 / 1000.0), cap)
        assert arrivals(source(spec, StubStream([u]))) == [expected]


class TestVideoArrivals:
    def test_one_frame_per_interval_and_cap(self):
        src = source(video_spec(), stream(1))
        sizes = []
        for k in range(200_000):
            assert src.next_tti == k * 16
            frame = arrivals(src)
            assert len(frame) == 1
            sizes.append(frame[0])
        assert max(sizes) <= 2_000_000

    def test_off_frame_tti_empty(self):
        # the source names only frame TTIs, each one double apart, and the
        # frame after the last as its next TTI, past the run's end
        for interval in (1, 7, 16):
            spec = video_spec(frame_interval_ms=interval)
            src, plain = source(spec, stream(2), end_tti=50), np.random.default_rng(2)
            popped = []
            while src.next_tti < 50:
                popped.append(src.next_tti)
                assert arrivals(src) == scalar_arrivals(spec, popped[-1], plain)
            assert popped == list(range(0, 50, interval))
            assert src.next_tti == popped[-1] + interval

    def test_truncation_pulls_mean_below_cap(self):
        # untruncated frame mean 1.6e7 bits >> 2e6 cap
        spec = video_spec(offered_load_bps=1e9, frame_interval_ms=16)
        src = source(spec, stream(3))
        sizes = [arrivals(src)[0] for _ in range(100_000)]
        assert max(sizes) <= 2_000_000
        # sampling oracle for the clipped-exponential mean
        oracle = np.minimum(
            np.random.default_rng(99).exponential(1.6e7, 500_000), 2_000_000
        ).mean()
        empirical = sum(sizes) / len(sizes)
        assert empirical < 2_000_000
        assert abs(empirical - oracle) / oracle < 0.02


def decades(lo, hi):
    """Floats spread evenly over the decades from 10**lo to 10**hi."""
    return st.floats(lo, hi).map(lambda x: 10.0 ** x)


@st.composite
def adaptive_flows(draw):
    """An adaptive FTP flow at 10**-3 to ~40 packets per TTI, on both sides of
    lam = 10, or an adaptive video flow of any frame interval up to 40."""
    bits = round(draw(decades(3, 6)))  # mean packet or frame size
    if draw(st.booleans()):
        lam = draw(decades(-3, 1.6))
        return ftp_spec(adaptive=True, offered_load_bps=lam * bits * TTIS_PER_SECOND,
                        mean_packet_bits=bits)
    interval = draw(st.integers(1, 40))
    return video_spec(adaptive=True, offered_load_bps=bits * TTIS_PER_SECOND / interval,
                      frame_interval_ms=interval, max_packet_bits=round(draw(decades(3, 6.5))))


_HORIZON = 2 * (BLOCK + DRAW_MAX)  # past a scan's spill, twice over


class TestArrivalSource:
    """A source popped to the end of a run gives the scalar draws' arrivals
    TTI by TTI, under any schedule of falling loads."""

    @settings(max_examples=120, deadline=None)
    @given(flow=adaptive_flows(), end_tti=st.integers(1, _HORIZON),
           cuts=st.dictionaries(st.integers(0, _HORIZON), st.floats(0.05, 1.0), max_size=6),
           seed=st.integers(0, 2**32), ue_id=st.integers(0, 1000))
    # a light flow whose scans reach past a draw; lam falling through 10
    @example(ftp_spec(adaptive=True, offered_load_bps=5e6), _HORIZON, {}, 3, 0)
    @example(ftp_spec(adaptive=True, offered_load_bps=7.5e9), 300,
             {20: 0.5, 21: 0.5, 90: 0.25, 150: 0.5}, 5, 1)
    @example(video_spec(adaptive=True, frame_interval_ms=7), 200, {30: 0.5, 31: 0.1}, 8, 2)
    def test_pops_the_scalar_arrivals_under_falling_loads(self, flow, end_tti, cuts, seed,
                                                          ue_id):
        # each popped TTI gives the scalar draws' arrivals of the same key,
        # and each TTI the source skips is empty there; a cut applies after
        # its TTI's arrivals, as the engine's closing pass does
        src = ArrivalSource(flow, BufferedStream(substream(seed, ue_id, 0)), end_tti)
        plain, spec = scalar_substream(seed, ue_id, 0), flow
        for tti in range(end_tti):
            want = scalar_arrivals(spec, tti, plain)
            if tti == src.next_tti:
                assert arrivals(src) == want, tti
            else:
                assert tti < src.next_tti and want == [], tti
            if tti in cuts:
                spec = apply_adjustment(spec, cuts[tti], flow.offered_load_bps)
                src.spec = apply_adjustment(src.spec, cuts[tti], flow.offered_load_bps)
        assert src.next_tti >= end_tti


class TestLongRunRate:
    def test_ftp_rate_converges_to_offered_load(self):
        spec = ftp_spec(offered_load_bps=5e8)
        ttis = 1_000_000
        src = source(spec, stream(11), end_tti=ttis)
        total = 0
        while src.next_tti < ttis:
            total += sum(arrivals(src))
        rate = total / (ttis / 1000.0)
        assert abs(rate - 5e8) / 5e8 < 0.02

    def test_video_rate_converges_to_truncated_mean(self):
        spec = video_spec(offered_load_bps=2e8, frame_interval_ms=16)
        # sampling oracle for the truncated per-frame mean
        frame_mean = 2e8 * 16 / 1000.0
        oracle = np.minimum(
            np.random.default_rng(5).exponential(frame_mean, 2_000_000), 2_000_000
        ).mean()
        ttis = 1_000_000
        src = source(spec, stream(12))
        total = 0
        while src.next_tti < ttis:
            total += arrivals(src)[0]
        rate = total / (ttis / 1000.0)
        expected = oracle * 1000.0 / 16
        assert abs(rate - expected) / expected < 0.02


class TestReproducibility:
    def test_identical_seed_identical_sequence(self):
        spec = ftp_spec()
        a = source(spec, stream(77), end_tti=2000)
        b = source(spec, stream(77), end_tti=2000)
        while a.next_tti < 2000:
            assert a.next_tti == b.next_tti
            assert arrivals(a) == arrivals(b)
        assert a.next_tti == b.next_tti == 2000

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
