"""BufferedStream and MoveStream must return exactly what a plain Generator returns.

A traffic stream serves the engine's three calls and no other: ``random()``
on a video flow's frame TTI, ``poisson_random(lam)`` on an FTP flow's arrival
TTI and ``skip_zeros(lam, max_k)`` in its wake scan. It replays numpy's
Poisson multiplication sampler on buffered doubles, and ``poisson_random(lam)``
serves ``random(poisson(lam))``, a count's doubles, in one call. If a numpy
release changes that sampler, or the way a block of doubles relates to scalar
draws, these tests fail. The one call the stream does not serve, a Poisson
``lam`` outside ``[0, 10)`` while buffered doubles are pending, must raise the
stream's own ``ValueError``. A move stream must serve the generator's doubles
below ``walk_prob`` at their indices, drawing no double past its horizon.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qoesched.streams import BLOCK, CHUNK, DRAW_MAX, BufferedStream, MoveStream


def generator(seed: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(3, 0))
    return np.random.Generator(np.random.Philox(ss))


def leading_zeros(gen, lam, max_k):
    """Zero ``poisson(lam)`` draws from ``gen`` before its first non-zero, at most max_k.

    The first non-zero draw is put back, so ``gen`` stands where the
    stream should after ``skip_zeros``.
    """
    n = 0
    while n < max_k:
        state = gen.bit_generator.state
        if gen.poisson(lam) != 0:
            gen.bit_generator.state = state
            break
        n += 1
    return n


def call(rng, op):
    """Apply one operation; a ValueError is returned as its message.

    A plain generator serves ``poisson_random`` as ``random(poisson(lam))``
    and ``skip_zeros`` as its leading zero draws, which a ``lam`` of 10 or
    more, sampled by rejection, does not scan: it skips none and draws nothing.
    """
    kind, arg = op
    try:
        if isinstance(rng, BufferedStream):
            return rng.random() if kind == "random" else getattr(rng, kind)(*arg)
        if kind == "random":
            return rng.random()
        if kind == "poisson_random":
            return rng.random(rng.poisson(*arg)).tolist()
        lam, max_k = arg
        return leading_zeros(rng, lam, max_k) if lam < 10.0 else 0
    except ValueError as e:
        return ("ValueError", str(e))


def replay(stream, gen, plain, sequence) -> bool:
    """Apply each operation to ``stream``, which draws from ``gen``, and to ``plain``.

    Every call must match, except a Poisson ``lam`` outside ``[0, 10)``
    while the stream holds pending buffered doubles, that is while ``gen``
    is ahead of ``plain``: that one must raise the stream's ValueError, which
    ends the sequence. Returns whether the whole sequence was applied.
    """
    for op in sequence:
        kind, arg = op
        if (kind == "poisson_random" and not 0.0 <= arg[0] < 10.0
                and repr(gen.bit_generator.state) != repr(plain.bit_generator.state)):
            with pytest.raises(ValueError, match="after buffered draws"):
                stream.poisson_random(*arg)
            return False
        assert call(stream, op) == call(plain, op), op
    return True


def frames(k):
    """``k`` ``random()`` calls: a video stream's frames, or the draws that put
    an FTP stream's next call at any point of a block."""
    return [("random", None)] * k


def arrival(lam):
    return ("poisson_random", (lam,))


def scan(lam, max_k):
    return ("skip_zeros", (lam, max_k))


small_lams = st.one_of(
    st.floats(min_value=1e-4, max_value=0.2),
    st.floats(min_value=0.0, max_value=10.0, exclude_min=True, exclude_max=True),
    st.floats(min_value=9.0, max_value=10.0, exclude_max=True),
    st.just(0.0),
)
large_lams = st.one_of(st.just(10.0), st.floats(min_value=10.0, max_value=11.0),
                       st.floats(min_value=10.0, max_value=1e6))
ftp_ops = st.one_of(
    st.builds(arrival, small_lams | large_lams),
    st.builds(scan, small_lams | large_lams, st.integers(min_value=1, max_value=2 * DRAW_MAX + BLOCK)),
)


def falls_through_ten_once(ops):
    """The calls reordered so that every ``lam`` of 10 or more comes first: a
    flow's ``lam`` falls through 10 at most once, as service adjustment lowers it."""
    return sorted(ops, key=lambda op: op[1][0] < 10.0)


# FTP calls after a lam of 10 or more: a run of them, a crossing to the
# replay mid-block and at a block edge, after exactly BLOCK buffered draws
CROSSINGS = [
    arrival(12.0), scan(40.0, 9), arrival(10.0), arrival(9.999999), scan(0.7, 3), arrival(0.7),
    arrival(9.5), scan(0.0, 9), arrival(0.0), arrival(2.0),
]
EDGE_CROSSING = frames(BLOCK) + [arrival(40.0), scan(11.0, 5), arrival(3.5), arrival(2.0)]
ZERO_LAM = [arrival(20.0), arrival(0.0), scan(0.0, 7), arrival(4.0), arrival(0.0), scan(0.0, 3),
            arrival(4.0)]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       video=st.integers(min_value=0, max_value=3 * BLOCK + 5),
       ftp=st.lists(ftp_ops, max_size=40).map(falls_through_ten_once))
@example(seed=1, video=0, ftp=CROSSINGS)
@example(seed=3, video=0, ftp=ZERO_LAM)
@example(seed=6, video=0, ftp=EDGE_CROSSING)
@example(seed=5, video=2 * BLOCK + 7, ftp=[arrival(0.5), scan(0.5, 3), arrival(0.5)] * 3)
# random() at a block edge: ending exactly on it, a whole block, one past it
@example(seed=7, video=BLOCK, ftp=[])
@example(seed=9, video=BLOCK + 1, ftp=[])
# a count's doubles at block edges: across it, ending on it, all past it
# after a count that ends on it, and a zero count on the block's last double
@example(seed=1, video=BLOCK - 12, ftp=[arrival(9.5)])
@example(seed=4, video=BLOCK - 7, ftp=[arrival(3.0)])
@example(seed=9, video=BLOCK - 6, ftp=[arrival(3.0)])
@example(seed=10, video=BLOCK - 1, ftp=[arrival(2.0)])
def test_buffered_stream_matches_generator(seed, video, ftp):
    # the engine's call mix: a video stream's frames, an FTP stream's arrival
    # TTIs and wake scans; one stream serves both here, the frames placing the
    # FTP calls in the block
    gen = generator(seed)
    replay(BufferedStream(gen), gen, generator(seed), frames(video) + ftp + [arrival(9.5)] * 8)


def count_and_doubles(plain, lam):
    """A ``poisson(lam)`` count from ``plain`` and the doubles its sampler drew."""
    probe = np.random.Generator(np.random.Philox())
    probe.bit_generator.state = plain.bit_generator.state
    n = plain.poisson(lam)
    drawn = 0
    while repr(probe.bit_generator.state) != repr(plain.bit_generator.state):
        assert drawn < 100
        probe.random()
        drawn += 1
    return n, drawn


# where a count's doubles start and end, against the block edge
EDGES = {
    "across": lambda start, end: start < BLOCK < end,
    "on": lambda start, end: start < end == BLOCK,
    "past": lambda start, end: start == BLOCK < end,
}
# after a call: counts across the next block edges, and a wake scan
FOLLOW_UP = [arrival(9.5)] * 6 + [scan(0.5, BLOCK), arrival(0.5)]


def served_frames(stream, plain, k):
    assert [stream.random() for _ in range(k)] == plain.random(k).tolist()


@pytest.mark.parametrize("seed, prefix, lam, spill, edge", [
    (1, BLOCK - 12, 9.5, False, "across"),
    (4, BLOCK - 7, 3.0, False, "on"),
    (9, BLOCK - 6, 3.0, False, "past"),
    # the block and the next one served from a wake scan's spill
    (2, BLOCK - 12, 9.5, True, "across"),
], ids=["across", "on", "past", "across-after-a-spill"])
def test_count_doubles_at_block_edges(seed, prefix, lam, spill, edge):
    # the replay test's block-edge examples take their path, and a spill's too
    gen, plain = generator(seed), generator(seed)
    stream = BufferedStream(gen)
    if spill:
        served_frames(stream, plain, BLOCK)
        assert stream.skip_zeros(5.0, 2 * DRAW_MAX) == leading_zeros(plain, 5.0, 1) == 0
    served_frames(stream, plain, prefix)
    n, drawn = count_and_doubles(plain, lam)
    assert EDGES[edge](prefix + drawn, prefix + drawn + n)
    assert stream.poisson_random(lam) == plain.random(n).tolist()
    replay(stream, gen, plain, FOLLOW_UP)


@pytest.mark.parametrize("prefix, raises", [
    (frames(BLOCK), False),
    (frames(BLOCK + 1), True),
    ([arrival(3.5)], True),
    ([arrival(15.0), scan(15.0, 9), arrival(40.0)], False),
], ids=["buffer-used-up", "draws-pending", "after-small-lam", "direct"])
def test_lam_from_ten_on_raises_only_while_draws_are_pending(prefix, raises):
    # A flow whose lam stays at 10 or more draws its packet sizes straight
    # from the generator too, so its next lam finds nothing pending.
    gen = generator(14)
    sequence = prefix + [arrival(15.0)]
    assert replay(BufferedStream(gen), gen, generator(14), sequence) != raises


@pytest.mark.parametrize("lam", [-1.0, math.nan, 1e19, math.inf])
def test_out_of_domain_lam_raises_like_numpy(lam):
    # On a fresh stream numpy raises its own error; after a buffered draw the
    # stream raises before numpy sees the lam.
    with pytest.raises(ValueError) as expected:
        generator(0).poisson(lam)
    with pytest.raises(ValueError) as got:
        BufferedStream(generator(0)).poisson_random(lam)
    assert str(got.value) == str(expected.value)
    stream = BufferedStream(generator(0))
    stream.random()
    with pytest.raises(ValueError, match="after buffered draws"):
        stream.poisson_random(lam)


def test_zero_lam_consumes_no_draw():
    stream = BufferedStream(generator(9))
    assert stream.poisson_random(0.0) == []
    assert stream.random() == generator(9).random()


def test_buffer_is_created_on_first_draw():
    gen = generator(11)
    state = repr(gen.bit_generator.state)
    stream = BufferedStream(gen)
    assert repr(gen.bit_generator.state) == state
    stream.random()
    assert repr(gen.bit_generator.state) != state


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       prefix=st.integers(min_value=0, max_value=2 * BLOCK),
       ftp=st.lists(ftp_ops, max_size=6).map(falls_through_ten_once),
       lam=small_lams,
       max_k=st.integers(min_value=0, max_value=2 * DRAW_MAX + BLOCK))
@example(seed=6, prefix=BLOCK - 1, ftp=[], lam=0.01, max_k=4 * BLOCK)
@example(seed=7, prefix=BLOCK, ftp=[], lam=0.01, max_k=BLOCK)
@example(seed=8, prefix=0, ftp=[arrival(15.0), scan(15.0, 4)], lam=0.02, max_k=200)
@example(seed=9, prefix=0, ftp=[arrival(25.0)], lam=0.3, max_k=50)
@example(seed=10, prefix=1, ftp=[], lam=0.01, max_k=0)
@example(seed=11, prefix=0, ftp=[arrival(15.0)], lam=0.01, max_k=0)
@example(seed=12, prefix=0, ftp=[], lam=0.0, max_k=9)
# a count and its doubles served from the spill of a scan that skipped none
@example(seed=2, prefix=BLOCK, ftp=[], lam=9.5, max_k=2 * DRAW_MAX)
# past the block: the first non-zero in the scan's second draw, on the first
# double of a draw (the first and the second), and no non-zero up to the
# horizon, which the second draw ends at
@example(seed=8, prefix=BLOCK - 1, ftp=[], lam=0.002, max_k=3 * DRAW_MAX)
@example(seed=0, prefix=BLOCK, ftp=[], lam=5.0, max_k=2 * DRAW_MAX)
@example(seed=873, prefix=BLOCK, ftp=[], lam=0.003, max_k=3 * DRAW_MAX)
@example(seed=2, prefix=10, ftp=[], lam=1e-4, max_k=DRAW_MAX + 200)
def test_skip_zeros_matches_leading_zero_draws(seed, prefix, ftp, lam, max_k):
    gen = generator(seed)
    plain = generator(seed)
    buffered = BufferedStream(gen)
    if not replay(buffered, gen, plain, frames(prefix) + ftp):
        return
    assert buffered.skip_zeros(lam, max_k) == leading_zeros(plain, lam, max_k)
    for op in [arrival(lam)] + FOLLOW_UP + [arrival(lam)] + FOLLOW_UP:
        assert call(buffered, op) == call(plain, op), op


@pytest.mark.parametrize("lam", [10.0, 40.0])
def test_skip_zeros_skips_nothing_from_ten_on(lam):
    plain = generator(13)
    buffered = BufferedStream(generator(13))
    assert buffered.skip_zeros(lam, 100) == 0
    for op in [arrival(lam), scan(lam, 100), arrival(lam), arrival(0.5), scan(0.5, BLOCK)]:
        assert call(buffered, op) == call(plain, op), op


class CountingGenerator:
    """A ``Generator`` stand-in that records the size of each ``random`` draw.

    A draw of no doubles fails at once: a stream that asks for one makes no
    progress, and one that asks again and again would spin forever.
    """

    def __init__(self, gen):
        self.gen = gen
        self.draws = []

    def random(self, size=None):
        assert size is None or size > 0, f"a draw of {size} doubles"
        self.draws.append(size)
        return self.gen.random(size)


@pytest.mark.parametrize("seed, prefix, lam, max_k, skipped, draws", [
    (8, BLOCK - 1, 0.002, 3 * DRAW_MAX, 1 + DRAW_MAX + 30, [DRAW_MAX, DRAW_MAX]),
    (0, BLOCK, 5.0, 2 * DRAW_MAX, 0, [DRAW_MAX]),
    (873, BLOCK, 0.003, 3 * DRAW_MAX, DRAW_MAX, [DRAW_MAX, DRAW_MAX]),
    (2, 10, 1e-4, DRAW_MAX + 200, DRAW_MAX + 200, [DRAW_MAX, 200 - (BLOCK - 10)]),
], ids=["second-draw", "first-double", "first-double-of-second-draw", "horizon"])
def test_skip_zeros_examples_take_their_path(seed, prefix, lam, max_k, skipped, draws):
    # the examples above scan the rest of the block, then the draws named here
    gen = CountingGenerator(generator(seed))
    stream = BufferedStream(gen)
    for _ in range(prefix):
        stream.random()
    assert gen.draws == [BLOCK]
    assert stream.skip_zeros(lam, max_k) == skipped
    assert gen.draws[1:] == draws


def test_wake_scan_draws_ahead_at_most_draw_max():
    # However far the horizon, a scan draws at most DRAW_MAX doubles at a
    # time and stops drawing at its first non-zero, whose draw stays pending.
    gen = CountingGenerator(generator(4))
    stream = BufferedStream(gen)
    skipped = stream.skip_zeros(2e-4, 10**6)
    assert 2 * DRAW_MAX < skipped < 10**6
    assert max(gen.draws) == DRAW_MAX
    assert sum(gen.draws) - skipped <= DRAW_MAX


def test_lam_from_ten_on_raises_after_a_spill():
    # the doubles a scan drew past the block are pending like a block's
    gen = generator(0)
    stream = BufferedStream(gen)
    for _ in range(BLOCK):
        stream.random()
    assert stream.skip_zeros(5.0, 2 * DRAW_MAX) == 0
    with pytest.raises(ValueError, match="after buffered draws"):
        stream.poisson_random(15.0)


@st.composite
def move_runs(draw):
    """A walk probability, a horizon and the increasing ``until``s of the takes."""
    walk_prob = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    horizon = draw(st.integers(0, 3 * CHUNK))
    cuts = sorted(draw(st.lists(st.integers(0, horizon), max_size=12)))
    return walk_prob, horizon, cuts


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), run=move_runs())
# takes that end on, one short of and one past a chunk edge, and a horizon
# that ends on one; every double a move, and none
@example(seed=1, run=(0.1, 3 * CHUNK, [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 3 * CHUNK]))
@example(seed=2, run=(1.0, 2 * CHUNK + 1, [0, 1, CHUNK, 2 * CHUNK, 2 * CHUNK + 1]))
@example(seed=3, run=(0.0, CHUNK + 5, [3, CHUNK + 4]))
def test_move_stream_serves_the_generators_moves(seed, run):
    walk_prob, horizon, cuts = run
    us = generator(seed).random(horizon).tolist()
    moves = [(i, u) for i, u in enumerate(us) if u < walk_prob]
    gen = CountingGenerator(generator(seed))
    stream = MoveStream(gen, walk_prob, horizon)
    assert stream.next_index == 0 and gen.draws == []
    joined, start = [], 0
    for until in cuts + [horizon]:
        got = stream.take(until)
        assert got == [u for i, u in moves if start <= i < until], (start, until)
        joined += got
        start = until
        # it draws CHUNK doubles at a time when it must, and none past the horizon
        drawn = sum(gen.draws)
        assert all(0 < n <= CHUNK for n in gen.draws)
        assert drawn == min(horizon, -(-until // CHUNK) * CHUNK)
        pending = [i for i, _ in moves if until <= i < drawn]
        assert stream.next_index == (pending[0] if pending else drawn), until
    assert joined == [u for u in us if u < walk_prob]


@pytest.mark.parametrize("taken", [0, 5, CHUNK + 3, 2 * CHUNK + 1])
def test_take_past_the_horizon_raises_and_draws_nothing(taken):
    gen = CountingGenerator(generator(16))
    stream = MoveStream(gen, 0.3, 2 * CHUNK + 1)
    stream.take(taken)
    draws, index = list(gen.draws), stream.next_index
    with pytest.raises(ValueError, match="ends at"):
        stream.take(2 * CHUNK + 2)
    assert gen.draws == draws and stream.next_index == index
    assert stream.take(2 * CHUNK + 1) == [
        u for u in generator(16).random(2 * CHUNK + 1)[taken:].tolist() if u < 0.3]
