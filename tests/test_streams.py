"""BufferedStream must return exactly what a plain Generator returns.

The stream replays numpy's Poisson multiplication sampler on buffered
doubles. If a numpy release changes that sampler, or the way a block of
doubles relates to scalar draws, these tests fail.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qoesched.streams import BLOCK, BufferedStream

# numpy's upper limit for lam: int64 max minus ten standard deviations.
POISSON_LAM_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10


def generator(seed: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(3, 0))
    return np.random.Generator(np.random.Philox(ss))


def call(rng, op):
    """Apply one operation; a ValueError is returned as its message."""
    kind, arg = op
    try:
        if kind == "random":
            return rng.random()
        if kind == "random_n":
            return list(rng.random(arg))
        return int(rng.poisson(arg))
    except ValueError as e:
        return ("ValueError", str(e))


lams = st.one_of(
    st.floats(min_value=0.0, max_value=10.0, exclude_min=True, exclude_max=True),
    st.floats(min_value=9.0, max_value=11.0),
    st.just(10.0),
    st.just(0.0),
    st.floats(min_value=10.0, max_value=1e6),
    st.floats(max_value=-1e-300, allow_infinity=True, allow_nan=False),
    st.just(math.nan),
    st.just(math.inf),
    st.floats(min_value=POISSON_LAM_MAX * 1.01, max_value=1e300),
)
ops = st.one_of(
    st.tuples(st.just("random"), st.none()),
    st.tuples(st.just("random_n"), st.integers(min_value=0, max_value=3 * BLOCK + 5)),
    st.tuples(st.just("poisson"), lams),
)

# Crossings of lam = 10 in both directions, mid-block and at block edges.
CROSSINGS = [
    ("poisson", 3.5), ("poisson", 12.0), ("random", None), ("poisson", 0.7),
    ("random_n", 50), ("poisson", 10.0), ("poisson", 9.999999), ("poisson", 40.0),
    ("random_n", BLOCK), ("poisson", 2.0), ("random_n", BLOCK - 1), ("poisson", 11.0),
]
OUT_OF_DOMAIN = [
    ("random", None), ("poisson", -1.0), ("random", None), ("poisson", math.nan),
    ("poisson", 5.0), ("poisson", 1e19), ("poisson", 5.0), ("poisson", math.inf),
]
ZERO_LAM = [("poisson", 0.0), ("random", None), ("poisson", 0.0), ("poisson", 4.0),
            ("poisson", 0.0), ("poisson", 20.0), ("poisson", 0.0), ("random", None)]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       sequence=st.lists(ops, max_size=80))
@example(seed=1, sequence=CROSSINGS)
@example(seed=2, sequence=OUT_OF_DOMAIN)
@example(seed=3, sequence=ZERO_LAM)
@example(seed=4, sequence=[("random", None)] * (BLOCK + 1) + [("poisson", 15.0)])
@example(seed=5, sequence=[("random_n", 2 * BLOCK + 7), ("poisson", 0.5)] * 3)
def test_buffered_stream_matches_generator(seed, sequence):
    plain = generator(seed)
    buffered = BufferedStream(generator(seed))
    for op in sequence + [("random_n", 2 * BLOCK + 3)]:
        assert call(buffered, op) == call(plain, op), op


@pytest.mark.parametrize("lam", [-1.0, math.nan, 1e19, math.inf])
def test_out_of_domain_lam_raises_like_numpy(lam):
    with pytest.raises(ValueError) as expected:
        generator(0).poisson(lam)
    stream = BufferedStream(generator(0))
    stream.random()
    with pytest.raises(ValueError) as got:
        stream.poisson(lam)
    assert str(got.value) == str(expected.value)


def test_zero_lam_consumes_no_draw():
    stream = BufferedStream(generator(9))
    assert stream.poisson(0.0) == 0
    assert stream.random() == generator(9).random()


def test_buffer_is_created_on_first_draw():
    gen = generator(11)
    state = repr(gen.bit_generator.state)
    stream = BufferedStream(gen)
    assert repr(gen.bit_generator.state) == state
    stream.random()
    assert repr(gen.bit_generator.state) != state
