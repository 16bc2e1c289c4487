"""Block-buffered RNG substreams that replay numpy's scalar draws exactly.

A scalar ``Generator.random()`` or ``Generator.poisson(lam)`` call costs
several hundred nanoseconds of numpy dispatch, more than the simulator's own
per-UE work in a TTI. ``BufferedStream`` instead draws doubles ``BLOCK`` at
a time with ``gen.random(BLOCK).tolist()``, which yields the same sequence as
``BLOCK`` scalar calls, and serves the calls the simulator makes from that
buffer:

* ``random()`` and ``random(n)`` return the next buffered doubles; ``random(n)``
  returns a list where numpy returns an array, with the same values.
* ``poisson(lam)`` for ``0 < lam < 10`` replays numpy's multiplication
  sampler on the buffered doubles: multiply uniforms into a product while it
  stays above ``exp(-lam)``; the count of factors kept is the sample.
* ``poisson(0)`` returns 0 and consumes nothing, as numpy does.
* Every other ``lam`` (``>= 10``, negative, NaN) goes to ``gen.poisson``
  directly, after the generator is put back right behind the last double
  the stream handed out: the bit-generator state saved before the first
  buffered block is restored and the doubles served since are drawn again.
  numpy then samples, or raises, exactly as it would have. The stream stays
  direct until the next ``lam < 10`` call, so a flow whose ``lam`` is always
  at least 10 pays for one hand-back at most.

The Poisson replay depends on numpy's sampler for small ``lam``;
``tests/test_streams.py`` checks the whole call mix against a plain
``Generator`` and fails if a numpy release changes it.
"""
from __future__ import annotations

import math

import numpy as np

# Doubles drawn per refill. Larger blocks amortize the refill further but
# cost memory per stream, and the simulator keeps two streams per UE.
BLOCK = 64

# numpy samples Poisson by multiplication below this lam, by rejection above.
_MULT_LAM_MAX = 10.0


class BufferedStream:
    """Drop-in for the ``random`` and ``poisson`` calls of a ``Generator``."""

    __slots__ = ("_gen", "_buf", "_pos", "_end", "_saved", "_drawn", "_direct",
                 "_lam", "_exp_neg_lam")

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self._buf: list[float] = []
        self._pos = 0
        self._end = 0
        # Bit-generator state before the first block since construction or
        # the last hand-back, and the doubles drawn since. Reading the state
        # costs more than drawing a block, so it is read once per run of
        # blocks, not once per block.
        self._saved = None
        self._drawn = 0
        self._direct = False    # serving from the generator, buffer empty
        self._lam = None
        self._exp_neg_lam = 0.0

    def _refill(self) -> None:
        gen = self._gen
        if self._saved is None:
            self._saved = gen.bit_generator.state
        self._buf = gen.random(BLOCK).tolist()
        self._drawn += BLOCK
        self._pos = 0
        self._end = BLOCK

    def _hand_back(self) -> None:
        """Leave the generator right after the last double served; go direct."""
        if self._pos < self._end:
            gen = self._gen
            gen.bit_generator.state = self._saved
            served = self._drawn - (self._end - self._pos)
            if served:
                gen.random(served)
        self._buf = []
        self._pos = self._end = 0
        self._saved = None
        self._drawn = 0
        self._direct = True

    def random(self, size: int | None = None):
        pos = self._pos
        if size is None:
            if pos < self._end:
                self._pos = pos + 1
                return self._buf[pos]
            if self._direct:
                return self._gen.random()
            self._refill()
            self._pos = 1
            return self._buf[0]
        if self._direct:
            return self._gen.random(size).tolist()
        out: list[float] = []
        while len(out) < size:
            if pos == self._end:
                self._refill()
                pos = 0
            take = min(size - len(out), self._end - pos)
            out += self._buf[pos:pos + take]
            pos += take
        self._pos = pos
        return out

    def skip_zeros(self, lam: float, max_k: int) -> int:
        """Consume up to ``max_k`` leading zero ``poisson(lam)`` samples; count them.

        For ``0 < lam < 10`` a zero sample uses exactly one double
        ``u <= exp(-lam)``. The scan stops before the first larger double,
        which begins a non-zero sample, so the next ``poisson(lam)`` call sees
        it. ``lam == 0`` gives zeros without draws, so all ``max_k`` are
        skipped. Any other ``lam`` skips nothing: numpy samples it by
        rejection, which uses no fixed number of doubles per sample.
        """
        if max_k <= 0:
            return 0
        if not 0.0 < lam < _MULT_LAM_MAX:
            return max_k if lam == 0.0 else 0
        self._direct = False
        if lam != self._lam:
            self._lam = lam
            self._exp_neg_lam = math.exp(-lam)
        limit = self._exp_neg_lam
        pos = self._pos
        n = 0
        while n < max_k:
            if pos == self._end:
                self._refill()
                pos = 0
            stop = pos + max_k - n
            if stop > self._end:
                stop = self._end
            run = self._buf[pos:stop]
            # max() settles a run of zeros in one C loop; the run with the
            # first non-zero is walked to find it.
            if max(run) <= limit:
                n += stop - pos
                pos = stop
                continue
            for u in run:
                if u > limit:
                    break
                pos += 1
                n += 1
            break
        self._pos = pos
        return n

    def poisson(self, lam: float) -> int:
        if not 0.0 < lam < _MULT_LAM_MAX:
            if lam == 0.0:
                return 0
            if not self._direct:
                self._hand_back()
            return self._gen.poisson(lam)
        self._direct = False
        if lam != self._lam:
            self._lam = lam
            self._exp_neg_lam = math.exp(-lam)
        limit = self._exp_neg_lam
        buf, pos, end = self._buf, self._pos, self._end
        n = 0
        prod = 1.0
        while True:
            if pos == end:
                self._refill()
                buf, pos, end = self._buf, 0, BLOCK
            prod *= buf[pos]
            pos += 1
            if prod <= limit:
                self._pos = pos
                return n
            n += 1
