"""Keyed RNG substreams, served in blocks and chunks that replay numpy's scalar draws exactly.

``substream(seed, ue_id, purpose)`` keys each (UE, purpose) pair's Philox
generator by ``SeedSequence(entropy=seed, spawn_key=(ue_id, purpose))``.
This module is the package's only numpy import. The engine serves a UE's
traffic generator through a ``BufferedStream`` and its CQI generator through
a ``MoveStream``.

A scalar ``Generator.random()`` or ``Generator.poisson(lam)`` call costs
several hundred nanoseconds of numpy dispatch, more than the simulator's own
per-UE work in a TTI. ``BufferedStream`` instead draws doubles ``BLOCK`` at
a time with ``gen.random(BLOCK).tolist()``, which yields the same sequence as
``BLOCK`` scalar calls, and serves the calls the simulator makes from that
buffer:

* ``random()`` and ``random(n)`` return the next buffered doubles; ``random(n)``
  returns a list where numpy returns an array, with the same values; a
  negative ``n`` raises numpy's ``ValueError``.
* ``poisson_random(lam)`` returns ``random(poisson(lam))``, a Poisson count's
  doubles, in one call: an FTP arrival TTI's packet uniforms. For
  ``0 < lam < 10`` it replays numpy's multiplication sampler on the buffered
  doubles (multiply uniforms into a product while it stays above
  ``exp(-lam)``; the count of factors kept is the sample), then slices the
  count's doubles from the block, or serves them as ``random(n)`` when they
  cross its end.
* ``poisson_random(0)`` returns no doubles and consumes nothing, as numpy's
  ``poisson(0)`` does.
* ``skip_zeros(lam, max_k)`` consumes a wake scan's leading zero samples.
  It scans what is left of the block in Python; past the block it draws the
  rest of the horizon as one array, at most ``DRAW_MAX`` doubles per draw,
  and finds the first non-zero with one numpy comparison. The doubles drawn
  past that point stay pending, and later refills serve them before the
  generator draws again, so at most ``BLOCK + DRAW_MAX`` doubles are ever
  drawn ahead, whatever the run length.
* Every other ``lam`` (``>= 10``, negative, NaN) goes to ``gen.poisson``,
  which raises for an invalid one, and the count's doubles to
  ``gen.random``. numpy samples ``lam >= 10`` by rejection, which uses no
  fixed number of doubles, so it cannot be replayed from a buffer. The
  stream then serves every call from the generator until its next
  ``0 < lam < 10`` call switches it to blocks.

The simulator's call mix is ``poisson_random`` on an FTP flow's arrival
TTIs, ``skip_zeros`` for its wake scans and ``random()`` on a video flow's
frame TTIs.

The generator stands right behind the last double served only while the
stream holds no pending doubles, in its block or drawn by a scan. So
``poisson_random`` raises ``ValueError`` for a ``lam`` outside ``[0, 10)`` that
arrives while doubles are pending; it does not re-synchronise the
generator. The simulator never makes that call: a flow's ``lam`` never
rises (see ``engine``), so a traffic stream that went to blocks at
``lam < 10`` stays there.

A CQI walk reads one uniform per TTI and moves only on a uniform below
``walk_prob``, about one TTI in ten. ``MoveStream`` draws the generator's
doubles in numpy chunks of at most ``CHUNK``, never past the run's last TTI,
and keeps only the moves: the index (the TTI) and value of each double below
``walk_prob``. The engine asks it for the moves up to a TTI only when its
``next_index`` is due, so a TTI without a move costs one integer compare.

The Poisson replay depends on numpy's sampler for small ``lam``;
``tests/test_streams.py`` checks the call mix against a plain ``Generator``
and fails if a numpy release changes it.
"""
from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

# Doubles drawn per refill. Larger blocks amortize the refill further but
# cost memory per stream, and the simulator keeps two streams per UE.
BLOCK = 64

# Doubles a wake scan draws at most per draw past the block: its horizon can
# be the rest of the run, and what it draws past the first non-zero stays
# pending, so this bounds the memory a stream draws ahead.
DRAW_MAX = 8 * BLOCK

# Doubles a move stream draws at most per draw. A draw that reaches the
# run's last TTI is shorter, so a run of up to CHUNK TTIs draws once per UE.
CHUNK = 1024

# numpy samples Poisson by multiplication below this lam, by rejection above.
_MULT_LAM_MAX = 10.0


def substream(seed: int, ue_id: int, purpose: int) -> np.random.Generator:
    """The Philox generator of one UE and purpose under the run's seed."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(ue_id, purpose))
    return np.random.Generator(np.random.Philox(ss))


class BufferedStream:
    """A ``Generator``'s ``random`` calls and its ``random(poisson(lam))`` pair,
    served from blocks.

    Exact for the call mixes the module docstring names; ``poisson_random``
    raises ``ValueError`` for a ``lam`` outside ``[0, 10)`` while buffered
    doubles are pending.
    """

    __slots__ = ("_gen", "_buf", "_pos", "_spill", "_direct", "_lam", "_exp_neg_lam")

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self._buf: list[float] = []
        self._pos = BLOCK       # nothing pending: the first draw refills
        self._spill = None      # doubles a scan drew past the block, pending
        self._direct = False    # serving from the generator, buffer empty
        self._lam = None
        self._exp_neg_lam = 0.0

    def _refill(self) -> None:
        spill = self._spill
        if spill is None:
            self._buf = self._gen.random(BLOCK).tolist()
        else:
            self._spill = spill[BLOCK:] if len(spill) > BLOCK else None
            block = spill[:BLOCK].tolist()
            if len(block) < BLOCK:
                block += self._gen.random(BLOCK - len(block)).tolist()
            self._buf = block
        self._pos = 0

    def random(self, size: int | None = None):
        pos = self._pos
        if size is None:
            if pos < BLOCK:
                self._pos = pos + 1
                return self._buf[pos]
            if self._direct:
                return self._gen.random()
            self._refill()
            self._pos = 1
            return self._buf[0]
        if size < 0:
            raise ValueError("negative dimensions are not allowed")
        if self._direct:
            return self._gen.random(size).tolist()
        out = self._buf[pos:pos + size]
        pos += size
        while pos > BLOCK:
            pos -= BLOCK
            self._refill()
            out += self._buf[:pos]
        self._pos = pos
        return out

    def skip_zeros(self, lam: float, max_k: int) -> int:
        """Consume up to ``max_k`` leading zero ``poisson(lam)`` samples; count them.

        For ``0 < lam < 10`` a zero sample uses exactly one double
        ``u <= exp(-lam)``. The scan stops before the first larger double,
        which begins a non-zero sample, so the next ``poisson_random(lam)``
        call sees it. ``lam == 0`` gives zeros without draws, so all ``max_k``
        are skipped. Any other ``lam`` skips nothing: numpy samples it by
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
        # what is left of the block, in Python
        pos = start = self._pos
        stop = min(pos + max_k, BLOCK)
        if pos < stop:
            run = self._buf[pos:stop]
            # max() settles a run of zeros in one C loop; the run with the
            # first non-zero is walked to find it.
            if max(run) > limit:
                for u in run:
                    if u > limit:
                        break
                    pos += 1
                self._pos = pos
                return pos - start
            self._pos = stop
        n = stop - start
        # past the block: the pending spill, then fresh draws, one array each
        while n < max_k:
            spill = self._spill
            if spill is None:
                spill = self._gen.random(min(max_k - n, DRAW_MAX))
            head = spill[:max_k - n]
            above = head > limit
            i = int(above.argmax())
            if above[i]:
                self._spill = spill[i:]
                return n + i
            n += len(head)
            self._spill = spill[len(head):] if len(spill) > len(head) else None
        return n

    def poisson_random(self, lam: float) -> list[float]:
        """``random(poisson(lam))`` in one call: a Poisson count's doubles."""
        if not 0.0 < lam < _MULT_LAM_MAX:
            if lam == 0.0:
                return []
            if self._pos < BLOCK or self._spill is not None:
                raise ValueError(
                    f"poisson_random({lam}) after buffered draws: a stream's lam may fall "
                    "below 10 but not rise back to 10 or leave [0, 10)")
            self._direct = True
            gen = self._gen
            return gen.random(gen.poisson(lam)).tolist()
        self._direct = False
        if lam != self._lam:
            self._lam = lam
            self._exp_neg_lam = math.exp(-lam)
        limit = self._exp_neg_lam
        buf = self._buf
        pos = start = self._pos
        prod = 1.0
        while True:
            if pos == BLOCK:
                self._refill()
                buf, pos = self._buf, 0
                start -= BLOCK
            prod *= buf[pos]
            pos += 1
            if prod <= limit:
                break
        # the count is the factors kept, all but the last; its doubles follow,
        # a slice of the block or across its end
        n = pos - start - 1
        end = pos + n
        if end <= BLOCK:
            self._pos = end
            return buf[pos:end]
        self._pos = pos
        return self.random(n)


class MoveStream:
    """The moves of a walk: the doubles of a ``Generator`` below ``walk_prob``.

    Double ``i`` of the generator is the uniform of TTI ``i``; the stream
    serves those below ``walk_prob`` with their indices, in order, and drops
    the rest, which never move the walk. It draws ``CHUNK`` doubles at a time,
    the last draw ending at ``horizon``, and draws no double past it. So it
    holds ahead the moves of at most ``CHUNK`` drawn doubles, about
    ``CHUNK * walk_prob`` of them; the drawn array itself is not kept.

    ``next_index`` is the index of the next pending move or, when none is
    pending, the end of what has been drawn: no move lies before it.
    """

    __slots__ = ("_gen", "_walk_prob", "_horizon", "_drawn", "_index", "_value", "_pos",
                 "next_index")

    def __init__(self, gen: np.random.Generator, walk_prob: float, horizon: int):
        self._gen = gen
        self._walk_prob = walk_prob
        self._horizon = horizon
        self._drawn = 0  # doubles drawn so far
        # the moves of the last draw, indices and values, pending from _pos on
        self._index: list[int] = []
        self._value: list[float] = []
        self._pos = 0
        self.next_index = 0

    def take(self, until: int) -> list[float]:
        """The values of the pending moves with index < ``until``, in order.

        Draws as far as ``until`` needs, so ``until`` past the horizon raises
        ``ValueError`` before anything is drawn or taken.
        """
        if until > self._horizon:
            raise ValueError(f"take({until}): the stream ends at {self._horizon}")
        index, pos = self._index, self._pos
        end = bisect_left(index, until, pos)
        out = self._value[pos:end]
        while end == len(index) and self._drawn < until:
            drawn = self._drawn
            us = self._gen.random(min(CHUNK, self._horizon - drawn))
            moves = np.flatnonzero(us < self._walk_prob)
            self._value = us[moves].tolist()
            index = self._index = (moves + drawn).tolist()
            self._drawn = drawn + len(us)
            end = bisect_left(index, until)
            out += self._value[:end]
        self._pos = end
        self.next_index = index[end] if end < len(index) else self._drawn
        return out
