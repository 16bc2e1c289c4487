"""BCQQ's multiplier q, the fairness indices and the window close.

Within a metrics window each UE has a delivered volume y and a demand
volume Y (the bits that arrived), each read off its ``UeBuffer`` as the
total less the buffer's window mark. ``q_of`` is the one account of q, the
unmet demand Y / y clamped to [1, q_max].

Two fairness measures are reported per window:

* Jain's fairness index over per-UE delivered bits, 1 at perfect equality.
* A QoE-oriented index: the double sum over ordered user pairs of the
  absolute difference of their satisfaction ratios y_i / Y_i. Smaller is
  fairer; 0 means every user got the same fraction of its demand. The sum
  is kept unnormalized (each unordered pair counts twice) and computed from
  the sorted ratios in O(n log n) time and O(n) memory.

``figures`` is the one account of these indices and of the throughput:
a window close applies it to the window volumes y and Y (and moves the
buffers' marks), and the run report to the buffers' run totals.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .buffering import UeBuffer
from .scheduler import TTI_SECONDS


def q_of(buf: UeBuffer, q_max: float) -> float:
    """Scheduler multiplier: clamp(Y / max(y, 1), 1, q_max) over the window.

    Spelled with comparisons, which return what ``min(max(raw, 1.0),
    q_max)`` returns at a fraction of the cost of the two calls.
    """
    y = buf.delivered_bits - buf.delivered_mark
    raw = (buf.arrived_bits - buf.arrived_mark) / (y if y > 1 else 1)
    if raw < 1.0:
        raw = 1.0
    return q_max if q_max < raw else raw


def jfi(xs: list[float]) -> float:
    """Jain's fairness index (sum x)^2 / (n * sum x^2)."""
    if not xs:
        raise ValueError("jfi requires a non-empty input")
    if any(x < 0 for x in xs):
        raise ValueError("jfi requires non-negative values")
    s = sum(xs)
    s2 = sum(x * x for x in xs)
    if s2 == 0:
        raise ValueError("jfi undefined for all-zero input")
    return (s * s) / (len(xs) * s2)


def qoe_fi(pairs: list[tuple[float, float]]) -> float:
    """QoE fairness index over (delivered, required) volume pairs.

    The sum over ordered pairs i != j of |y_i/Y_i - y_j/Y_j|; requires
    n >= 2 and every Y > 0. Of the ascending ratios r_0..r_(n-1), r_k is the
    larger in k pairs and the smaller in n - 1 - k, so the sum is
    2 * sum_k (2k - n + 1) * r_k (Gini's mean difference; H. A. David,
    Biometrika 55(3), 1968). Each product and the ``fsum`` round once, so
    the result is within n * sum(r) * 2**-51 of the exact sum over r.
    """
    if len(pairs) < 2:
        raise ValueError("qoe_fi requires at least two users")
    if any(y_req <= 0 for _, y_req in pairs):
        raise ValueError("qoe_fi requires every required volume > 0")
    r = sorted(y / y_req for y, y_req in pairs)
    n = len(r)
    return 2.0 * math.fsum((2 * k - n + 1) * x for k, x in enumerate(r))


def figures(ys: list[int], y_reqs: list[int],
            span_tti: int) -> tuple[int, float, float | None, float | None]:
    """(tx_bits, throughput_bps, jfi, qoe_fi) of per-UE delivered bits ``ys``
    and required bits ``y_reqs`` over ``span_tti`` TTIs.

    Jain's index is None when nothing was delivered; the QoE index, over the
    UEs with a positive requirement, is None when fewer than two have one.
    """
    tx = sum(ys)
    pairs = [(float(y), float(r)) for y, r in zip(ys, y_reqs, strict=True) if r > 0]
    return (tx, tx / (span_tti * TTI_SECONDS),
            jfi([float(y) for y in ys]) if tx > 0 else None,
            qoe_fi(pairs) if len(pairs) >= 2 else None)


class WindowRecord(NamedTuple):
    index: int
    start_tti: int
    end_tti: int               # exclusive
    tx_bits: int
    throughput_bps: float
    per_ue_y_bits: dict[int, int]
    per_ue_y_req_bits: dict[int, int]
    jfi: float | None
    qoe_fi: float | None


class MetricsWindow:
    """Closes windows over the UEs' buffers, keyed by UE id, and keeps their records."""

    def __init__(self, buffers: dict[int, UeBuffer]):
        self.buffers = buffers
        self.start_tti = 0
        self.records: list[WindowRecord] = []

    def close(self, end_tti: int) -> WindowRecord:
        """Record this window, return its record and move the buffers' window marks."""
        ys = {ue: b.delivered_bits - b.delivered_mark for ue, b in self.buffers.items()}
        y_reqs = {ue: b.arrived_bits - b.arrived_mark for ue, b in self.buffers.items()}
        tx, throughput, jfi_val, fi_val = figures(
            list(ys.values()), list(y_reqs.values()), max(end_tti - self.start_tti, 1))
        rec = WindowRecord(
            index=len(self.records),
            start_tti=self.start_tti,
            end_tti=end_tti,
            tx_bits=tx,
            throughput_bps=throughput,
            per_ue_y_bits=ys,
            per_ue_y_req_bits=y_reqs,
            jfi=jfi_val,
            qoe_fi=fi_val,
        )
        for b in self.buffers.values():
            b.arrived_mark = b.arrived_bits
            b.delivered_mark = b.delivered_bits
        self.start_tti = end_tti
        self.records.append(rec)
        return rec
