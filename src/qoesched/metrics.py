"""Fairness indices and the window close that reports them.

Two fairness measures are reported per window:

* Jain's fairness index over per-UE delivered bits, 1 at perfect equality.
* A QoE-oriented index: the double sum over ordered user pairs of the
  absolute difference of their satisfaction ratios y_i / Y_i. Smaller is
  fairer; 0 means every user got the same fraction of its demand. The sum
  is kept unnormalized (each unordered pair counts twice).

``figures`` is the one account of these indices and of the throughput:
a window close applies it to the UEs' ``QoeState`` window volumes y and Y
(and resets them), and the run report to the buffers' run totals.
"""
from __future__ import annotations

from dataclasses import dataclass

from .qoe import QoeState
from .scheduler import TTI_SECONDS


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

    Literal double sum over ordered pairs i != j of
    |y_i/Y_i - y_j/Y_j|. Requires n >= 2 and every Y > 0. The diagonal
    terms i == j add exactly 0.0, so the loop runs over every pair.
    """
    if len(pairs) < 2:
        raise ValueError("qoe_fi requires at least two users")
    if any(y_req <= 0 for _, y_req in pairs):
        raise ValueError("qoe_fi requires every required volume > 0")
    ratios = [y / y_req for y, y_req in pairs]
    total = 0.0
    for a in ratios:
        for b in ratios:
            total += abs(a - b)
    return total


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


@dataclass
class WindowRecord:
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
    """Closes windows over the UEs' ``QoeState`` volume accounts."""

    def __init__(self, qoes: list[QoeState]):
        self.qoes = list(qoes)
        self.start_tti = 0
        self.index = 0

    def close(self, end_tti: int) -> WindowRecord:
        """Emit this window's record and reset the UEs' window volumes."""
        ys = {q.ue_id: q.y_bits for q in self.qoes}
        y_reqs = {q.ue_id: q.y_req_bits for q in self.qoes}
        tx, throughput, jfi_val, fi_val = figures(
            list(ys.values()), list(y_reqs.values()), max(end_tti - self.start_tti, 1))
        rec = WindowRecord(
            index=self.index,
            start_tti=self.start_tti,
            end_tti=end_tti,
            tx_bits=tx,
            throughput_bps=throughput,
            per_ue_y_bits=ys,
            per_ue_y_req_bits=y_reqs,
            jfi=jfi_val,
            qoe_fi=fi_val,
        )
        for q in self.qoes:
            q.reset_window()
        self.start_tti = end_tti
        self.index += 1
        return rec
