"""Fairness indices and the window close that reports them.

Two fairness measures are reported per window:

* Jain's fairness index over per-UE delivered bits, 1 at perfect equality.
* A QoE-oriented index: the double sum over ordered user pairs of the
  absolute difference of their satisfaction ratios y_i / Y_i. Smaller is
  fairer; 0 means every user got the same fraction of its demand. The sum
  is kept unnormalized (each unordered pair counts twice).

The window volumes y and Y are the UEs' ``QoeState`` accounts: a window
close reads them and resets them.
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
        tx = sum(ys.values())
        span_tti = max(end_tti - self.start_tti, 1)
        throughput = tx / (span_tti * TTI_SECONDS)

        jfi_val = None
        if any(y > 0 for y in ys.values()):
            jfi_val = jfi([float(y) for y in ys.values()])

        active = [(float(ys[u]), float(y_reqs[u])) for u in ys if y_reqs[u] > 0]
        fi_val = qoe_fi(active) if len(active) >= 2 else None

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
