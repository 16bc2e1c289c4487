"""Fairness indices and per-window metric accumulation.

Two fairness measures are reported per window:

* Jain's fairness index over per-UE delivered bits, 1 at perfect equality.
* A QoE-oriented index: the double sum over ordered user pairs of the
  absolute difference of their satisfaction ratios y_i / Y_i. Smaller is
  fairer; 0 means every user got the same fraction of its demand. The sum
  is kept unnormalized (each unordered pair counts twice).
"""
from __future__ import annotations

from dataclasses import dataclass


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
    |y_i/Y_i - y_j/Y_j|. Requires n >= 2 and every Y > 0.
    """
    if len(pairs) < 2:
        raise ValueError("qoe_fi requires at least two users")
    if any(y_req <= 0 for _, y_req in pairs):
        raise ValueError("qoe_fi requires every required volume > 0")
    ratios = [y / y_req for y, y_req in pairs]
    n = len(ratios)
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                total += abs(ratios[i] - ratios[j])
    return total


@dataclass
class UeWindowStats:
    y_bits: int = 0
    y_req_bits: int = 0


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
    """Accumulates per-UE deliveries and demand between window closes."""

    def __init__(self, ue_ids: list[int], tti_s: float = 0.001):
        self.ue_ids = list(ue_ids)
        self.tti_s = tti_s
        self.start_tti = 0
        self.index = 0
        self.per_ue: dict[int, UeWindowStats] = {u: UeWindowStats() for u in self.ue_ids}

    def record_arrival(self, ue_id: int, bits: int) -> None:
        self.per_ue[ue_id].y_req_bits += bits

    def record_delivery(self, ue_id: int, bits: int) -> None:
        self.per_ue[ue_id].y_bits += bits

    def close(self, end_tti: int) -> WindowRecord:
        """Emit this window's record and reset the accumulators."""
        ys = {u: self.per_ue[u].y_bits for u in self.ue_ids}
        y_reqs = {u: self.per_ue[u].y_req_bits for u in self.ue_ids}
        tx = sum(ys.values())
        span_tti = max(end_tti - self.start_tti, 1)
        throughput = tx / (span_tti * self.tti_s)

        jfi_val = None
        if any(y > 0 for y in ys.values()):
            jfi_val = jfi([float(y) for y in ys.values()])

        active = [(float(ys[u]), float(y_reqs[u])) for u in self.ue_ids if y_reqs[u] > 0]
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
        self.per_ue = {u: UeWindowStats() for u in self.ue_ids}
        self.start_tti = end_tti
        self.index += 1
        return rec
