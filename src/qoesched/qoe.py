"""Per-UE QoE tracking: the scheduler multiplier q and window demand volume.

Within a metrics window each UE accumulates y_bits (bits actually delivered)
and y_req_bits (bits that arrived, i.e. the volume that would have to cross
the air interface to fully satisfy the user). The scheduler multiplier is
the unmet-demand ratio, clamped to [1, q_max]: fully served users get 1,
underserved users get proportionally more, capped.

``QoeState`` is the one account of a UE's window volumes: the engine feeds
it, and ``MetricsWindow.close`` reads it for the window record and resets it.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass
class QoeState:
    ue_id: int
    q_max: float = 100.0
    y_bits: int = 0
    y_req_bits: int = 0

    def update_requirement(self, arrived_bits_this_tti: int) -> None:
        if arrived_bits_this_tti < 0:
            raise ValueError("arrived bits must be non-negative")
        self.y_req_bits += arrived_bits_this_tti

    def record_delivered(self, bits: int) -> None:
        if bits < 0:
            raise ValueError("delivered bits must be non-negative")
        self.y_bits += bits

    def q_of(self) -> float:
        """Scheduler multiplier: clamp(y_req / max(y, 1), 1, q_max).

        Spelled with comparisons, which return what ``min(max(raw, 1.0),
        q_max)`` returns at a fraction of the cost of the two calls.
        """
        y = self.y_bits
        raw = self.y_req_bits / (y if y > 1 else 1)
        if raw < 1.0:
            raw = 1.0
        q_max = self.q_max
        return q_max if q_max < raw else raw

    def reset_window(self) -> None:
        self.y_bits = 0
        self.y_req_bits = 0
