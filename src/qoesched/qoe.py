"""Per-UE QoE tracking: the scheduler multiplier q and window demand volume.

Within a metrics window each UE has y_bits (bits actually delivered) and
y_req_bits (bits that arrived, i.e. the volume that would have to cross the
air interface to fully satisfy the user). The scheduler multiplier is the
unmet-demand ratio, clamped to [1, q_max]: fully served users get 1,
underserved users get proportionally more, capped.

``QoeState`` reads both volumes off the UE's buffer, as its totals less their
values when the window opened; ``reset_window`` moves those marks.
"""
from __future__ import annotations

from dataclasses import dataclass

from .buffering import UeBuffer


@dataclass
class QoeState:
    ue_id: int
    buffer: UeBuffer
    q_max: float = 100.0
    arrived_mark: int = 0
    delivered_mark: int = 0

    @property
    def y_bits(self) -> int:
        return self.buffer.delivered_bits - self.delivered_mark

    @property
    def y_req_bits(self) -> int:
        return self.buffer.arrived_bits - self.arrived_mark

    def q_of(self) -> float:
        """Scheduler multiplier: clamp(y_req / max(y, 1), 1, q_max).

        Spelled with comparisons, which return what ``min(max(raw, 1.0),
        q_max)`` returns at a fraction of the cost of the two calls.
        """
        buf = self.buffer
        y = buf.delivered_bits - self.delivered_mark
        raw = (buf.arrived_bits - self.arrived_mark) / (y if y > 1 else 1)
        if raw < 1.0:
            raw = 1.0
        q_max = self.q_max
        return q_max if q_max < raw else raw

    def reset_window(self) -> None:
        self.arrived_mark = self.buffer.arrived_bits
        self.delivered_mark = self.buffer.delivered_bits
