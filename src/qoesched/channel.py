"""Per-UE CQI evolution and CQI-to-achievable-rate mapping.

The channel model is a bounded +/-1 random walk on the 15-level CQI scale
(slow fading, pedestrian speed). Rates are the cell peak scaled by the
standard 4-bit CQI spectral-efficiency table, normalized so CQI 15 hits
the configured peak.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CQI_MIN = 1
CQI_MAX = 15

# Spectral efficiency for CQI 1..15 (4-bit CQI table).
CQI_EFFICIENCY = (
    0.1523, 0.2344, 0.3770, 0.6016, 0.8770,
    1.1758, 1.4766, 1.9141, 2.4063, 2.7305,
    3.3223, 3.9023, 4.5234, 5.1152, 5.5547,
)


@dataclass(frozen=True)
class ChannelParams:
    peak_rate_bps: float
    walk_prob: float = 0.1
    initial_cqi_per_ue: tuple[int, ...] = ()

    def __post_init__(self):
        if not 0.0 < self.peak_rate_bps < math.inf:
            raise ValueError("peak_rate_bps must be positive and finite")
        if not 0.0 <= self.walk_prob <= 1.0:
            raise ValueError("walk_prob must be in [0, 1]")
        for c in self.initial_cqi_per_ue:
            if type(c) is not int:
                raise ValueError(f"initial_cqi_per_ue must be an integer, got {c!r}")
            if not CQI_MIN <= c <= CQI_MAX:
                raise ValueError(f"initial_cqi_per_ue entry {c} outside [{CQI_MIN}, {CQI_MAX}]")


def cqi_walk(cqi: int, params: ChannelParams, us) -> int:
    """Apply one TTI of the walk per uniform in ``us``, in order.

    A uniform below walk_prob moves the CQI: down when it is below half of
    walk_prob, up otherwise, clamped to [CQI_MIN, CQI_MAX]; any other
    uniform leaves it where it is.
    """
    p = params.walk_prob
    half = p / 2.0
    for u in us:
        if u < p:
            if u < half:
                if cqi > CQI_MIN:
                    cqi -= 1
            elif cqi < CQI_MAX:
                cqi += 1
    return cqi


def cqi_step(cqi: int, params: ChannelParams, rng: np.random.Generator) -> int:
    """One TTI of ``cqi_walk``: move CQI +/-1 with probability walk_prob."""
    u = rng.random()
    if u >= params.walk_prob:
        return cqi
    return cqi_walk(cqi, params, (u,))


def rate_of(cqi: int, params: ChannelParams) -> float:
    """Achievable air-interface rate in bits/second for a CQI report."""
    if not CQI_MIN <= cqi <= CQI_MAX:
        raise ValueError(f"cqi {cqi} outside [{CQI_MIN}, {CQI_MAX}]")
    return params.peak_rate_bps * CQI_EFFICIENCY[cqi - 1] / CQI_EFFICIENCY[-1]
