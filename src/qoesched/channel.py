"""Per-UE CQI evolution and CQI-to-achievable-rate mapping.

The channel model is a bounded +/-1 random walk on the 15-level CQI scale
(slow fading, pedestrian speed). Rates are the cell peak scaled by the
standard 4-bit CQI spectral-efficiency table, normalized so CQI 15 hits
the configured peak. The walk probability, the peak and the initial CQIs are
``Scenario`` fields (``walk_prob``, ``peak_rate_bps``, ``initial_cqi_per_ue``);
each function here takes the one number it reads. ``cqi_step`` walks any
number of TTIs from their uniforms, so a CQI that stays put on most TTIs is
stepped only on the TTIs that move it.
"""
from __future__ import annotations

CQI_MIN = 1
CQI_MAX = 15

# Spectral efficiency for CQI 1..15 (4-bit CQI table).
CQI_EFFICIENCY = (
    0.1523, 0.2344, 0.3770, 0.6016, 0.8770,
    1.1758, 1.4766, 1.9141, 2.4063, 2.7305,
    3.3223, 3.9023, 4.5234, 5.1152, 5.5547,
)


def cqi_step(cqi: int, walk_prob: float, us) -> int:
    """Apply one TTI of the walk per uniform in ``us``, in order.

    A uniform below walk_prob moves the CQI: down when it is below half of
    walk_prob, up otherwise, clamped to [CQI_MIN, CQI_MAX]; any other
    uniform leaves it where it is. The engine passes only the moves its CQI
    stream (``streams.MoveStream``) holds, the uniforms below walk_prob.
    """
    half = walk_prob / 2.0
    for u in us:
        if u < walk_prob:
            if u < half:
                if cqi > CQI_MIN:
                    cqi -= 1
            elif cqi < CQI_MAX:
                cqi += 1
    return cqi


def rate_of(cqi: int, peak_rate_bps: float) -> float:
    """Achievable air-interface rate in bits/second for a CQI report."""
    if not CQI_MIN <= cqi <= CQI_MAX:
        raise ValueError(f"cqi {cqi} outside [{CQI_MIN}, {CQI_MAX}]")
    return peak_rate_bps * CQI_EFFICIENCY[cqi - 1] / CQI_EFFICIENCY[-1]
