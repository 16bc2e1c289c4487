"""Arrivals, wake TTIs and load adjustment of FTP-download and live-HD-video flows.

Two traffic classes are supported:

* FTP download: Poisson packet arrivals, exponentially distributed sizes.
* Live HD video: one frame every ``frame_interval_ms`` TTIs, frame size
  exponential and clipped at ``max_packet_bits``.

Generators are pure functions of (spec, tti, rng); each flow owns its own
RNG substream so flows never perturb each other. A generator returns the
sizes, in bits, of the packets that arrive in one TTI. They all arrive at
that TTI and share one deadline, ``tti + spec.beta_ms``, so the caller stamps
them once when it enqueues the batch (``UeBuffer.enqueue``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from functools import cache

import numpy as np

from .scheduler import TTIS_PER_SECOND, Policy
from .streams import BufferedStream

# Source-rate adaptation never reduces a flow below this fraction of its
# configured offered load, so adjusted flows stay alive.
MIN_LOAD_FRACTION = 0.1


class TrafficClass(str, Enum):
    FTP_DOWNLOAD = "ftp_download"
    LIVE_HD_VIDEO = "live_hd_video"


# a field's annotation, as source text up to any "[" -> how a message names its
# kind and whether a value is of it, as parsed JSON gives it: a bool is no
# number, a float field takes an int, and an enum field only its members.
_KINDS = {
    "int": ("an integer", lambda v: type(v) is int),
    "int | None": ("an integer", lambda v: type(v) is int or v is None),
    "float": ("a number", lambda v: type(v) is int or isinstance(v, float)),
    "bool": ("true or false", lambda v: type(v) is bool),
    "str": ("a string", lambda v: type(v) is str),
    "tuple": ("a tuple", lambda v: type(v) is tuple),
    "dict": ("a dict", lambda v: type(v) is dict),
    "Policy": (f"a Policy, one of {[p.value for p in Policy]}",
               lambda v: isinstance(v, Policy)),
    "TrafficClass": (f"a TrafficClass, one of {[c.value for c in TrafficClass]}",
                     lambda v: isinstance(v, TrafficClass)),
}


@cache
def _checks(cls) -> list:
    """(name, how a message names its kind, test) of each checked field of ``cls``."""
    return [(f.name, *_KINDS[k]) for f in fields(cls) if (k := f.type.partition("[")[0]) in _KINDS]


def check_types(obj) -> None:
    """Raise unless each field of the dataclass ``obj`` holds its annotation's kind."""
    for name, what, ok in _checks(type(obj)):
        if not ok(v := getattr(obj, name)):
            raise ValueError(f"{name} must be {what}, got {v!r}")


@dataclass(frozen=True)
class FlowSpec:
    """A UE's traffic class plus QoS targets and generator parameters.

    alpha:   target packet loss rate, in (0, 1)
    beta_ms: acceptable delay in milliseconds (= TTIs here)
    """

    ue_id: int
    traffic_class: TrafficClass
    alpha: float
    beta_ms: int
    offered_load_bps: float
    adaptive: bool = False
    mean_packet_bits: int | None = None      # FTP only
    max_packet_bits: int | None = None       # video only
    frame_interval_ms: int = 16              # video only, ~60 fps default

    def __post_init__(self):
        check_types(self)
        if self.ue_id < 0:
            raise ValueError(f"ue_id must be >= 0, got {self.ue_id}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.beta_ms < 1:
            raise ValueError("beta_ms must be >= 1")
        if not 0.0 < self.offered_load_bps < math.inf:
            raise ValueError("offered_load_bps must be positive and finite")
        if self.traffic_class is TrafficClass.FTP_DOWNLOAD:
            if not self.mean_packet_bits or self.mean_packet_bits <= 0:
                raise ValueError("mean_packet_bits must be > 0 for ftp_download flows")
        else:
            if not self.max_packet_bits or self.max_packet_bits <= 0:
                raise ValueError("max_packet_bits must be > 0 for live_hd_video flows")
            if self.frame_interval_ms < 1:
                raise ValueError("frame_interval_ms must be >= 1")


def exp_bits(us: list[float], mean_bits: float) -> list[int]:
    """Inverse-CDF exponential samples, rounded to positive bit counts.

    For ``u`` in [0, 1) and ``mean_bits > 0`` the rounded value is never
    negative, so ``or 1`` is ``max(1, ...)`` without the call.
    """
    log1p = math.log1p
    return [round(-mean_bits * log1p(-u)) or 1 for u in us]


def ftp_lam(spec: FlowSpec) -> float:
    """Mean FTP packet arrivals per TTI."""
    return spec.offered_load_bps / (spec.mean_packet_bits * TTIS_PER_SECOND)


def ftp_arrivals(spec: FlowSpec, tti: int, rng: np.random.Generator) -> list[int]:
    """Poisson arrivals at offered_load/mean_packet_bits per second."""
    if spec.traffic_class is not TrafficClass.FTP_DOWNLOAD:
        raise ValueError("ftp_arrivals requires an FTP flow spec")
    n = rng.poisson(ftp_lam(spec))
    if n == 0:
        return []
    return exp_bits(rng.random(n), spec.mean_packet_bits)


def video_arrivals(spec: FlowSpec, tti: int, rng: np.random.Generator) -> list[int]:
    """One frame every frame_interval_ms TTIs, size clipped at max_packet_bits."""
    if spec.traffic_class is not TrafficClass.LIVE_HD_VIDEO:
        raise ValueError("video_arrivals requires a video flow spec")
    if tti % spec.frame_interval_ms != 0:
        return []
    mean_bits = spec.offered_load_bps * spec.frame_interval_ms / TTIS_PER_SECOND
    return [min(exp_bits([rng.random()], mean_bits)[0], spec.max_packet_bits)]


def arrivals(spec: FlowSpec, tti: int, rng: np.random.Generator) -> list[int]:
    if spec.traffic_class is TrafficClass.FTP_DOWNLOAD:
        return ftp_arrivals(spec, tti, rng)
    return video_arrivals(spec, tti, rng)


def next_arrival_tti(spec: FlowSpec, tti: int, rng: BufferedStream, end_tti: int) -> int:
    """First TTI from ``tti`` on whose arrivals are not known to be empty, with
    ``rng`` consumed for the TTIs skipped: FTP at ``lam < 10`` draws one double
    ``u <= exp(-lam)`` per empty TTI (``rng.skip_zeros``, up to ``end_tti``),
    FTP at ``lam >= 10`` skips none, video draws nothing until its next frame."""
    if spec.traffic_class is TrafficClass.FTP_DOWNLOAD:
        return tti + rng.skip_zeros(ftp_lam(spec), end_tti - tti)
    return -(-tti // spec.frame_interval_ms) * spec.frame_interval_ms


def apply_adjustment(spec: FlowSpec, factor: float, configured_load_bps: float) -> FlowSpec:
    """Scale an adaptive flow's offered load down by ``factor``.

    The load is floored at MIN_LOAD_FRACTION of ``configured_load_bps``, the
    scenario's own load for the flow. Non-adaptive flows are returned unchanged.
    """
    if not 0.0 < factor <= 1.0:
        raise ValueError("adjustment factor must be in (0, 1]")
    if not spec.adaptive:
        return spec
    floor = MIN_LOAD_FRACTION * configured_load_bps
    new_load = max(spec.offered_load_bps * factor, floor)
    return replace(spec, offered_load_bps=new_load)
