"""Packet arrival generators for FTP-download and live-HD-video flows.

Two traffic classes are supported:

* FTP download: Poisson packet arrivals, exponentially distributed sizes.
* Live HD video: one frame every ``frame_interval_ms`` TTIs, frame size
  exponential and clipped at ``max_packet_bits``.

Generators are pure functions of (spec, tti, rng); each flow owns its own
RNG substream so flows never perturb each other.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

# Source-rate adaptation never reduces a flow below this fraction of its
# original offered load, so adjusted flows stay alive.
MIN_LOAD_FRACTION = 0.1


class TrafficClass(str, Enum):
    FTP_DOWNLOAD = "ftp_download"
    LIVE_HD_VIDEO = "live_hd_video"


@dataclass(slots=True)
class Packet:
    size_bits: int
    arrival_tti: int
    deadline_tti: int

    def __post_init__(self):
        if self.size_bits <= 0:
            raise ValueError("size_bits must be positive")
        if self.deadline_tti <= self.arrival_tti:
            raise ValueError("deadline_tti must exceed arrival_tti")


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
    original_load_bps: float | None = None   # set on first adjustment

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.beta_ms < 1:
            raise ValueError("beta_ms must be >= 1")
        if self.offered_load_bps <= 0:
            raise ValueError("offered_load_bps must be positive")
        if self.traffic_class is TrafficClass.FTP_DOWNLOAD:
            if not self.mean_packet_bits or self.mean_packet_bits <= 0:
                raise ValueError("FTP flow requires mean_packet_bits > 0")
        else:
            if not self.max_packet_bits or self.max_packet_bits <= 0:
                raise ValueError("video flow requires max_packet_bits > 0")
            if self.frame_interval_ms < 1:
                raise ValueError("frame_interval_ms must be >= 1")
        if self.original_load_bps is None:
            object.__setattr__(self, "original_load_bps", self.offered_load_bps)


def exp_bits_from_uniform(u: float, mean_bits: float) -> int:
    """Inverse-CDF exponential sample, rounded to a positive bit count."""
    return max(1, round(-mean_bits * math.log1p(-u)))


def ftp_lam(spec: FlowSpec) -> float:
    """Mean FTP packet arrivals per TTI."""
    return spec.offered_load_bps / (spec.mean_packet_bits * 1000.0)


def ftp_arrivals(spec: FlowSpec, tti: int, rng: np.random.Generator) -> list[Packet]:
    """Poisson arrivals at offered_load/mean_packet_bits per second."""
    if spec.traffic_class is not TrafficClass.FTP_DOWNLOAD:
        raise ValueError("ftp_arrivals requires an FTP flow spec")
    n = int(rng.poisson(ftp_lam(spec)))
    if n == 0:
        return []
    us = rng.random(n)
    deadline = tti + spec.beta_ms
    mean_bits = spec.mean_packet_bits
    # Packet(size_bits, arrival_tti, deadline_tti), positional: keyword
    # arguments cost about twice as much per packet.
    return [Packet(exp_bits_from_uniform(u, mean_bits), tti, deadline) for u in us]


def video_arrivals(spec: FlowSpec, tti: int, rng: np.random.Generator) -> list[Packet]:
    """One frame every frame_interval_ms TTIs, size clipped at max_packet_bits."""
    if spec.traffic_class is not TrafficClass.LIVE_HD_VIDEO:
        raise ValueError("video_arrivals requires a video flow spec")
    if tti % spec.frame_interval_ms != 0:
        return []
    mean_bits = spec.offered_load_bps * spec.frame_interval_ms / 1000.0
    size = min(exp_bits_from_uniform(rng.random(), mean_bits), spec.max_packet_bits)
    return [Packet(size, tti, tti + spec.beta_ms)]


def arrivals(spec: FlowSpec, tti: int, rng: np.random.Generator) -> list[Packet]:
    if spec.traffic_class is TrafficClass.FTP_DOWNLOAD:
        return ftp_arrivals(spec, tti, rng)
    return video_arrivals(spec, tti, rng)


def apply_adjustment(spec: FlowSpec, factor: float) -> FlowSpec:
    """Scale an adaptive flow's offered load down by ``factor``.

    The load is floored at MIN_LOAD_FRACTION of the flow's original load.
    Non-adaptive flows are returned unchanged.
    """
    if not 0.0 < factor <= 1.0:
        raise ValueError("adjustment factor must be in (0, 1]")
    if not spec.adaptive:
        return spec
    floor = MIN_LOAD_FRACTION * spec.original_load_bps
    new_load = max(spec.offered_load_bps * factor, floor)
    return replace(spec, offered_load_bps=new_load)
