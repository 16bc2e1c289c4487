"""Arrival sources and load adjustment of FTP-download and live-HD-video flows.

Two traffic classes are supported:

* FTP download: Poisson packet arrivals, exponentially distributed sizes.
* Live HD video: one frame every ``frame_interval_ms`` TTIs, frame size
  exponential and clipped at ``max_packet_bits``.

A UE's traffic is one ``ArrivalSource``: the flow as adjusted so far, the
UE's RNG substream, the run's end and ``next_tti``, the first TTI whose
arrivals are not known to be empty. ``arrivals(src)`` pops it: it returns the
sizes at ``next_tti`` and moves ``next_tti`` on. Only the pop consumes the
substream, TTI by TTI in order, so a UE's arrivals depend on its seed,
``ue_id`` and load history alone, not on when the caller pops. Its branch on
the class is the only class test, as ``FlowSpec`` validated each class's
fields. The branch picks only a TTI's uniforms, their mean and the next TTI:

* FTP: one stream call, ``poisson_random(lam)``, gives the TTI's packet
  uniforms. After a TTI with arrivals the next TTI is the one after it;
  after an empty one, ``skip_zeros`` consumes the zero TTIs that follow, one
  double ``u <= exp(-lam)`` each, up to the run's end.
* Video: one double per frame; the next frame is ``frame_interval_ms`` on.

One rule then turns the uniforms into sizes, the inverse-CDF exponential
rounded to a positive bit count, and a video frame is clipped. Each flow
owns its RNG substream, so flows never perturb each other. The packets of
one pop arrive at the TTI popped and share one deadline, ``tti + beta_ms``:
the caller stamps them once (``UeBuffer.enqueue``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from functools import cache

from .scheduler import TTIS_PER_SECOND, Policy
from .streams import BufferedStream

# Source-rate adaptation never reduces a flow below this fraction of its
# configured offered load, so adjusted flows stay alive.
MIN_LOAD_FRACTION = 0.1


class TrafficClass(str, Enum):
    FTP_DOWNLOAD = "ftp_download"
    LIVE_HD_VIDEO = "live_hd_video"


# the class tests read a module global: an Enum member read off its class
# goes through a descriptor on every arrival call
_FTP = TrafficClass.FTP_DOWNLOAD

# the size rule's two calls, bound once: round(x) of a float calls
# float.__round__(x), after parsing its arguments and looking the method up
_log1p = math.log1p
_round = float.__round__


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
        if self.traffic_class is _FTP:
            if not self.mean_packet_bits or self.mean_packet_bits <= 0:
                raise ValueError("mean_packet_bits must be > 0 for ftp_download flows")
        else:
            if not self.max_packet_bits or self.max_packet_bits <= 0:
                raise ValueError("max_packet_bits must be > 0 for live_hd_video flows")
            if self.frame_interval_ms < 1:
                raise ValueError("frame_interval_ms must be >= 1")


def ftp_lam(spec: FlowSpec) -> float:
    """Mean FTP packet arrivals per TTI."""
    return spec.offered_load_bps / (spec.mean_packet_bits * TTIS_PER_SECOND)


class ArrivalSource:
    """A UE's arrivals, popped by ``arrivals`` in TTI order.

    ``spec`` is the flow as adjusted so far, ``stream`` the UE's traffic
    substream, ``end_tti`` the run's end and ``next_tti`` the first TTI whose
    arrivals are not known to be empty: the stream is consumed for exactly
    the TTIs before it. A video flow's ``next_tti`` may lie past the end.

    Between pops ``spec`` may be replaced by ``apply_adjustment``, and loads
    never rise under it (``factor <= 1``). A lower ``lam`` raises
    ``exp(-lam)``, so the TTIs skipped under the old load stay arrival-free,
    and the pending ``next_tti`` is popped under the new ``lam``: a zero
    there pops ``[]`` and scans on, and a zero TTI uses one double either
    way. ``BufferedStream`` relies on the rule too: a stream that went to
    blocks at ``lam < 10`` raises if its ``lam`` rises back to 10 while
    buffered doubles are pending.
    """

    __slots__ = ("spec", "stream", "end_tti", "next_tti")

    def __init__(self, spec: FlowSpec, stream: BufferedStream, end_tti: int):
        self.spec = spec
        self.stream = stream
        self.end_tti = end_tti
        self.next_tti = 0


def arrivals(src: ArrivalSource) -> list[int]:
    """Sizes, in bits, of the flow's packets that arrive at ``src.next_tti``,
    which moves on to the next TTI whose arrivals are not known to be empty.

    FTP: Poisson arrivals at offered_load/mean_packet_bits per second. Video:
    one frame every frame_interval_ms TTIs, size clipped at max_packet_bits.
    """
    spec = src.spec
    stream = src.stream
    if spec.traffic_class is _FTP:
        lam = ftp_lam(spec)
        us = stream.poisson_random(lam)
        after = src.next_tti + 1
        if not us:
            # past the zero TTIs after an empty one, up to the run's end
            src.next_tti = after + stream.skip_zeros(lam, src.end_tti - after)
            return us
        src.next_tti = after
        mean_bits = spec.mean_packet_bits
        cap = None
    else:
        src.next_tti += spec.frame_interval_ms
        us = [stream.random()]
        mean_bits = spec.offered_load_bps * spec.frame_interval_ms / TTIS_PER_SECOND
        cap = spec.max_packet_bits
    # For u in [0, 1) and a positive mean the rounded value is never negative,
    # so ``or 1`` is ``max(1, ...)`` without the call.
    m = -float(mean_bits)
    sizes = [_round(m * _log1p(-u)) or 1 for u in us]
    if cap is not None and sizes[0] > cap:
        sizes[0] = cap
    return sizes


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
