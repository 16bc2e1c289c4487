"""Scenario (de)serialization: strict JSON with named-key diagnostics.

Syntax errors (malformed JSON) and semantic errors (invariant violations,
unknown keys) raise distinct exception types; semantic errors always name
the offending key.
"""
from __future__ import annotations

import json
import math
from typing import Any

from .channel import ChannelParams
from .engine import AdjustmentParams, Scenario
from .scheduler import Policy
from .traffic import FlowSpec, TrafficClass


class ScenarioSyntaxError(ValueError):
    """The scenario text is not well-formed JSON."""


class ScenarioValidationError(ValueError):
    """The scenario JSON violates an invariant; message names the key."""


_TOP_KEYS = {
    "name", "duration_tti", "seed", "policy", "buffersize_bits", "window_tti",
    "channel", "qoe", "adjustment", "annotations", "flows",
}
_CHANNEL_KEYS = {"peak_rate_bps", "walk_prob", "initial_cqi"}
_QOE_KEYS = {"q_max", "feedback_delay_tti"}
_ADJ_KEYS = {"enabled", "occupancy_threshold", "starvation_tti", "factor"}
_FLOW_KEYS = {
    "ue_id", "class", "alpha", "beta_ms", "offered_load_bps", "adaptive",
    "mean_packet_bits", "max_packet_bits", "frame_interval_ms",
}


def _reject_unknown(d: dict, allowed: set, ctx: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ScenarioValidationError(f"{ctx}: unknown key(s) {sorted(unknown)}")


def _get(d: dict, key: str, ctx: str, required: bool = True, default=None):
    if key not in d:
        if required:
            raise ScenarioValidationError(f"{ctx}: missing key '{key}'")
        return default
    return d[key]


def _num(d: dict, key: str, ctx: str, required: bool = True, default=None):
    """A number; null only for an optional key whose default is None."""
    v = _get(d, key, ctx, required, default)
    if v is None:
        if required or default is not None:
            raise ScenarioValidationError(f"{ctx}: key '{key}' must be a number")
        return None
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScenarioValidationError(f"{ctx}: key '{key}' must be a number")
    # json.loads accepts NaN and Infinity, and overflows literals like 1e400
    # to inf; strict JSON has neither.
    if isinstance(v, float) and not math.isfinite(v):
        raise ScenarioValidationError(f"{ctx}: key '{key}' must be finite, got {v}")
    return v


def _integer(v, key: str, ctx: str) -> int:
    """``v`` as an int. An integral float such as 4e7 is taken, 2.7 is not."""
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ScenarioValidationError(f"{ctx}: key '{key}' must be an integer, got {v!r}")
    return v


def _int(d: dict, key: str, ctx: str, required: bool = True, default=None):
    v = _num(d, key, ctx, required, default)
    return None if v is None else _integer(v, key, ctx)


def _bool(d: dict, key: str, ctx: str, default: bool) -> bool:
    v = _get(d, key, ctx, required=False, default=default)
    if not isinstance(v, bool):
        raise ScenarioValidationError(f"{ctx}: key '{key}' must be true or false, got {v!r}")
    return v


def _obj(d: dict, key: str, ctx: str, required: bool = True, default=None) -> dict:
    v = _get(d, key, ctx, required, default)
    if not isinstance(v, dict):
        raise ScenarioValidationError(f"{ctx}: key '{key}' must be an object")
    return v


def _parse_flow(d: Any, idx: int) -> FlowSpec:
    ctx = f"flows[{idx}]"
    if not isinstance(d, dict):
        raise ScenarioValidationError(f"{ctx}: must be an object")
    _reject_unknown(d, _FLOW_KEYS, ctx)
    cls_name = _get(d, "class", ctx)
    try:
        cls = TrafficClass(cls_name)
    except ValueError:
        raise ScenarioValidationError(
            f"{ctx}: key 'class' must be one of {[c.value for c in TrafficClass]}"
        ) from None
    alpha = _num(d, "alpha", ctx)
    if not 0 < alpha < 1:
        raise ScenarioValidationError(f"{ctx}: key 'alpha' must be in (0, 1)")
    beta_ms = _int(d, "beta_ms", ctx)
    if beta_ms < 1:
        raise ScenarioValidationError(f"{ctx}: key 'beta_ms' must be >= 1 ms")
    load = _num(d, "offered_load_bps", ctx)
    if load <= 0:
        raise ScenarioValidationError(f"{ctx}: key 'offered_load_bps' must be > 0")
    try:
        return FlowSpec(
            ue_id=_int(d, "ue_id", ctx),
            traffic_class=cls,
            alpha=float(alpha),
            beta_ms=beta_ms,
            offered_load_bps=float(load),
            adaptive=_bool(d, "adaptive", ctx, default=False),
            mean_packet_bits=_int(d, "mean_packet_bits", ctx, required=False),
            max_packet_bits=_int(d, "max_packet_bits", ctx, required=False),
            frame_interval_ms=_int(d, "frame_interval_ms", ctx, False, 16),
        )
    except ScenarioValidationError:
        raise
    except ValueError as e:
        raise ScenarioValidationError(f"{ctx}: {e}") from None


def parse_scenario(text: str) -> Scenario:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioSyntaxError(f"scenario is not valid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise ScenarioValidationError("scenario: top level must be an object")
    _reject_unknown(raw, _TOP_KEYS, "scenario")

    chan_raw = _obj(raw, "channel", "scenario")
    _reject_unknown(chan_raw, _CHANNEL_KEYS, "channel")
    cqis = _get(chan_raw, "initial_cqi", "channel", required=False, default=[])
    if not isinstance(cqis, list):
        raise ScenarioValidationError("channel: key 'initial_cqi' must be a list")
    try:
        channel = ChannelParams(
            peak_rate_bps=float(_num(chan_raw, "peak_rate_bps", "channel")),
            walk_prob=float(_num(chan_raw, "walk_prob", "channel", False, 0.1)),
            initial_cqi_per_ue=tuple(_integer(c, "initial_cqi", "channel") for c in cqis),
        )
    except ScenarioValidationError:
        raise
    except ValueError as e:
        raise ScenarioValidationError(f"channel: {e}") from None

    qoe_raw = _obj(raw, "qoe", "scenario", required=False, default={})
    _reject_unknown(qoe_raw, _QOE_KEYS, "qoe")
    feedback_delay_tti = _int(qoe_raw, "feedback_delay_tti", "qoe", False, 0)
    q_max = float(_num(qoe_raw, "q_max", "qoe", False, 100.0))
    adj_raw = _obj(raw, "adjustment", "scenario", required=False, default={})
    _reject_unknown(adj_raw, _ADJ_KEYS, "adjustment")
    occupancy_threshold = _num(adj_raw, "occupancy_threshold", "adjustment", False, 0.8)
    starvation_tti = _int(adj_raw, "starvation_tti", "adjustment", False, 100)
    factor = _num(adj_raw, "factor", "adjustment", False, 0.75)
    enabled = _bool(adj_raw, "enabled", "adjustment", default=False)
    try:
        adjustment = AdjustmentParams(
            enabled=enabled,
            occupancy_threshold=float(occupancy_threshold),
            starvation_tti=starvation_tti,
            factor=float(factor),
        )
    except ValueError as e:
        raise ScenarioValidationError(f"adjustment: {e}") from None

    flows_raw = _get(raw, "flows", "scenario")
    if not isinstance(flows_raw, list) or not flows_raw:
        raise ScenarioValidationError("scenario: key 'flows' must be a non-empty list")
    flows = [_parse_flow(f, i) for i, f in enumerate(flows_raw)]
    ids = [f.ue_id for f in flows]
    if len(set(ids)) != len(ids):
        raise ScenarioValidationError("flows: duplicate ue_id")

    policy_name = _get(raw, "policy", "scenario", required=False, default="BCQQ")
    try:
        policy = Policy(policy_name)
    except ValueError:
        raise ScenarioValidationError(
            f"scenario: key 'policy' must be one of {[p.value for p in Policy]}"
        ) from None

    try:
        return Scenario(
            name=str(_get(raw, "name", "scenario", required=False, default="scenario")),
            duration_tti=_int(raw, "duration_tti", "scenario"),
            flows=flows,
            channel=channel,
            buffersize_bits=_int(raw, "buffersize_bits", "scenario"),
            policy=policy,
            seed=_int(raw, "seed", "scenario", required=False, default=0),
            qoe_feedback_delay_tti=feedback_delay_tti,
            q_max=q_max,
            window_tti=_int(raw, "window_tti", "scenario", required=False),
            adjustment=adjustment,
            annotations=dict(_obj(raw, "annotations", "scenario", required=False, default={})),
        )
    except ScenarioValidationError:
        raise
    except ValueError as e:
        raise ScenarioValidationError(f"scenario: {e}") from None


def flow_to_dict(f: FlowSpec) -> dict:
    d = {
        "ue_id": f.ue_id,
        "class": f.traffic_class.value,
        "alpha": f.alpha,
        "beta_ms": f.beta_ms,
        "offered_load_bps": f.offered_load_bps,
        "adaptive": f.adaptive,
    }
    if f.traffic_class is TrafficClass.FTP_DOWNLOAD:
        d["mean_packet_bits"] = f.mean_packet_bits
    else:
        d["max_packet_bits"] = f.max_packet_bits
        d["frame_interval_ms"] = f.frame_interval_ms
    return d


def scenario_to_dict(sc: Scenario) -> dict:
    return {
        "name": sc.name,
        "duration_tti": sc.duration_tti,
        "seed": sc.seed,
        "policy": sc.policy.value,
        "buffersize_bits": sc.buffersize_bits,
        "window_tti": sc.window_tti,
        "channel": {
            "peak_rate_bps": sc.channel.peak_rate_bps,
            "walk_prob": sc.channel.walk_prob,
            "initial_cqi": list(sc.channel.initial_cqi_per_ue),
        },
        "qoe": {"q_max": sc.q_max, "feedback_delay_tti": sc.qoe_feedback_delay_tti},
        "adjustment": {
            "enabled": sc.adjustment.enabled,
            "occupancy_threshold": sc.adjustment.occupancy_threshold,
            "starvation_tti": sc.adjustment.starvation_tti,
            "factor": sc.adjustment.factor,
        },
        "annotations": dict(sc.annotations),
        "flows": [flow_to_dict(f) for f in sc.flows],
    }


def dump_scenario(sc: Scenario) -> str:
    return json.dumps(scenario_to_dict(sc), indent=2, sort_keys=True) + "\n"
