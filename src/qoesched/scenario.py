"""Scenario (de)serialization: strict JSON with named-key diagnostics.

``SCHEMA`` spells the JSON of ``parse_scenario`` and ``scenario_to_dict``; each
setting and its default live on a field of ``Scenario`` or ``FlowSpec``. The
``channel``, ``qoe`` and ``adjustment`` sections fill ``Scenario``'s own fields,
and each flow is a ``FlowSpec``. The parser checks only types;
each range invariant lives in one ``__post_init__``, whose message starts with
the field name and is reported as ``<section>: key '<json key>' ...``.
"""
from __future__ import annotations

import dataclasses
import json
from enum import Enum
from sys import float_info
from typing import Any, NamedTuple

from .engine import Scenario
from .scheduler import Policy
from .traffic import FlowSpec, TrafficClass


class ScenarioSyntaxError(ValueError):
    """The scenario text is not well-formed JSON."""


class ScenarioValidationError(ValueError):
    """The scenario JSON violates an invariant; message names the key."""


INTS = "list of int"


class Key(NamedTuple):
    """A JSON key of ``kind`` (int, float, bool, str, dict, list, INTS or an enum), its
    dataclass ``field`` where that differs, and the ``classes`` a flow key applies to."""

    name: str
    kind: Any
    field: str | None = None
    classes: tuple[TrafficClass, ...] | None = None


# channel, qoe, adjustment and flows are sections; a flow's class precedes class-only keys
SCHEMA: dict[str, tuple[Key, ...]] = {
    "scenario": (
        Key("name", str),
        Key("duration_tti", int),
        Key("seed", int),
        Key("policy", Policy),
        Key("buffersize_bits", int),
        Key("window_tti", int),
        Key("channel", dict),
        Key("qoe", dict),
        Key("adjustment", dict),
        Key("annotations", dict),
        Key("flows", list),
    ),
    "channel": (
        Key("peak_rate_bps", float),
        Key("walk_prob", float),
        Key("initial_cqi", INTS, "initial_cqi_per_ue"),
    ),
    "qoe": (
        Key("q_max", float),
        Key("feedback_delay_tti", int, "qoe_feedback_delay_tti"),
    ),
    "adjustment": (
        Key("enabled", bool, "adjustment_enabled"),
        Key("occupancy_threshold", float),
        Key("starvation_tti", int),
        Key("factor", float, "adjustment_factor"),
    ),
    "flows": (
        Key("ue_id", int),
        Key("class", TrafficClass, "traffic_class"),
        Key("alpha", float),
        Key("beta_ms", int),
        Key("offered_load_bps", float),
        Key("adaptive", bool),
        Key("mean_packet_bits", int, classes=(TrafficClass.FTP_DOWNLOAD,)),
        Key("max_packet_bits", int, classes=(TrafficClass.LIVE_HD_VIDEO,)),
        Key("frame_interval_ms", int, classes=(TrafficClass.LIVE_HD_VIDEO,)),
    ),
}
# the sections whose keys are Scenario fields
_SECTIONS = ("channel", "qoe", "adjustment")
_NAMES = {section: {k.name for k in keys} for section, keys in SCHEMA.items()}
# dataclass field -> (section, JSON key); no field name is in two sections
_KEY_OF_FIELD = {k.field or k.name: (s, k.name) for s, keys in SCHEMA.items() for k in keys}
# dataclass field -> its default, factory or MISSING: a key left out takes its default,
# is required if it has none and is no section, and may be null where it is None
_DEFAULT = {f.name: f.default_factory if f.default is dataclasses.MISSING else f.default
            for cls in (Scenario, FlowSpec) for f in dataclasses.fields(cls)}
# the Python type of a JSON value -> how a message names it
_SHAPES = {bool: "true or false", str: "a string", dict: "an object", list: "a list"}


def _error(ctx: str, key: str, what: str) -> ScenarioValidationError:
    return ScenarioValidationError(f"{ctx}: key '{key}' {what}")


def _integer(v, key: str, ctx: str) -> int:
    """``v`` as an int. An integral float such as 4e7 is taken, 2.7 is not."""
    if type(v) is int or isinstance(v, float) and v.is_integer():
        return int(v)
    raise _error(ctx, key, f"must be an integer, got {v!r}")


def _value(v, k: Key, ctx: str, default: Any):
    """``v`` checked against ``k.kind`` and converted to the field's type."""
    kind = k.kind
    if v is None and default is None:
        return None
    if kind is int or kind is float:
        if type(v) is not int and type(v) is not float:  # bool is no number here
            raise _error(ctx, k.name, "must be a number")
        # json.loads reads NaN, Infinity, 1e400 (as inf) and 400-digit integers
        if not abs(v) <= float_info.max:
            raise _error(ctx, k.name, f"must be finite, got {v}")
        return _integer(v, k.name, ctx) if kind is int else float(v)
    json_type = list if kind is INTS else kind
    if json_type in _SHAPES:
        if not isinstance(v, json_type):
            raise _error(ctx, k.name, f"must be {_SHAPES[json_type]}, got {v!r}")
        if kind is INTS:
            return tuple(_integer(c, k.name, ctx) for c in v)
        return dict(v) if kind is dict else v
    try:
        return kind(v)
    except (ValueError, TypeError):
        raise _error(ctx, k.name, f"must be one of {[e.value for e in kind]}") from None


def _read(d: Any, section: str, ctx: str | None = None) -> dict:
    """The fields of the keys one section of the JSON gives, type-checked."""
    ctx = ctx or section
    if not isinstance(d, dict):
        raise ScenarioValidationError(f"{ctx}: must be an object")
    unknown = d.keys() - _NAMES[section]
    if unknown:
        raise ScenarioValidationError(f"{ctx}: unknown key(s) {sorted(unknown)}")
    fields = {}
    for k in SCHEMA[section]:
        name, _, field, classes = k
        default = _DEFAULT.get(field or name, {})
        if name in d:
            fields[field or name] = _value(d[name], k, ctx, default)
            if classes and fields["traffic_class"] not in classes:
                raise _error(ctx, name, f"does not apply to {fields['traffic_class'].value} flows")
        elif default is dataclasses.MISSING:
            raise ScenarioValidationError(f"{ctx}: missing key '{name}'")
    return fields


def _build(cls, fields: dict, ctx: str | None = None):
    """``cls(**fields)``, an invariant's error reported under its JSON key."""
    try:
        return cls(**fields)
    except ValueError as e:
        field, _, what = str(e).partition(" ")
        section, key = _KEY_OF_FIELD[field]
        raise _error(ctx or section, key, what) from None


def parse_scenario(text: str) -> Scenario:
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as e:  # also: too many digits, too deep
        raise ScenarioSyntaxError(f"scenario is not valid JSON: {e}") from None
    fields = _read(raw, "scenario")
    for section in _SECTIONS:
        fields.update(_read(fields.pop(section, {}), section))
    fields["flows"] = tuple(_build(FlowSpec, _read(d, "flows", f"flows[{i}]"), f"flows[{i}]")
                            for i, d in enumerate(fields["flows"]))
    return _build(Scenario, fields)


# the keys _dump writes: each section's plain keys, and for flows a class's keys
_DUMPED = {(section, cls): tuple(k for k in keys
                                 if k.name not in SCHEMA and (not k.classes or cls in k.classes))
           for section, keys in SCHEMA.items() for cls in (None, *TrafficClass)}


def _dump(obj: Any, section: str, cls: TrafficClass | None = None) -> dict:
    """The JSON of one section's plain keys; a flow gets its class ``cls``'s keys."""
    d = {}
    for k in _DUMPED[section, cls]:
        v = getattr(obj, k.field or k.name)
        if isinstance(v, Enum):
            v = v.value
        elif isinstance(v, (tuple, dict)):
            v = list(v) if k.kind is INTS else dict(v)
        d[k.name] = v
    return d


def scenario_to_dict(sc: Scenario) -> dict:
    d = _dump(sc, "scenario")
    for section in _SECTIONS:
        d[section] = _dump(sc, section)
    d["flows"] = [_dump(f, "flows", f.traffic_class) for f in sc.flows]
    return d


def dump_scenario(sc: Scenario) -> str:
    return json.dumps(scenario_to_dict(sc), indent=2, sort_keys=True, allow_nan=False) + "\n"
