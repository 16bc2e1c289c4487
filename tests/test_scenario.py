import contextlib
import copy
import dataclasses
import io
import json
import math
import re
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qoesched import cli
from qoesched.engine import Scenario
from qoesched.scenario import (
    SCHEMA,
    ScenarioSyntaxError,
    ScenarioValidationError,
    dump_scenario,
    parse_scenario,
    scenario_to_dict,
)
from qoesched.scheduler import Policy
from qoesched.traffic import FlowSpec, TrafficClass


def table1_text():
    return resources.files("qoesched").joinpath("scenarios/table1.json").read_text()


class TestShippedScenario:
    def test_table1_flows(self):
        sc = parse_scenario(table1_text())
        assert len(sc.flows) == 5
        ftp = [f for f in sc.flows if f.traffic_class is TrafficClass.FTP_DOWNLOAD]
        video = [f for f in sc.flows if f.traffic_class is TrafficClass.LIVE_HD_VIDEO]
        assert len(ftp) == 3 and len(video) == 2
        for f in ftp:
            assert f.alpha == 1e-6
            assert f.beta_ms == 300
            assert f.mean_packet_bits == 500_000
        for f in video:
            assert f.alpha == 1e-6
            assert f.beta_ms == 150
            assert f.max_packet_bits == 2_000_000

    def test_table1_cell_parameters(self):
        sc = parse_scenario(table1_text())
        assert sc.peak_rate_bps == 6e9
        assert sc.buffersize_bits == 40_000_000  # 5 MB per UE
        assert sc.annotations["cell_radius_km"] == 1.0
        assert sc.annotations["moving_speed_kmh"] == 3.0
        assert sc.annotations["scheduling_period_ms"] == 1


class TestValidation:
    def base(self):
        return json.loads(table1_text())

    def test_syntax_error_distinct(self):
        with pytest.raises(ScenarioSyntaxError):
            parse_scenario("{not json")

    def test_alpha_out_of_range_names_key(self):
        raw = self.base()
        raw["flows"][0]["alpha"] = 1.5
        with pytest.raises(ScenarioValidationError, match="alpha"):
            parse_scenario(json.dumps(raw))

    def test_duplicate_ue_id(self):
        raw = self.base()
        raw["flows"][1]["ue_id"] = raw["flows"][0]["ue_id"]
        with pytest.raises(ScenarioValidationError, match="ue_id"):
            parse_scenario(json.dumps(raw))

    def test_unknown_key_rejected(self):
        raw = self.base()
        raw["wat"] = 1
        with pytest.raises(ScenarioValidationError, match="wat"):
            parse_scenario(json.dumps(raw))

    def test_unknown_flow_key_rejected(self):
        raw = self.base()
        raw["flows"][0]["color"] = "red"
        with pytest.raises(ScenarioValidationError, match="color"):
            parse_scenario(json.dumps(raw))

    def test_bad_policy_named(self):
        raw = self.base()
        raw["policy"] = "FIFO"
        with pytest.raises(ScenarioValidationError, match="policy"):
            parse_scenario(json.dumps(raw))

    def test_missing_channel(self):
        # the channel section is required through its one required key
        raw = self.base()
        del raw["channel"]
        with pytest.raises(ScenarioValidationError, match="^channel: missing key 'peak_rate_bps'"):
            parse_scenario(json.dumps(raw))

    def test_beta_below_one(self):
        raw = self.base()
        raw["flows"][0]["beta_ms"] = 0
        with pytest.raises(ScenarioValidationError, match="beta_ms"):
            parse_scenario(json.dumps(raw))

    # json.loads accepts NaN, Infinity and -Infinity, and reads 1e400 as inf.

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_flow_key_named(self, literal):
        raw = self.base()
        raw["flows"][1]["offered_load_bps"] = "@"
        text = json.dumps(raw).replace('"@"', literal)
        with pytest.raises(ScenarioValidationError,
                           match=r"flows\[1\]: key 'offered_load_bps' must be finite"):
            parse_scenario(text)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    def test_non_finite_channel_key_named(self, literal):
        raw = self.base()
        raw["channel"]["peak_rate_bps"] = "@"
        text = json.dumps(raw).replace('"@"', literal)
        with pytest.raises(ScenarioValidationError,
                           match=r"^channel: key 'peak_rate_bps' must be finite"):
            parse_scenario(text)

    @pytest.mark.parametrize("key", ["q_max", "feedback_delay_tti"])
    def test_non_finite_qoe_key_named(self, key):
        raw = self.base()
        raw["qoe"] = {key: "@"}
        text = json.dumps(raw).replace('"@"', "Infinity")
        with pytest.raises(ScenarioValidationError, match=f"^qoe: key '{key}' must be finite"):
            parse_scenario(text)


# (path of the key in table1.json, value, expected message). Each value used
# to be coerced silently or to raise a bare TypeError.
MISTYPED = {
    "adaptive_string": (("flows", 0, "adaptive"), "false",
                        r"^flows\[0\]: key 'adaptive' must be true or false"),
    "enabled_string": (("adjustment",), {"enabled": "no"},
                       r"^adjustment: key 'enabled' must be true or false"),
    "beta_fraction": (("flows", 3, "beta_ms"), 2.7,
                      r"^flows\[3\]: key 'beta_ms' must be an integer"),
    "ue_id_fraction": (("flows", 1, "ue_id"), 1.5,
                       r"^flows\[1\]: key 'ue_id' must be an integer"),
    "cqi_fraction": (("channel", "initial_cqi"), [3.7, 11, 9, 11, 13],
                     r"^channel: key 'initial_cqi' must be an integer"),
    "cqi_string": (("channel", "initial_cqi"), ["a", 11, 9, 11, 13],
                   r"^channel: key 'initial_cqi' must be an integer"),
    "cqi_not_list": (("channel", "initial_cqi"), 13,
                     r"^channel: key 'initial_cqi' must be a list"),
    "annotations_number": (("annotations",), 5,
                           r"^scenario: key 'annotations' must be an object"),
    "qoe_list": (("qoe",), [], r"^scenario: key 'qoe' must be an object"),
    "channel_string": (("channel",), "fast", r"^scenario: key 'channel' must be an object"),
    "duration_null": (("duration_tti",), None,
                      r"^scenario: key 'duration_tti' must be a number"),
    "frame_interval_null": (("flows", 3, "frame_interval_ms"), None,
                            r"^flows\[3\]: key 'frame_interval_ms' must be a number"),
}


def mistyped_text(case):
    path, value, _ = MISTYPED[case]
    raw = json.loads(table1_text())
    d = raw
    for k in path[:-1]:
        d = d[k]
    d[path[-1]] = value
    return json.dumps(raw)


class TestTypes:
    @pytest.mark.parametrize("case", MISTYPED)
    def test_mistyped_value_names_key(self, case):
        with pytest.raises(ScenarioValidationError, match=MISTYPED[case][2]):
            parse_scenario(mistyped_text(case))

    @pytest.mark.parametrize("case", MISTYPED)
    def test_mistyped_value_cli_exit_code(self, tmp_path, capsys, case):
        path = tmp_path / "scenario.json"
        path.write_text(mistyped_text(case))
        rc = cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_VALIDATION == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_integral_floats_are_integers(self):
        raw = json.loads(table1_text())
        raw["buffersize_bits"] = 4e7
        raw["flows"][0]["beta_ms"] = 300.0
        raw["channel"]["initial_cqi"] = [13.0, 11, 9, 11, 13]
        sc = parse_scenario(json.dumps(raw))
        assert sc.buffersize_bits == 40_000_000 and type(sc.buffersize_bits) is int
        assert type(sc.flows[0].beta_ms) is int
        assert sc.initial_cqi_per_ue == (13, 11, 9, 11, 13)
        assert all(type(c) is int for c in sc.initial_cqi_per_ue)

    def test_json_booleans_parse(self):
        raw = json.loads(table1_text())
        raw["flows"][0]["adaptive"] = True
        raw["adjustment"]["enabled"] = True
        sc = parse_scenario(json.dumps(raw))
        assert sc.flows[0].adaptive is True and sc.adjustment_enabled is True


class TestRoundTrip:
    def test_parse_dump_parse_idempotent(self):
        sc = parse_scenario(table1_text())
        text = dump_scenario(sc)
        sc2 = parse_scenario(text)
        assert scenario_to_dict(sc) == scenario_to_dict(sc2)
        assert dump_scenario(sc2) == text

    def test_rescaled_flow_round_trips(self):
        # a flow rescaled with dataclasses.replace dumps and parses as itself
        sc = parse_scenario(table1_text())
        flows = tuple(dataclasses.replace(f, offered_load_bps=4 * f.offered_load_bps)
                      for f in sc.flows)
        rescaled = dataclasses.replace(sc, flows=flows)
        assert parse_scenario(dump_scenario(rescaled)) == rescaled


class TestBuiltInPython:
    """A scenario built or changed in Python gets no JSON type check, so its
    dataclasses check what the parser would have refused."""

    # how a message names the kind of each field that is no integer
    KIND = {"adjustment_enabled": "true or false", "adaptive": "true or false",
            "name": "a string", "walk_prob": "a number", "offered_load_bps": "a number",
            "alpha": "a number", "q_max": "a number", "annotations": "a dict"}

    # Each value used to be taken: the first three then failed in the run with
    # a bare TypeError, buffersize_bits=inf failed only in emit, and the rest
    # ran and wrote their output. Of the cases after the first ten, the strings
    # for alpha, q_max and walk_prob ended in a bare TypeError, and the others
    # ran: a bool as a number, a string as a bool, a number as the name, and
    # a list as the annotations, whose dump the parser refused.
    @pytest.mark.parametrize("where, field, value", [
        ("scenario", "qoe_feedback_delay_tti", 1.5),
        ("scenario", "duration_tti", 20.5),
        ("channel", "initial_cqi_per_ue", (13.0, 11, 9, 11, 13)),
        ("scenario", "buffersize_bits", math.inf),
        ("scenario", "window_tti", 2.5),
        ("scenario", "seed", 1.5),
        (0, "beta_ms", 2.5),
        (3, "frame_interval_ms", 16.5),
        ("scenario", "starvation_tti", 1.5),
        (0, "ue_id", True),
        ("adjustment", "adjustment_enabled", "no"),
        ("scenario", "name", 5),
        (0, "adaptive", "no"),
        ("channel", "walk_prob", True),
        (1, "offered_load_bps", True),
        (0, "alpha", "0.5"),
        ("qoe", "q_max", "5"),
        ("channel", "walk_prob", "0.1"),
        ("scenario", "annotations", ["x"]),
    ])
    def test_integer_field_rejects_a_non_integer(self, where, field, value):
        # ``where`` is a flow's index, or the JSON section of a Scenario field
        sc = parse_scenario(table1_text())
        obj = sc if isinstance(where, str) else sc.flows[where]
        bad = value[0] if isinstance(value, tuple) else value
        message = f"{field} must be {self.KIND.get(field, 'an integer')}, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(obj, **{field: value})

    # Each value used to be taken or refused for the wrong reason: "XX" built
    # a scenario whose dump the parser refused, a member's name built one, a
    # video flow given the FTP class's name built as video, and an FTP flow
    # given it was refused for its missing max_packet_bits.
    @pytest.mark.parametrize("where, field, value, kind", [
        ("scenario", "policy", "XX", Policy),
        ("scenario", "policy", "PF", Policy),
        (3, "traffic_class", "ftp_download", TrafficClass),
        (0, "traffic_class", "ftp_download", TrafficClass),
    ])
    def test_enum_field_takes_only_its_members(self, where, field, value, kind):
        sc = parse_scenario(table1_text())
        obj = sc if isinstance(where, str) else sc.flows[where]
        message = (f"{field} must be a {kind.__name__}, one of "
                   f"{[m.value for m in kind]}, got {value!r}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(obj, **{field: value})

    def test_float_field_takes_an_int_or_a_float_subclass(self):
        sc = parse_scenario(table1_text())
        flow = dataclasses.replace(sc.flows[0], offered_load_bps=10**9)
        changed = dataclasses.replace(sc, q_max=5, walk_prob=np.float64(0.25),
                                      flows=(flow,) + sc.flows[1:])
        assert parse_scenario(dump_scenario(changed)) == changed

    def test_flows_cannot_be_changed_after_construction(self):
        # a list used to be taken, and appending to it or clearing it after the
        # invariants were checked ran a cell with a UE twice, or with none
        sc = parse_scenario(table1_text())
        assert type(sc.flows) is tuple
        with pytest.raises(AttributeError):
            sc.flows.append(sc.flows[0])
        with pytest.raises(ValueError, match=r"^flows must be a tuple, got \[FlowSpec\("):
            dataclasses.replace(sc, flows=list(sc.flows))

    def test_nullable_integer_fields_take_none(self):
        sc = parse_scenario(table1_text())
        assert dataclasses.replace(sc, window_tti=None).window_tti is None
        assert dataclasses.replace(sc.flows[0], max_packet_bits=None).max_packet_bits is None

    def test_non_json_annotation_names_the_field(self):
        # used to raise a bare TypeError from json.dumps
        sc = parse_scenario(table1_text())
        with pytest.raises(ValueError, match="^annotations must hold only JSON values"):
            dataclasses.replace(sc, annotations={"tags": {1, 2}})

    @pytest.mark.parametrize("annotations", [{1: "x"}, {"t": (1, 2)}],
                             ids=["integer_key", "tuple"])
    def test_annotations_must_read_back_as_themselves(self, annotations):
        # each used to be taken, and its dump parsed to another scenario: the
        # key as "1", the tuple as a list
        sc = parse_scenario(table1_text())
        with pytest.raises(ValueError, match="^annotations must hold only JSON values"):
            dataclasses.replace(sc, annotations=annotations)

    def test_nested_json_annotations_round_trip(self):
        sc = parse_scenario(table1_text())
        nested = dataclasses.replace(sc, annotations={"ok": [1, {"b": 2.5}]})
        assert parse_scenario(dump_scenario(nested)) == nested

    def test_dump_is_strict_json(self):
        # a NaN put into the annotations after construction used to be
        # dumped as the literal NaN
        sc = parse_scenario(table1_text())
        sc.annotations["x"] = math.nan
        with pytest.raises(ValueError, match="Out of range float"):
            dump_scenario(sc)


# --- one account per key: the table, the invariants and their messages ------

TABLE_KEYS = {k.name for keys in SCHEMA.values() for k in keys}


class Raw(str):
    """A JSON literal written into the text as is (NaN, Infinity, 1e400...)."""


DROP = object()


def edit(raw, path, value, literals):
    """Set ``path`` in ``raw`` to ``value``. DROP deletes the entry; a Raw
    literal is stored as a marker string that ``render`` replaces."""
    d = raw
    for k in path[:-1]:
        d = d[k]
    if value is DROP:
        del d[path[-1]]
    elif isinstance(value, Raw):
        marker = f"@{len(literals)}@"
        literals[json.dumps(marker)] = value
        d[path[-1]] = marker
    else:
        d[path[-1]] = copy.deepcopy(value)


def render(raw, literals):
    text = json.dumps(raw)
    for marker, literal in literals.items():
        text = text.replace(marker, literal)
    return text


def mutated_text(*edits):
    """table1.json with each ``(path, value)`` edit applied."""
    raw, literals = json.loads(table1_text()), {}
    for path, value in edits:
        edit(raw, path, value, literals)
    return render(raw, literals)



# One case per __post_init__ invariant, plus the type, class and finiteness
# probes: (edits, the message it must start with).
INVARIANTS = {
    "flow_ue_id_negative": ([(("flows", 0, "ue_id"), -4)],
                            r"^flows\[0\]: key 'ue_id' must be >= 0"),
    "flow_alpha": ([(("flows", 2, "alpha"), 1.0)], r"^flows\[2\]: key 'alpha' must be in"),
    "flow_beta_ms": ([(("flows", 3, "beta_ms"), 0)], r"^flows\[3\]: key 'beta_ms' must be >= 1"),
    "flow_load": ([(("flows", 1, "offered_load_bps"), -5)],
                  r"^flows\[1\]: key 'offered_load_bps' must be positive"),
    "flow_mean_packet_bits": ([(("flows", 0, "mean_packet_bits"), 0)],
                              r"^flows\[0\]: key 'mean_packet_bits' must be > 0"),
    "flow_mean_packet_bits_missing": ([(("flows", 0, "mean_packet_bits"), DROP)],
                                      r"^flows\[0\]: key 'mean_packet_bits' must be > 0"),
    "flow_max_packet_bits": ([(("flows", 4, "max_packet_bits"), -1)],
                             r"^flows\[4\]: key 'max_packet_bits' must be > 0"),
    "flow_frame_interval": ([(("flows", 3, "frame_interval_ms"), 0)],
                            r"^flows\[3\]: key 'frame_interval_ms' must be >= 1"),
    "channel_peak_rate": ([(("channel", "peak_rate_bps"), 0)],
                          r"^channel: key 'peak_rate_bps' must be positive"),
    "channel_walk_prob": ([(("channel", "walk_prob"), 1.5)],
                          r"^channel: key 'walk_prob' must be in \[0, 1\]"),
    "channel_cqi_high": ([(("channel", "initial_cqi"), [16, 11, 9, 11, 13])],
                         r"^channel: key 'initial_cqi' entry 16 outside \[1, 15\]"),
    "channel_cqi_low": ([(("channel", "initial_cqi"), [13, 11, 0, 11, 13])],
                        r"^channel: key 'initial_cqi' entry 0 outside"),
    "adjustment_occupancy": ([(("adjustment", "occupancy_threshold"), 1.0)],
                             r"^adjustment: key 'occupancy_threshold' must be in \(0, 1\)"),
    "adjustment_starvation": ([(("adjustment", "starvation_tti"), 0)],
                              r"^adjustment: key 'starvation_tti' must be >= 1"),
    "adjustment_factor": ([(("adjustment", "factor"), 1.25)],
                          r"^adjustment: key 'factor' must be in \(0, 1\]"),
    "duration": ([(("duration_tti",), 0)], r"^scenario: key 'duration_tti' must be >= 1"),
    "flows_empty": ([(("flows",), [])], r"^scenario: key 'flows' must not be empty"),
    "flows_duplicate_ue_id": ([(("flows", 4, "ue_id"), 2)],
                              r"^scenario: key 'flows' must have distinct ue_ids"),
    "buffersize": ([(("buffersize_bits",), 0)],
                   r"^scenario: key 'buffersize_bits' must be positive"),
    "feedback_delay": ([(("qoe", "feedback_delay_tti"), -1)],
                       r"^qoe: key 'feedback_delay_tti' must be >= 0"),
    "window": ([(("window_tti",), 0)], r"^scenario: key 'window_tti' must be >= 1"),
    "q_max_negative": ([(("qoe", "q_max"), -3)], r"^qoe: key 'q_max' must be >= 1"),
    "q_max_fraction": ([(("qoe", "q_max"), 0.5)], r"^qoe: key 'q_max' must be >= 1"),
    "seed_negative": ([(("seed",), -1)], r"^scenario: key 'seed' must be >= 0"),
    "cqi_count": ([(("channel", "initial_cqi"), [1, 2, 3])],
                  r"^channel: key 'initial_cqi' must give one CQI per flow, got 3 for 5 flows"),
    "annotations_nan": ([(("annotations", "note"), Raw("NaN"))],
                        r"^scenario: key 'annotations' must hold only finite numbers"),
    "name_number": ([(("name",), 5)], r"^scenario: key 'name' must be a string"),
    "name_list": ([(("name",), [1, 2])], r"^scenario: key 'name' must be a string"),
    "video_mean_packet_bits": ([(("flows", 3, "mean_packet_bits"), 7)],
                               r"^flows\[3\]: key 'mean_packet_bits' does not apply "
                               r"to live_hd_video flows"),
    "ftp_max_packet_bits": ([(("flows", 1, "max_packet_bits"), 7)],
                            r"^flows\[1\]: key 'max_packet_bits' does not apply "
                            r"to ftp_download flows"),
    "ftp_frame_interval": ([(("flows", 0, "frame_interval_ms"), 20)],
                           r"^flows\[0\]: key 'frame_interval_ms' does not apply "
                           r"to ftp_download flows"),
    "load_huge_integer": ([(("flows", 2, "offered_load_bps"), Raw("1" + "0" * 400))],
                          r"^flows\[2\]: key 'offered_load_bps' must be finite"),
    "beta_huge_integer": ([(("flows", 2, "beta_ms"), Raw("1" + "0" * 400))],
                          r"^flows\[2\]: key 'beta_ms' must be finite"),
}


class TestInvariants:
    @pytest.mark.parametrize("case", INVARIANTS)
    def test_invariant_names_section_and_key(self, case):
        edits, message = INVARIANTS[case]
        with pytest.raises(ScenarioValidationError, match=message):
            parse_scenario(mutated_text(*edits))

    def test_integer_past_digit_limit_is_a_syntax_error(self):
        with pytest.raises(ScenarioSyntaxError):
            parse_scenario(mutated_text((("seed",), Raw("1" * 5000))))

    def test_every_dataclass_field_has_one_json_key(self):
        fields = [k.field or k.name for keys in SCHEMA.values() for k in keys]
        assert len(fields) == len(set(fields))
        classes = (Scenario, FlowSpec)
        expected = {f.name for cls in classes for f in dataclasses.fields(cls)}
        # channel, qoe and adjustment are sections with no dataclass field
        assert set(fields) - {"channel", "qoe", "adjustment"} == expected

    def test_required_keys_alone_parse_to_the_dataclass_defaults(self):
        # a key left out takes its dataclass field's default: the JSON of the
        # required keys parses to the Scenario built in Python from them
        common = {"alpha": 0.1, "beta_ms": 5, "offered_load_bps": 1e5}
        minimal = {
            "duration_tti": 10, "buffersize_bits": 1_000, "channel": {"peak_rate_bps": 1e6},
            "flows": [
                {"ue_id": 0, "class": "ftp_download", "mean_packet_bits": 100, **common},
                {"ue_id": 1, "class": "live_hd_video", "max_packet_bits": 100, **common},
            ],
        }
        built = Scenario(
            duration_tti=10, buffersize_bits=1_000, peak_rate_bps=1e6,
            flows=(
                FlowSpec(ue_id=0, traffic_class=TrafficClass.FTP_DOWNLOAD,
                         mean_packet_bits=100, **common),
                FlowSpec(ue_id=1, traffic_class=TrafficClass.LIVE_HD_VIDEO,
                         max_packet_bits=100, **common),
            ),
        )
        assert parse_scenario(json.dumps(minimal)) == built

    def test_dump_writes_only_the_keys_of_each_class(self):
        flows = scenario_to_dict(parse_scenario(table1_text()))["flows"]
        assert set(flows[0]) == set(json.loads(table1_text())["flows"][0])
        assert set(flows[3]) == set(json.loads(table1_text())["flows"][3])

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "2,-1", "seed must be >= 0, got -1"),
        ("--duration-ms", "0", "duration_tti must be >= 1"),
        ("--window-ms", "0", "window_tti must be >= 1"),
    ])
    def test_cli_override_checked_by_scenario(self, tmp_path, capsys, flag, value, message):
        path = tmp_path / "scenario.json"
        path.write_text(table1_text())
        out = tmp_path / "o"
        rc = cli.main(["run", "--scenario", str(path), flag, value, "--out", str(out)])
        assert rc == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and "Traceback" not in err
        assert f"(from {flag})" in err
        assert not out.exists()


# --- fuzzing table1.json ------------------------------------------------------

FUZZ_VALUES = [
    None, True, False, 0, 1, -1, -4, 2, 16, 0.5, 1.5, 2.7, 1e30, -1e30, 10 ** 400,
    "x", "", "ftp_download", "BCQQ", [], [1, 2], [1, 2, 3, 4, 5], [16] * 5, {}, {"a": 1},
    Raw("NaN"), Raw("Infinity"), Raw("-Infinity"), Raw("1e400"),
]
# keys added beside the ones already there: unknown ones, and flow keys that
# apply to only one class
FUZZ_ADDED = ["bogus", "mean_packet_bits", "max_packet_bits", "frame_interval_ms"]


def _children(v):
    if isinstance(v, dict):
        return v.items()
    return enumerate(v) if isinstance(v, list) else ()


def _paths(obj, prefix=()):
    """The path of every value in a JSON document, the document excluded."""
    for k, v in _children(obj):
        yield prefix + (k,)
        yield from _paths(v, prefix + (k,))


def _objects(obj, prefix=()):
    """The path of every object in a JSON document, the document included."""
    if isinstance(obj, dict):
        yield prefix
    for k, v in _children(obj):
        yield from _objects(v, prefix + (k,))


def apply_mutations(mutations):
    """table1.json after each (op, i, j): drop path i, set path i to value j,
    or add key j to object i. Indices wrap, so every draw is a valid edit."""
    raw, literals = json.loads(table1_text()), {}
    for op, i, j in mutations:
        if op == "add":
            objects = list(_objects(raw))
            path = objects[i % len(objects)] + (FUZZ_ADDED[j % len(FUZZ_ADDED)],)
        else:
            paths = list(_paths(raw))
            path = paths[i % len(paths)]
        edit(raw, path, DROP if op == "drop" else FUZZ_VALUES[j % len(FUZZ_VALUES)], literals)
    return render(raw, literals)


mutations = st.lists(
    st.tuples(st.sampled_from(["drop", "set", "set", "add"]),
              st.integers(0, 200), st.integers(0, 200)),
    min_size=1, max_size=3,
)
# how an error names its key: by section and key, or a flow that is no object
NAMED = re.compile(
    r"^(scenario|channel|qoe|adjustment|flows\[\d+\]): "
    r"(?:(?:missing )?key '(\w+)'|unknown key\(s\) \['(\w+)'|must be an object$)"
)


class TestFuzz:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(mutations)
    def test_mutated_table1_fails_only_with_named_key(self, muts):
        text = apply_mutations(muts)
        try:
            sc = parse_scenario(text)
        except ScenarioSyntaxError:
            return
        except ScenarioValidationError as e:
            m = NAMED.match(str(e))
            assert m, str(e)
            key = m.group(2) or m.group(3)
            assert key in TABLE_KEYS | set(FUZZ_ADDED) if key else m.group(1).startswith("flows[")
            self.check_cli(text)
        else:
            assert parse_scenario(dump_scenario(sc)) == sc

    @staticmethod
    def check_cli(text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scenario.json"
            path.write_text(text)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["run", "--scenario", str(path), "--out", str(Path(tmp) / "o")])
            assert rc == cli.EXIT_VALIDATION == 1
            assert err.getvalue().startswith("error: ") and "Traceback" not in err.getvalue()
            assert not (Path(tmp) / "o").exists()


# --- round trip over generated valid scenarios --------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | finite | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=3),
    max_leaves=6,
)


@st.composite
def flow_specs(draw, ue_id):
    common = dict(
        ue_id=ue_id,
        alpha=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        beta_ms=draw(st.integers(1, 10 ** 6)),
        offered_load_bps=draw(st.floats(0.0, 1e15, exclude_min=True)),
        adaptive=draw(st.booleans()),
    )
    if draw(st.booleans()):
        return FlowSpec(traffic_class=TrafficClass.FTP_DOWNLOAD,
                        mean_packet_bits=draw(st.integers(1, 10 ** 9)), **common)
    return FlowSpec(traffic_class=TrafficClass.LIVE_HD_VIDEO,
                    max_packet_bits=draw(st.integers(1, 10 ** 9)),
                    frame_interval_ms=draw(st.integers(1, 1000)), **common)


@st.composite
def scenarios(draw):
    ids = draw(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=4, unique=True))
    cqis = draw(st.one_of(st.just(()), st.tuples(*[st.integers(1, 15)] * len(ids))))
    return Scenario(
        name=draw(st.text(max_size=8)),
        duration_tti=draw(st.integers(1, 10 ** 9)),
        flows=tuple(draw(flow_specs(ue)) for ue in ids),
        peak_rate_bps=draw(st.floats(0.0, 1e15, exclude_min=True)),
        walk_prob=draw(st.floats(0.0, 1.0)),
        initial_cqi_per_ue=cqis,
        buffersize_bits=draw(st.integers(1, 10 ** 12)),
        policy=draw(st.sampled_from(Policy)),
        seed=draw(st.integers(0, 2 ** 64)),
        qoe_feedback_delay_tti=draw(st.integers(0, 1000)),
        q_max=draw(st.floats(1.0, 1e300)),
        window_tti=draw(st.none() | st.integers(1, 10 ** 6)),
        adjustment_enabled=draw(st.booleans()),
        occupancy_threshold=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        starvation_tti=draw(st.integers(1, 10 ** 6)),
        adjustment_factor=draw(st.floats(0.0, 1.0, exclude_min=True)),
        annotations=draw(st.dictionaries(st.text(max_size=5), json_values, max_size=3)),
    )


class TestRoundTripProperty:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(scenarios())
    def test_parse_of_dump_is_identity(self, sc):
        text = dump_scenario(sc)
        assert parse_scenario(text) == sc
        assert dump_scenario(parse_scenario(text)) == text
