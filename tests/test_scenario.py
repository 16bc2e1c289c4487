import json
from importlib import resources

import pytest

from qoesched import cli
from qoesched.scenario import (
    ScenarioSyntaxError,
    ScenarioValidationError,
    dump_scenario,
    parse_scenario,
    scenario_to_dict,
)
from qoesched.traffic import TrafficClass


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
        assert sc.channel.peak_rate_bps == 6e9
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
        raw = self.base()
        del raw["channel"]
        with pytest.raises(ScenarioValidationError, match="channel"):
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
        assert sc.channel.initial_cqi_per_ue == (13, 11, 9, 11, 13)
        assert all(type(c) is int for c in sc.channel.initial_cqi_per_ue)

    def test_json_booleans_parse(self):
        raw = json.loads(table1_text())
        raw["flows"][0]["adaptive"] = True
        raw["adjustment"]["enabled"] = True
        sc = parse_scenario(json.dumps(raw))
        assert sc.flows[0].adaptive is True and sc.adjustment.enabled is True


class TestRoundTrip:
    def test_parse_dump_parse_idempotent(self):
        sc = parse_scenario(table1_text())
        text = dump_scenario(sc)
        sc2 = parse_scenario(text)
        assert scenario_to_dict(sc) == scenario_to_dict(sc2)
        assert dump_scenario(sc2) == text
