import json
from importlib import resources

import pytest

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


class TestRoundTrip:
    def test_parse_dump_parse_idempotent(self):
        sc = parse_scenario(table1_text())
        text = dump_scenario(sc)
        sc2 = parse_scenario(text)
        assert scenario_to_dict(sc) == scenario_to_dict(sc2)
        assert dump_scenario(sc2) == text
