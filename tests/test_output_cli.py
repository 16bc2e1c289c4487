import json
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, NamedTuple

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from qoesched import cli, output
from qoesched.engine import AdjustmentEvent, Scenario, UeReport, run
from qoesched.metrics import WindowRecord
from qoesched.scenario import scenario_to_dict
from qoesched.scheduler import Policy
from qoesched.traffic import FlowSpec, TrafficClass
from test_metrics import peak_traced_bytes


def round_reals(obj: Any) -> Any:
    """The reference for ``output._json``: a copy of ``obj`` with each float
    rounded to 9 significant digits and each report record (NamedTuple) a
    dict of its fields, for ``json.dumps`` to write."""
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if hasattr(obj, "_asdict"):
        obj = obj._asdict()
    if isinstance(obj, dict):
        return {k: round_reals(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_reals(v) for v in obj]
    return obj


def small_scenario(duration=500):
    return Scenario(
        name="small",
        duration_tti=duration,
        flows=(
            FlowSpec(ue_id=0, traffic_class=TrafficClass.FTP_DOWNLOAD, alpha=1e-6,
                     beta_ms=300, offered_load_bps=5e8, mean_packet_bits=500_000),
            FlowSpec(ue_id=1, traffic_class=TrafficClass.LIVE_HD_VIDEO, alpha=1e-6,
                     beta_ms=150, offered_load_bps=5e8, max_packet_bits=2_000_000),
        ),
        peak_rate_bps=1e9, walk_prob=0.1, initial_cqi_per_ue=(9, 12),
        buffersize_bits=40_000_000,
        seed=1,
    )


def idle_scenario():
    sc = small_scenario(duration=5)
    flows = (
        FlowSpec(ue_id=0, traffic_class=TrafficClass.FTP_DOWNLOAD, alpha=1e-6,
                 beta_ms=300, offered_load_bps=1e-6, mean_packet_bits=500_000),
    )
    return Scenario(
        name="idle", duration_tti=5, flows=flows,
        peak_rate_bps=1e9, initial_cqi_per_ue=(9,),
        buffersize_bits=1_000_000,
    )


class TestEmit:
    def test_two_runs_without_trace(self, tmp_path):
        sc = small_scenario()
        reports = [run(sc, policy=Policy.BCQQ, seed=1), run(sc, policy=Policy.MLWDF, seed=1)]
        written = output.emit(reports, sc, tmp_path)
        names = sorted(p.name for p in written)
        assert names == ["metrics.csv", "summary.json"]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert len(summary["runs"]) == 2
        assert summary["scenario"] == json.loads(
            json.dumps(round_reals(scenario_to_dict(sc)))
        )

    def test_summary_keys_are_the_report_fields(self, tmp_path):
        # a renamed report field would change summary.json here, not only
        # in the scenarios the benchmark digests cover
        flows = tuple(FlowSpec(ue_id=i, traffic_class=TrafficClass.FTP_DOWNLOAD, alpha=1e-6,
                               beta_ms=300, offered_load_bps=3e9, mean_packet_bits=500_000,
                               adaptive=True) for i in (0, 1))
        sc = Scenario(duration_tti=400, flows=flows, buffersize_bits=40_000_000,
                      peak_rate_bps=1e9, walk_prob=0.0, initial_cqi_per_ue=(15, 1), q_max=1.0,
                      adjustment_enabled=True)
        output.emit([run(sc, seed=1)], sc, tmp_path)
        entry, = json.loads((tmp_path / "summary.json").read_text())["runs"]
        assert sorted(entry) == [
            "adjustment_events", "duration_tti", "jfi", "per_ue", "policy", "qoe_fi", "seed",
            "total_arrived_bits", "total_delivered_bits", "total_throughput_bps"]
        assert [sorted(u) for u in entry["per_ue"]] == [[
            "arrived_bits", "buffered_bits", "delivered_bits", "dropped_deadline_bits",
            "dropped_overflow_bits", "loss_rate", "mean_delay_ms", "p99_delay_ms",
            "sched_count", "throughput_bps", "traffic_class", "ue_id"]] * 2
        assert entry["adjustment_events"]
        assert {tuple(sorted(e)) for e in entry["adjustment_events"]} == {(
            "new_load_bps", "occupancy_ratio", "old_load_bps", "starved_tti", "tti", "ue_id")}

    def test_non_finite_annotation_is_refused(self, tmp_path):
        # put in after construction, past Scenario's check; strict JSON has no NaN
        sc = small_scenario(duration=5)
        sc.annotations["gain"] = float("nan")
        with pytest.raises(ValueError, match="JSON"):
            output.emit([run(sc)], sc, tmp_path)
        assert not (tmp_path / "summary.json").exists()

    def test_trace_memory_is_bounded_in_rows(self, tmp_path):
        # the trace is written in chunks: 1 MiB is under the file's 1.2 MB
        # and under its 20,000 lines held as strings
        sc = small_scenario(duration=10_000)
        report = run(sc, seed=1, collect_trace=True)
        assert len(report.trace_rows) >= 20_000
        assert peak_traced_bytes(output.emit, [report], sc, tmp_path, True) < 2**20
        lines = [",".join(fmt_value(v) for v in row) for row in report.trace_rows]
        assert (tmp_path / "trace.csv").read_text() == "\n".join([output.TRACE_COLUMNS, *lines]) + "\n"

    def test_byte_identical_reemission(self, tmp_path):
        sc = small_scenario()
        for d in ("a", "b"):
            reports = [run(sc, policy=Policy.BCQQ, seed=1, collect_trace=True)]
            output.emit(reports, sc, tmp_path / d, trace=True)
        for name in ("summary.json", "metrics.csv", "trace.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_idle_trace_row(self, tmp_path):
        sc = idle_scenario()
        report = run(sc, collect_trace=True)
        output.emit([report], sc, tmp_path, trace=True)
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == output.TRACE_COLUMNS
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert row["selected"] == ""
        assert row["tx_bits"] == "0"

    def test_csv_roundtrip_lossless(self, tmp_path):
        sc = small_scenario()
        report = run(sc, policy=Policy.BCQQ, seed=1, collect_trace=True)
        output.emit([report], sc, tmp_path, trace=True)
        for name in ("metrics.csv", "trace.csv"):
            lines = (tmp_path / name).read_text().splitlines()
            for line in lines[1:]:
                for cell in line.split(","):
                    if cell == "" or not any(ch in cell for ch in ".e"):
                        continue
                    assert output.fmt_real(float(cell)) == cell


def fmt_value(v):
    """The per-cell formatter the CSV rows were joined from before their f-strings."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return f"{v:.9g}"
    return str(v)


ints = st.integers(min_value=-(2**70), max_value=2**70)
reals = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e300, -1e300]),
    st.integers(min_value=-(10**17), max_value=10**17).map(float),
)
optional_reals = st.none() | reals


class TestRowFormats:
    # a 0.0 rate then a -0.0 one: each is written as it is, "0" then "-0"
    @example([(0, 0, 1, 0.0, 0, 1.0, 0.0, None, 0, 0, 0),
              (0, 1, 1, -0.0, 0, 1.0, 0.0, None, 0, 0, 0)])
    @given(st.lists(st.tuples(ints, ints, ints, reals, ints, reals, reals,
                              st.sampled_from([1, None]), ints, ints, ints), max_size=5))
    def test_trace_line_equals_the_cell_join(self, rows):
        assert output._trace_lines(rows) == [",".join(fmt_value(v) for v in row) for row in rows]

    @given(st.sampled_from(["BCQQ", "MLWDF", "PF", "RR"]), ints, ints, ints, ints, ints, reals,
           optional_reals, optional_reals)
    def test_metrics_line_equals_the_cell_join(self, policy, seed, index, start, end, tx,
                                               throughput, jfi_v, fi_v):
        w = WindowRecord(index, start, end, tx, throughput, {}, {}, jfi_v, fi_v)
        assert output._metrics_line(policy, seed, w) == ",".join(
            fmt_value(v) for v in (policy, seed, index, start, end, tx, throughput, jfi_v, fi_v))


class Pair(NamedTuple):
    """A test-local record whose field order is not its sorted order."""
    zeta: Any
    alpha: Any


class Empty(NamedTuple):
    pass


def json_values(reals):
    """Values ``output._json`` writes: nested dicts with str keys, lists,
    tuples and records over None, bools, big ints, ``reals``, any str and
    ``Policy`` members."""
    leaves = (st.none() | st.booleans() | st.integers() | st.integers(-(2**80), 2**80)
              | reals | st.text() | st.sampled_from(Policy))
    return st.recursive(leaves, lambda children: (
        st.dictionaries(st.text(), children, max_size=4)
        | st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.builds(Pair, children, children)
        | st.just(Empty())
        | st.tuples(*[children] * len(UeReport._fields)).map(UeReport._make)
        | st.tuples(*[children] * len(AdjustmentEvent._fields)).map(AdjustmentEvent._make)),
        max_leaves=20)


def dumps(obj):
    return json.dumps(round_reals(obj), indent=2, sort_keys=True, allow_nan=False)


def non_finite(obj):
    """Whether a NaN or an infinity is anywhere in ``obj``."""
    if isinstance(obj, float):
        return not math.isfinite(obj)
    if isinstance(obj, dict):
        return any(map(non_finite, obj.values()))
    return isinstance(obj, (list, tuple)) and any(map(non_finite, obj))


class TestJsonWriter:
    # reals whose repr and %.9g forms differ (a sign, an exponent, digits rounded
    # away), a big int, empty containers and records, a str enum member, escapes
    @example(-0.0)
    @example(1e16)
    @example(123456789012.0)
    @example(1e-05)
    @example({"b": [1e-05, -0.0], "a": (123456789012.0, 1e16)})
    @example(2**70)
    @example({})
    @example([])
    @example(Empty())
    @example(Pair(Empty(), []))
    @example(Policy.BCQQ)
    @example({"\u00e9\n\x00": "\u2028\ud800\t\"", "": None})
    @given(json_values(st.floats(allow_nan=False, allow_infinity=False)))
    def test_equals_json_dumps_of_the_rounded_value(self, obj):
        assert output._json(obj) == dumps(obj)

    @example([1.0, {"x": math.nan}])
    @example(Pair(-math.inf, 1))
    @given(json_values(st.sampled_from([math.nan, math.inf, -math.inf])))
    def test_non_finite_real_anywhere_raises(self, obj):
        assume(non_finite(obj))
        with pytest.raises(ValueError):
            dumps(obj)
        with pytest.raises(ValueError):
            output._json(obj)


def synthetic_summary(policy, seed, tput_mbps, jfi_v=0.7, qoe_v=1.0, scenario=None):
    return {
        "scenario": scenario or {"name": "syn", "duration_tti": 1000},
        "runs": [
            {
                "policy": policy,
                "seed": seed,
                "total_throughput_bps": tput_mbps * 1e6,
                "jfi": jfi_v,
                "qoe_fi": qoe_v,
            }
        ],
    }


class TestCompare:
    def test_identical_policies_ratio_one_flags_false(self):
        res = output.compare(
            [
                synthetic_summary("BCQQ", 1, 1000.0),
                synthetic_summary("MLWDF", 1, 1000.0),
            ]
        )
        assert res["mean_throughput_ratio_vs_mlwdf"]["BCQQ"] == pytest.approx(1.0)
        assert res["flags"]["bcqq_throughput_exceeds_mlwdf"] is False
        assert res["flags"]["bcqq_qoefi_below_mlwdf"] is False

    def test_reference_throughput_ratio(self):
        res = output.compare(
            [
                synthetic_summary("BCQQ", 1, 2378.0),
                synthetic_summary("MLWDF", 1, 1796.0),
            ]
        )
        assert res["mean_throughput_ratio_vs_mlwdf"]["BCQQ"] == pytest.approx(1.324, abs=5e-4)
        assert res["flags"]["bcqq_throughput_exceeds_mlwdf"] is True

    def test_single_policy_rejected(self):
        with pytest.raises(output.CompareError):
            output.compare([synthetic_summary("BCQQ", 1, 1000.0)])

    def test_mismatched_scenarios_rejected(self):
        a = synthetic_summary("BCQQ", 1, 1000.0, scenario={"name": "x", "duration_tti": 10})
        b = synthetic_summary("MLWDF", 1, 900.0, scenario={"name": "y", "duration_tti": 20})
        with pytest.raises(output.CompareError):
            output.compare([a, b])

    def test_comparison_table_renders(self):
        res = output.compare(
            [
                synthetic_summary("BCQQ", 1, 2378.0, qoe_v=0.74),
                synthetic_summary("MLWDF", 1, 1796.0, qoe_v=1.15),
            ]
        )
        table = output.comparison_table(res)
        assert "BCQQ" in table and "MLWDF" in table

    def test_golden_three_policies_three_seeds(self):
        # PF lacks seed 3, so seed 3 is dropped; MLWDF sends nothing on seed 2,
        # so that seed has no ratio; BCQQ's seed-1 JFI is None, so its mean
        # JFI is seed 2's alone. Each summary's scenario names its own seed and
        # policy, which are per-run overrides, not mismatches.
        figures = {  # policy -> seed -> (total_throughput_bps, jfi, qoe_fi)
            "BCQQ": {1: (3e6, None, 1.5), 2: (2e6, 0.75, 1.0), 3: (9e6, 0.5, 0.5)},
            "MLWDF": {1: (2e6, 0.5, 1.0), 2: (0.0, 1.0, 1.0), 3: (1e6, 0.5, 2.0)},
            "PF": {1: (1e6, 0.25, 2.0), 2: (1e6, 0.5, 1.5)},
        }
        summaries = [
            {"scenario": {"name": "syn", "duration_tti": 1000, "seed": min(runs),
                          "policy": policy},
             "runs": [{"policy": policy, "seed": seed, "total_throughput_bps": t,
                       "jfi": j, "qoe_fi": q} for seed, (t, j, q) in runs.items()]}
            for policy, runs in figures.items()
        ]
        res = output.compare(summaries)
        assert res == {
            "policies": {
                "BCQQ": {"mean_total_throughput_bps": 2.5e6, "mean_jfi": 0.75,
                         "mean_qoe_fi": 1.25},
                "MLWDF": {"mean_total_throughput_bps": 1e6, "mean_jfi": 0.75,
                          "mean_qoe_fi": 1.0},
                "PF": {"mean_total_throughput_bps": 1e6, "mean_jfi": 0.375,
                       "mean_qoe_fi": 1.75},
            },
            "seeds": [1, 2],
            "per_seed": [
                {"seed": 1,
                 "throughput_bps": {"BCQQ": 3e6, "MLWDF": 2e6, "PF": 1e6},
                 "jfi": {"BCQQ": None, "MLWDF": 0.5, "PF": 0.25},
                 "qoe_fi": {"BCQQ": 1.5, "MLWDF": 1.0, "PF": 2.0},
                 "throughput_ratio_vs_mlwdf": {"BCQQ": 1.5, "MLWDF": 1.0, "PF": 0.5}},
                {"seed": 2,
                 "throughput_bps": {"BCQQ": 2e6, "MLWDF": 0.0, "PF": 1e6},
                 "jfi": {"BCQQ": 0.75, "MLWDF": 1.0, "PF": 0.5},
                 "qoe_fi": {"BCQQ": 1.0, "MLWDF": 1.0, "PF": 1.5}},
            ],
            "mean_throughput_ratio_vs_mlwdf": {"BCQQ": 2.5, "MLWDF": 1.0, "PF": 1.0},
            "flags": {"bcqq_throughput_exceeds_mlwdf": True,
                      "bcqq_qoefi_below_mlwdf": False},
        }
        assert output.comparison_table(res) == "\n".join([
            "policy     mean tput (Mbps)   mean JFI  mean QoE_FI",
            "BCQQ                  2.500       0.75         1.25",
            "MLWDF                 1.000       0.75            1",
            "PF                    1.000      0.375         1.75",
            "throughput ratio vs MLWDF: BCQQ=2.5, MLWDF=1, PF=1",
            "bcqq_throughput_exceeds_mlwdf: True",
            "bcqq_qoefi_below_mlwdf: False",
        ])


class TestCli:
    def write_scenario(self, tmp_path):
        from qoesched.scenario import dump_scenario

        path = tmp_path / "scenario.json"
        path.write_text(dump_scenario(small_scenario()))
        return path

    def test_run_and_compare_end_to_end(self, tmp_path, capsys):
        scenario = self.write_scenario(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(
            [
                "run", "--scenario", str(scenario), "--policy", "BCQQ,MLWDF",
                "--seed", "1,2", "--duration-ms", "400", "--out", str(out),
            ]
        )
        assert rc == cli.EXIT_OK
        assert (out / "summary.json").exists()
        assert (out / "metrics.csv").exists()
        rc = cli.main(["compare", "--in", str(out)])
        assert rc == cli.EXIT_OK
        assert (out / "comparison.json").exists()
        assert "mean tput" in capsys.readouterr().out

    def test_trace_flag_writes_trace(self, tmp_path):
        scenario = self.write_scenario(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(
            ["run", "--scenario", str(scenario), "--duration-ms", "50",
             "--out", str(out), "--trace"]
        )
        assert rc == cli.EXIT_OK
        assert (out / "trace.csv").exists()

    def test_validation_error_exit_code(self, tmp_path):
        scenario = self.write_scenario(tmp_path)
        rc = cli.main(
            ["run", "--scenario", str(scenario), "--policy", "FIFO",
             "--out", str(tmp_path / "o")]
        )
        assert rc == cli.EXIT_VALIDATION

    def test_non_finite_scenario_number_exit_code(self, tmp_path, capsys):
        raw = scenario_to_dict(small_scenario())
        raw["flows"][0]["offered_load_bps"] = "@"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw).replace('"@"', "Infinity"))
        rc = cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_VALIDATION
        assert "offered_load_bps" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_scenario_file_exit_code(self, tmp_path):
        missing = tmp_path / "nope.json"
        rc = cli.main(["run", "--scenario", str(missing), "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_IO

    def test_io_error_exit_code(self, tmp_path):
        scenario = self.write_scenario(tmp_path)
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a dir")
        rc = cli.main(
            ["run", "--scenario", str(scenario), "--duration-ms", "10",
             "--out", str(blocker / "sub")]
        )
        assert rc == cli.EXIT_IO

    def test_compare_with_zero_mlwdf_throughput(self, tmp_path, capsys):
        # one TTI of a nearly idle cell: nothing is sent under any policy
        path = tmp_path / "idle.json"
        raw = scenario_to_dict(idle_scenario())
        raw["flows"].append(dict(raw["flows"][0], ue_id=1))
        raw["channel"]["initial_cqi"] = [9, 9]
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert cli.main(["run", "--scenario", str(path), "--policy", "BCQQ,MLWDF",
                         "--duration-ms", "1", "--out", str(out)]) == cli.EXIT_OK
        assert cli.main(["compare", "--in", str(out)]) == cli.EXIT_OK
        result = json.loads((out / "comparison.json").read_text())
        assert result["policies"]["MLWDF"]["mean_total_throughput_bps"] == 0
        assert "mean_throughput_ratio_vs_mlwdf" not in result
        assert "throughput_ratio_vs_mlwdf" not in result["per_seed"][0]
        assert "ratio vs MLWDF" not in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value", [("--policy", "BCQQ,MLWDF,BCQQ"),
                                             ("--seed", "1,2,1"), ("--seed", "3,03")])
    def test_duplicate_policy_or_seed_rejected(self, tmp_path, capsys, flag, value):
        scenario = self.write_scenario(tmp_path)
        rc = cli.main(["run", "--scenario", str(scenario), "--duration-ms", "10",
                       flag, value, "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_VALIDATION
        assert f"{flag}:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag, value", [("--policy", "FIFO"), ("--policy", "BCQQ,pf"),
                                             ("--seed", "x"), ("--seed", "1,2.5")])
    def test_unparsable_policy_or_seed_names_the_flag(self, tmp_path, capsys, flag, value):
        scenario = self.write_scenario(tmp_path)
        rc = cli.main(["run", "--scenario", str(scenario), "--duration-ms", "10",
                       flag, value, "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_VALIDATION
        assert f"error: {flag}:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag, value", [("--policy", ""), ("--policy", ","),
                                             ("--seed", ""), ("--seed", " , ")])
    def test_empty_policy_or_seed_rejected(self, tmp_path, capsys, flag, value):
        # an empty list is refused, not read as "the scenario's own"
        scenario = self.write_scenario(tmp_path)
        rc = cli.main(["run", "--scenario", str(scenario), "--duration-ms", "10",
                       flag, value, "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_VALIDATION
        assert f"{flag}: need at least one" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_files_are_utf8_under_an_ascii_locale(self, tmp_path):
        # the C locale without coercion makes ASCII the default encoding
        raw = scenario_to_dict(small_scenario())
        raw["annotations"] = {"site": "Z\u00fcrich"}
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(raw, ensure_ascii=False), encoding="utf-8")
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
                   PYTHONPATH=str(Path(cli.__file__).parents[1]))

        def qoesched(*argv):
            return subprocess.run([sys.executable, "-m", "qoesched", *argv], env=env,
                                  capture_output=True, text=True, timeout=120)

        out = tmp_path / "out"
        done = qoesched("run", "--scenario", str(scenario), "--duration-ms", "20",
                        "--policy", "BCQQ,MLWDF", "--out", str(out))
        assert done.returncode == cli.EXIT_OK, done.stderr
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["scenario"]["annotations"] == {"site": "Z\u00fcrich"}
        # a summary.json written as UTF-8 by another tool reads back too
        (out / "summary.json").write_text(json.dumps(summary, ensure_ascii=False),
                                          encoding="utf-8")
        done = qoesched("compare", "--in", str(out))
        assert done.returncode == cli.EXIT_OK, done.stderr

    def test_compare_single_policy_fails(self, tmp_path):
        scenario = self.write_scenario(tmp_path)
        out = tmp_path / "out"
        cli.main(["run", "--scenario", str(scenario), "--duration-ms", "50", "--out", str(out)])
        rc = cli.main(["compare", "--in", str(out)])
        assert rc == cli.EXIT_VALIDATION

    def test_compare_refuses_a_policy_and_seed_given_twice(self, tmp_path, capsys):
        # which of the two BCQQ seed-1 runs won would flip the ratio and the flag
        a = synthetic_summary("BCQQ", 1, 1.0)
        a["runs"] += synthetic_summary("MLWDF", 1, 2.0)["runs"]
        b = synthetic_summary("BCQQ", 1, 9.0)
        for sub, summary in (("a", a), ("b", b)):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "summary.json").write_text(json.dumps(summary))
        assert cli.main(["compare", "--in", str(tmp_path)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "BCQQ" in err and "seed 1" in err
        assert not (tmp_path / "comparison.json").exists()

    @pytest.mark.parametrize("text, key", [
        pytest.param("[]", None, id="list"),
        pytest.param('{"runs": []}', "'scenario'", id="no_scenario"),
        pytest.param('{"scenario": {}, "runs": 3}', "'runs'", id="runs_int"),
        pytest.param('{"scenario": {}, "runs": [7]}', "runs[0]", id="run_int"),
        pytest.param('{"scenario": {}, "runs": [{}]}', "'policy'", id="no_policy"),
        pytest.param('{"scenario": {}, "runs": [{"policy": "BCQQ", "seed": true}]}',
                     "'seed'", id="seed_bool"),
        pytest.param('{"scenario": {}, "runs": [{"policy": "PF", "seed": 1, '
                     '"total_throughput_bps": "fast"}]}', "'total_throughput_bps'",
                     id="throughput_str"),
        pytest.param('{"scenario": {}, "runs": [{"policy": "PF", "seed": 1, '
                     '"total_throughput_bps": 1.0, "jfi": NaN, "qoe_fi": null}]}', "NaN",
                     id="jfi_nan"),
        # json.loads reads 1e400 as inf without calling parse_constant
        pytest.param('{"scenario": {}, "runs": [{"policy": "PF", "seed": 1, '
                     '"total_throughput_bps": 1e400, "jfi": null, "qoe_fi": null}]}',
                     "runs[0]: key 'total_throughput_bps' must be finite, got inf",
                     id="throughput_1e400"),
        pytest.param('{"scenario": {}, "runs": [{"policy": "PF", "seed": 1, '
                     '"total_throughput_bps": 1.0, "jfi": -1e400, "qoe_fi": null}]}',
                     "runs[0]: key 'jfi' must be finite, got -inf", id="jfi_minus_1e400"),
        # ... and a 400-digit integer exactly, which no mean can divide to a float
        pytest.param('{"scenario": {}, "runs": [{"policy": "PF", "seed": 1, '
                     '"total_throughput_bps": 1.0, "jfi": null, "qoe_fi": 1' + "0" * 400 + "}]}",
                     "runs[0]: key 'qoe_fi' must be finite, got 1000", id="qoe_fi_400_digits"),
        pytest.param('{"scenario": ', None, id="truncated"),
    ])
    def test_compare_malformed_summary(self, tmp_path, capsys, text, key):
        path = tmp_path / "in" / "summary.json"
        path.parent.mkdir()
        path.write_text(text)
        rc = cli.main(["compare", "--in", str(path.parent)])
        assert rc == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert key is None or key in err
        assert not (path.parent / "comparison.json").exists()
