"""Source mutants and the tests that catch them.

Run from anywhere: ``python tests/mutants.py``. pytest does not collect this
file: its name has no ``test_`` prefix.

Each row of ``MUTANTS`` is one defect, written as one text replacement in a
module of ``src/qoesched``, with the ids of the tests that must fail with it.
The runner copies ``src/`` to a temporary directory outside the checkout and
runs the named tests of every row there once unchanged, where they must pass.
Then, per row, it applies the replacement to a fresh copy and runs only that
row's tests against it. It fails when a row's old text does not occur exactly
once in its module, when a named test passes, or when a run of pytest outlasts
``TIMEOUT_S``: a mutant that loops forever is then killed and reported by its
row's name, and the table goes on. pytest runs in the temporary
directory, so hypothesis keeps the mutants' failing examples there, and under
the ``mutants`` hypothesis profile of ``tests/conftest.py``, which does not
shrink them: a property that fails is reported as soon as it fails.

A change that moves or rewrites a row's old text updates the row with it, so
the table describes the code as it stands. A mutant that only keeps a UE due
for longer is exact by design (processing a sleeper's TTI equals catching it
up by one), so no row holds one.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

# Seconds one run of pytest may take, the unchanged run of every named test
# included; each takes well under a minute.
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    module: str  # a file of src/qoesched
    old: str  # occurs exactly once in the module
    new: str
    tests: tuple[str, ...]  # ids as pytest prints them, each of which must fail


REF = "tests/test_engine.py::TestScalarStreamReference::"
ORDER = REF + "test_adjustments_on_one_tti_keep_the_order_of_the_ues"
SLEPT_CLOSE = REF + "test_wake_within_the_feedback_delay_after_a_slept_close"
SELECT = "tests/test_scheduler.py::TestSelect::"
QOE_FI = "tests/test_metrics.py::TestQoeFi::"
CQI_STEP = "tests/test_channel.py::TestCqiStep::"
RATE_OF = "tests/test_channel.py::TestRateOf::"
MOVES = "tests/test_streams.py::test_move_stream_serves_the_generators_moves"
JSON = "tests/test_output_cli.py::TestJsonWriter::"
DIGESTS = tuple(f"tests/test_reference_digests.py::test_outputs_match_the_reference_digests[{w}-{s}]"
                for w in ("dense_cell", "flood_traced", "table1_sweep") for s in ("full", "smoke"))

MUTANTS = (
    # _catch_up floors the rate with the same text, so the row takes the
    # winner's line above it too
    Mutant("ema_floor", "engine.py",
           "                    avg = avg + EMA_GAIN * (tx / TTI_SECONDS)\n"
           "                s.avg_rate_bps = AVG_RATE_FLOOR if avg < AVG_RATE_FLOOR else avg\n",
           "                    avg = avg + EMA_GAIN * (tx / TTI_SECONDS)\n"
           "                s.avg_rate_bps = avg\n",
           (REF + "test_mixed_traffic_with_feedback_delay[PF]",
            REF + "test_mixed_traffic_with_feedback_delay[MLWDF]")),
    Mutant("starvation_at_le", "engine.py",
           "starved < sc.starvation_tti", "starved <= sc.starvation_tti",
           (ORDER,)),
    Mutant("rearm_at_le", "engine.py",
           "tti - u.last_adjust_tti < sc.starvation_tti",
           "tti - u.last_adjust_tti <= sc.starvation_tti",
           (ORDER,)),
    Mutant("last_service_off_by_one", "engine.py",
           "winner.sched.last_served_tti = tti\n",
           "winner.sched.last_served_tti = tti + 1\n",
           # RR scores -last_served_tti, which the trace's priority column shows
           (REF + "test_mixed_traffic_with_feedback_delay[RR]",
            "tests/test_engine.py::TestDifferentialFuzz::test_plain_cells")),
    Mutant("queued_ue_sleeps", "engine.py",
           "            elif u.next_arrival_tti > tti + 1:\n",
           "            if u.next_arrival_tti > tti + 1:\n",
           ("tests/test_engine.py::TestStep::test_expiry_behind_a_live_head",
            REF + "test_mixed_traffic_with_feedback_delay[BCQQ]")),
    Mutant("door_without_catch_up", "engine.py",
           "        if self._next_tti > u.synced_tti:\n"
           "            self._catch_up(u, self._next_tti)\n"
           "        self._opened.append(u)\n",
           "        self._opened.append(u)\n",
           (REF + "test_outside_bits_reach_q_as_in_the_dense_loop[2]",
            REF + "test_outside_bits_reach_q_as_in_the_dense_loop[5]",
            REF + "test_door_wakes_a_sleeper_from_the_calendar")),
    # the catch-up one slept TTI short, and one q too many in the pipe
    Mutant("catch_up_skips_a_tti", "engine.py",
           "start = u.synced_tti\n", "start = u.synced_tti + 1\n",
           (REF + "test_idle_cell",
            REF + "test_light_cell_sleeps_across_windows[BCQQ]")),
    Mutant("catch_up_pipe_plus_one", "engine.py",
           "min(until - mid, pipe.maxlen)", "min(until - mid + 1, pipe.maxlen)",
           (REF + "test_mixed_traffic_with_feedback_delay[BCQQ]",
            REF + "test_light_cell_sleeps_across_windows[BCQQ]")),
    # q_now left stale where the buffer's totals or marks move
    Mutant("q_not_recomputed_after_the_drain", "engine.py",
           "            if keep_q:\n"
           "                winner.q_now = q_of(winner.buffer, q_max)\n", "",
           (REF + "test_mixed_traffic_with_feedback_delay[BCQQ]",
            REF + "test_light_cell_sleeps_across_windows[BCQQ]")),
    Mutant("q_not_recomputed_after_an_enqueue", "engine.py",
           "                    if keep_q:\n"
           "                        u.q_now = q_of(buf, q_max)\n", "",
           (REF + "test_mixed_traffic_with_feedback_delay[BCQQ]",
            REF + "test_idle_cell")),
    Mutant("q_not_recomputed_after_the_door", "engine.py",
           "        self._opened.append(u)\n", "",
           (REF + "test_outside_bits_reach_q_as_in_the_dense_loop[2]",
            REF + "test_outside_bits_reach_q_as_in_the_dense_loop[drain-3]",
            SLEPT_CLOSE + "[BCQQ-1]")),
    # the TTIs a sleeper slept before a close fed the q of after it
    Mutant("close_snapshot_after_the_marks_move", "engine.py",
           "            if u.synced_tti < end_tti and u.close_tti is None:\n"
           "                u.close_tti, u.close_q = end_tti, u.q_now\n"
           "            u.q_now = q_of(u.buffer, q_max)\n",
           "            u.q_now = q_of(u.buffer, q_max)\n"
           "            if u.synced_tti < end_tti and u.close_tti is None:\n"
           "                u.close_tti, u.close_q = end_tti, u.q_now\n",
           tuple(SLEPT_CLOSE + f"[BCQQ-{d}]" for d in (1, 7))),
    # the trace's q column reads the pipe, so a traced run keeps q whatever
    # the policy
    Mutant("q_kept_without_the_trace", "engine.py",
           "self._keep_q = self.policy in READS_Q or collect_trace",
           "self._keep_q = self.policy in READS_Q",
           tuple(REF + f"test_mixed_traffic_with_feedback_delay[{p}]"
                 for p in ("MLWDF", "PF", "RR"))),
    Mutant("tie_break_reversed", "scheduler.py",
           "(u.last_served_tti, u.ue_id) < (best.last_served_tti, best.ue_id)",
           "(u.last_served_tti, u.ue_id) > (best.last_served_tti, best.ue_id)",
           (SELECT + "test_tie_broken_by_least_recently_served",
            SELECT + "test_tie_then_lowest_ue_id")),
    Mutant("mlwdf_without_qos_weight", "scheduler.py",
           "return u.qos_weight * u.hol_delay_s * u.rate_bps / u.avg_rate_bps",
           "return u.hol_delay_s * u.rate_bps / u.avg_rate_bps",
           ("tests/test_scheduler.py::TestMlwdfPriority::test_hand_value",)),
    Mutant("budget_rounded", "scheduler.py",
           "int(best.rate_bps * TTI_SECONDS)", "round(best.rate_bps * TTI_SECONDS)",
           (SELECT + "test_budget_truncates_a_partial_bit",)),
    Mutant("walk_floor_at_two", "channel.py",
           "if cqi > CQI_MIN:", "if cqi > CQI_MIN + 1:",
           (CQI_STEP + "test_stationary_distribution_symmetric",)),
    Mutant("rates_normalized_to_cqi_14", "channel.py",
           "/ CQI_EFFICIENCY[-1]", "/ CQI_EFFICIENCY[-2]",
           (RATE_OF + "test_cqi15_is_peak", RATE_OF + "test_cqi1_hand_value",
            RATE_OF + "test_bounds")),
    # a move's index without its chunk's offset, and next_index left on a
    # move already taken
    Mutant("move_index_without_offset", "streams.py",
           "(moves + drawn).tolist()", "moves.tolist()",
           (MOVES, REF + "test_catch_up_spans_cross_cqi_chunks[BCQQ]")),
    # a count's doubles sliced one double early, from the count's last
    # factor; flood_traced's seed-1 smoke run draws every count at lam >= 10,
    # past the replay
    Mutant("size_doubles_one_early", "streams.py",
           "return buf[pos:end]", "return buf[pos - 1:end - 1]",
           ("tests/test_streams.py::test_buffered_stream_matches_generator",
            *(d for d in DIGESTS if "flood_traced-smoke" not in d))),
    Mutant("video_frames_not_clipped", "traffic.py",
           "    if cap is not None and sizes[0] > cap:\n        sizes[0] = cap\n", "",
           ("tests/test_traffic.py::TestPacketSizes::test_video_frame_clamps_at_cap",
            "tests/test_traffic.py::TestVideoArrivals::test_one_frame_per_interval_and_cap")),
    Mutant("no_adjustment_floor", "traffic.py",
           "max(spec.offered_load_bps * factor, floor)", "spec.offered_load_bps * factor",
           ("tests/test_traffic.py::TestAdjustment::test_floor_at_ten_percent",)),
    Mutant("next_index_not_advanced", "streams.py",
           "index[end] if end < len(index)", "index[pos] if pos < len(index)",
           (MOVES,)),
    # at the horizon the stream draws no doubles, and would do so forever
    Mutant("take_draws_at_the_horizon", "streams.py",
           "self._drawn < until:", "self._drawn <= until:",
           (MOVES, "tests/test_streams.py::test_take_past_the_horizon_raises_and_draws_nothing[0]")),
    Mutant("qoe_fi_coefficient", "metrics.py",
           "2 * k - n + 1", "2 * k - n - 1",
           (QOE_FI + "test_all_equal_ratios_zero",)),
    Mutant("qoe_fi_unsorted", "metrics.py",
           "sorted(", "list(",
           (QOE_FI + "test_three_users_hand_sum",)),
    Mutant("qoe_fi_not_doubled", "metrics.py",
           "2.0 * math.fsum(", "math.fsum(",
           (QOE_FI + "test_two_users_hand_sum",)),
    Mutant("jain_n_plus_one", "metrics.py",
           "(len(xs) * s2)", "((len(xs) + 1) * s2)",
           ("tests/test_metrics.py::TestJfi::test_constant_vector_is_one",)),
    Mutant("q_clamped_at_half", "metrics.py",
           "    if raw < 1.0:\n        raw = 1.0\n",
           "    if raw < 0.5:\n        raw = 0.5\n",
           ("tests/test_metrics.py::TestQ::test_idle_user_q_is_one",)),
    Mutant("q_y_floor", "metrics.py",
           "(y if y > 1 else 1)", "(y if y > 2 else 2)",
           ("tests/test_metrics.py::TestQ::test_small_demand_with_at_most_one_bit_delivered[0]",)),
    Mutant("fmt_real_eight_digits", "output.py",
           'else f"{x:.9g}"', 'else f"{x:.8g}"',
           ("tests/test_output_cli.py::TestEmit::test_csv_roundtrip_lossless",
            "tests/test_output_cli.py::TestRowFormats::test_metrics_line_equals_the_cell_join",
            JSON + "test_equals_json_dumps_of_the_rounded_value", *DIGESTS)),
    Mutant("json_real_unrounded", "output.py",
           "return repr(float(fmt_real(x)))", "return repr(x)",
           (JSON + "test_equals_json_dumps_of_the_rounded_value", *DIGESTS)),
    Mutant("record_template_in_field_order", "output.py",
           "sorted(range(len(fields)), key=fields.__getitem__)", "range(len(fields))",
           (JSON + "test_equals_json_dumps_of_the_rounded_value", *DIGESTS)),
    Mutant("json_non_finite_check_dropped", "output.py",
           "    if not abs(x) <= float_info.max:\n"
           "        raise ValueError(f\"Out of range float values are not JSON compliant: {x!r}\")\n",
           "",
           (JSON + "test_non_finite_real_anywhere_raises",
            "tests/test_output_cli.py::TestEmit::test_non_finite_annotation_is_refused")),
    # flood_traced's smoke run writes fewer rows than one chunk
    Mutant("trace_chunk_one_row_short", "output.py",
           "rows[i:i + TRACE_CHUNK]", "rows[i:i + TRACE_CHUNK - 1]",
           ("tests/test_output_cli.py::TestEmit::test_trace_memory_is_bounded_in_rows",
            "tests/test_reference_digests.py::test_outputs_match_the_reference_digests"
            "[flood_traced-full]")),
    # the module docstring names the key too, so the row takes the assignment
    Mutant("spawn_key_swapped", "streams.py",
           "ss = np.random.SeedSequence(entropy=seed, spawn_key=(ue_id, purpose))",
           "ss = np.random.SeedSequence(entropy=seed, spawn_key=(purpose, ue_id))",
           DIGESTS),
)


def outcomes(src: Path, ids: list[str], work: Path) -> dict[str, str] | None:
    """Run the tests ``ids`` on the package in ``src``: each id's outcome,
    "passed", "failed" or "skipped"; an id pytest did not run is missing.
    None when pytest outlasts ``TIMEOUT_S`` and is killed."""
    junit = work / "junit.xml"
    junit.unlink(missing_ok=True)
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        subprocess.run([sys.executable, "-m", "pytest", "-q", "-W", "error", "-p", "no:cacheprovider",
                        "--hypothesis-profile=mutants", f"--rootdir={ROOT}", f"--junitxml={junit}",
                        *(str(ROOT / i) for i in ids)],
                       cwd=work, env=env, stdout=subprocess.DEVNULL, check=False,
                       timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    kinds = {}
    for case in ET.parse(junit).iter("testcase"):
        kinds[case.get("classname"), case.get("name")] = (
            "failed" if case.find("failure") is not None or case.find("error") is not None
            else "skipped" if case.find("skipped") is not None else "passed")
    got = {}
    for i in ids:
        # junit names tests/m.py::C::t as the class "tests.m.C" and the name "t"
        path, *names = i.split("::")
        key = (".".join([path.removesuffix(".py").replace("/", "."), *names[:-1]]), names[-1])
        if key in kinds:
            got[i] = kinds[key]
    return got


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory(prefix="qoesched-mutants-") as tmp:
        tmp = Path(tmp)
        clean = tmp / "clean"
        shutil.copytree(ROOT / "src", clean, ignore=shutil.ignore_patterns("__pycache__"))
        ids = sorted({i for m in MUTANTS for i in m.tests})
        got = outcomes(clean, ids, tmp)
        if got is None:
            problems.append(f"unchanged: the named tests outlasted {TIMEOUT_S} s")
        else:
            problems += [f"unchanged: {i} {got.get(i, 'did not run')}" for i in ids
                         if got.get(i) != "passed"]
        for m in MUTANTS:
            copy = tmp / m.name
            shutil.copytree(clean, copy)
            path = copy / "qoesched" / m.module
            text = path.read_text(encoding="utf-8")
            if (n := text.count(m.old)) != 1:
                problems.append(f"{m.name}: its old text occurs {n} times in {m.module}")
                continue
            path.write_text(text.replace(m.old, m.new), encoding="utf-8")
            got = outcomes(copy, list(m.tests), tmp)
            if got is None:
                print(f"{m.name}: timed out")
                problems.append(f"{m.name}: its tests outlasted {TIMEOUT_S} s")
                continue
            caught = [i for i in m.tests if got.get(i) == "failed"]
            print(f"{m.name}: caught by {len(caught)} of {len(m.tests)} tests")
            problems += [f"{m.name}: {i} {got.get(i, 'did not run')}" for i in m.tests
                         if i not in caught]
    print("\n".join(problems) or f"all {len(MUTANTS)} mutants caught")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
