"""Command-line front end: run policy/seed sweeps and compare results.

Exit codes: 0 success, 1 validation error, 2 I/O error.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import engine, output
from .scenario import ScenarioSyntaxError, ScenarioValidationError, parse_scenario
from .scheduler import Policy

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


def _distinct(flag: str, items: list) -> list:
    """``items``, if there is one and none repeats: a repeat runs a run twice."""
    if not items:
        raise ScenarioValidationError(f"--{flag}: need at least one {flag}")
    for i, item in enumerate(items):
        if item in items[:i]:
            raise ScenarioValidationError(
                f"--{flag}: {getattr(item, 'value', item)} is listed more than once")
    return items


def _parse_policies(text: str) -> list[Policy]:
    try:
        policies = [Policy(p.strip()) for p in text.split(",") if p.strip()]
    except ValueError as e:
        raise ScenarioValidationError(
            f"--policy: {e}; valid values are {[p.value for p in Policy]}"
        ) from None
    return _distinct("policy", policies)


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise ScenarioValidationError("--seed: must be a comma-separated integer list") from None
    return _distinct("seed", seeds)


def _override(scenario: engine.Scenario, flag: str, **change) -> engine.Scenario:
    """``scenario`` with a field set from ``--flag``: the Scenario invariants
    check the value, and a refusal names the flag."""
    try:
        return dataclasses.replace(scenario, **change)
    except ValueError as e:
        raise ScenarioValidationError(f"{e} (from --{flag})") from None


def cmd_run(args) -> int:
    try:
        text = Path(args.scenario).read_text(encoding="utf-8")
    except OSError as e:
        print(f"error: cannot read scenario: {e}", file=sys.stderr)
        return EXIT_IO
    scenario = parse_scenario(text)

    if args.duration_ms is not None:
        scenario = _override(scenario, "duration-ms", duration_tti=args.duration_ms)
    if args.window_ms is not None:
        scenario = _override(scenario, "window-ms", window_tti=args.window_ms)

    policies = _parse_policies(args.policy) if args.policy is not None else [scenario.policy]
    seeds = _parse_seeds(args.seed) if args.seed is not None else [scenario.seed]

    seeded = [_override(scenario, "seed", seed=s) for s in seeds]
    reports = [
        engine.run(sc, policy=p, collect_trace=args.trace)
        for p in policies
        for sc in seeded
    ]
    try:
        written = output.emit(reports, scenario, args.out, trace=args.trace)
    except OSError as e:
        print(f"error: cannot write to {args.out}: {e}", file=sys.stderr)
        return EXIT_IO
    for r in reports:
        print(
            f"{r.policy} seed={r.seed}: throughput "
            f"{r.total_throughput_bps / 1e6:.3f} Mbps, "
            f"jfi={output.fmt_real(r.jfi) or '-'}, "
            f"qoe_fi={output.fmt_real(r.qoe_fi) or '-'}"
        )
    for p in written:
        print(f"wrote {p}")
    return EXIT_OK


def cmd_compare(args) -> int:
    try:
        summaries = output.load_summaries(args.in_dir)
    except OSError as e:
        print(f"error: cannot read {args.in_dir}: {e}", file=sys.stderr)
        return EXIT_IO
    result = output.compare(summaries)
    print(output.comparison_table(result))
    try:
        p = output.write_comparison(result, args.in_dir)
    except OSError as e:
        print(f"error: cannot write comparison: {e}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {p}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qoesched",
        description="Deterministic single-cell downlink MAC scheduling simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario over policies and seeds")
    run_p.add_argument("--scenario", required=True, help="scenario JSON file")
    run_p.add_argument("--policy", help="comma-separated policies (BCQQ,MLWDF,PF,RR)")
    run_p.add_argument("--seed", help="comma-separated seed list")
    run_p.add_argument("--duration-ms", type=int, help="override duration in ms (= TTIs)")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--trace", action="store_true", help="emit per-TTI trace CSV")
    run_p.add_argument("--window-ms", type=int, help="metrics window length in ms")
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare", help="compare policies from emitted summaries")
    cmp_p.add_argument("--in", dest="in_dir", required=True, help="directory with summary.json")
    cmp_p.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioSyntaxError, ScenarioValidationError, output.CompareError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
