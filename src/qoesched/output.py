"""Byte-stable result emission and cross-policy comparison.

All files are deterministic for a given (scenario, seed): CSV columns are
fixed, integers are written verbatim and reals with 9 significant digits.
summary.json and comparison.json are written in one pass by ``_json``, which
gives ``json.dumps(indent=2, sort_keys=True, allow_nan=False)``'s text of the
value with each real rounded to those digits as it is written. trace.csv is
formatted and written ``TRACE_CHUNK`` rows at a time, so the memory ``emit``
takes does not grow with the trace.
"""
from __future__ import annotations

import json
from functools import cache
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from sys import float_info
from typing import Any

from .engine import Scenario, SimReport
from .metrics import WindowRecord
from .scenario import scenario_to_dict

TRACE_COLUMNS = (
    "tti,ue,cqi,rate_bps,buffer_bits,q,priority,selected,"
    "tx_bits,dropped_deadline_bits,dropped_overflow_bits"
)
METRICS_COLUMNS = "policy,seed,window,start_tti,end_tti,tx_bits,throughput_bps,jfi,qoe_fi"
# trace.csv rows formatted and written at a time
TRACE_CHUNK = 1024


def fmt_real(x: float | None) -> str:
    """Reals with 9 significant digits, lossless to reparse at this width; None is ""."""
    return "" if x is None else f"{x:.9g}"


def _trace_lines(rows) -> list[str]:
    """trace.csv rows, one ``%`` format each. rate_bps, q and priority are
    floats, written in ``fmt_real``'s format; ``selected`` is 1 or None."""
    return ["%s,%s,%s,%.9g,%s,%.9g,%.9g,%s,%s,%s,%s" % (
        tti, ue, cqi, rate, buffer_bits, q, priority, selected or "", tx, deadline, overflow)
        for tti, ue, cqi, rate, buffer_bits, q, priority, selected, tx, deadline, overflow
        in rows]


def _metrics_line(policy: str, seed: int, w: WindowRecord) -> str:
    """One metrics.csv row."""
    return (f"{policy},{seed},{w.index},{w.start_tti},{w.end_tti},{w.tx_bits},"
            f"{fmt_real(w.throughput_bps)},{fmt_real(w.jfi)},{fmt_real(w.qoe_fi)}")


def _real(x: float) -> str:
    """A real as json writes it once rounded to ``fmt_real``'s digits; a
    non-finite one raises json's ``ValueError``."""
    if not abs(x) <= float_info.max:
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return repr(float(fmt_real(x)))


# the text of a scalar by its exact type; _json takes None, bools and subclasses apart
_SCALAR = {float: _real, int: int.__repr__, str: _quote}


@cache
def _record_template(cls: type, level: int) -> tuple[str, tuple[int, ...]]:
    """A record type's JSON object at nesting ``level``: a ``%`` template of
    its fields in sorted order, and the positions of those fields."""
    fields = cls._fields
    order = tuple(sorted(range(len(fields)), key=fields.__getitem__))
    if not order:
        return "{}", ()
    inner = "\n" + "  " * (level + 1)
    items = ("," + inner).join(f"{_quote(fields[i])}: %s" for i in order)
    return "{" + inner + items + inner[:-2] + "}", order


def _json(obj: Any, level: int = 0) -> str:
    """``obj`` as ``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)``
    writes it at nesting ``level``, each real rounded to ``fmt_real``'s digits.
    Dict keys are strings. A report record (a NamedTuple) is an object of its
    fields, written through its type's ``_record_template``."""
    write = _SCALAR.get(type(obj))
    if write is not None:
        return write(obj)
    if obj is None or type(obj) is bool:
        return "null" if obj is None else "true" if obj else "false"
    inner = "\n" + "  " * (level + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{_quote(k)}: {_json(obj[k], level + 1)}" for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + inner[:-2] + "}"
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):
        template, order = _record_template(type(obj), level)
        # a plain int is written as ``%s`` writes it
        return template % tuple([v if type(v) is int else _json(v, level + 1)
                                 for v in map(obj.__getitem__, order)])
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_json(v, level + 1) for v in obj]
        return "[" + inner + ("," + inner).join(items) + inner[:-2] + "]"
    for cls, write in _SCALAR.items():
        if isinstance(obj, cls):
            return write(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _dump_json(obj: Any, path: Path) -> None:
    path.write_text(_json(obj) + "\n", encoding="utf-8")


def run_to_dict(report: SimReport) -> dict:
    """A run's summary.json entry: every report field but the windows, which
    metrics.csv holds, and the trace."""
    return {k: v for k, v in report._asdict().items() if k not in ("windows", "trace_rows")}


def emit(reports: list[SimReport], scenario: Scenario, out_dir: str | Path,
         trace: bool = False) -> list[Path]:
    """Write summary.json, metrics.csv, and optional per-run traces.

    A single traced run writes trace.csv; multiple traced runs write
    trace_<policy>_<seed>.csv each.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    summary = {
        "scenario": scenario_to_dict(scenario),
        "runs": [run_to_dict(r) for r in reports],
    }
    summary_path = out / "summary.json"
    _dump_json(summary, summary_path)
    written.append(summary_path)

    lines = [METRICS_COLUMNS]
    lines.extend(_metrics_line(r.policy, r.seed, w) for r in reports for w in r.windows)
    metrics_path = out / "metrics.csv"
    metrics_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written.append(metrics_path)

    if trace:
        traced = [r for r in reports if r.trace_rows is not None]
        for r in traced:
            name = "trace.csv" if len(traced) == 1 else f"trace_{r.policy}_{r.seed}.csv"
            p = out / name
            rows = r.trace_rows
            with p.open("w", encoding="utf-8") as f:
                f.write(TRACE_COLUMNS + "\n")
                for i in range(0, len(rows), TRACE_CHUNK):
                    f.write("\n".join(_trace_lines(rows[i:i + TRACE_CHUNK])) + "\n")
            written.append(p)
    return written


class CompareError(ValueError):
    pass


# the run figures ``compare`` reads, each with its name in a per-seed row
_FIGURES = {"total_throughput_bps": "throughput_bps", "jfi": "jfi", "qoe_fi": "qoe_fi"}
# the keys ``compare`` reads from each run: the types it needs, and their name
_REAL = ((int, float, type(None)), "a number or null")
_RUN_KEYS = {"policy": ((str,), "a string"), "seed": ((int,), "an integer"),
             "total_throughput_bps": ((int, float), "a number"), "jfi": _REAL, "qoe_fi": _REAL}


def _non_finite(name: str):
    raise ValueError(f"non-finite number {name}")


def _load_summary(path: Path) -> dict:
    """One summary.json, with the keys ``compare`` reads checked: a malformed
    file raises ``CompareError`` naming the path and the key."""
    try:
        summary = json.loads(path.read_text(encoding="utf-8"), parse_constant=_non_finite)
    except ValueError as e:
        raise CompareError(f"{path}: not a strict JSON file: {e}") from None
    if not isinstance(summary, dict):
        raise CompareError(f"{path}: must be a JSON object")
    if not isinstance(summary.get("scenario"), dict):
        raise CompareError(f"{path}: key 'scenario' must be an object")
    if not isinstance(summary.get("runs"), list):
        raise CompareError(f"{path}: key 'runs' must be a list")
    for i, run in enumerate(summary["runs"]):
        if not isinstance(run, dict):
            raise CompareError(f"{path}: runs[{i}] must be an object")
        for key, (types, name) in _RUN_KEYS.items():
            if key not in run:
                raise CompareError(f"{path}: runs[{i}]: key '{key}' is missing")
            v = run[key]
            if isinstance(v, bool) or not isinstance(v, types):
                raise CompareError(f"{path}: runs[{i}]: key '{key}' must be {name}")
            # json.loads reads 1e400 as inf, and a 400-digit integer exactly
            if key in _FIGURES and v is not None and not abs(v) <= float_info.max:
                raise CompareError(f"{path}: runs[{i}]: key '{key}' must be finite, got {v}")
    return summary


def load_summaries(in_dir: str | Path) -> list[dict]:
    paths = sorted(Path(in_dir).glob("**/summary.json"))
    if not paths:
        raise CompareError(f"no summary.json found under {in_dir}")
    return [_load_summary(p) for p in paths]


def compare(summaries: list[dict]) -> dict:
    """Compare policies run on the identical scenario.

    Emits per-seed and mean-over-seeds throughput ratios and fairness
    indices, plus flags for BCQQ beating MLWDF on throughput and on the
    QoE fairness index (lower is better). A throughput ratio is left out
    where MLWDF's throughput is 0. A (policy, seed) pair that two runs
    give is an error.
    """
    # per-run seed/policy overrides are not scenario mismatches
    scenarios = [{k: v for k, v in s["scenario"].items() if k not in ("seed", "policy")}
                 for s in summaries]
    if any(sc != scenarios[0] for sc in scenarios[1:]):
        raise CompareError("summaries come from mismatched scenarios")

    by_policy: dict[str, dict[int, dict]] = {}
    for s in summaries:
        for run in s["runs"]:
            runs = by_policy.setdefault(run["policy"], {})
            if run["seed"] in runs:
                raise CompareError(f"{run['policy']} seed {run['seed']} is given by two runs")
            runs[run["seed"]] = run
    if len(by_policy) < 2:
        raise CompareError("compare requires at least two policies")

    policies = sorted(by_policy)
    seeds = sorted(set.intersection(*(set(v) for v in by_policy.values())))
    if not seeds:
        raise CompareError("no common seeds across policies")

    def mean(xs):
        xs = [x for x in xs if x is not None]
        return sum(xs) / len(xs) if xs else None

    def vs_mlwdf(values: dict) -> dict | None:
        """Each policy's value over MLWDF's; None where MLWDF is missing or 0."""
        ref = values.get("MLWDF")
        return {p: v / ref for p, v in values.items()} if ref else None

    policy_stats = {p: {f"mean_{k}": mean([by_policy[p][s][k] for s in seeds]) for k in _FIGURES}
                    for p in policies}
    result = {"policies": policy_stats, "seeds": seeds, "per_seed": []}
    for s in seeds:
        row = {name: {p: by_policy[p][s][k] for p in policies} for k, name in _FIGURES.items()}
        row["seed"] = s
        if ratio := vs_mlwdf(row["throughput_bps"]):
            row["throughput_ratio_vs_mlwdf"] = ratio
        result["per_seed"].append(row)
    if ratio := vs_mlwdf({p: st["mean_total_throughput_bps"] for p, st in policy_stats.items()}):
        result["mean_throughput_ratio_vs_mlwdf"] = ratio

    flags = {"bcqq_throughput_exceeds_mlwdf": False, "bcqq_qoefi_below_mlwdf": False}
    if "BCQQ" in by_policy and "MLWDF" in by_policy:
        b, m = policy_stats["BCQQ"], policy_stats["MLWDF"]
        flags["bcqq_throughput_exceeds_mlwdf"] = (
            b["mean_total_throughput_bps"] > m["mean_total_throughput_bps"]
        )
        if b["mean_qoe_fi"] is not None and m["mean_qoe_fi"] is not None:
            flags["bcqq_qoefi_below_mlwdf"] = b["mean_qoe_fi"] < m["mean_qoe_fi"]
    result["flags"] = flags
    return result


def comparison_table(result: dict) -> str:
    lines = [
        f"{'policy':<8} {'mean tput (Mbps)':>18} {'mean JFI':>10} {'mean QoE_FI':>12}"
    ]
    for p, st in sorted(result["policies"].items()):
        tput = st["mean_total_throughput_bps"] / 1e6
        jfi_s = fmt_real(st["mean_jfi"]) or "-"
        fi_s = fmt_real(st["mean_qoe_fi"]) or "-"
        lines.append(f"{p:<8} {tput:>18.3f} {jfi_s:>10} {fi_s:>12}")
    ratios = result.get("mean_throughput_ratio_vs_mlwdf")
    if ratios:
        lines.append("throughput ratio vs MLWDF: " + ", ".join(
            f"{p}={fmt_real(v)}" for p, v in sorted(ratios.items())
        ))
    for k, v in result["flags"].items():
        lines.append(f"{k}: {v}")
    return "\n".join(lines)


def write_comparison(result: dict, out_dir: str | Path) -> Path:
    p = Path(out_dir) / "comparison.json"
    _dump_json(result, p)
    return p
