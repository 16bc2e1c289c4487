"""Shared pytest plumbing.

Prints a one-line PASS/FAIL verdict per acceptance criterion at the end
of the session, derived from the outcomes of tests named ``test_c<NN>_*``
in test_acceptance.py.
"""
import re
import warnings

# When a property fails, hypothesis's pytest plugin imports its patch writer,
# which imports libcst where that is installed. libcst 1.0 with
# mypy_extensions 1.1 warns "mypy_extensions.TypedDict is deprecated" on
# import, and under ``-W error`` that warning, raised in pytest's report
# hook, ends the whole session. Import the patch writer once here with that
# one warning ignored, so a failing property prints its falsifying example
# and every other test still runs.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated",
                            DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: nothing warns
        pass

_CRITERIA = {
    1: "Jain fairness index unit oracle",
    2: "QoE fairness index unit oracle",
    3: "composite priority hand value and monotonicity",
    4: "bit conservation at every window close, all policies",
    5: "byte-identical outputs for repeated seeded runs",
    6: "mean throughput gain over delay-weighted baseline >= 10%",
    7: "lower QoE unfairness with comparable Jain index",
    8: "delay-weighted baseline reduces to proportional fair",
    9: "selection invariant to uniform QoE rescaling",
    10: "service adjustment lowers overflow and events replay cleanly",
}

_results: dict[int, str] = {}
_PAT = re.compile(r"test_acceptance\.py::.*test_c(\d{2})_")


def pytest_runtest_logreport(report):
    m = _PAT.search(report.nodeid)
    if not m:
        return
    num = int(m.group(1))
    if report.when == "call":
        _results[num] = "PASS" if report.passed else "FAIL"
    elif report.when == "setup" and not report.passed:
        _results[num] = "SKIP" if report.skipped else "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    tr = terminalreporter
    tr.write_sep("=", "acceptance criteria")
    for num in sorted(_CRITERIA):
        verdict = _results.get(num, "NOT RUN")
        tr.write_line(f"criterion {num:2d} [{verdict}] {_CRITERIA[num]}")
