"""The outputs the benchmark pins, rebuilt in tier-1: each workload of
``perfbench/workloads.py`` at its default seed, full and smoke size, is run
with ``Simulation.run`` and written by ``output.emit``, and the SHA-256 of
every file written must equal ``perfbench/reference.json``'s. A model change
that the engine and the dense reference share shows here."""
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from qoesched import output
from qoesched.engine import Simulation
from qoesched.scenario import parse_scenario

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # a dataclass resolves its annotations through its module's sys.modules entry
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


def test_every_workload_has_reference_digests():
    assert set(REFERENCE) == set(workloads.GENERATORS)


@pytest.mark.parametrize("size", ["full", "smoke"])
@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_outputs_match_the_reference_digests(name, size, tmp_path):
    wl = workloads.build(name, workloads.DEFAULT_SEED, size == "smoke", ROOT)
    sc = parse_scenario(wl.scenario_json)
    reports = [Simulation(sc, policy=p, collect_trace=wl.collect_trace).run()
               for p in wl.policies]
    written = output.emit(reports, sc, tmp_path, trace=wl.collect_trace)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written}
    assert digests == REFERENCE[name][size]
