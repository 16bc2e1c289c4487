"""The benchmark's tracer wraps package functions by name: a rename in the
package must not silently drop a layer's calls and time into the engine's."""
import importlib.util
from pathlib import Path

from qoesched import engine, output

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# hooks of functions and classes that are gone; the list may shrink, never grow
STALE = {
    "engine.update_avg_rate", "engine.jfi", "engine.qoe_fi",
    "QoeState.update_requirement", "QoeState.record_delivered", "QoeState.q_of",
    "QoeState.satisfaction", "QoeState.reset_window",
    "MetricsWindow.record_arrival", "MetricsWindow.record_delivery",
    "MetricsWindow.record_drops",
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_hook_goes_missing():
    tracer = load_tracer().Tracer(engine, output)  # built, not installed
    assert set(tracer.missing) <= STALE
