import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import qoesched
from qoesched.engine import AdjustmentEvent, SimReport, UeReport, UeState
from qoesched.metrics import WindowRecord
from qoesched.scheduler import SchedDecision

# built once per run, window, event or TTI and never changed after
RECORDS = (SimReport, UeReport, AdjustmentEvent, WindowRecord, SchedDecision)


def test_every_export_resolves():
    missing = [name for name in qoesched.__all__ if not hasattr(qoesched, name)]
    assert missing == []


def package_classes():
    """Every class defined in a module of the package (``__main__`` runs the CLI)."""
    for info in pkgutil.iter_modules(qoesched.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"qoesched.{info.name}")
        for obj in vars(mod).values():
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                yield obj


def test_dataclasses_have_their_own_docstrings():
    # dataclass writes a missing __doc__ from inspect.signature, which costs
    # about as much at import as the rest of the class's creation
    built = [c for c in package_classes() if dataclasses.is_dataclass(c)]
    assert {c.__name__ for c in built} >= {"Scenario", "FlowSpec"}
    generated = [c.__name__ for c in built
                 if c.__doc__ == c.__name__ + str(inspect.signature(c)).replace(" -> None", "")]
    assert generated == []


@pytest.mark.parametrize("cls", RECORDS + (UeState,), ids=lambda c: c.__name__)
def test_records_and_run_state_are_not_dataclasses(cls):
    # each generated dataclass method is an exec at import
    assert not dataclasses.is_dataclass(cls)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_report_record_fields_cannot_be_assigned(cls):
    rec = cls._make(range(len(cls._fields)))
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, -1)
    assert tuple(rec) == tuple(range(len(cls._fields)))
