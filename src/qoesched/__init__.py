"""Deterministic single-cell downlink MAC scheduling simulator.

Implements a QoE-assisted scheduler (BCQQ) alongside M-LWDF, proportional
fair, and round-robin baselines, with Jain's fairness index and a
QoE-oriented fairness index computed over configurable windows.
"""
from .buffering import Packet
from .channel import cqi_step, rate_of
from .engine import Scenario, SimReport, Simulation, run
from .metrics import jfi, qoe_fi
from .scenario import parse_scenario, scenario_to_dict
from .scheduler import Policy, SchedDecision, UeSchedInput, select
from .traffic import FlowSpec, TrafficClass, apply_adjustment

__version__ = "0.1.0"

__all__ = [
    "FlowSpec",
    "Packet",
    "Policy",
    "Scenario",
    "SchedDecision",
    "SimReport",
    "Simulation",
    "TrafficClass",
    "UeSchedInput",
    "apply_adjustment",
    "cqi_step",
    "jfi",
    "parse_scenario",
    "qoe_fi",
    "rate_of",
    "run",
    "scenario_to_dict",
    "select",
]
