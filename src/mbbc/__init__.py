"""Round-based simulator, adversary and trace checker for broadcast channels
under mobile Byzantine faults."""

from .checker import PropertyReport, run_property_checks
from .engine import Simulation, Trace, TraceEvent, run
from .model import (
    AgentTrajectory,
    FailureSchedule,
    Segment,
    SettingTriple,
    is_io_correct,
    validate_schedule,
)
from .protocol import ProtocolState, Variant, VariantTag, init_state
from .scenario import Broadcast, InvalidScenario, ScenarioConfig, UnsupportedSetting

__all__ = [
    "AgentTrajectory",
    "Broadcast",
    "FailureSchedule",
    "InvalidScenario",
    "PropertyReport",
    "ProtocolState",
    "ScenarioConfig",
    "Segment",
    "SettingTriple",
    "Simulation",
    "Trace",
    "TraceEvent",
    "UnsupportedSetting",
    "Variant",
    "VariantTag",
    "init_state",
    "is_io_correct",
    "run",
    "run_property_checks",
    "validate_schedule",
]

__version__ = "0.1.0"
