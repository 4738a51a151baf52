"""One driver per symmetric family, each producing a checked ScenarioReport."""

from vortexsym.scenarios.kite import run_kite
from vortexsym.scenarios.rectangle import run_rectangle
from vortexsym.scenarios.report import OracleCheck, RootRecord, ScenarioReport
from vortexsym.scenarios.square import run_square
from vortexsym.scenarios.trapezoid import run_trapezoid

__all__ = [
    "OracleCheck",
    "RootRecord",
    "ScenarioReport",
    "run_kite",
    "run_rectangle",
    "run_square",
    "run_trapezoid",
]
