"""Rolling-horizon dispatch and economic assessment of customer-sited
multi-use battery storage."""

from .aging import SegmentSet, aging_cost_eval
from .domain import (DispatchDecision, EssSpec, MarketSpec, SlotExogenous,
                     SocState, soc_update, validate_inputs)
from .iofiles import load_config, load_timeseries_csv
from .problem import (ProblemInstance, SolveResult, build_problem,
                      recover_service_split)
from .rolling import (ForecastModel, LedgerEntry, SimulationReport,
                      no_ess_baseline, run_simulation)
from .solver import SolverConfig, brute_force_oracle, solve, solve_relaxation

__all__ = [
    "SegmentSet", "aging_cost_eval",
    "DispatchDecision", "EssSpec", "MarketSpec", "SlotExogenous", "SocState",
    "soc_update", "validate_inputs",
    "load_config", "load_timeseries_csv",
    "ProblemInstance", "SolveResult", "build_problem", "recover_service_split",
    "ForecastModel", "LedgerEntry", "SimulationReport", "no_ess_baseline",
    "run_simulation",
    "SolverConfig", "brute_force_oracle", "solve", "solve_relaxation",
]

__version__ = "0.1.0"
