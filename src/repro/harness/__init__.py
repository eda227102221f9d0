"""System assembly and experiment harness."""

from repro.harness.chaos import ChaosPolicy
from repro.harness.parallel import (
    BACKENDS,
    ExecutionPolicy,
    FabricStats,
    ResultCache,
    SimJob,
    SimJobError,
    SweepJournal,
    default_workers,
    execution_policy,
    last_run_stats,
    run_jobs,
    set_execution_policy,
)
from repro.harness.system import System, build_system

__all__ = [
    "System",
    "build_system",
    "BACKENDS",
    "ChaosPolicy",
    "ExecutionPolicy",
    "FabricStats",
    "ResultCache",
    "SimJob",
    "SimJobError",
    "SweepJournal",
    "default_workers",
    "execution_policy",
    "last_run_stats",
    "run_jobs",
    "set_execution_policy",
]
