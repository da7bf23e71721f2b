"""The out-of-order core: pipeline, rename, scheduling, statistics."""

from .config import ConfigError, CoreConfig, SimConfig
from .dynamic_uop import DynUop, UopState
from .ifbq import InFlightBranchQueue
from .lsq import LoadQueue, StoreQueue
from .pipeline import Pipeline, SimulationError
from .rename import (
    PhysicalRegisterFile,
    RegisterAliasTable,
    ZERO_PREG,
    rename_sources,
)
from .scheduler import Scheduler
from .stats import SimStats
from .tracing import PipelineTracer, UopTrace

__all__ = [
    "ConfigError",
    "CoreConfig",
    "SimConfig",
    "DynUop",
    "UopState",
    "InFlightBranchQueue",
    "LoadQueue",
    "StoreQueue",
    "Pipeline",
    "SimulationError",
    "PhysicalRegisterFile",
    "RegisterAliasTable",
    "ZERO_PREG",
    "rename_sources",
    "Scheduler",
    "SimStats",
    "PipelineTracer",
    "UopTrace",
]
