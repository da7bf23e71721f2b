"""Static program analysis over assembled :class:`~repro.isa.Program`s.

The subsystem mirrors, offline and conservatively, what the TEA thread
discovers dynamically at run time:

* :mod:`repro.analysis.cfg` — an explicit control-flow graph over the
  program's basic blocks (successors via branch targets/fallthrough,
  conservative edges for indirect control flow, reachability from the
  entry PC).
* :mod:`repro.analysis.dataflow` — iterative dataflow to fixpoint:
  reaching definitions, liveness, per-use def-use chains, and a
  conservative may-alias treatment of memory ops keyed on
  base-register + offset (comparable only within one basic block
  while the base register keeps its value).
* :mod:`repro.analysis.lint` — a workload linter (undefined-register
  reads, unreachable blocks, fall-through off the end of the image,
  dead stores, self-jump infinite loops); every registered workload
  must be lint-clean (``repro lint --all``).
* :mod:`repro.analysis.chains` — the one static-chain tool: each
  conditional branch's backward slice as a static chain (PCs and
  per-block bit-masks in the TEA Block Cache's shape, live-ins, depth,
  latency), a three-way branch classification (trivially-predictable /
  chainable / unchainable) exported as a ``TeaConfig.branch_mask``
  allow mask, the runtime oracle that judges every dynamic Backward
  Dataflow Walk against its static chain (soundness findings and
  recall, over the ``walk_done`` firehose), and a static timeliness
  cost model reconciled against measured lead times (``repro chains``).
* :mod:`repro.analysis.arch_lint` — AST-based architecture-layering
  lint over the Python source tree itself (import DAG
  ``isa -> core/frontend -> tea -> harness/obs -> __main__``).
"""

from .cfg import CFG, build_cfg
from .chains import (
    ChainBudgets,
    ChainUnsound,
    ProgramChains,
    StaticChain,
    analyze_chains,
)
from .dataflow import DataflowResult, MemLoc, analyze_dataflow
from .lint import Finding, LintReport, lint_program

__all__ = [
    "CFG",
    "build_cfg",
    "DataflowResult",
    "MemLoc",
    "analyze_dataflow",
    "Finding",
    "LintReport",
    "lint_program",
    "ChainBudgets",
    "ChainUnsound",
    "ProgramChains",
    "StaticChain",
    "analyze_chains",
]
