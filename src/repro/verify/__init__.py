"""Runtime verification: invariants, fault injection, degradation proof.

Three cooperating layers (see HACKING.md "Invariants & fault
injection"):

* :mod:`repro.verify.invariants` — a sample-able checker auditing
  structural pipeline invariants every N cycles
  (``SimConfig.check_invariants``), raising :class:`InvariantViolation`
  on the first illegal state;
* :mod:`repro.verify.faults` — deterministic seeded fault injection
  (:class:`FaultPlan` via ``SimConfig.fault_plan``) that corrupts live
  microarchitectural state mid-run;
* :mod:`repro.verify.campaign` — the `repro inject` campaign proving
  that injected faults are either detected or architecturally benign
  (the paper's precomputation-is-only-a-hint fail-safe).

:mod:`repro.verify.diagnostics` is the shared machine-state dump used
by the watchdog's ``SimulationError``, ``InvariantViolation``, and the
harness's ``ValidationError`` fault attribution.
"""

from .diagnostics import fault_context, progress_diagnostics
from .faults import (
    FAULT_KINDS,
    SAFE_KINDS,
    FaultInjector,
    FaultKind,
    FaultPlan,
)
from .invariants import InvariantChecker, InvariantViolation
from .campaign import DEFAULT_WORKLOADS, run_fault_campaign

__all__ = [
    "DEFAULT_WORKLOADS",
    "FAULT_KINDS",
    "SAFE_KINDS",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "InvariantChecker",
    "InvariantViolation",
    "fault_context",
    "progress_diagnostics",
    "run_fault_campaign",
]
