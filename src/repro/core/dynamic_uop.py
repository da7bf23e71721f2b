"""Dynamic (in-flight) uop state.

A :class:`DynUop` is created when the main thread (or the TEA thread)
fetches a uop out of an FTQ block
(:class:`~repro.frontend.decoupled.FetchBlock`), and only then: the
block is a run of sequential uops, and the uop at offset ``k`` becomes
``DynUop(first_seq + k, <instruction at start_pc + 4k>, <its
BranchInfo, for a branch>)``.  Its ``seq`` is the FTQ-assigned sequence
number — shared between a TEA uop and its main-thread counterpart,
which is exactly the paper's synchronized timestamp.
"""

from __future__ import annotations

import enum

from ..frontend.decoupled import BranchInfo
from ..isa import Instruction


class UopState(enum.IntEnum):
    """Lifecycle of a dynamic uop through the pipeline."""

    FETCHED = 0
    RENAMED = 1      # in a reservation station, waiting for operands
    EXECUTING = 2
    DONE = 3
    RETIRED = 4
    SQUASHED = 5


class DynUop:
    """One in-flight instruction instance (main or TEA thread)."""

    __slots__ = (
        "seq",
        "instr",
        "branch",
        "is_tea",
        "state",
        "dst_preg",
        "old_dst_preg",
        "src_pregs",
        "result",
        "mem_addr",
        "store_value",
        "fetch_cycle",
        "rename_ready_cycle",
        "rename_cycle",
        "done_cycle",
        "mispredicted",
        "in_chain",
        "load_forwarded",
        "br_taken",
        "br_target",
        "pending_srcs",
        "rs_stamp",
        "fwd_status",
        "fwd_value",
    )

    def __init__(
        self,
        seq: int,
        instr: Instruction,
        branch: BranchInfo | None = None,
        is_tea: bool = False,
    ):
        self.seq = seq
        self.instr = instr
        self.branch = branch
        self.is_tea = is_tea
        self.state = UopState.FETCHED
        self.dst_preg: int | None = None
        self.old_dst_preg: int | None = None
        self.src_pregs: tuple[int, ...] = ()
        self.result: int | float | None = None
        self.mem_addr: int | None = None
        self.store_value: int | float | None = None
        self.fetch_cycle = -1
        self.rename_ready_cycle = -1
        self.rename_cycle = -1
        self.done_cycle = -1
        self.mispredicted = False
        self.in_chain = False        # fetched by the TEA thread (bit-mask hit)
        self.load_forwarded = False
        self.br_taken: bool | None = None      # resolved direction
        self.br_target: int | None = None      # resolved next PC if taken
        # Scheduler bookkeeping (event-driven wakeup).
        self.pending_srcs = 0        # outstanding not-ready sources
        self.rs_stamp = 0            # RS insertion order (select priority)
        # Store-forward verdict cached by the issue gate; consumed by
        # _start_execution in the same cycle.
        self.fwd_status: str | None = None
        self.fwd_value: int | float | None = None

    @property
    def squashed(self) -> bool:
        return self.state is UopState.SQUASHED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = "tea" if self.is_tea else "main"
        return f"<DynUop {tag} seq={self.seq} {self.instr} {self.state.name}>"
