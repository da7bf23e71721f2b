"""Decoupled branch-prediction unit and fetch target queue (FTQ).

The decoupled BP runs ahead of fetch, producing one *fetch block* per
cycle: up to one predicted-taken branch or 32 sequential instructions
(128 bytes), matching the paper's §III-B/IV-A.  Blocks are pushed into
the main-thread FTQ (128 entries) and mirrored into a shadow FTQ for
the TEA thread, which consumes the *same* block objects — this is how
both threads see identical branch IDs ("synchronized timestamps").

Every dynamic uop receives a monotonically increasing sequence number
at prediction time; a branch's sequence number *is* its timestamp.  A
misprediction flush truncates the FTQ at the branch's timestamp,
restores the predictor's speculative state from the snapshot captured
when the branch was predicted, re-applies the branch's actual outcome,
and resumes prediction at the correct target.

Most predicted uops are never fetched: the predictor runs far ahead
and a flush throws the rest away.  So prediction costs per predicted
*branch*, not per predicted uop.  A :class:`FetchBlock` is a run
(start PC, first sequence number, count) plus one :class:`BranchInfo`
per branch in it; the predictor steps over each straight-line stretch
at once (:attr:`~repro.isa.Program.plain_runs`), and a consumer builds
a uop's dynamic state only when it fetches it, by offset into the run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..isa import INSTRUCTION_BYTES, Instruction, Program, UopClass
from .btb import Btb, BtbConfig
from .history import HistoryState
from .ittage import Ittage, IttageConfig, IttagePrediction
from .ras import ReturnAddressStack
from .tagescl import TageScl, TageSclConfig
from .tage import TagePrediction

_BR_COND = UopClass.BR_COND
_BR_JUMP = UopClass.BR_JUMP
_BR_CALL = UopClass.BR_CALL
_BR_RET = UopClass.BR_RET
_BR_IND = UopClass.BR_IND
_HALT = UopClass.HALT


@dataclass(frozen=True)
class FrontendConfig:
    """Decoupled-frontend parameters (paper Table I)."""

    tagescl: TageSclConfig = field(default_factory=TageSclConfig)
    ittage: IttageConfig = field(default_factory=IttageConfig)
    btb: BtbConfig = field(default_factory=BtbConfig)
    ras_depth: int = 32
    max_block_uops: int = 32       # 128B / 4B
    ftq_capacity: int = 128        # fetch addresses buffered for fetch
    # Conditional direction predictor: "tagescl" (paper baseline),
    # "perceptron", or "gshare" (comparison points).
    conditional_predictor: str = "tagescl"


class BranchInfo:
    """The one record of a predicted branch.

    It holds the prediction, the predictor state to recover to if the
    branch mispredicts (the global history registers, the RAS top and
    the loop predictor's speculative counts, all as they were just
    before the prediction), and — for a branch that can mispredict —
    its in-flight branch queue state (:mod:`repro.core.ifbq`): whether
    and where main rename checkpointed the RAT, what the TEA thread
    precomputed, and whether the main thread has resolved it.
    """

    __slots__ = (
        "seq",
        "pc",
        "uop_class",
        "predicted_taken",
        "predicted_target",
        "fallthrough",
        "can_mispredict",
        "tage_pred",
        "ittage_pred",
        "override_used",   # a precomputed outcome replaced TAGE
        # Recovery state.
        "ghr",
        "path",
        "folds",
        "ras_top",
        "loop_counts",
        # In-flight branch queue state.
        "renamed",
        "rat_checkpoint",
        "tea_resolved",
        "tea_taken",
        "tea_target",
        "tea_resolve_cycle",
        "tea_flush_issued",
        "main_resolved",
    )

    def __init__(
        self,
        seq: int,
        pc: int,
        uop_class: UopClass,
        predicted_taken: bool,
        predicted_target: int,
        fallthrough: int,
        can_mispredict: bool = False,
        tage_pred: TagePrediction | None = None,
        ittage_pred: IttagePrediction | None = None,
        override_used: bool = False,
        ghr: int = 0,
        path: int = 0,
        folds: int = 0,
        ras_top: object = None,
        loop_counts: object = None,
    ):
        self.seq = seq
        self.pc = pc
        self.uop_class = uop_class
        self.predicted_taken = predicted_taken
        self.predicted_target = predicted_target
        self.fallthrough = fallthrough
        self.can_mispredict = can_mispredict
        self.tage_pred = tage_pred
        self.ittage_pred = ittage_pred
        self.override_used = override_used
        self.ghr = ghr
        self.path = path
        self.folds = folds
        self.ras_top = ras_top
        self.loop_counts = loop_counts
        self.renamed = False
        self.rat_checkpoint: tuple[int, ...] | None = None
        self.tea_resolved = False
        self.tea_taken: bool | None = None
        self.tea_target: int | None = None
        self.tea_resolve_cycle = -1
        self.tea_flush_issued = False
        self.main_resolved = False

    @property
    def predicted_next_pc(self) -> int:
        return self.predicted_target if self.predicted_taken else self.fallthrough

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BranchInfo seq={self.seq} pc={self.pc:#x} "
            f"{self.uop_class.name} next={self.predicted_next_pc:#x}>"
        )


class FetchBlock:
    """One FTQ entry: a run of sequential uops.

    The uop at offset ``k`` (``0 <= k < count``) is the instruction at
    ``start_pc + 4k`` with sequence number ``first_seq + k``;
    ``branches`` holds the :class:`BranchInfo` of every branch in the
    run, oldest first.  A flush truncates the run by lowering
    ``count``.
    """

    __slots__ = ("start_pc", "first_seq", "count", "next_fetch_pc", "branches")

    def __init__(
        self,
        start_pc: int,
        first_seq: int,
        count: int,
        next_fetch_pc: int | None,
        branches: list[BranchInfo] | tuple[()] = (),
    ):
        self.start_pc = start_pc
        self.first_seq = first_seq
        self.count = count
        self.next_fetch_pc = next_fetch_pc
        self.branches = branches

    @property
    def last_seq(self) -> int:
        return self.first_seq + self.count - 1

    def branch_at(self, seq: int) -> BranchInfo | None:
        """The branch with sequence number ``seq`` (None if no branch)."""
        for branch in self.branches:
            if branch.seq == seq:
                return branch
        return None

    def truncate_after(self, seq: int) -> None:
        """Drop uops younger than ``seq`` (flush support)."""
        keep = max(0, seq - self.first_seq + 1)
        if keep < self.count:
            self.count = keep
            self.branches = [b for b in self.branches if b.seq <= seq]


class DecoupledFrontend:
    """Branch predictor + FTQ producer for both threads."""

    def __init__(self, program: Program, config: FrontendConfig | None = None):
        self.program = program
        self.config = config or FrontendConfig()
        self.history = HistoryState()
        self.cond = self._build_conditional_predictor()
        self.indirect = Ittage(self.config.ittage, self.history)
        self.btb = Btb(self.config.btb)
        self.ras = ReturnAddressStack(self.config.ras_depth)
        self.ftq: deque[FetchBlock] = deque()
        self.shadow_ftq: deque[FetchBlock] = deque()
        self.next_pc: int | None = program.entry_pc
        self._seq = 0
        self.blocks_produced = 0
        self.stall_cycles = 0
        # Optional fetch-time direction override (Branch Runahead):
        # called with the branch PC; a non-None return replaces the
        # TAGE-SC-L direction and consumes one precomputed outcome.
        self.direction_override = None
        # Observability: shares the pipeline's repro.obs EventBus.
        self.obs = None

    def _build_conditional_predictor(self):
        kind = self.config.conditional_predictor
        if kind == "tagescl":
            return TageScl(self.config.tagescl, self.history)
        if kind == "perceptron":
            from .alternatives import HashedPerceptron

            return HashedPerceptron(history=self.history)
        if kind == "gshare":
            from .alternatives import Gshare

            return Gshare(history=self.history)
        raise ValueError(f"unknown conditional predictor {kind!r}")

    # ------------------------------------------------------------------
    @property
    def current_seq(self) -> int:
        """The next sequence number to be assigned."""
        return self._seq

    def ftq_full(self) -> bool:
        return len(self.ftq) >= self.config.ftq_capacity

    def stalled(self) -> bool:
        return self.next_pc is None

    def tick(self) -> FetchBlock | None:
        """Produce at most one fetch block per cycle."""
        if self.next_pc is None or len(self.ftq) >= self.config.ftq_capacity:
            self.stall_cycles += 1
            return None
        block = self._generate_block()
        if block is None:
            self.stall_cycles += 1
            return None
        self.ftq.append(block)
        self.shadow_ftq.append(block)
        self.blocks_produced += 1
        return block

    # ------------------------------------------------------------------
    def _generate_block(self) -> FetchBlock | None:
        """Predict one fetch block from ``next_pc``.

        A straight-line stretch costs one step (its length comes from
        the program's plain-run table); only branches are predicted
        one by one.
        """
        start_pc = pc = self.next_pc
        first_seq = seq = self._seq
        room = self.config.max_block_uops
        plain_runs = self.program.plain_runs
        instructions = self.program._by_pc  # skip the wrapper frame
        branches = ()
        next_fetch: int | None = None
        while True:
            run = plain_runs.get(pc)
            if run is None:
                # Predicted off the instruction image (wrong path, or
                # fell past the end); stall until a flush redirects us.
                break
            if run:
                if run >= room:
                    seq += room
                    next_fetch = pc + room * INSTRUCTION_BYTES
                    break
                seq += run
                room -= run
                pc += run * INSTRUCTION_BYTES
                continue
            instr = instructions[pc]
            seq += 1
            room -= 1
            if instr.uop_class is _HALT:
                break
            branch = self._predict_branch(instr, seq - 1)
            if branches:
                branches.append(branch)
            else:
                branches = [branch]
            if branch.predicted_taken:
                next_fetch = branch.predicted_target
                break
            pc += INSTRUCTION_BYTES
            if not room:
                next_fetch = pc
                break
        self._seq = seq
        self.next_pc = next_fetch
        if seq == first_seq:
            return None
        return FetchBlock(start_pc, first_seq, seq - first_seq, next_fetch, branches)

    def _predict_branch(self, instr: Instruction, seq: int) -> BranchInfo:
        cls = instr.uop_class
        pc = instr.pc
        history = self.history

        # Direct jumps and calls cannot mispredict, so they are never a
        # flush target and need no recovery state.
        if cls is _BR_JUMP:
            history.push_target(pc, instr.target)
            return BranchInfo(
                seq, pc, cls, True, instr.target, instr.fallthrough_pc
            )
        if cls is _BR_CALL:
            self.ras.push(instr.fallthrough_pc)
            history.push_target(pc, instr.target)
            return BranchInfo(
                seq, pc, cls, True, instr.target, instr.fallthrough_pc
            )

        ghr = history.ghr
        path = history.path
        folds = history.folds
        ras_top = self.ras.top
        loop_counts = self.cond.snapshot_spec_state()
        fallthrough = instr.fallthrough_pc

        if cls is _BR_RET:
            target = self.ras.pop()
            predicted = target if target is not None else fallthrough
            history.push_target(pc, predicted)
            return BranchInfo(
                seq, pc, cls, True, predicted, fallthrough, True, None, None,
                False, ghr, path, folds, ras_top, loop_counts,
            )
        if cls is _BR_IND:
            ipred = self.indirect.predict(pc)
            btb_target = self.btb.lookup(pc)
            target = ipred.target if ipred.target is not None else btb_target
            predicted = target if target is not None else fallthrough
            if instr.dst is not None:  # callr pushes the return address
                self.ras.push(fallthrough)
            history.push_target(pc, predicted)
            return BranchInfo(
                seq, pc, cls, True, predicted, fallthrough, True, None, ipred,
                False, ghr, path, folds, ras_top, loop_counts,
            )
        # Conditional branch.
        target = instr.target
        cond = self.cond
        tpred = cond.predict(pc, target < pc)
        taken = cond.predicted_taken(tpred)
        override_used = False
        if self.direction_override is not None:
            override = self.direction_override(pc)
            if override is not None:
                taken = override
                override_used = True
        if self.btb.lookup(pc) is None:
            # The frontend cannot redirect without a BTB target; the
            # prediction degrades to fallthrough until the BTB trains.
            taken = False
        history.push_conditional(taken)
        return BranchInfo(
            seq, pc, cls, taken, target, fallthrough, True, tpred, None,
            override_used, ghr, path, folds, ras_top, loop_counts,
        )

    # ------------------------------------------------------------------
    def flush_at(self, branch: BranchInfo, actual_taken: bool, actual_target: int) -> None:
        """Recover the predictor after a misprediction at ``branch``.

        Restores speculative state to just before the branch was
        predicted, re-applies its now-known outcome, truncates both
        FTQs, and resumes prediction at the correct next PC.
        """
        self._truncate_ftqs(branch.seq)
        history = self.history
        history.ghr = branch.ghr
        history.path = branch.path
        history.folds = branch.folds
        self.ras.top = branch.ras_top
        self.cond.restore_spec_state(branch.loop_counts)
        self._apply_outcome(branch, actual_taken, actual_target)
        self.next_pc = actual_target if actual_taken else branch.fallthrough
        if self.obs is not None:
            self.obs.emit(
                "frontend_redirect",
                pc=branch.pc,
                seq=branch.seq,
                taken=actual_taken,
                target=self.next_pc,
            )

    def _apply_outcome(self, branch: BranchInfo, taken: bool, target: int) -> None:
        cls = branch.uop_class
        if cls is _BR_COND:
            self.history.push_conditional(taken)
            return
        if cls is _BR_CALL:
            self.ras.push(branch.fallthrough)
        elif cls is _BR_RET:
            self.ras.pop()
        elif cls is _BR_IND:
            instr = self.program.instruction_at(branch.pc)
            if instr is not None and instr.dst is not None:
                self.ras.push(branch.fallthrough)
        self.history.push_target(branch.pc, target)

    def _truncate_ftqs(self, seq: int) -> None:
        for queue in (self.ftq, self.shadow_ftq):
            while queue and queue[-1].first_seq > seq:
                queue.pop()
            if queue:
                queue[-1].truncate_after(seq)

    # ------------------------------------------------------------------
    def train_resolved(
        self, branch: BranchInfo, actual_taken: bool, actual_target: int
    ) -> None:
        """Retirement-time training of all predictor components."""
        cls = branch.uop_class
        if cls is _BR_COND and branch.tage_pred is not None:
            self.cond.train(branch.pc, actual_taken, branch.tage_pred)
            if actual_taken:
                self.btb.install(branch.pc, actual_target)
        elif cls is _BR_IND:
            if branch.ittage_pred is not None:
                self.indirect.train(branch.pc, actual_target, branch.ittage_pred)
            self.btb.install(branch.pc, actual_target)
        elif cls is _BR_JUMP or cls is _BR_CALL:
            self.btb.install(branch.pc, actual_target)
        # Returns train only the RAS, which is updated speculatively.
