"""Branch Runahead controller: glue between pipeline and chain engine.

Hooks mirror the TEA controller's, but the mechanism is fetch-time
*override* rather than early flush: precomputed directions pop out of
per-branch outcome queues inside the decoupled predictor.  Wrong
overrides surface as ordinary mispredictions, train chain accuracy
gating, and — as in the real design — any pipeline flush clears the
queues and restarts chain execution from retired state at the next
trigger.
"""

from __future__ import annotations

from ..core.dynamic_uop import DynUop
from ..isa import UopClass
from ..tea.config import TeaConfig
from ..tea.h2p_table import H2PTable
from .chains import ChainCaptureBuffer, DependenceChainTable
from .config import RunaheadConfig
from .engine import ChainEngine


class RunaheadController:
    """Implements Branch Runahead on top of a pipeline instance."""

    def __init__(self, pipeline, config: RunaheadConfig | None = None):
        self.p = pipeline
        self.config = config or RunaheadConfig()
        cfg = self.config
        self.h2p = H2PTable(
            TeaConfig(
                h2p_entries=cfg.h2p_entries,
                h2p_ways=cfg.h2p_ways,
                h2p_counter_max=cfg.h2p_counter_max,
                h2p_threshold=cfg.h2p_threshold,
                h2p_decrement_period=cfg.h2p_decrement_period,
            )
        )
        self.capture = ChainCaptureBuffer(cfg)
        self.chains = DependenceChainTable(cfg)
        self.engine = ChainEngine(cfg, pipeline.hierarchy, pipeline.memory)
        self._retire_count = 0
        # In-flight (predicted, not yet retired) instance count per
        # branch PC — the self-realigning index into outcome queues:
        # wrong-path consumption vanishes when the IFBQ squashes.
        self._inflight: dict[int, int] = {}
        pipeline.frontend.direction_override = self._override

    # ------------------------------------------------------------------
    def _override(self, pc: int) -> bool | None:
        """Fetch-time direction override consulted by the predictor.

        Outcome queues are indexed by position relative to retirement
        (entry 0 predicts the next instance to retire); the instance
        being fetched is ``inflight`` positions past that.
        """
        if not self.chains.is_enabled(pc):
            return None
        outcome = self.engine.outcome_at(pc, self._inflight.get(pc, 0))
        if outcome is None:
            return None
        self.p.stats.runahead_overrides += 1
        return outcome

    def on_branch_predicted(self, info) -> None:
        if info.uop_class is UopClass.BR_COND:
            self._inflight[info.pc] = self._inflight.get(info.pc, 0) + 1

    def on_branches_squashed(self, branches) -> None:
        for info in branches:
            if info.uop_class is UopClass.BR_COND:
                count = self._inflight.get(info.pc, 0)
                if count > 0:
                    self._inflight[info.pc] = count - 1

    # ------------------------------------------------------------------
    def tick(self) -> None:
        self.engine.tick(self.p.cycle)

    def on_retire(self, uop: DynUop) -> None:
        cfg = self.config
        self._retire_count += 1
        if self._retire_count % cfg.h2p_decrement_period == 0:
            self.h2p.periodic_decrement()
        instr = uop.instr
        if instr.uop_class in (UopClass.NOP, UopClass.HALT):
            return
        self.capture.record(instr, uop.mem_addr)
        if not instr.is_branch or uop.branch is None:
            return
        if not uop.branch.can_mispredict:
            return
        if uop.mispredicted:
            self.h2p.record_mispredict(instr.pc)
        if uop.branch.override_used:
            entry = self.chains.get(instr.pc)
            if entry is not None:
                correct = not uop.mispredicted
                if not correct:
                    self.p.stats.runahead_wrong_overrides += 1
                entry.record_override(correct, cfg)
                if entry.disabled:
                    self.engine.drop_branch(instr.pc)
        # Only conditional branches are precomputed (BR forwards
        # directions, not targets — paper §II-C).
        if instr.uop_class is not UopClass.BR_COND:
            return
        pc = instr.pc
        count = self._inflight.get(pc, 0)
        if count > 0:
            self._inflight[pc] = count - 1
        # Validate the engine's head outcome against ground truth:
        # a mismatch means the engine's context diverged — restart the
        # run immediately from the (now correct) retired register state
        # so the queue refills before the frontend needs it again.
        head = self.engine.pop_retired(pc)
        if head is not None:
            entry = self.chains.get(pc)
            if entry is not None:
                entry.record_head_check(head == uop.br_taken, cfg)
                if entry.disabled:
                    self.engine.drop_branch(pc)
            if head != uop.br_taken:
                self.engine.drop_branch(pc)
                if self.chains.is_enabled(pc):
                    entry = self.chains.get(pc)
                    self.engine.start_run(pc, entry.chain, self.p.committed_regs)
        if not self.h2p.is_h2p(pc):
            return
        chain = self.capture.capture_chain(pc)
        if chain is not None:
            self.chains.observe_capture(pc, chain)
            self.p.stats.runahead_chain_uops += len(chain)
        if self.chains.is_enabled(pc):
            entry = self.chains.get(pc)
            self.engine.start_run(pc, entry.chain, self.p.committed_regs)

    def on_flush(self, seq: int) -> None:
        """Chain runs are control-independent of main-thread flushes.

        Branch Runahead's merge-point independence means the engine
        keeps executing across mispredictions; alignment is restored
        through the in-flight counts (``on_branches_squashed``) and
        retire-time outcome validation.
        """
