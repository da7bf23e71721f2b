"""The TEA thread controller: construction, fetch, execution, flushes.

This object plugs into the :class:`~repro.core.pipeline.Pipeline` via
narrow hooks and implements the paper's mechanism end to end:

* **Construction** (§III-A, §IV-C): retired uops sample into the Fill
  Buffer; full buffers trigger a ~500-cycle Backward Dataflow Walk
  whose marks are grouped into per-basic-block bit-masks and merged
  into the Block Cache.
* **Fetch** (§III-B, §IV-D): the shadow FTQ (same blocks, same
  timestamps as the main thread) drives Block Cache lookups; chain
  uops flow through a 9-cycle shadow frontend into a shadow RAT.
* **Execution** (§IV-E): chain uops use the TEA RS/PRF partition with
  issue priority; physical registers are freed by the valid-bit +
  reference-counter scheme; stores go to the TEA store cache.
* **Early flushes** (§IV-F): a resolved TEA branch updates the IFBQ
  entry for its timestamp; a disagreement with the recorded prediction
  triggers a misprediction flush through the existing flush datapath.
* **Termination** (§IV-G): Block Cache misses drain the thread; RAT
  poisoning preempts incorrect chains, blocking younger TEA flushes.
"""

from __future__ import annotations

from collections import deque

from ..core.dynamic_uop import DynUop, UopState
from ..core.rename import RegisterAliasTable, rename_sources
from ..isa import INSTRUCTION_BYTES, REG_ZERO, UopClass
from ..isa.registers import NUM_ARCH_REGS
from .block_cache import BlockCache
from .config import TeaConfig
from .fill_buffer import FillBuffer, FillEntry
from .h2p_table import H2PTable
from .store_cache import TeaStoreCache

_REFCOUNT_MAX = 31  # 5-bit reference counter (paper §IV-E)


class TeaController:
    """Implements the TEA thread on top of a pipeline instance."""

    def __init__(self, pipeline, config: TeaConfig | None = None):
        self.p = pipeline
        self.config = config or TeaConfig()
        cfg = self.config
        self.h2p = H2PTable(cfg)
        self.fill_buffer = FillBuffer(cfg)
        self.block_cache = BlockCache(cfg)
        self.store_cache = TeaStoreCache(cfg)
        self.shadow_rat = RegisterAliasTable()
        # Thread state.
        self.active = False
        self.draining = False
        # Initiation synchronization: the shadow RAT copy happens at
        # the exact point the main thread has renamed everything older
        # than the TEA thread's first uop (paper §IV-D: "before the
        # first TEA thread instruction is renamed").
        self.rat_synced = False
        self.start_seq: int | None = None
        self.rename_pipe: deque[DynUop] = deque()
        self.live_uops: list[DynUop] = []
        # In-flight TEA stores, for intra-thread store->load ordering:
        # a TEA load waits for older TEA stores so chains that pass
        # values through memory (§III-D: push/pop argument passing)
        # read the store cache, not stale committed state.
        self.pending_stores: list[DynUop] = []
        self.chain_seqs: dict[int, bool] = {}
        self.poison = [False] * NUM_ARCH_REGS
        self.poison_block_seq: int | None = None
        self.late_count = 0
        # TEA preg bookkeeping: valid bit + 5-bit refcount per preg.
        self._valid: dict[int, bool] = {}
        self._refcount: dict[int, int] = {}
        self._refcount_saturated: set[int] = set()
        # TEA pregs occupy the preg ids above the main pool; a plain
        # comparison against this floor replaces _is_tea_preg() in the
        # per-source hot loops.
        self._tea_preg_floor = pipeline.prf.main_size
        # Mid-block fetch cursor (a block's chain segment can exceed
        # the 8-uop fetch width).
        self._pending_block = None
        self._pending_index = 0
        # Deferred walk results: the walk occupies the state machine
        # for ~walk_cycles; Block Cache updates land at completion.
        self._walk_start_cycle = -1
        self._walk_done_cycle = -1
        self._pending_walk: tuple[list[FillEntry], object] | None = None
        self._retire_count = 0
        # Graceful degradation (accuracy gating): per-chain decaying
        # correct/wrong counters fed by main-thread resolutions, the
        # disabled-chain set with its re-enable watermark, and the
        # global kill-switch.  Counters are always maintained; actions
        # are gated on ``config.accuracy_gating``.
        self._chain_correct: dict[int, int] = {}
        self._chain_wrong: dict[int, int] = {}
        self.disabled_chains: dict[int, int] = {}  # pc -> retire count
        self._next_reenable: int | None = None
        self._global_correct = 0
        self._global_total = 0
        self.killed = False
        # Static pre-screen (repro.analysis.chains): an allow mask of
        # branch PCs.  Denied branches are never flagged H2P in the
        # Fill Buffer, so they cannot seed walks or own chains.  The
        # denial event fires once per PC to keep the bus quiet.
        self._branch_mask: frozenset[int] | None = (
            frozenset(cfg.branch_mask) if cfg.branch_mask is not None else None
        )
        self._mask_denied: set[int] = set()

    # ==================================================================
    # Retirement side: H2P training + Fill Buffer + periodic tasks
    # ==================================================================
    def on_retire(self, uop: DynUop) -> None:
        cfg = self.config
        self._retire_count += 1
        if (
            self._next_reenable is not None
            and self._retire_count >= self._next_reenable
        ):
            self._reenable_chains()
        instr = uop.instr
        if instr.is_branch and uop.branch is not None and uop.branch.can_mispredict:
            if uop.mispredicted:
                obs = self.p.obs
                if obs is None:
                    self.h2p.record_mispredict(instr.pc)
                else:
                    was_h2p = self.h2p.is_h2p(instr.pc)
                    self.h2p.record_mispredict(instr.pc)
                    if not was_h2p and self.h2p.is_h2p(instr.pc):
                        obs.emit(
                            "h2p_identified",
                            pc=instr.pc,
                            seq=uop.seq,
                            counter=self.h2p.counter(instr.pc),
                        )
        if self._retire_count % cfg.h2p_decrement_period == 0:
            self.h2p.periodic_decrement()
        if self._retire_count % cfg.mask_reset_period == 0:
            self.block_cache.reset_masks()
        self._maybe_finish_walk()
        if self.p.cycle < self._walk_done_cycle:
            return  # retired uops during a walk are discarded (§IV-C)
        if instr.uop_class in (UopClass.NOP, UopClass.HALT):
            return
        block = self.p.program.block_containing(instr.pc)
        if block is None:
            return
        is_h2p = instr.is_branch and self.h2p.is_h2p(instr.pc)
        if is_h2p and self._branch_mask is not None and instr.pc not in self._branch_mask:
            is_h2p = False
            if instr.pc not in self._mask_denied:
                self._mask_denied.add(instr.pc)
                if self.p.obs is not None:
                    self.p.obs.emit("tea_mask_denied", pc=instr.pc)
        self.fill_buffer.insert(
            FillEntry(
                pc=instr.pc,
                dst=instr.dst if instr.dst not in (None, REG_ZERO) else None,
                srcs=instr.srcs,
                is_load=instr.is_load,
                is_store=instr.is_store,
                mem_addr=uop.mem_addr,
                is_h2p_branch=is_h2p,
                chain_seed=uop.in_chain,
                bb_start=block.start_pc,
                bb_offset=(instr.pc - block.start_pc) // INSTRUCTION_BYTES,
            )
        )
        if self.fill_buffer.full():
            entries, result = self.fill_buffer.run_walk()
            self._walk_start_cycle = self.p.cycle
            self._walk_done_cycle = self.p.cycle + cfg.walk_cycles
            self._pending_walk = (entries, result)
            if self.p.obs is not None:
                self.p.obs.emit(
                    "walk_start",
                    entries=len(entries),
                    initiations=result.initiations,
                )

    def _maybe_finish_walk(self) -> None:
        if self._pending_walk is None or self.p.cycle < self._walk_done_cycle:
            return
        entries, result = self._pending_walk
        marked, stop_index = result.marked, result.stop_index
        self._pending_walk = None
        obs_hook = self.p.obs
        if obs_hook is not None and obs_hook.wants("walk_done"):
            # Firehose hook for the chain oracle: the raw entries,
            # before they are folded into masks.
            obs_hook.emit("walk_done", entries=entries)
        masks: dict[int, int] = {}
        for i in range(stop_index, len(entries)):
            entry = entries[i]
            masks.setdefault(entry.bb_start, 0)
            if marked[i]:
                masks[entry.bb_start] |= 1 << entry.bb_offset
        evictions_before = self.block_cache.evictions
        for bb_start, mask in masks.items():
            self.block_cache.insert(bb_start, mask)
        obs = self.p.obs
        if obs is not None:
            evicted = self.block_cache.evictions - evictions_before
            if evicted:
                obs.emit("block_cache_evict", count=evicted)
            obs.emit(
                "walk_finish",
                chain_length=result.marked_count,
                depth=len(entries) - stop_index,
                initiations=result.initiations,
                blocks=len(masks),
                start_cycle=self._walk_start_cycle,
            )

    # ==================================================================
    # Shadow fetch: shadow FTQ -> Block Cache -> rename pipe
    # ==================================================================
    def fetch(self) -> None:
        self._maybe_finish_walk()
        if self.draining:
            self._check_drain_complete()
            if self.draining:
                self._discard_stale_blocks()
                return
        if len(self.rename_pipe) >= self.config.rename_pipe_capacity:
            return
        if self.active:
            self._fetch_active()
        else:
            self._scan_for_initiation()

    def _discard_stale_blocks(self) -> None:
        """While not fetching, keep the shadow FTQ from backing up."""
        shadow = self.p.frontend.shadow_ftq
        while shadow and shadow[0].last_seq <= self.p.last_renamed_seq:
            shadow.popleft()

    def _scan_for_initiation(self) -> None:
        """Inactive: look for a Block Cache hit ahead of main rename."""
        shadow = self.p.frontend.shadow_ftq
        self._discard_stale_blocks()
        if self.killed:
            return  # kill-switch: keep draining the shadow FTQ, never restart
        spans_of = self.p.program.basic_block_spans
        peek = self.block_cache.peek
        scanned = 0
        while shadow and scanned < 8:
            block = shadow[0]
            if not block.count:
                shadow.popleft()
                continue
            if block.first_seq <= self.p.last_renamed_seq:
                shadow.popleft()
                continue
            for span in spans_of(block.start_pc, block.count):
                if peek(span[0]):
                    self._initiate(block.first_seq)
                    self._fetch_active()
                    return
            shadow.popleft()
            scanned += 1

    def _initiate(self, start_seq: int) -> None:
        """Start the TEA thread; the RAT copy waits for rename sync.

        Fetch begins immediately (the shadow frontend buffers chain
        uops), but renaming is held until the main thread has renamed
        exactly the uops older than ``start_seq`` — at that instant the
        main RAT is copied into the shadow RAT, so both threads start
        from an identical register view and the poison bits cover all
        later divergence.
        """
        self.poison = [False] * NUM_ARCH_REGS
        self.poison_block_seq = None
        self.late_count = 0
        self._reset_tea_pregs()
        self.store_cache.clear()
        self.active = True
        self.start_seq = start_seq
        if self.p.last_renamed_seq == start_seq - 1:
            self.shadow_rat.copy_from(self.p.rat)
            self.rat_synced = True
        else:
            self.rat_synced = False
        self.p.stats.tea_initiations += 1
        if self.p.obs is not None:
            self.p.obs.emit("tea_initiate", seq=start_seq)

    def _fetch_active(self) -> None:
        """Fetch up to ``fetch_width`` chain uops from one block."""
        budget = self.config.fetch_width
        if self._pending_block is not None:
            budget = self._fetch_from_block(self._pending_block, budget)
            if self._pending_block is not None or budget <= 0:
                return
        shadow = self.p.frontend.shadow_ftq
        if not shadow:
            return
        block = shadow.popleft()
        # Per-basic-block Block Cache lookups; a miss terminates.
        obs = self.p.obs
        for span in self.p.program.basic_block_spans(block.start_pc, block.count):
            bb_start = span[0]
            mask = self.block_cache.lookup(bb_start)
            if mask is None:
                if obs is not None:
                    obs.emit("block_cache_miss", pc=bb_start, seq=block.first_seq)
                self._terminate(drain=True, reason="block_cache_miss")
                return
            if obs is not None:
                obs.emit(
                    "block_cache_hit",
                    pc=bb_start,
                    seq=block.first_seq,
                    empty=mask == 0,
                )
        self._pending_block = block
        self._pending_index = 0
        self._fetch_from_block(block, budget)

    def _fetch_from_block(self, block, budget: int) -> int:
        """Fetch the block's chain uops from ``_pending_index`` on.

        Walks only the set bits of each basic block's Block Cache mask
        that fall inside the run.  Stops once ``budget`` chain uops are
        fetched, leaving ``_pending_index`` just past the last one;
        returns the budget left.
        """
        p = self.p
        program = p.program
        instructions = program.instructions
        base = (block.start_pc - program.entry_pc) // INSTRUCTION_BYTES
        first_seq = block.first_seq
        index = self._pending_index
        fetched = 0
        cycle = p.cycle
        ready = cycle + self.config.frontend_delay
        peek = self.block_cache.peek
        pipe_append = self.rename_pipe.append
        chain_seqs = self.chain_seqs
        for bb_start, first, stop, bit in program.basic_block_spans(
            block.start_pc, block.count
        ):
            if stop <= index:
                continue
            mask = peek(bb_start)
            if not mask:
                continue
            if first < index:
                bit += index - first
                first = index
            bits = (mask >> bit) & ((1 << (stop - first)) - 1)
            while bits:
                low = bits & -bits
                bits ^= low
                k = first + low.bit_length() - 1
                seq = first_seq + k
                instr = instructions[base + k]
                dyn = DynUop(
                    seq,
                    instr,
                    block.branch_at(seq) if instr.is_branch else None,
                    True,
                )
                dyn.fetch_cycle = cycle
                dyn.rename_ready_cycle = ready
                dyn.in_chain = True
                pipe_append(dyn)
                chain_seqs[seq] = True
                fetched += 1
                budget -= 1
                if not budget:
                    index = k + 1
                    break
            if not budget:
                break
        else:
            index = block.count
        self._pending_index = index
        if fetched:
            p.stats.tea_fetched_uops += fetched
            if p.obs is not None:
                p.obs.emit("shadow_fetch", seq=first_seq, uops=fetched)
        if index >= block.count:
            self._pending_block = None
            self._pending_index = 0
        return budget

    # ==================================================================
    # Shadow rename (issue priority: runs before main rename)
    # ==================================================================
    def rename_first(self, width: int) -> int:
        """Rename TEA uops; returns issue slots left for the main thread.

        With a dedicated execution engine the TEA thread has its own
        rename/issue bandwidth and the main thread keeps full width.
        """
        budget = self.config.fetch_width if self.config.dedicated_engine else width
        used = 0
        while budget > 0 and self.rename_pipe:
            uop = self.rename_pipe[0]
            if uop.rename_ready_cycle > self.p.cycle:
                break
            if not self._try_rename_tea(uop):
                break
            self.rename_pipe.popleft()
            budget -= 1
            used += 1
        if self.config.dedicated_engine:
            return width
        return width - used

    def _try_rename_tea(self, uop: DynUop) -> bool:
        if not self.rat_synced:
            return False
        p = self.p
        sched = p.scheduler
        if not sched.tea_has_space():
            return False
        instr = uop.instr
        dst = instr.dst if instr.dst not in (None, REG_ZERO) else None
        preg = None
        if dst is not None:
            preg = p.prf.allocate(tea=True)
            if preg is None:
                return False
        srcs = rename_sources(self.shadow_rat, instr.srcs)
        uop.src_pregs = srcs
        # Take a refcount on each TEA source preg.  When the 5-bit
        # counter saturates the preg is pinned until the thread resets
        # (safe side of the paper's rare overflow).
        floor = self._tea_preg_floor
        refcount = self._refcount
        for src in srcs:
            if src <= floor:
                continue
            count = refcount.get(src, 0)
            if count >= _REFCOUNT_MAX:
                self._refcount_saturated.add(src)
            else:
                refcount[src] = count + 1
        if dst is not None:
            uop.dst_preg = preg
            self._valid[preg] = True
            refcount.setdefault(preg, 0)
            old = self.shadow_rat.set(dst, preg)
            self._release_mapping(old)
        uop.state = UopState.RENAMED
        uop.rename_cycle = p.cycle
        sched.insert(uop)
        self.live_uops.append(uop)
        if instr.is_store:
            self.pending_stores.append(uop)
        return True

    def load_ordered(self, uop: DynUop) -> bool:
        """May this TEA load issue? (all older TEA stores executed)"""
        for store in self.pending_stores:
            if store.seq < uop.seq and store.state is UopState.RENAMED:
                return False
        return True

    # -- physical register reference counting --------------------------
    def _is_tea_preg(self, preg: int) -> bool:
        return preg > self._tea_preg_floor

    def on_operands_read(self, uop: DynUop) -> None:
        """Called when a TEA uop reads its sources (enter execution)."""
        floor = self._tea_preg_floor
        refcount = self._refcount
        saturated = self._refcount_saturated
        for preg in uop.src_pregs:
            if preg <= floor or preg in saturated:
                continue
            count = refcount.get(preg, 0)
            if count > 0:
                refcount[preg] = count - 1
                if count == 1 and not self._valid.get(preg, True):
                    self._free_tea_preg(preg)

    def _release_mapping(self, old_preg: int) -> None:
        """A shadow-RAT mapping was overwritten; maybe free the preg."""
        if not self._is_tea_preg(old_preg):
            return
        self._valid[old_preg] = False
        if (
            self._refcount.get(old_preg, 0) == 0
            and old_preg not in self._refcount_saturated
        ):
            self._free_tea_preg(old_preg)

    def _free_tea_preg(self, preg: int) -> None:
        self._valid.pop(preg, None)
        self._refcount.pop(preg, None)
        self.p.prf.free(preg)

    def _reset_tea_pregs(self) -> None:
        prf = self.p.prf
        total = 1 + prf.main_size + prf.tea_size
        prf.tea_free = deque(range(1 + prf.main_size, total))
        self._valid.clear()
        self._refcount.clear()
        self._refcount_saturated.clear()

    # ==================================================================
    # Main-thread rename hook: bit-mask tagging + RAT poisoning
    # ==================================================================
    def on_main_rename(self, uop: DynUop) -> None:
        self.chain_seqs.pop(uop.seq, None)
        if not (self.active or self.draining):
            return
        if self.active and not self.rat_synced:
            # Sequence numbers can have gaps (squashed uops never
            # rename), so sync on the first rename at or past the
            # boundary.  If that uop already belongs to the TEA region
            # (seq >= start_seq) its own destination write must be
            # excluded from the copy: the TEA thread re-executes it.
            if self.start_seq is None or uop.seq < self.start_seq - 1:
                return
            self.shadow_rat.copy_from(self.p.rat)
            if uop.seq >= self.start_seq and uop.old_dst_preg is not None:
                undo_dst = uop.instr.dst
                if undo_dst not in (None, REG_ZERO):
                    self.shadow_rat.set(undo_dst, uop.old_dst_preg)
            self.rat_synced = True
            if uop.seq < self.start_seq:
                return
            # Fall through: this uop is in the TEA region, apply the
            # poison bookkeeping to it as well.
        instr = uop.instr
        dst = instr.dst if instr.dst not in (None, REG_ZERO) else None
        if uop.in_chain:
            for reg in instr.srcs:
                if reg != REG_ZERO and self.poison[reg]:
                    self._poison_violation(uop.seq)
                    break
            if dst is not None:
                self.poison[dst] = False
        else:
            if dst is not None:
                self.poison[dst] = True

    def _poison_violation(self, seq: int) -> None:
        """A chain uop consumed a non-chain value: preempt the thread."""
        self.p.stats.tea_poison_terminations += 1
        if self.poison_block_seq is None or seq < self.poison_block_seq:
            self.poison_block_seq = seq
        if self.p.obs is not None:
            self.p.obs.emit("poison_term", seq=seq)
        self._terminate(drain=True, reason="poison")

    # ==================================================================
    # Graceful degradation: per-chain accuracy gating + kill-switch
    # ==================================================================
    def on_accuracy_sample(self, pc: int, correct: bool) -> None:
        """Main-thread resolution verdict for a TEA-resolved branch.

        Updates the per-chain decaying counters and the global tally,
        then (when ``accuracy_gating``) disables chains whose measured
        accuracy fell below ``chain_disable_threshold`` and fires the
        global kill-switch at sustained accuracy below
        ``kill_threshold``.  Counter updates are timing-neutral: with
        gating off (or thresholds never crossed) the simulation is
        cycle-identical to a build without this method.
        """
        cfg = self.config
        correct_by_pc = self._chain_correct
        wrong_by_pc = self._chain_wrong
        if correct:
            correct_by_pc[pc] = correct_by_pc.get(pc, 0) + 1
            self._global_correct += 1
        else:
            wrong_by_pc[pc] = wrong_by_pc.get(pc, 0) + 1
        self._global_total += 1
        good = correct_by_pc.get(pc, 0)
        bad = wrong_by_pc.get(pc, 0)
        if good + bad >= cfg.chain_accuracy_window:
            # Decay-halve so the counters track recent behaviour (and a
            # disabled chain can earn its way back after re-enable).
            correct_by_pc[pc] = good = good >> 1
            wrong_by_pc[pc] = bad = bad >> 1
        if not cfg.accuracy_gating or self.killed:
            return
        total = good + bad
        if (
            pc not in self.disabled_chains
            and total >= cfg.chain_min_samples
            and good < cfg.chain_disable_threshold * total
        ):
            self._disable_chain(pc, good, total)
        if (
            self._global_total >= cfg.kill_min_samples
            and self._global_correct < cfg.kill_threshold * self._global_total
        ):
            self._kill()

    def chain_accuracy(self, pc: int) -> float | None:
        """Measured accuracy of one chain (None before any sample)."""
        good = self._chain_correct.get(pc, 0)
        total = good + self._chain_wrong.get(pc, 0)
        return good / total if total else None

    def _disable_chain(self, pc: int, good: int, total: int) -> None:
        self.disabled_chains[pc] = self._retire_count
        self.p.stats.tea_chain_disables += 1
        due = self._retire_count + self.config.chain_reenable_period
        if self._next_reenable is None or due < self._next_reenable:
            self._next_reenable = due
        if self.p.obs is not None:
            self.p.obs.emit(
                "tea_chain_disabled", pc=pc, correct=good, samples=total
            )

    def _reenable_chains(self) -> None:
        """Retire-count watermark hit: re-enable chains past the decay
        period (their counters reset so they re-qualify from scratch)."""
        period = self.config.chain_reenable_period
        now = self._retire_count
        due = [
            pc
            for pc, disabled_at in self.disabled_chains.items()
            if now - disabled_at >= period
        ]
        for pc in due:
            del self.disabled_chains[pc]
            self._chain_correct.pop(pc, None)
            self._chain_wrong.pop(pc, None)
            self.p.stats.tea_chain_reenables += 1
            if self.p.obs is not None:
                self.p.obs.emit("tea_chain_enabled", pc=pc)
        if self.disabled_chains:
            self._next_reenable = min(self.disabled_chains.values()) + period
        else:
            self._next_reenable = None

    def _kill(self) -> None:
        """Sustained low accuracy: disable the TEA thread for good."""
        self.killed = True
        self.p.stats.tea_killed = 1
        if self.p.obs is not None:
            self.p.obs.emit(
                "tea_degraded",
                resolutions=self._global_total,
                correct=self._global_correct,
            )
        self._terminate(drain=True, reason="degraded")

    # ==================================================================
    # TEA execution callbacks
    # ==================================================================
    def load_value(self, addr: int):
        """TEA loads see the TEA store cache, then committed memory."""
        value = self.store_cache.load(addr)
        if value is not None:
            return value
        return self.p.memory.load(addr)

    def store_to_cache(self, uop: DynUop) -> None:
        self.store_cache.store(uop.mem_addr, uop.store_value)

    def on_tea_branch_resolved(self, uop: DynUop) -> None:
        """A TEA copy of an H2P branch finished execution (§IV-F)."""
        stats = self.p.stats
        if self.killed or uop.instr.pc in self.disabled_chains:
            # Accuracy gating: the chain (or the whole thread) is
            # degraded — the precomputed outcome is discarded before it
            # can reach the IFBQ or issue an early flush.
            stats.tea_suppressed_resolutions += 1
            if self.p.obs is not None:
                self.p.obs.emit(
                    "tea_resolve", pc=uop.instr.pc, seq=uop.seq, suppressed=True
                )
            return
        stats.tea_resolved_branches += 1
        obs = self.p.obs
        info = self.p.ifbq.get(uop.seq)
        if info is None or info.main_resolved:
            # Late precomputation: the main branch got there first.
            if obs is not None:
                obs.emit("tea_resolve", pc=uop.instr.pc, seq=uop.seq, late=True)
            self.late_count += 1
            if self.late_count > self.config.max_late_resolutions:
                self._terminate(drain=True, reason="too_late")
            return
        info.tea_resolved = True
        info.tea_taken = uop.br_taken
        info.tea_target = uop.br_target
        info.tea_resolve_cycle = self.p.cycle
        if not self.config.early_resolution:
            if obs is not None:
                obs.emit("tea_resolve", pc=uop.instr.pc, seq=uop.seq, late=False)
            return  # prefetch-only mode (§V-B)
        if self.poison_block_seq is not None and uop.seq > self.poison_block_seq:
            stats.tea_blocked_flushes += 1
            if obs is not None:
                obs.emit(
                    "tea_resolve",
                    pc=uop.instr.pc,
                    seq=uop.seq,
                    late=False,
                    blocked=True,
                )
            return
        disagrees = uop.br_taken != info.predicted_taken or (
            uop.br_taken and uop.br_target != info.predicted_target
        )
        if obs is not None:
            obs.emit(
                "tea_resolve",
                pc=uop.instr.pc,
                seq=uop.seq,
                late=False,
                disagrees=disagrees,
            )
        if disagrees:
            info.tea_flush_issued = True
            stats.early_flushes += 1
            if obs is not None:
                penalty = (
                    max(0, self.p.cycle - uop.fetch_cycle)
                    if uop.fetch_cycle >= 0
                    else 0
                )
                obs.emit(
                    "early_flush", pc=info.pc, seq=info.seq, penalty=penalty
                )
            self.p.flush_at_branch(info, uop.br_taken, uop.br_target)

    def on_tea_uop_done(self, uop: DynUop) -> None:
        if uop in self.live_uops:
            self.live_uops.remove(uop)
        if uop.instr.is_store and uop in self.pending_stores:
            self.pending_stores.remove(uop)
        self._check_drain_complete()

    # ==================================================================
    # Termination and flush recovery
    # ==================================================================
    def _terminate(self, drain: bool, reason: str = "drain") -> None:
        """Stop fetching; in-flight uops drain out (§IV-G)."""
        if self.active:
            self.p.stats.tea_terminations += 1
            if self.p.obs is not None:
                self.p.obs.emit("tea_terminate", reason=reason)
        self.active = False
        self._pending_block = None
        self._pending_index = 0
        if drain and (self.live_uops or self.rename_pipe):
            # Uops still in the shadow frontend never issue; discard.
            self.rename_pipe.clear()
            self.draining = True
        else:
            self._finish_drain()

    def _check_drain_complete(self) -> None:
        if self.draining and not self.live_uops:
            self._finish_drain()

    def _finish_drain(self) -> None:
        self.draining = False
        self.poison_block_seq = None
        self.pending_stores.clear()
        self._reset_tea_pregs()
        self.store_cache.clear()

    def on_flush(self, seq: int) -> None:
        """Any pipeline flush resets the TEA thread (resynchronized)."""
        if self.active and self.p.obs is not None:
            # Close the active span for the timeline exporters (not a
            # counted termination: the thread is reset, not drained).
            self.p.obs.emit("tea_terminate", reason="flush")
        for uop in self.live_uops:
            uop.state = UopState.SQUASHED
        self.live_uops.clear()
        self.pending_stores.clear()
        self.rename_pipe.clear()
        self.p.scheduler.clear_tea()
        self.active = False
        self.draining = False
        self.rat_synced = False
        self.start_seq = None
        self._pending_block = None
        self._pending_index = 0
        self.poison_block_seq = None
        self._reset_tea_pregs()
        self.store_cache.clear()
        # Chain-seq tags younger than the flush are stale.
        self.chain_seqs = {s: True for s in self.chain_seqs if s <= seq}
