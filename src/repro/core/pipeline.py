"""The out-of-order core: an execution-driven cycle-level pipeline.

Stage order within :meth:`Pipeline.step` runs back-to-front (retire,
complete, schedule, rename, TEA fetch, fetch, predict) so that results
take at least one cycle to traverse each stage boundary.

Thread model: the *main thread* fetches every predicted uop from the
FTQ through a 12-cycle frontend into the shared backend; the optional
*TEA thread* (installed by :mod:`repro.tea`) consumes the shadow FTQ,
fetching only dependence-chain uops out of the Block Cache, renaming
through a shadow RAT, and resolving H2P branches early.  Both threads
share the physical register file values, execution ports, cache ports
and MSHRs; RS/PRF capacity is partitioned (paper §IV-E).

Flush machinery: every dynamic uop carries its FTQ sequence number
(timestamp).  ``flush_at_branch`` squashes all uops younger than the
branch's timestamp in *both* threads — including partial flushes of the
frontend pipe and FTQ (paper §IV-F) — restores the RAT from the
branch's checkpoint when the branch had been renamed, and repairs the
decoupled predictor's speculative state.
"""

from __future__ import annotations

from collections import deque

from ..frontend.decoupled import DecoupledFrontend, FetchBlock
from ..isa import (
    INSTRUCTION_BYTES,
    Program,
    REG_ZERO,
    UopClass,
    branch_taken,
    branch_target,
    compute_result,
    effective_address,
    raw_bits,
)
from ..isa.registers import NUM_ARCH_REGS
from ..memory.cache import line_address
from ..memory.hierarchy import MemoryHierarchy
from ..memory.memory_image import MemoryImage
from .config import SimConfig
from .dynamic_uop import DynUop, UopState
from .ifbq import InFlightBranchQueue
from .lsq import LoadQueue, StoreQueue
from .rename import (
    PhysicalRegisterFile,
    RegisterAliasTable,
    rename_sources,
)
from .scheduler import Scheduler
from .stats import SimStats

from heapq import heappop, heappush
from operator import attrgetter

_MEM_CLASSES = (UopClass.LOAD, UopClass.STORE)
_NO_EXEC_CLASSES = (UopClass.NOP, UopClass.HALT)
_COMPLETE_ORDER = attrgetter("seq", "is_tea")


def _tea_eval(fn, instr, values):
    """Evaluate ``fn(instr, values)`` for a TEA uop.

    A mis-speculated TEA chain can read a register holding data of the
    wrong type (an integer uop fed an FP load's value).  Such a read
    sees the raw 64-bit register pattern, as hardware would, instead of
    crashing the simulator; evaluations that succeed are untouched.
    Main-thread uops never come here: a type error there is a model
    bug and must raise.
    """
    try:
        return fn(instr, values)
    except (TypeError, ValueError, OverflowError):
        return fn(instr, tuple([raw_bits(value) for value in values]))


class SimulationError(RuntimeError):
    """Raised when the simulated machine deadlocks (a model bug).

    ``diagnostics`` (when raised by the forward-progress watchdog) is a
    JSON-safe dict capturing the stalled machine: cycle, ROB head uop,
    FTQ depth, scheduler occupancy, and TEA thread state — enough to
    triage a wedged campaign cell from its journaled failure record
    without re-running the simulation.
    """

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class Pipeline:
    """An 8-wide OoO core instance bound to one program + data image."""

    def __init__(
        self,
        program: Program,
        memory: MemoryImage,
        config: SimConfig | None = None,
    ):
        self.config = config or SimConfig()
        core = self.config.core
        self.program = program
        self.memory = memory
        self.frontend = DecoupledFrontend(program, self.config.frontend)
        self.hierarchy = MemoryHierarchy(self.config.memory)
        tea_cfg = self.config.tea
        tea_prf = tea_cfg.physical_registers if tea_cfg else 0
        tea_rs = tea_cfg.rs_entries if tea_cfg else 0
        tea_units = (
            tea_cfg.dedicated_execution_units
            if tea_cfg and tea_cfg.dedicated_engine
            else 0
        )
        self.prf = PhysicalRegisterFile(core.physical_registers, tea_prf)
        self.rat = RegisterAliasTable()
        self.scheduler = Scheduler(core, tea_rs, tea_units)
        self.scheduler.bind_prf(self.prf)
        self.rob: deque[DynUop] = deque()
        self.lq = LoadQueue(core.load_queue)
        self.sq = StoreQueue(core.store_queue)
        self.ifbq = InFlightBranchQueue()
        self.decode_pipe: deque[DynUop] = deque()
        self.stats = SimStats()
        self.cycle = 0
        self.halted = False
        self.retired_total = 0
        self.last_renamed_seq = -1
        self.committed_regs: list[int | float] = [0] * NUM_ARCH_REGS
        # In-flight executions bucketed by completion cycle, with a
        # min-heap of bucket keys: _complete() pops due buckets instead
        # of rescanning every in-flight uop every cycle.
        self._done_buckets: dict[int, list[DynUop]] = {}
        self._done_heap: list[int] = []
        self._post_fetch_delay = max(
            0, core.frontend_depth - self.config.memory.l1i_latency
        )
        # Per-cycle hot-loop constants (attribute-chain hoists).
        self._rob_entries = core.rob_entries
        self._retire_width = core.retire_width
        self._rename_width = core.rename_width
        self._fetch_width = core.fetch_width
        self._frontend_buffer = core.frontend_buffer
        self._max_blocks_fetched = core.max_blocks_fetched_per_cycle
        # Main-thread fetch cursor into the FTQ head block.
        self._cur_block: FetchBlock | None = None
        self._cur_block_ready = 0
        self._block_offset = 0
        self._last_retire_cycle = 0
        # Observability: an optional repro.obs EventBus.  ``None`` by
        # default; every emission site guards on it so the disabled
        # cost is one attribute load + is-None check.
        self.obs = None
        # Optional mechanisms, installed lazily to avoid import cycles.
        self.tea = None
        self.runahead = None
        self.crisp = None
        if tea_cfg is not None:
            from ..tea.controller import TeaController

            self.tea = TeaController(self, tea_cfg)
        if self.config.runahead is not None:
            from ..runahead.controller import RunaheadController

            self.runahead = RunaheadController(self, self.config.runahead)
        if self.config.crisp is not None:
            from ..crisp.controller import CrispController

            self.crisp = CrispController(self, self.config.crisp)
        # Runtime verification (repro.verify), also installed lazily;
        # both stay None on the default path so step() pays only an
        # attribute load + is-None check each.
        self._checker = None
        self._injector = None
        if self.config.check_invariants:
            from ..verify.invariants import InvariantChecker

            self._checker = InvariantChecker(self, self.config.check_invariants)
        if self.config.fault_plan is not None:
            from ..verify.faults import FaultInjector

            self._injector = FaultInjector(self, self.config.fault_plan)
        # Self-profiler (repro.obs.profiler), installed on first run()
        # when config.profile is set.  Unprofiled pipelines never get
        # wrapper attributes, so the disabled path is structurally free.
        self.profiler = None

    # ==================================================================
    # Top-level control
    # ==================================================================
    def run(
        self,
        max_instructions: int | None = None,
        max_cycles: int | None = None,
    ) -> SimStats:
        """Run until HALT retires or a limit is reached; returns stats.

        Warmup handling: once ``config.warmup_instructions`` have
        retired, all statistics are reset and measurement begins.
        """
        max_instructions = max_instructions or self.config.max_instructions
        max_cycles = max_cycles or self.config.max_cycles
        if self.config.profile and self.profiler is None:
            from ..obs.profiler import PipelineProfiler

            self.profiler = PipelineProfiler()
            self.profiler.install(self)
        warmup = self.config.warmup_instructions
        measurement_started = warmup == 0
        if measurement_started:
            self.stats.start_measurement()
            if self.obs is not None:
                self.obs.emit("measurement_start")
        # Fast-forward would skip the cycles a sampled invariant audit
        # or a scheduled fault is due in; disable it under either.
        fast_forward = (
            self.config.fast_forward
            and self._checker is None
            and self._injector is None
        )
        while not self.halted:
            self.step()
            if not measurement_started and self.retired_total >= warmup:
                self.stats.start_measurement()
                measurement_started = True
                if self.obs is not None:
                    self.obs.emit("measurement_start")
            if (
                measurement_started
                and max_instructions is not None
                and self.stats.retired_instructions >= max_instructions
            ):
                break
            if max_cycles is not None and self.cycle >= max_cycles:
                break
            if fast_forward and self.obs is None:
                self._idle_fast_forward(max_cycles)
        return self.stats

    def step(self) -> None:
        """Advance the machine by one cycle.

        Each stage is guarded by the same emptiness check it would
        make itself, so an idle stage costs a couple of attribute
        loads instead of a call frame.
        """
        cycle = self.cycle + 1
        self.cycle = cycle
        injector = self._injector
        if injector is not None:
            injector.tick(cycle)
        rob = self.rob
        if rob and rob[0].state is UopState.DONE:
            self._retire()
        heap = self._done_heap
        if heap and heap[0] <= cycle:
            self._complete()
        scheduler = self.scheduler
        if scheduler._ready_main or scheduler._ready_tea:
            self._schedule()
        tea = self.tea
        if self.decode_pipe or (tea is not None and tea.rename_pipe):
            self._rename()
        if tea is not None:
            tea.fetch()
        if self.frontend.ftq:
            self._fetch()
        self._predict()
        if self.runahead is not None:
            self.runahead.tick()
        self.stats.cycles += 1
        obs = self.obs
        if obs is not None and obs.wants("cycle_end"):
            obs.emit("cycle_end")
        checker = self._checker
        if checker is not None:
            # Audit between cycles, when every stage has settled.
            checker.maybe_audit()
        stall = self.cycle - self._last_retire_cycle
        if stall > self.config.watchdog_cycles:
            diagnostics = self.progress_diagnostics()
            raise SimulationError(
                f"no retirement for {stall} cycles at cycle {self.cycle}; "
                f"rob={len(self.rob)} decode={len(self.decode_pipe)} "
                f"ftq={len(self.frontend.ftq)} "
                f"bp_stalled={self.frontend.stalled()} "
                f"rob_head={diagnostics['rob_head']}",
                diagnostics=diagnostics,
            )

    def _idle_fast_forward(self, max_cycles: int | None) -> None:
        """Advance ``cycle`` directly to the next event when every
        stage is provably blocked.

        Called between :meth:`step` calls from :meth:`run` (never from
        :meth:`step`, so single-stepping tests see uniform stepping).
        Skipping is cycle-exact because a cycle is only skipped when no
        stage could have acted during it:

        * retire — the ROB head is not DONE, and only a completion
          (a tracked event) can make it DONE;
        * schedule — no operand-ready candidates exist, and only a
          completion's PRF write creates one;
        * rename — the decode head is either not yet through the
          frontend pipe (tracked event) or structurally stalled, which
          only a completion/retire can clear;
        * fetch — blocked on an in-flight icache fill (tracked event),
          a full decode buffer, or an empty FTQ;
        * predict — the frontend is PC-stalled or the FTQ is full;
        * TEA / runahead — fully quiescent (anything in flight may act
          every cycle, so any activity vetoes the skip).

        The skip is capped at the watchdog deadline (so a wedged
        machine still raises SimulationError at the exact seed cycle)
        and at ``max_cycles``.  Skipped cycles are accounted exactly as
        stepped idle cycles: ``stats.cycles`` and the frontend's stall
        counter advance by the skipped amount.
        """
        rob = self.rob
        if rob and rob[0].state is UopState.DONE:
            return
        if self.scheduler.has_ready():
            return
        frontend = self.frontend
        if not (frontend.stalled() or frontend.ftq_full()):
            return
        tea = self.tea
        if tea is not None and (
            tea.active
            or tea.draining
            or tea.rename_pipe
            or tea._pending_walk is not None
            or frontend.shadow_ftq
        ):
            return
        if self.runahead is not None and self.runahead.engine.runs:
            return
        # The earliest completion bucket may hold only squashed uops;
        # that just makes the skip conservative (shorter), never wrong.
        events = [self._done_heap[0]] if self._done_heap else []
        cycle = self.cycle
        decode_pipe = self.decode_pipe
        if decode_pipe:
            head = decode_pipe[0]
            if head.rename_ready_cycle > cycle:
                events.append(head.rename_ready_cycle)
            elif not self._rename_blocked(head):
                return
        if frontend.ftq and len(decode_pipe) < self.config.core.frontend_buffer:
            block = frontend.ftq[0]
            if block is not self._cur_block:
                return  # fetch would start an icache access next cycle
            if self._cur_block_ready > cycle:
                events.append(self._cur_block_ready)
            else:
                return  # fetch can consume the head block next cycle
        if not events:
            return  # wedged with no pending event; let the watchdog fire
        target = min(events)
        cap = self._last_retire_cycle + self.config.watchdog_cycles + 1
        if target > cap:
            target = cap
        if max_cycles is not None and target > max_cycles:
            target = max_cycles
        skipped = target - 1 - cycle
        if skipped <= 0:
            return
        self.cycle = cycle + skipped
        self.stats.cycles += skipped
        # The frontend would have counted every skipped cycle as a stall.
        frontend.stall_cycles += skipped

    def _rename_blocked(self, uop: DynUop) -> bool:
        """Read-only mirror of ``_try_rename_main``'s structural
        stalls; True means rename cannot proceed until a completion or
        retirement frees resources."""
        if len(self.rob) >= self._rob_entries:
            return True
        cls = uop.instr.uop_class
        if cls not in _NO_EXEC_CLASSES and not self.scheduler.main_has_space():
            return True
        if cls is UopClass.LOAD and self.lq.full():
            return True
        if cls is UopClass.STORE and self.sq.full():
            return True
        return (
            uop.instr.dst not in (None, REG_ZERO)
            and not self.prf.main_free
        )

    def executing_uops(self):
        """All in-flight executions (tracing/diagnostics view)."""
        for bucket in self._done_buckets.values():
            yield from bucket

    def progress_diagnostics(self) -> dict:
        """JSON-safe dump of forward-progress state (watchdog payload).

        The format lives in :mod:`repro.verify.diagnostics` and is
        shared with ``InvariantViolation`` and the harness's fault
        attribution (lazy import: verify sits above core in the layer
        DAG).
        """
        from ..verify.diagnostics import progress_diagnostics

        return progress_diagnostics(self)

    # ==================================================================
    # Branch prediction (decoupled, runs ahead of fetch)
    # ==================================================================
    def _predict(self) -> None:
        block = self.frontend.tick()
        if block is None:
            return
        for branch in block.branches:
            if branch.can_mispredict:
                self.ifbq.add(branch)
                if self.runahead is not None:
                    self.runahead.on_branch_predicted(branch)

    # ==================================================================
    # Main-thread fetch: FTQ -> I-cache -> frontend pipe
    # ==================================================================
    def _fetch(self) -> None:
        decode_pipe = self.decode_pipe
        budget = min(self._fetch_width, self._frontend_buffer - len(decode_pipe))
        cycle = self.cycle
        tea = self.tea
        chain_seqs = tea.chain_seqs if tea is not None else None
        rename_ready = cycle + self._post_fetch_delay
        append = decode_pipe.append
        program = self.program
        instructions = program.instructions
        entry_pc = program.entry_pc
        blocks_finished = 0
        while budget > 0 and blocks_finished < self._max_blocks_fetched:
            ftq = self.frontend.ftq
            if not ftq:
                break
            block = ftq[0]
            if block is not self._cur_block:
                self._cur_block = block
                self._block_offset = 0
                start_pc = block.start_pc
                ready = self.hierarchy.access_ifetch(start_pc, cycle)
                last_pc = start_pc + max(0, block.count - 1) * INSTRUCTION_BYTES
                if line_address(last_pc) != line_address(start_pc):
                    ready = max(
                        ready, self.hierarchy.access_ifetch(last_pc, cycle)
                    )
                self._cur_block_ready = ready
            if self._cur_block_ready > cycle:
                break
            # The uop at offset k is instruction index + k, numbered
            # first_seq + k: build the dynamic uop from the run.
            offset = self._block_offset
            count = block.count
            if offset < count:
                stop = min(count, offset + budget)
                index = (block.start_pc - entry_pc) // INSTRUCTION_BYTES
                first_seq = block.first_seq
                for k in range(offset, stop):
                    instr = instructions[index + k]
                    seq = first_seq + k
                    dyn = DynUop(
                        seq,
                        instr,
                        block.branch_at(seq) if instr.is_branch else None,
                        False,
                    )
                    dyn.fetch_cycle = cycle
                    dyn.rename_ready_cycle = rename_ready
                    if chain_seqs is not None and seq in chain_seqs:
                        dyn.in_chain = True
                    append(dyn)
                self.stats.fetched_uops += stop - offset
                budget -= stop - offset
                self._block_offset = offset = stop
            if offset >= count:
                ftq.popleft()
                self._cur_block = None
                blocks_finished += 1
            else:
                break

    # ==================================================================
    # Rename / issue into the backend
    # ==================================================================
    def _rename(self) -> None:
        width = self._rename_width
        if self.tea is not None:
            width = self.tea.rename_first(width)
        decode_pipe = self.decode_pipe
        cycle = self.cycle
        while width > 0 and decode_pipe:
            uop = decode_pipe[0]
            if uop.rename_ready_cycle > cycle:
                break
            if not self._try_rename_main(uop):
                break
            decode_pipe.popleft()
            width -= 1

    def _try_rename_main(self, uop: DynUop) -> bool:
        """Rename one main-thread uop; False on structural stall."""
        if len(self.rob) >= self._rob_entries:
            return False
        instr = uop.instr
        cls = instr.uop_class
        needs_rs = cls not in _NO_EXEC_CLASSES
        if needs_rs and not self.scheduler.main_has_space():
            return False
        if cls is UopClass.LOAD and self.lq.full():
            return False
        if cls is UopClass.STORE and self.sq.full():
            return False
        dst = instr.dst if instr.dst not in (None, REG_ZERO) else None
        preg = None
        if dst is not None:
            preg = self.prf.allocate(tea=False)
            if preg is None:
                return False

        uop.src_pregs = rename_sources(self.rat, instr.srcs)
        if dst is not None:
            uop.dst_preg = preg
            uop.old_dst_preg = self.rat.set(dst, preg)
        uop.state = UopState.RENAMED
        uop.rename_cycle = self.cycle
        self.rob.append(uop)
        self.last_renamed_seq = uop.seq
        if cls is UopClass.LOAD:
            self.lq.insert(uop)
        elif cls is UopClass.STORE:
            self.sq.insert(uop)
        if needs_rs:
            self.scheduler.insert(uop)
        else:
            uop.state = UopState.DONE
            uop.done_cycle = self.cycle
        if uop.branch is not None and uop.branch.can_mispredict:
            entry = self.ifbq.get(uop.seq)
            if entry is not None:
                entry.renamed = True
                entry.rat_checkpoint = self.rat.checkpoint()
        if self.tea is not None:
            self.tea.on_main_rename(uop)
        if self.crisp is not None:
            self.crisp.on_main_rename(uop)
        return True

    # ==================================================================
    # Schedule + execute
    # ==================================================================
    def _issue_gate(self, uop: DynUop) -> bool:
        """Memory-ordering gate for operand-ready select candidates.

        Operand readiness is already guaranteed by the scheduler's
        wakeup pools, so only loads have anything left to check.  A
        False verdict can only change when a store begins execution;
        the scheduler parks rejected uops until that event
        (:meth:`Scheduler.store_executed`).

        For an admitted main-thread load the effective address and the
        store-forward verdict are stashed on the uop so
        ``_start_execution`` does not recompute them the same cycle.
        The address is a pure function of (write-once) operand values
        and is cached across cycles; the forward verdict is refreshed
        on every call because stores may drain from the SQ in between.
        """
        if uop.instr.uop_class is not UopClass.LOAD:
            return True
        if uop.is_tea:
            # Intra-TEA store->load ordering (store cache visibility).
            return self.tea.load_ordered(uop)
        # Conservative disambiguation: wait for older store addresses.
        if not self.sq.addresses_resolved_before(uop.seq):
            return False
        addr = uop.mem_addr
        if addr is None:
            values = self.prf.values
            addr = effective_address(
                uop.instr, tuple([values[p] for p in uop.src_pregs])
            )
            uop.mem_addr = addr
        status, value = self.sq.forward(addr, uop.seq)
        if status == "wait":
            return False
        uop.fwd_status = status
        uop.fwd_value = value
        return True

    def _schedule(self) -> None:
        scheduler = self.scheduler
        if not scheduler.has_ready():
            return
        picked = scheduler.select(self._issue_gate)
        for uop in picked:
            if not self._start_execution(uop):
                # Structural retry (MSHRs full): put it back.
                scheduler.insert(uop)

    def _start_execution(self, uop: DynUop) -> bool:
        instr = uop.instr
        cls = instr.uop_class
        if uop.is_tea and self.tea is not None:
            self.tea.on_operands_read(uop)

        if cls is UopClass.LOAD:
            if uop.is_tea:
                # Recomputed on every attempt: a structural retry may
                # straddle a TEA preg recycle that rewrote a source,
                # and the stale address would target the wrong line.
                values = self.prf.values
                addr = _tea_eval(
                    effective_address,
                    instr,
                    tuple([values[p] for p in uop.src_pregs]),
                )
                uop.mem_addr = addr
                ready = self.hierarchy.access_load(addr, self.cycle)
                if ready is None:
                    return False
                uop.result = self.tea.load_value(addr)
                uop.done_cycle = ready
            else:
                # Address and forward verdict were cached by the issue
                # gate earlier this cycle.
                if uop.fwd_status == "hit":
                    uop.result = uop.fwd_value
                    uop.load_forwarded = True
                    uop.done_cycle = self.cycle + self.config.memory.l1d_latency
                else:
                    ready = self.hierarchy.access_load(uop.mem_addr, self.cycle)
                    if ready is None:
                        return False
                    uop.result = self.memory.load(uop.mem_addr)
                    uop.done_cycle = ready
        elif cls is UopClass.STORE:
            values = tuple([self.prf.values[p] for p in uop.src_pregs])
            uop.mem_addr = (
                _tea_eval(effective_address, instr, values)
                if uop.is_tea
                else effective_address(instr, values)
            )
            uop.store_value = values[0]
            uop.done_cycle = self.cycle + 1
            # The store's address just resolved: re-arm loads parked on
            # the memory-ordering gate.
            self.scheduler.store_executed(uop.is_tea)
        elif instr.is_branch:
            values = tuple([self.prf.values[p] for p in uop.src_pregs])
            if uop.is_tea:
                taken = _tea_eval(branch_taken, instr, values)
                target = (
                    _tea_eval(branch_target, instr, values)
                    if taken
                    else instr.fallthrough_pc
                )
                uop.result = _tea_eval(compute_result, instr, values)
            else:
                taken = branch_taken(instr, values)
                target = (
                    branch_target(instr, values) if taken else instr.fallthrough_pc
                )
                uop.result = compute_result(instr, values)
            uop.br_taken = taken
            uop.br_target = target
            uop.done_cycle = self.cycle + 1
        else:
            values = tuple([self.prf.values[p] for p in uop.src_pregs])
            uop.result = (
                _tea_eval(compute_result, instr, values)
                if uop.is_tea
                else compute_result(instr, values)
            )
            uop.done_cycle = self.cycle + instr.latency
        uop.state = UopState.EXECUTING
        done = uop.done_cycle
        bucket = self._done_buckets.get(done)
        if bucket is None:
            self._done_buckets[done] = [uop]
            heappush(self._done_heap, done)
        else:
            bucket.append(uop)
        return True

    # ==================================================================
    # Completion: writeback, branch resolution, flushes
    # ==================================================================
    def _complete(self) -> None:
        heap = self._done_heap
        cycle = self.cycle
        if not heap or heap[0] > cycle:
            return
        buckets = self._done_buckets
        squashed = UopState.SQUASHED  # property call is too hot here
        finished: list[DynUop] = []
        while heap and heap[0] <= cycle:
            for uop in buckets.pop(heappop(heap)):
                if uop.state is not squashed:
                    finished.append(uop)
        # Resolve oldest-first; a flush squashes younger completions.
        if len(finished) > 1:
            finished.sort(key=_COMPLETE_ORDER)
        for uop in finished:
            if uop.state is squashed:
                continue
            uop.state = UopState.DONE
            if uop.dst_preg is not None:
                self.prf.write(uop.dst_preg, uop.result)
            if uop.is_tea:
                self._complete_tea(uop)
            else:
                if uop.branch is not None and uop.branch.can_mispredict:
                    self._resolve_main_branch(uop)

    def _complete_tea(self, uop: DynUop) -> None:
        if uop.instr.is_store:
            self.tea.store_to_cache(uop)
        if uop.branch is not None and uop.branch.can_mispredict:
            self.tea.on_tea_branch_resolved(uop)
        obs = self.obs
        if obs is not None and obs.wants("tea_uop_done"):
            obs.emit("tea_uop_done", uop=uop)
        self.tea.on_tea_uop_done(uop)

    def _resolve_main_branch(self, uop: DynUop) -> None:
        info = uop.branch
        actual_taken = uop.br_taken
        actual_next = uop.br_target
        predicted_next = info.predicted_next_pc
        direction_wrong = (
            info.uop_class is UopClass.BR_COND and actual_taken != info.predicted_taken
        )
        target_wrong = (
            info.uop_class is not UopClass.BR_COND and actual_next != predicted_next
        )
        mispredicted = direction_wrong or target_wrong or (
            info.uop_class is UopClass.BR_COND
            and actual_taken
            and actual_next != info.predicted_target
        )
        uop.mispredicted = mispredicted
        entry = self.ifbq.get(uop.seq)
        if entry is not None:
            entry.main_resolved = True

        tea_resolved = entry is not None and entry.tea_resolved
        tea_flushed = entry is not None and entry.tea_flush_issued
        obs = self.obs
        gap = None
        lead = None
        if tea_resolved and entry.tea_resolve_cycle >= 0:
            gap = self.cycle - entry.tea_resolve_cycle
            if uop.fetch_cycle >= 0:
                # Timeliness: positive = the TEA copy resolved before
                # the main thread even fetched the branch.
                lead = uop.fetch_cycle - entry.tea_resolve_cycle
        tea_correct = False
        if tea_resolved:
            tea_correct = (
                entry.tea_taken == actual_taken and entry.tea_target == actual_next
            )
            if not tea_correct:
                self.stats.tea_wrong_resolutions += 1
            # Per-chain accuracy sample (graceful degradation).
            self.tea.on_accuracy_sample(info.pc, tea_correct)
        if tea_flushed:
            if tea_correct:
                if mispredicted:
                    saved = max(0, self.cycle - entry.tea_resolve_cycle)
                    self.stats.tea_cycles_saved += saved
                    if saved >= 1:
                        self.stats.covered_timely += 1
                        outcome = "covered_timely"
                    else:
                        self.stats.covered_late += 1
                        outcome = "covered_late"
                    if obs is not None:
                        self._emit_branch_resolved(
                            obs, uop, outcome, tea_resolved, saved, gap, lead
                        )
            else:
                # Incorrect precomputation slipped past the poison
                # check: the fail-safe issues a corrective flush.
                self.stats.extra_flushes += 1
                if mispredicted:
                    self.stats.incorrect_precomputations += 1
                if obs is not None:
                    if mispredicted:
                        self._emit_branch_resolved(
                            obs, uop, "incorrect", tea_resolved, 0, gap, lead
                        )
                    obs.emit(
                        "mispredict_flush",
                        pc=info.pc,
                        seq=info.seq,
                        penalty=self._flush_penalty(uop),
                        corrective=True,
                    )
                self.flush_at_branch(info, actual_taken, actual_next)
            return

        if mispredicted:
            if tea_resolved:
                # TEA resolved but did not flush: it either agreed with
                # the (wrong) prediction or was poison-blocked.
                self.stats.incorrect_precomputations += 1
                outcome = "incorrect"
            else:
                self.stats.uncovered_mispredicts += 1
                outcome = "uncovered"
            if obs is not None:
                self._emit_branch_resolved(
                    obs, uop, outcome, tea_resolved, 0, gap, lead
                )
                obs.emit(
                    "mispredict_flush",
                    pc=info.pc,
                    seq=info.seq,
                    penalty=self._flush_penalty(uop),
                    corrective=False,
                )
            self.flush_at_branch(info, actual_taken, actual_next)

    @staticmethod
    def _flush_penalty(uop: DynUop) -> int:
        """Cycles of wrong-path exposure: resolve cycle - fetch cycle."""
        return max(0, uop.done_cycle - uop.fetch_cycle) if uop.fetch_cycle >= 0 else 0

    @staticmethod
    def _emit_branch_resolved(obs, uop, outcome, tea_resolved, saved, gap,
                              lead=None):
        data = {"outcome": outcome, "tea_resolved": tea_resolved, "saved": saved}
        if gap is not None:
            data["gap"] = gap
        if lead is not None:
            data["lead"] = lead
        obs.emit("branch_resolved", pc=uop.instr.pc, seq=uop.seq, **data)

    # ==================================================================
    # Flush machinery (shared by main resolution and TEA early flushes)
    # ==================================================================
    def flush_at_branch(self, info, actual_taken: bool, actual_target: int) -> None:
        """Flush everything younger than ``info.seq`` and redirect.

        Implements the paper's timestamp-based flush: backend squash,
        partial frontend flush (only uops younger than the branch are
        removed from the frontend pipe and FTQ), predictor state
        repair, and RAT recovery from the branch's checkpoint when the
        branch had been renamed.
        """
        seq = info.seq
        self.stats.flushes += 1
        entry = self.ifbq.get(seq)
        # Backend squash (ROB is ordered by seq).
        squashed_backend = 0
        while self.rob and self.rob[-1].seq > seq:
            self._squash(self.rob.pop())
            squashed_backend += 1
        if entry is not None and entry.renamed and entry.rat_checkpoint is not None:
            self.rat.restore(entry.rat_checkpoint)
        self.scheduler.squash_younger(seq)
        self.lq.squash_younger(seq)
        self.sq.squash_younger(seq)
        # Partial frontend flush.
        squashed_frontend = 0
        if self.decode_pipe and self.decode_pipe[-1].seq > seq:
            kept = [u for u in self.decode_pipe if u.seq <= seq]
            squashed_frontend = len(self.decode_pipe) - len(kept)
            self.decode_pipe = deque(kept)
        if self.obs is not None:
            self.obs.emit(
                "flush",
                pc=info.pc,
                seq=seq,
                squashed_backend=squashed_backend,
                squashed_frontend=squashed_frontend,
            )
        self.frontend.flush_at(info, actual_taken, actual_target)
        # NOTE: the fetch cursor (_cur_block/_block_offset) survives a
        # flush deliberately.  The FTQ head is the *oldest* block: a
        # flush either truncates it at the branch (offset stays valid —
        # this is the paper's partial FTQ flush) or removes it entirely
        # because every uop in it is younger, in which case the next
        # fetch sees a different head object and resets the cursor.
        removed_branches = self.ifbq.squash_younger(seq)
        if self.tea is not None:
            self.tea.on_flush(seq)
        if self.runahead is not None:
            self.runahead.on_branches_squashed(removed_branches)
            self.runahead.on_flush(seq)

    def _squash(self, uop: DynUop) -> None:
        uop.state = UopState.SQUASHED
        if uop.dst_preg is not None:
            self.prf.free(uop.dst_preg)
        obs = self.obs
        if obs is not None and obs.wants("uop_squash"):
            obs.emit("uop_squash", uop=uop)

    # ==================================================================
    # Retire
    # ==================================================================
    def _retire(self) -> None:
        retired = 0
        while retired < self._retire_width and self.rob:
            uop = self.rob[0]
            if uop.state is not UopState.DONE:
                break
            self.rob.popleft()
            uop.state = UopState.RETIRED
            self._commit(uop)
            retired += 1
            self.retired_total += 1
            self.stats.retired_instructions += 1
            self._last_retire_cycle = self.cycle
            if uop.instr.uop_class is UopClass.HALT:
                self.halted = True
                break

    def _commit(self, uop: DynUop) -> None:
        instr = uop.instr
        if instr.is_store:
            self.memory.store(uop.mem_addr, uop.store_value)
            self.hierarchy.access_store_retire(uop.mem_addr)
            self.sq.remove(uop)
        elif instr.is_load:
            self.lq.remove(uop)
        dst = instr.dst if instr.dst not in (None, REG_ZERO) else None
        if dst is not None and uop.dst_preg is not None:
            self.committed_regs[dst] = self.prf.read(uop.dst_preg)
        if uop.old_dst_preg is not None:
            self.prf.free(uop.old_dst_preg)
        if instr.is_branch and uop.branch is not None:
            self.stats.retired_branches += 1
            self.frontend.train_resolved(uop.branch, uop.br_taken, uop.br_target)
            if uop.mispredicted:
                if instr.uop_class is UopClass.BR_COND:
                    self.stats.direction_mispredicts += 1
                else:
                    self.stats.target_mispredicts += 1
                by_pc = self.stats.extra.setdefault("mispredicts_by_pc", {})
                by_pc[instr.pc] = by_pc.get(instr.pc, 0) + 1
            if uop.branch.can_mispredict:
                self.ifbq.remove(uop.seq)
                if self.obs is not None:
                    self.obs.emit(
                        "branch_retire",
                        pc=instr.pc,
                        seq=uop.seq,
                        mispredicted=uop.mispredicted,
                        direction=instr.uop_class is UopClass.BR_COND,
                        taken=bool(uop.br_taken),
                    )
        if self.tea is not None:
            self.tea.on_retire(uop)
        if self.runahead is not None:
            self.runahead.on_retire(uop)
        if self.crisp is not None:
            self.crisp.on_retire(uop)
        obs = self.obs
        if obs is not None and obs.wants("uop_commit"):
            obs.emit("uop_commit", uop=uop)

    # ==================================================================
    # Introspection helpers (tests, examples)
    # ==================================================================
    def architectural_register(self, arch_reg: int) -> int | float:
        """Committed value of an architectural register."""
        return self.committed_regs[arch_reg]

    def top_mispredicting_branches(self, count: int = 10) -> list[tuple[int, int]]:
        """The heaviest mispredictors: ``[(pc, mispredicts), ...]``.

        Tracked at retirement; this is the oracle view of what the H2P
        table approximates with its decaying counters.
        """
        table = self.stats.extra.get("mispredicts_by_pc", {})
        ranked = sorted(table.items(), key=lambda kv: kv[1], reverse=True)
        return ranked[:count]
