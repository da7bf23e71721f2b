"""Runtime invariant checking for the cycle-level pipeline model.

The checker audits the machine *between* cycles (at the end of
:meth:`Pipeline.step`, when every stage has settled), validating the
structural properties the model's correctness rests on:

``preg_conservation``
    Physical registers are conserved: free lists + live RAT mappings +
    in-flight previous mappings account for every preg exactly once, in
    both the main pool and the TEA partition's valid-bit/refcount
    scheme.
``rob_order``
    ROB entries are main-thread uops in strictly increasing sequence
    order and in a live state.
``lsq_consistency``
    Load/store queues hold exactly the ROB's in-flight loads/stores, in
    program order.
``occupancy_bounds``
    Every bounded structure (ROB, RS partitions, LSQ, FTQ, decode
    buffer, TEA rename pipe) respects its configured capacity, every
    in-ROB mispredictable branch has an IFBQ entry, and renamed IFBQ
    entries carry their RAT checkpoint.
``scheduler_wakeup``
    The event-driven scheduler's pools agree with the PRF: waiting uops
    count exactly their unready sources, ready/blocked uops have all
    sources ready, and the per-preg wakeup subscription lists match the
    RS-resident consumers exactly (the property PR 3's rewrite depends
    on).
``tea_partition``
    TEA/main non-interference: main-thread uops and the main RAT never
    name TEA pregs, and TEA live uops only write the TEA partition.
``flush_epoch``
    No squashed/retired uop lingers in any live structure, scheduler
    residents are backed by the ROB (main) or the TEA controller's
    live set, and retirement bookkeeping is time-consistent.

A violation raises :class:`InvariantViolation` carrying the same
diagnostics dump the forward-progress watchdog uses
(:mod:`repro.verify.diagnostics`), plus the failing invariant and
detail, and emits an ``invariant_violation`` event on the obs bus.

Cost discipline: checking is opt-in (``SimConfig.check_invariants = N``
audits every N cycles, 0 = off) and a disabled checker is never
constructed, so the default simulation path is unchanged.  An audit is
linear in the in-flight uops and wakeup subscriptions: the preg and
wakeup families compare whole multisets at once, and only a failing
audit builds the ``Counter`` diff its ``detail`` reports.
"""

from __future__ import annotations

from collections import Counter

from ..core.dynamic_uop import UopState
from .diagnostics import progress_diagnostics

_LIVE_ROB_STATES = (UopState.RENAMED, UopState.EXECUTING, UopState.DONE)
_LIVE_TEA_STATES = (UopState.RENAMED, UopState.EXECUTING)


def _holds_each_once(held: list, pool: range) -> bool:
    """True when ``held`` names every preg of ``pool`` exactly once."""
    return len(held) == len(pool) and set(held) == set(pool)


def _pool_mismatch(held: list, pool: range) -> str:
    """The detail of a failed :func:`_holds_each_once` (failing audits
    only: it builds the multiset diff)."""
    have, expected = Counter(held), Counter(pool)
    missing = sorted((expected - have).elements())[:8]
    extra = sorted((have - expected).elements())[:8]
    return f"preg multiset mismatch: leaked={missing} double-held={extra}"


class InvariantViolation(RuntimeError):
    """The machine reached a structurally illegal state (a model bug —
    or an injected fault doing its job).

    ``invariant`` names the failed family, ``detail`` the specific
    check; ``diagnostics`` is the shared watchdog-format state dump
    (with fault-injection context attached when an injector is active),
    so a journaled campaign failure can be attributed without a rerun.
    """

    def __init__(self, invariant: str, detail: str, diagnostics: dict | None = None):
        super().__init__(f"invariant {invariant!r} violated: {detail}")
        self.invariant = invariant
        self.detail = detail
        self.diagnostics = diagnostics or {}


class InvariantChecker:
    """Audits a pipeline every ``period`` cycles (and on demand)."""

    #: Audit family names, in execution order.
    FAMILIES = (
        "preg_conservation",
        "rob_order",
        "lsq_consistency",
        "occupancy_bounds",
        "scheduler_wakeup",
        "tea_partition",
        "flush_epoch",
    )

    def __init__(self, pipeline, period: int = 1):
        if period < 1:
            raise ValueError(f"check period must be >= 1, got {period}")
        self.p = pipeline
        self.period = period
        self.checks_run = 0
        # The ROB's uop ids, shared by the families that test ROB
        # membership while an audit runs (None between audits).
        self._rob_ids: set[int] | None = None

    # ------------------------------------------------------------------
    def maybe_audit(self) -> None:
        """Cycle hook: audit when the sampling period elapses."""
        if self.p.cycle % self.period == 0:
            self.audit()

    def audit(self) -> None:
        """Run every invariant family; raise on the first violation."""
        self.checks_run += 1
        self.p.stats.invariant_checks += 1
        self._rob_ids = {id(uop) for uop in self.p.rob}
        try:
            for family in self.FAMILIES:
                getattr(self, "_check_" + family)()
        finally:
            self._rob_ids = None

    def _rob_id_set(self) -> set[int]:
        """Ids of the ROB's uops: built once per audit, or afresh when a
        family runs on its own."""
        if self._rob_ids is None:
            return {id(uop) for uop in self.p.rob}
        return self._rob_ids

    def _fail(self, invariant: str, detail: str) -> None:
        diagnostics = progress_diagnostics(self.p)
        diagnostics["invariant"] = invariant
        diagnostics["invariant_detail"] = detail
        obs = self.p.obs
        if obs is not None:
            obs.emit("invariant_violation", invariant=invariant, detail=detail)
        raise InvariantViolation(invariant, detail, diagnostics)

    # ------------------------------------------------------------------
    # Families
    # ------------------------------------------------------------------
    def _check_preg_conservation(self) -> None:
        p = self.p
        prf = p.prf
        name = "preg_conservation"
        # Main pool: free list + current RAT mappings + in-flight
        # previous mappings (freed at retire) == pregs 1..main_size.
        held = list(prf.main_free)
        held += [preg for preg in p.rat.map if preg]
        held += [uop.old_dst_preg for uop in p.rob if uop.old_dst_preg]
        pool = range(1, 1 + prf.main_size)
        if not _holds_each_once(held, pool):
            self._fail(name, f"main {_pool_mismatch(held, pool)}")
        tea = p.tea
        if tea is None or prf.tea_size == 0:
            return
        # TEA partition: free list + pregs tracked by the valid-bit /
        # refcount scheme == the pregs above the main pool.
        tracked = tea._valid.keys() | tea._refcount.keys()
        dup = tracked.intersection(prf.tea_free)
        if dup:
            self._fail(name, f"TEA pregs both free and tracked: {sorted(dup)[:8]}")
        held = list(prf.tea_free)
        held += tracked
        pool = range(1 + prf.main_size, 1 + prf.main_size + prf.tea_size)
        if not _holds_each_once(held, pool):
            self._fail(name, f"TEA {_pool_mismatch(held, pool)}")
        stray = tea._refcount_saturated.difference(tea._refcount)
        if stray:
            self._fail(
                name,
                f"saturated refcounts without refcount entries: "
                f"{sorted(stray)[:8]}",
            )

    def _check_rob_order(self) -> None:
        prev_seq = -1
        for uop in self.p.rob:
            if uop.is_tea:
                self._fail("rob_order", f"TEA uop seq={uop.seq} in the ROB")
            if uop.seq <= prev_seq:
                self._fail(
                    "rob_order",
                    f"seq not strictly increasing: {uop.seq} after {prev_seq}",
                )
            prev_seq = uop.seq
            if uop.state not in _LIVE_ROB_STATES:
                self._fail(
                    "rob_order",
                    f"ROB uop seq={uop.seq} in state {uop.state.name}",
                )

    def _check_lsq_consistency(self) -> None:
        p = self.p
        name = "lsq_consistency"
        rob_ids = self._rob_id_set()
        for label, queue, want in (
            ("load", p.lq, "is_load"),
            ("store", p.sq, "is_store"),
        ):
            prev_seq = -1
            for uop in queue.entries:
                if uop.seq <= prev_seq:
                    self._fail(
                        name,
                        f"{label} queue out of program order: "
                        f"{uop.seq} after {prev_seq}",
                    )
                prev_seq = uop.seq
                if uop.is_tea:
                    self._fail(name, f"TEA uop seq={uop.seq} in the {label} queue")
                if not getattr(uop.instr, want):
                    self._fail(
                        name,
                        f"non-{label} uop seq={uop.seq} in the {label} queue",
                    )
                if id(uop) not in rob_ids:
                    self._fail(
                        name,
                        f"{label} queue uop seq={uop.seq} not in the ROB",
                    )
        lq_ids = {id(uop) for uop in p.lq.entries}
        sq_ids = {id(uop) for uop in p.sq.entries}
        for uop in p.rob:
            if uop.instr.is_load and id(uop) not in lq_ids:
                self._fail(name, f"ROB load seq={uop.seq} missing from the LQ")
            if uop.instr.is_store and id(uop) not in sq_ids:
                self._fail(name, f"ROB store seq={uop.seq} missing from the SQ")

    def _check_occupancy_bounds(self) -> None:
        p = self.p
        core = p.config.core
        name = "occupancy_bounds"
        bounds = [
            ("ROB", len(p.rob), core.rob_entries),
            ("decode pipe", len(p.decode_pipe), core.frontend_buffer),
            ("FTQ", len(p.frontend.ftq), p.frontend.config.ftq_capacity),
            ("load queue", len(p.lq.entries), core.load_queue),
            ("store queue", len(p.sq.entries), core.store_queue),
        ]
        main_rs, tea_rs = p.scheduler.occupancy
        bounds.append(("main RS", main_rs, core.rs_entries))
        tea = p.tea
        if tea is not None:
            bounds.append(("TEA RS", tea_rs, tea.config.rs_entries))
            # The capacity gate runs before a fetch of up to fetch_width
            # more uops, so the pipe may legally overshoot by one fetch.
            bounds.append(
                (
                    "TEA rename pipe",
                    len(tea.rename_pipe),
                    tea.config.rename_pipe_capacity + tea.config.fetch_width,
                )
            )
        for label, depth, cap in bounds:
            if depth > cap:
                self._fail(name, f"{label} over capacity: {depth} > {cap}")
        # Shadow FTQ blocks must stay in strict timestamp order (its
        # depth is legitimately unbounded while the TEA thread
        # rename-stalls).
        prev_seq = -1
        for block in p.frontend.shadow_ftq:
            if not block.count:
                continue
            if block.first_seq <= prev_seq:
                self._fail(
                    name,
                    f"shadow FTQ out of order: block first_seq "
                    f"{block.first_seq} after {prev_seq}",
                )
            prev_seq = block.last_seq
        # IFBQ: every in-ROB mispredictable branch is tracked, keys are
        # consistent, and renamed entries carry their recovery state.
        for uop in p.rob:
            if uop.branch is not None and uop.branch.can_mispredict:
                if p.ifbq.get(uop.seq) is None:
                    self._fail(
                        name,
                        f"in-ROB branch seq={uop.seq} has no IFBQ entry",
                    )
        for seq, entry in p.ifbq._entries.items():
            if entry.seq != seq:
                self._fail(
                    name, f"IFBQ key {seq} maps to entry seq={entry.seq}"
                )
            if entry.renamed and entry.rat_checkpoint is None:
                self._fail(
                    name,
                    f"renamed IFBQ entry seq={seq} has no RAT checkpoint",
                )

    def _check_scheduler_wakeup(self) -> None:
        p = self.p
        sched = p.scheduler
        prf = p.prf
        ready_bits = prf.ready
        name = "scheduler_wakeup"
        pools = (
            ("ready_main", sched._ready_main, False),
            ("blocked_main", sched._blocked_main, False),
            ("waiting_main", sched._waiting_main.values(), False),
            ("ready_tea", sched._ready_tea, True),
            ("blocked_tea", sched._blocked_tea, True),
            ("waiting_tea", sched._waiting_tea.values(), True),
        )
        seen: dict[int, str] = {}
        # One (preg, consumer) pair per non-zero source occurrence of
        # every RS-resident uop: what the wakeup lists must hold.
        sources: list[tuple[int, int]] = []
        for label, pool, is_tea in pools:
            waiting = label.startswith("waiting")
            for uop in pool:
                if uop.is_tea != is_tea:
                    self._fail(
                        name,
                        f"thread mix-up: seq={uop.seq} is_tea={uop.is_tea} "
                        f"in pool {label}",
                    )
                key = id(uop)
                other = seen.get(key)
                if other is not None:
                    self._fail(
                        name,
                        f"seq={uop.seq} in both {other} and {label}",
                    )
                seen[key] = label
                unready = 0
                for preg in uop.src_pregs:
                    if preg:
                        sources.append((preg, key))
                        if not ready_bits[preg]:
                            unready += 1
                if waiting:
                    if uop.pending_srcs < 1:
                        self._fail(
                            name,
                            f"waiting seq={uop.seq} has pending_srcs="
                            f"{uop.pending_srcs}",
                        )
                    if uop.pending_srcs != unready:
                        self._fail(
                            name,
                            f"waiting seq={uop.seq} counts "
                            f"{uop.pending_srcs} pending sources but "
                            f"{unready} are unready",
                        )
                else:
                    if uop.pending_srcs != 0:
                        self._fail(
                            name,
                            f"{label} seq={uop.seq} has pending_srcs="
                            f"{uop.pending_srcs}",
                        )
                    if unready:
                        self._fail(
                            name,
                            f"{label} seq={uop.seq} has {unready} unready "
                            f"source(s)",
                        )
        # The per-preg wakeup lists (preg 0's included, which must stay
        # empty) must contain exactly those pairs, as a multiset.
        subscribed = [
            (preg, id(uop))
            for preg, waiters in enumerate(prf.waiters)
            if waiters
            for uop in waiters
        ]
        have, want = Counter(subscribed), Counter(sources)
        # Both hold positive counts only, so they compare as plain
        # dicts, without Counter.__eq__'s per-key Python loop.
        if dict.__eq__(have, want):
            return
        # Report the first differing preg in index order.
        preg = min(q for q, _ in (have - want) + (want - have))
        expected = sum(n for (q, _), n in want.items() if q == preg)
        self._fail(
            name,
            f"preg {preg} wakeup list mismatch: "
            f"{len(prf.waiters[preg])} subscribed vs "
            f"{expected} resident source occurrences",
        )

    def _check_tea_partition(self) -> None:
        p = self.p
        floor = p.prf.main_size
        name = "tea_partition"
        for uop in p.rob:
            for preg in uop.src_pregs:
                if preg > floor:
                    self._fail(
                        name,
                        f"main uop seq={uop.seq} reads TEA preg {preg}",
                    )
            if uop.dst_preg is not None and uop.dst_preg > floor:
                self._fail(
                    name,
                    f"main uop seq={uop.seq} writes TEA preg {uop.dst_preg}",
                )
            if uop.old_dst_preg is not None and uop.old_dst_preg > floor:
                self._fail(
                    name,
                    f"main uop seq={uop.seq} holds TEA preg "
                    f"{uop.old_dst_preg} as its previous mapping",
                )
        for reg, preg in enumerate(p.rat.map):
            if preg > floor:
                self._fail(name, f"main RAT maps r{reg} to TEA preg {preg}")
        tea = p.tea
        if tea is None:
            return
        for uop in tea.live_uops:
            if not uop.is_tea:
                self._fail(
                    name, f"main uop seq={uop.seq} in TEA live set"
                )
            if uop.state not in _LIVE_TEA_STATES:
                self._fail(
                    name,
                    f"TEA live uop seq={uop.seq} in state {uop.state.name}",
                )
            if uop.dst_preg is not None and uop.dst_preg <= floor:
                self._fail(
                    name,
                    f"TEA uop seq={uop.seq} writes main preg {uop.dst_preg}",
                )

    def _check_flush_epoch(self) -> None:
        p = self.p
        name = "flush_epoch"
        dead = (UopState.SQUASHED, UopState.RETIRED)
        last_renamed = p.last_renamed_seq
        for uop in p.rob:
            if uop.seq > last_renamed:
                self._fail(
                    name,
                    f"ROB seq={uop.seq} beyond last_renamed_seq="
                    f"{last_renamed}",
                )
        for label, pool in (
            ("ROB", p.rob),
            ("load queue", p.lq.entries),
            ("store queue", p.sq.entries),
        ):
            for uop in pool:
                if uop.state in dead:
                    self._fail(
                        name,
                        f"{uop.state.name} uop seq={uop.seq} in {label}",
                    )
        for uop in p.decode_pipe:
            if uop.state is not UopState.FETCHED:
                self._fail(
                    name,
                    f"decode-pipe uop seq={uop.seq} in state {uop.state.name}",
                )
        sched = p.scheduler
        rob_ids = self._rob_id_set()
        for pool in (
            sched._ready_main,
            sched._blocked_main,
            list(sched._waiting_main.values()),
        ):
            for uop in pool:
                if id(uop) not in rob_ids:
                    self._fail(
                        name,
                        f"main RS uop seq={uop.seq} not backed by the ROB",
                    )
        tea = p.tea
        if tea is not None:
            live_ids = {id(uop) for uop in tea.live_uops}
            for pool in (
                sched._ready_tea,
                sched._blocked_tea,
                list(sched._waiting_tea.values()),
            ):
                for uop in pool:
                    if id(uop) not in live_ids:
                        self._fail(
                            name,
                            f"TEA RS uop seq={uop.seq} not in the live set",
                        )
            for uop in tea.rename_pipe:
                if uop.state is not UopState.FETCHED:
                    self._fail(
                        name,
                        f"TEA rename-pipe uop seq={uop.seq} in state "
                        f"{uop.state.name}",
                    )
        if p._last_retire_cycle > p.cycle:
            self._fail(
                name,
                f"last_retire_cycle {p._last_retire_cycle} is in the "
                f"future (cycle {p.cycle})",
            )
