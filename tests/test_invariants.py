"""Runtime invariant checker (repro.verify.invariants): a checked sweep
over real workloads must be violation-free and cycle-identical to the
unchecked run, every invariant family must catch a hand-broken machine
state, and the multiset audits of ``preg_conservation`` and
``scheduler_wakeup`` must give the per-preg reference audits' verdicts."""

import copy
from collections import Counter
from functools import partial

import pytest

from repro import Pipeline, SimConfig, assemble
from repro.core.config import ConfigError
from repro.core.dynamic_uop import UopState
from repro.frontend.decoupled import FetchBlock
from repro.harness import make_config, run_workload
from repro.tea import TeaConfig
from repro.verify import InvariantChecker, InvariantViolation
from repro.workloads import make_workload

from tests.conftest import h2p_loop_workload


def stepped_pipeline(cond=None, max_steps=20_000):
    """An H2P-loop TEA pipeline stepped to a mid-execution state (and,
    optionally, until ``cond(pipeline)`` holds)."""
    source, mem, _ = h2p_loop_workload(n=600, seed=5)
    pipeline = Pipeline(assemble(source), mem, SimConfig(tea=TeaConfig()))
    for _ in range(max_steps):
        pipeline.step()
        if pipeline.cycle >= 1_500 and (cond is None or cond(pipeline)):
            return pipeline
    raise AssertionError("pipeline never reached the requested state")


class TestCheckedSweep:
    """Real workloads audited every cycle must be violation-free."""

    @pytest.mark.parametrize(
        "workload,mode,period",
        # One flagship every-cycle sweep; the rest sample every 8th
        # cycle.  An audit is linear in the in-flight uops and wakeup
        # subscriptions (under a millisecond on bfs/tea).
        [("bfs", "tea", 1), ("bfs", "baseline", 8), ("xz", "tea", 8)],
    )
    def test_workload_violation_free(self, workload, mode, period):
        result = run_workload(workload, mode, "tiny", check_invariants=period)
        assert result.halted and result.validated
        assert result.stats.invariant_checks > 0
        if period == 1:
            assert result.stats.invariant_checks == result.stats.cycles

    def test_checking_is_timing_neutral(self):
        checked = run_workload("bfs", "tea", "tiny", check_invariants=4)
        plain = run_workload("bfs", "tea", "tiny")
        for name in (
            "cycles",
            "retired_instructions",
            "flushes",
            "early_flushes",
            "tea_resolved_branches",
            "tea_wrong_resolutions",
            "tea_chain_disables",
        ):
            assert getattr(checked.stats, name) == getattr(plain.stats, name)
        assert plain.stats.invariant_checks == 0
        assert checked.stats.invariant_checks > 0


class TestHandBrokenStates:
    """Each family must reject a deliberately corrupted machine."""

    def test_preg_leak_detected(self):
        pipeline = stepped_pipeline()
        pipeline.prf.main_free.popleft()
        checker = InvariantChecker(pipeline)
        with pytest.raises(InvariantViolation) as exc:
            checker.audit()
        assert exc.value.invariant == "preg_conservation"
        assert "leaked" in exc.value.detail

    def test_double_held_preg_detected(self):
        pipeline = stepped_pipeline()
        pipeline.prf.main_free.append(pipeline.prf.main_free[0])
        with pytest.raises(InvariantViolation) as exc:
            InvariantChecker(pipeline).audit()
        assert exc.value.invariant == "preg_conservation"
        assert "double-held" in exc.value.detail

    def test_rob_dead_state_detected(self):
        pipeline = stepped_pipeline(cond=lambda p: len(p.rob) >= 2)
        pipeline.rob[0].state = UopState.RETIRED
        with pytest.raises(InvariantViolation) as exc:
            InvariantChecker(pipeline)._check_rob_order()
        assert exc.value.invariant == "rob_order"

    def test_lsq_missing_load_detected(self):
        pipeline = stepped_pipeline(cond=lambda p: p.lq.entries)
        pipeline.lq.entries.pop()
        with pytest.raises(InvariantViolation) as exc:
            InvariantChecker(pipeline)._check_lsq_consistency()
        assert exc.value.invariant == "lsq_consistency"

    def test_ifbq_key_mismatch_detected(self):
        pipeline = stepped_pipeline(cond=lambda p: p.ifbq._entries)
        seq = next(iter(pipeline.ifbq._entries))
        pipeline.ifbq._entries[seq + 999_999] = pipeline.ifbq._entries[seq]
        with pytest.raises(InvariantViolation) as exc:
            InvariantChecker(pipeline)._check_occupancy_bounds()
        assert exc.value.invariant == "occupancy_bounds"

    def test_phantom_wakeup_subscription_detected(self):
        pipeline = stepped_pipeline()
        pipeline.prf.waiters[1].append(object())
        with pytest.raises(InvariantViolation) as exc:
            InvariantChecker(pipeline)._check_scheduler_wakeup()
        assert exc.value.invariant == "scheduler_wakeup"

    def test_rat_naming_tea_preg_detected(self):
        pipeline = stepped_pipeline()
        pipeline.rat.map[3] = pipeline.prf.main_size + 1
        with pytest.raises(InvariantViolation) as exc:
            InvariantChecker(pipeline)._check_tea_partition()
        assert exc.value.invariant == "tea_partition"

    def test_future_retire_cycle_detected(self):
        pipeline = stepped_pipeline()
        pipeline._last_retire_cycle = pipeline.cycle + 5
        with pytest.raises(InvariantViolation) as exc:
            InvariantChecker(pipeline)._check_flush_epoch()
        assert exc.value.invariant == "flush_epoch"

    def test_shadow_ftq_repeated_seq_detected(self):
        pipeline = stepped_pipeline()
        older = FetchBlock(0, 7, 2, None)    # seqs 7 and 8
        younger = FetchBlock(8, 8, 1, None)  # seq 8 again
        pipeline.frontend.shadow_ftq.clear()
        pipeline.frontend.shadow_ftq.extend((older, younger))
        with pytest.raises(InvariantViolation) as exc:
            InvariantChecker(pipeline)._check_occupancy_bounds()
        assert exc.value.invariant == "occupancy_bounds"
        assert "shadow FTQ out of order" in exc.value.detail

    def test_violation_carries_watchdog_diagnostics(self):
        pipeline = stepped_pipeline()
        pipeline.prf.main_free.popleft()
        with pytest.raises(InvariantViolation) as exc:
            InvariantChecker(pipeline).audit()
        diag = exc.value.diagnostics
        for key in ("cycle", "rob_depth", "free_pregs", "invariant"):
            assert key in diag
        assert diag["invariant"] == "preg_conservation"


class TestConfiguration:
    def test_negative_period_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(check_invariants=-1)

    def test_checker_rejects_zero_period(self):
        pipeline = stepped_pipeline()
        with pytest.raises(ValueError):
            InvariantChecker(pipeline, period=0)

    def test_clean_machine_passes_every_family(self):
        pipeline = stepped_pipeline()
        checker = InvariantChecker(pipeline)
        checker.audit()  # must not raise
        assert checker.checks_run == 1
        assert pipeline.stats.invariant_checks == 1


# ----------------------------------------------------------------------
# Differential test of the multiset audits.  The two functions below
# audit the same properties one preg at a time, with a Counter per preg;
# they are the reference the checker's families must agree with.
# ----------------------------------------------------------------------
def reference_preg_conservation(checker):
    p = checker.p
    prf = p.prf
    name = "preg_conservation"
    held = Counter(preg for preg in prf.main_free)
    held.update(preg for preg in p.rat.map if preg != 0)
    held.update(
        uop.old_dst_preg
        for uop in p.rob
        if uop.old_dst_preg is not None and uop.old_dst_preg != 0
    )
    expected = Counter(range(1, 1 + prf.main_size))
    if held != expected:
        missing = sorted((expected - held).elements())[:8]
        extra = sorted((held - expected).elements())[:8]
        checker._fail(
            name,
            f"main preg multiset mismatch: leaked={missing} "
            f"double-held={extra}",
        )
    tea = p.tea
    if tea is None or prf.tea_size == 0:
        return
    tea_free = Counter(prf.tea_free)
    tracked = set(tea._valid) | set(tea._refcount)
    dup = [preg for preg in tracked if tea_free[preg]]
    if dup:
        checker._fail(name, f"TEA pregs both free and tracked: {sorted(dup)[:8]}")
    held = tea_free + Counter(tracked)
    total = 1 + prf.main_size + prf.tea_size
    expected = Counter(range(1 + prf.main_size, total))
    if held != expected:
        missing = sorted((expected - held).elements())[:8]
        extra = sorted((held - expected).elements())[:8]
        checker._fail(
            name,
            f"TEA preg multiset mismatch: leaked={missing} "
            f"double-held={extra}",
        )
    stray = tea._refcount_saturated - set(tea._refcount)
    if stray:
        checker._fail(
            name,
            f"saturated refcounts without refcount entries: "
            f"{sorted(stray)[:8]}",
        )


def reference_scheduler_wakeup(checker):
    p = checker.p
    sched = p.scheduler
    prf = p.prf
    ready_bits = prf.ready
    name = "scheduler_wakeup"
    pools = (
        ("ready_main", sched._ready_main, False),
        ("blocked_main", sched._blocked_main, False),
        ("waiting_main", list(sched._waiting_main.values()), False),
        ("ready_tea", sched._ready_tea, True),
        ("blocked_tea", sched._blocked_tea, True),
        ("waiting_tea", list(sched._waiting_tea.values()), True),
    )
    seen = {}
    resident = []
    for label, pool, is_tea in pools:
        waiting = label.startswith("waiting")
        for uop in pool:
            if uop.is_tea != is_tea:
                checker._fail(
                    name,
                    f"thread mix-up: seq={uop.seq} is_tea={uop.is_tea} "
                    f"in pool {label}",
                )
            other = seen.get(id(uop))
            if other is not None:
                checker._fail(name, f"seq={uop.seq} in both {other} and {label}")
            seen[id(uop)] = label
            resident.append(uop)
            unready = sum(
                1 for preg in uop.src_pregs if preg and not ready_bits[preg]
            )
            if waiting:
                if uop.pending_srcs < 1:
                    checker._fail(
                        name,
                        f"waiting seq={uop.seq} has pending_srcs="
                        f"{uop.pending_srcs}",
                    )
                if uop.pending_srcs != unready:
                    checker._fail(
                        name,
                        f"waiting seq={uop.seq} counts "
                        f"{uop.pending_srcs} pending sources but "
                        f"{unready} are unready",
                    )
            else:
                if uop.pending_srcs != 0:
                    checker._fail(
                        name,
                        f"{label} seq={uop.seq} has pending_srcs="
                        f"{uop.pending_srcs}",
                    )
                if unready:
                    checker._fail(
                        name,
                        f"{label} seq={uop.seq} has {unready} unready "
                        f"source(s)",
                    )
    want = {}
    for uop in resident:
        for preg in uop.src_pregs:
            if preg:
                want.setdefault(preg, Counter())[id(uop)] += 1
    for preg, waiters in enumerate(prf.waiters):
        have = Counter(id(uop) for uop in waiters)
        expected = want.get(preg, Counter())
        if have != expected:
            checker._fail(
                name,
                f"preg {preg} wakeup list mismatch: "
                f"{sum(have.values())} subscribed vs "
                f"{sum(expected.values())} resident source occurrences",
            )


def verdict(check):
    """``(invariant, detail)`` of a failing audit, ``None`` if it passes."""
    try:
        check()
    except InvariantViolation as exc:
        return exc.invariant, exc.detail
    return None


def fast_and_reference_verdicts(pipeline):
    """(fast, reference) verdict pairs of both families on one state."""
    checker = InvariantChecker(pipeline)
    return [
        (verdict(checker._check_preg_conservation),
         verdict(partial(reference_preg_conservation, checker))),
        (verdict(checker._check_scheduler_wakeup),
         verdict(partial(reference_scheduler_wakeup, checker))),
    ]


def workload_pipeline(workload, mode):
    built = make_workload(workload, "tiny")
    return Pipeline(built.program, built.fresh_memory(), make_config(mode))


def busy_tea_pipeline():
    """bfs under TEA stepped until both threads have waiting RS entries
    and the TEA thread tracks pregs (cycle ~3.4k)."""
    pipeline = workload_pipeline("bfs", "tea")
    while not pipeline.halted:
        pipeline.step()
        sched = pipeline.scheduler
        if (
            sched._waiting_main
            and sched._waiting_tea
            and pipeline.tea._refcount
            and pipeline.prf.tea_free
        ):
            return pipeline
    raise AssertionError("bfs/tea never reached a busy TEA state")


def waiting_main_uop(pipeline):
    return next(iter(pipeline.scheduler._waiting_main.values()))


def subscribed_pregs(pipeline):
    return [preg for preg, waiters in enumerate(pipeline.prf.waiters) if waiters]


def drop_wakeup_entry(pipeline):
    pipeline.prf.waiters[subscribed_pregs(pipeline)[-1]].pop()


def duplicate_wakeup_entry(pipeline):
    waiters = pipeline.prf.waiters[subscribed_pregs(pipeline)[0]]
    waiters.append(waiters[0])


def add_wakeup_entry(pipeline):
    unsubscribed = pipeline.prf.waiters.index([], 1)
    pipeline.prf.waiters[unsubscribed].append(waiting_main_uop(pipeline))


def corrupt_two_wakeup_lists(pipeline):
    # The report must name the lower of the two pregs.
    drop_wakeup_entry(pipeline)
    duplicate_wakeup_entry(pipeline)


def subscribe_squashed_uop(pipeline):
    uop = waiting_main_uop(pipeline)
    ghost = copy.copy(uop)
    ghost.state = UopState.SQUASHED
    preg = next(preg for preg in uop.src_pregs if preg)
    pipeline.prf.waiters[preg].append(ghost)


def subscribe_on_preg_zero(pipeline):
    pipeline.prf.waiters[0].append(waiting_main_uop(pipeline))


def move_waiting_uop_to_ready_pool(pipeline):
    sched = pipeline.scheduler
    uop = waiting_main_uop(pipeline)
    del sched._waiting_main[id(uop)]
    sched._ready_main.append(uop)


def move_main_uop_to_tea_pool(pipeline):
    sched = pipeline.scheduler
    uop = waiting_main_uop(pipeline)
    sched._waiting_tea[id(uop)] = sched._waiting_main.pop(id(uop))


def leak_main_preg(pipeline):
    pipeline.prf.main_free.popleft()


def double_hold_main_preg(pipeline):
    pipeline.prf.main_free.append(pipeline.prf.main_free[0])


def alias_two_rat_entries(pipeline):
    rat = pipeline.rat.map
    first, second = [reg for reg, preg in enumerate(rat) if preg][-2:]
    rat[second] = rat[first]


def leak_tea_preg(pipeline):
    pipeline.prf.tea_free.popleft()


def double_hold_tea_preg(pipeline):
    pipeline.prf.tea_free.append(pipeline.prf.tea_free[0])


def track_free_tea_preg(pipeline):
    pipeline.tea._valid[pipeline.prf.tea_free[-1]] = True


def saturate_preg_without_refcount(pipeline):
    pipeline.tea._refcount_saturated.add(pipeline.prf.tea_free[0])


CORRUPTIONS = (
    drop_wakeup_entry,
    duplicate_wakeup_entry,
    add_wakeup_entry,
    corrupt_two_wakeup_lists,
    subscribe_squashed_uop,
    subscribe_on_preg_zero,
    move_waiting_uop_to_ready_pool,
    move_main_uop_to_tea_pool,
    leak_main_preg,
    double_hold_main_preg,
    alias_two_rat_entries,
    leak_tea_preg,
    double_hold_tea_preg,
    track_free_tea_preg,
    saturate_preg_without_refcount,
)


class TestFastAuditMatchesReference:
    """On every state, the multiset audits and the per-preg reference
    both pass or both raise the same ``(invariant, detail)``."""

    @pytest.mark.parametrize("workload,mode", [("bfs", "tea"), ("xz", "baseline")])
    def test_clean_states_pass_both(self, workload, mode):
        pipeline = workload_pipeline(workload, mode)
        states = tea_states = 0
        while not pipeline.halted:
            pipeline.step()
            if pipeline.cycle % 100:
                continue
            for fast, reference in fast_and_reference_verdicts(pipeline):
                assert fast is None and reference is None
            states += 1
            tea_states += bool(pipeline.tea is not None and pipeline.tea._valid)
        assert states >= 100
        assert tea_states > 0 or mode == "baseline"

    @pytest.mark.parametrize(
        "corrupt", CORRUPTIONS, ids=[fn.__name__ for fn in CORRUPTIONS]
    )
    def test_corrupted_state_gives_the_same_verdict(self, corrupt):
        pipeline = busy_tea_pipeline()
        corrupt(pipeline)
        pairs = fast_and_reference_verdicts(pipeline)
        assert any(reference is not None for _, reference in pairs)
        for fast, reference in pairs:
            assert fast == reference
