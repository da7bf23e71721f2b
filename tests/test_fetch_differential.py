"""Differential tests: compact fetch blocks against the per-uop walks.

A fetch block is a run (start PC, first sequence number, count) plus
its branches; the predictor steps over straight-line stretches at once
and the main and TEA threads build uops by offset.  Each test here
runs the compact path beside the per-uop reference it replaced
(``tests/fetch_reference.py``) and requires identical results:

* block generation, on every registered workload, on 64 generated fuzz
  programs, and on hand-made edge cases (an off-image target, HALT,
  the 32-uop cap, a flush that truncates a block mid-way);
* the TEA thread's initiation scan and shadow fetch, on the blocks
  bfs/tea and mcf/tea actually fetch.
"""

from __future__ import annotations

import pytest

from repro import MemoryImage, Pipeline, SimConfig, assemble
from repro.frontend import DecoupledFrontend
from repro.fuzz.generator import generate_program
from repro.harness.runner import make_config
from repro.isa import INSTRUCTION_BYTES
from repro.workloads import make_workload, workload_names
from tests.fetch_reference import (
    block_uops,
    fetched_tea_uops,
    install_reference_generator,
    reference_bb_starts,
    reference_tea_fetch,
    reference_truncate,
)

#: Cycles each twin run of a registered workload covers.
TWIN_CYCLES = 3000
#: Cycles each twin run of a generated fuzz program covers.
FUZZ_CYCLES = 1500


# ----------------------------------------------------------------------
# Comparison helpers
# ----------------------------------------------------------------------
def _branch_view(branch) -> tuple:
    """Everything the prediction decided, including recovery state."""
    top = branch.ras_top
    return (
        branch.seq,
        branch.pc,
        branch.uop_class,
        branch.predicted_taken,
        branch.predicted_target,
        branch.fallthrough,
        branch.can_mispredict,
        branch.override_used,
        branch.ghr,
        branch.path,
        branch.folds,
        top.depth if top is not None else 0,
        branch.loop_counts,
    )


def _ref_view(start_pc, uops, next_fetch) -> tuple:
    return (
        start_pc,
        [u.seq for u in uops],
        [u.instr.pc for u in uops],
        [_branch_view(u.branch) for u in uops if u.branch is not None],
        [u.seq for u in uops if u.instr.is_branch],
        next_fetch,
    )


def _block_view(program, block) -> tuple:
    uops = block_uops(program, block)
    return _ref_view(block.start_pc, uops, block.next_fetch_pc)


def _ras_addresses(ras) -> list[int]:
    out, node = [], ras.top
    while node is not None:
        out.append(node.address)
        node = node.below
    return out


def _frontend_state(frontend) -> tuple:
    history = frontend.history
    return (
        frontend.next_pc,
        frontend.current_seq,
        history.ghr,
        history.path,
        history.folds,
        _ras_addresses(frontend.ras),
    )


def _record_blocks(frontend) -> list:
    """Record the view of every block ``frontend`` generates, taken
    when it is generated (a later flush may truncate it)."""
    views: list = []
    generate = frontend._generate_block

    def recorded():
        block = generate()
        if block is not None:
            views.append(_block_view(frontend.program, block))
        return block

    frontend._generate_block = recorded
    return views


def _twin_run(program, make_memory, config, cycles) -> int:
    """Step a compact-fetch pipeline and a reference-generator twin in
    lockstep; every generated block and the predictor state after every
    cycle must agree.  Returns the number of blocks compared."""
    fast = Pipeline(program, make_memory(), config)
    ref = Pipeline(program, make_memory(), config)
    fast_views = _record_blocks(fast.frontend)
    produced = install_reference_generator(ref.frontend)
    compared = 0
    for _ in range(cycles):
        fast.step()
        ref.step()
        ref_views = [
            _ref_view(b.start_pc, uops, b.next_fetch_pc) for b, uops in produced
        ]
        assert fast_views == ref_views, f"block diverged at cycle {fast.cycle}"
        compared += len(fast_views)
        fast_views.clear()
        produced.clear()
        assert _frontend_state(fast.frontend) == _frontend_state(ref.frontend), (
            f"predictor state diverged at cycle {fast.cycle}"
        )
        if fast.halted or ref.halted:
            break
    assert fast.halted == ref.halted
    assert fast.stats.fetched_uops == ref.stats.fetched_uops
    assert fast.stats.flushes == ref.stats.flushes
    return compared


# ----------------------------------------------------------------------
# Block generation: registered workloads and fuzz programs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", workload_names())
def test_generation_matches_reference_on_workload(name):
    workload = make_workload(name, "tiny")
    compared = _twin_run(
        workload.program, workload.fresh_memory, SimConfig(), TWIN_CYCLES
    )
    assert compared > 0


@pytest.mark.parametrize("name", ["bfs", "mcf"])
def test_generation_matches_reference_under_tea_flushes(name):
    # TEA's early flushes truncate blocks the main thread has not
    # fetched yet; the twin must still agree block for block.
    workload = make_workload(name, "tiny")
    compared = _twin_run(
        workload.program, workload.fresh_memory, make_config("tea"), TWIN_CYCLES
    )
    assert compared > 0


@pytest.mark.parametrize("batch", range(8))
def test_generation_matches_reference_on_fuzz_programs(batch):
    for seed in range(batch * 8, batch * 8 + 8):
        unit = generate_program(seed).unit
        compared = _twin_run(
            unit.program,
            lambda: MemoryImage(unit.memory.snapshot()),
            SimConfig(),
            FUZZ_CYCLES,
        )
        assert compared > 0, f"fuzz seed {seed} generated no block"


# ----------------------------------------------------------------------
# Block generation: edge cases on a bare frontend
# ----------------------------------------------------------------------
def _twin_frontends(source, prepare=None):
    program = assemble(source)
    fast = DecoupledFrontend(program)
    ref = DecoupledFrontend(program)
    if prepare is not None:
        prepare(fast)
        prepare(ref)
    produced = install_reference_generator(ref)
    return program, fast, ref, produced


def _tick_both(program, fast, ref, produced):
    block = fast.tick()
    ref_block = ref.tick()
    assert (block is None) == (ref_block is None)
    assert _frontend_state(fast) == _frontend_state(ref)
    if block is None:
        return None, None
    _, uops = produced[-1]
    assert _block_view(program, block) == _ref_view(
        ref_block.start_pc, uops, ref_block.next_fetch_pc
    )
    return block, uops


def test_run_off_the_end_of_the_image():
    program, fast, ref, produced = _twin_frontends("nop\nnop\nnop")
    block, uops = _tick_both(program, fast, ref, produced)
    assert block.count == 3 and block.next_fetch_pc is None
    assert fast.next_pc is None
    assert _tick_both(program, fast, ref, produced) == (None, None)


def test_predicted_target_off_the_image():
    def prepare(frontend):
        frontend.btb.install(0, 0x4000)  # jr's only target: off-image

    program, fast, ref, produced = _twin_frontends("jr r1\nhalt", prepare)
    block, _ = _tick_both(program, fast, ref, produced)
    assert block.next_fetch_pc == 0x4000
    # The next block would start off the image: no block, a stall.
    assert _tick_both(program, fast, ref, produced) == (None, None)
    assert fast.stalled() and fast.stall_cycles == 1


def test_halt_ends_the_block_and_stalls():
    program, fast, ref, produced = _twin_frontends("nop\nnop\nhalt\nnop\nnop")
    block, uops = _tick_both(program, fast, ref, produced)
    assert block.count == 3 and uops[-1].instr.opcode == "halt"
    assert fast.next_pc is None and fast.current_seq == 3


def test_plain_run_longer_than_the_cap():
    program, fast, ref, produced = _twin_frontends("\n".join(["nop"] * 70) + "\nhalt")
    counts = []
    for _ in range(3):
        block, _ = _tick_both(program, fast, ref, produced)
        counts.append(block.count)
    assert counts == [32, 32, 7]


def test_cap_lands_on_a_not_taken_branch():
    # Uop 32 is a cold (not-taken) conditional: the cap, not the
    # branch, ends the block, at the PC after it.
    source = "\n".join(["nop"] * 31) + "\nbeq r1, r2, away\nnop\nhalt\naway: halt"
    program, fast, ref, produced = _twin_frontends(source)
    block, uops = _tick_both(program, fast, ref, produced)
    assert block.count == 32 and uops[-1].branch is not None
    assert block.next_fetch_pc == 32 * INSTRUCTION_BYTES


def test_flush_truncates_mid_block():
    source = """
        nop
        beq r1, r2, away
        nop
        bne r3, r4, away
        nop
        jmp away
    away:
        halt
    """
    program, fast, ref, produced = _twin_frontends(source)
    block, uops = _tick_both(program, fast, ref, produced)
    _tick_both(program, fast, ref, produced)  # the wrong-path block
    first_branch = uops[1].branch
    assert first_branch is not None and not first_branch.predicted_taken
    ref_first = produced[0][1][1].branch
    away = program.labels["away"]
    fast.flush_at(first_branch, True, away)
    ref.flush_at(ref_first, True, away)
    assert _frontend_state(fast) == _frontend_state(ref)
    # The block keeps exactly the uops no younger than the branch.
    kept = reference_truncate(uops, first_branch.seq)
    assert _block_view(program, block) == _ref_view(
        block.start_pc, kept, block.next_fetch_pc
    )
    assert block.count == 2 and [b.seq for b in block.branches] == [first_branch.seq]
    assert list(fast.ftq) == [block] and list(fast.shadow_ftq) == [block]
    # Prediction resumes at the target, in step with the reference.
    _tick_both(program, fast, ref, produced)


# ----------------------------------------------------------------------
# TEA thread: initiation scan and shadow fetch
# ----------------------------------------------------------------------
def _checked_tea_run(name):
    """Run ``name`` under TEA with every shadow fetch checked against
    the per-uop reference as it happens.  Returns the pipeline and the
    distinct blocks the TEA thread fetched from."""
    workload = make_workload(name, "tiny")
    pipeline = Pipeline(workload.program, workload.fresh_memory(), make_config("tea"))
    tea = pipeline.tea
    program = pipeline.program
    fetch_from_block = tea._fetch_from_block
    fetch_active = tea._fetch_active
    blocks: dict[tuple[int, int], object] = {}
    checks = {"calls": 0, "fetched": 0}

    def checked_fetch(block, budget):
        want = reference_tea_fetch(tea, block, tea._pending_index, budget)
        before = len(tea.rename_pipe)
        left = fetch_from_block(block, budget)
        seqs = [u.seq for u in list(tea.rename_pipe)[before:]]
        index = block.count if tea._pending_block is None else tea._pending_index
        assert (seqs, index, left) == want, f"shadow fetch diverged at {pipeline.cycle}"
        checks["calls"] += 1
        checks["fetched"] += len(seqs)
        blocks[(block.start_pc, block.count)] = block
        return left

    def check_bb_starts(shadow_blocks):
        for block in shadow_blocks:
            spans = program.basic_block_spans(block.start_pc, block.count)
            assert [s[0] for s in spans] == reference_bb_starts(program, block)

    def checked_scan():
        check_bb_starts(list(pipeline.frontend.shadow_ftq)[:8])
        scan()

    def checked_active():
        if tea._pending_block is None:
            check_bb_starts(list(pipeline.frontend.shadow_ftq)[:1])
        fetch_active()

    scan = tea._scan_for_initiation
    tea._fetch_from_block = checked_fetch
    tea._fetch_active = checked_active
    tea._scan_for_initiation = checked_scan
    pipeline.run()
    del tea._fetch_from_block, tea._fetch_active, tea._scan_for_initiation
    assert pipeline.halted
    assert checks["calls"] > 0 and checks["fetched"] > 0
    assert checks["fetched"] == pipeline.stats.tea_fetched_uops
    return pipeline, list(blocks.values())


@pytest.mark.parametrize("name", ["bfs", "mcf"])
def test_tea_fetch_matches_reference(name):
    pipeline, blocks = _checked_tea_run(name)
    tea = pipeline.tea
    width = tea.config.fetch_width
    cases = mid_span = 0
    # Replay every recorded block from every start index at every
    # budget, under the Block Cache as the run left it.
    for block in blocks:
        spans = pipeline.program.basic_block_spans(block.start_pc, block.count)
        for index in range(block.count):
            for budget in range(1, width + 1):
                want = reference_tea_fetch(tea, block, index, budget)
                assert fetched_tea_uops(tea, block, index, budget) == want
                cases += 1
                seqs, stopped, left = want
                if seqs and left == 0 and any(
                    first < stopped < stop for _, first, stop, _ in spans
                ):
                    mid_span += 1
    assert cases > 0
    # Some budgets ran out inside a basic block's span.
    assert mid_span > 0
