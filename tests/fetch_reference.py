"""Per-uop reference versions of the frontend's compact fetch paths.

The decoupled frontend hands out each fetch block as a run (start PC,
first sequence number, count) plus its branches, and its consumers
build a uop only when they fetch it.  The functions here are the
walks that run replaced — one step per predicted uop — kept as
differential references for ``tests/test_fetch_differential.py`` and
as a readable expansion of a block for the frontend unit tests.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.core.dynamic_uop import DynUop
from repro.frontend.decoupled import BranchInfo, DecoupledFrontend, FetchBlock
from repro.isa import INSTRUCTION_BYTES, Instruction, UopClass


class RefUop(NamedTuple):
    """One predicted uop: what a per-uop block used to hold."""

    seq: int
    instr: Instruction
    branch: BranchInfo | None


def block_uops(program, block: FetchBlock) -> list[RefUop]:
    """Expand a compact block into its uops, oldest first."""
    uops = []
    for k in range(block.count):
        seq = block.first_seq + k
        instr = program.instruction_at(block.start_pc + k * INSTRUCTION_BYTES)
        uops.append(RefUop(seq, instr, block.branch_at(seq)))
    return uops


def reference_generate(frontend: DecoupledFrontend):
    """Predict one block the per-uop way.

    Returns ``(start_pc, uops, next_fetch_pc)``, or ``None`` when no uop
    could be predicted, and leaves the frontend's ``next_pc`` and
    sequence counter where the old walk left them.
    """
    start_pc = frontend.next_pc
    pc = start_pc
    uops: list[RefUop] = []
    next_fetch = None
    for _ in range(frontend.config.max_block_uops):
        instr = frontend.program.instruction_at(pc)
        if instr is None:
            frontend.next_pc = None
            break
        seq = frontend._seq
        frontend._seq = seq + 1
        if instr.uop_class is UopClass.HALT:
            uops.append(RefUop(seq, instr, None))
            frontend.next_pc = None
            break
        if not instr.is_branch:
            uops.append(RefUop(seq, instr, None))
            pc += INSTRUCTION_BYTES
            continue
        branch = frontend._predict_branch(instr, seq)
        uops.append(RefUop(seq, instr, branch))
        if branch.predicted_taken:
            next_fetch = branch.predicted_target
            frontend.next_pc = next_fetch
            break
        pc += INSTRUCTION_BYTES
    else:
        next_fetch = pc
        frontend.next_pc = pc
    if not uops:
        return None
    return start_pc, uops, next_fetch


def install_reference_generator(frontend: DecoupledFrontend) -> list:
    """Make ``frontend`` predict with :func:`reference_generate`.

    The per-uop result is packed into the same :class:`FetchBlock` the
    compact generator builds, so the rest of the machine runs
    unchanged.  Returns the list each block's per-uop form is appended
    to, as ``(block, uops)``.
    """
    produced: list = []

    def generate():
        result = reference_generate(frontend)
        if result is None:
            return None
        start_pc, uops, next_fetch = result
        branches = [u.branch for u in uops if u.branch is not None]
        block = FetchBlock(
            start_pc, uops[0].seq, len(uops), next_fetch, branches or ()
        )
        produced.append((block, uops))
        return block

    frontend._generate_block = generate
    return produced


def reference_truncate(uops: list[RefUop], seq: int) -> list[RefUop]:
    """The per-uop flush truncation: keep uops no younger than ``seq``."""
    return [u for u in uops if u.seq <= seq]


def reference_tea_fetch(tea, block: FetchBlock, index: int, budget: int):
    """The per-uop shadow fetch, without side effects.

    Walks the block's uops from ``index``, looking each one's basic
    block up and testing its Block Cache mask bit, until ``budget``
    chain uops are found or the block ends.  Returns ``(seqs, index,
    budget)``: the chain uops' sequence numbers in fetch order, the
    index just past the last uop examined, and the budget left.
    """
    program = tea.p.program
    uops = block_uops(program, block)
    masks: dict[int, int] = {}
    seqs = []
    while index < len(uops) and budget > 0:
        uop = uops[index]
        index += 1
        pc = uop.instr.pc
        bb_start = program.block_containing(pc)
        if bb_start is None:
            continue
        bb_start = bb_start.start_pc
        mask = masks.get(bb_start)
        if mask is None:
            mask = masks[bb_start] = tea.block_cache.peek(bb_start) or 0
        if (mask >> ((pc - bb_start) // INSTRUCTION_BYTES)) & 1:
            seqs.append(uop.seq)
            budget -= 1
    return seqs, index, budget


def reference_bb_starts(program, block: FetchBlock) -> list[int]:
    """The per-uop basic-block start list of a block, in order."""
    starts: list[int] = []
    for uop in block_uops(program, block):
        found = program.block_containing(uop.instr.pc)
        if found is not None and (not starts or starts[-1] != found.start_pc):
            starts.append(found.start_pc)
    return starts


def fetched_tea_uops(tea, block: FetchBlock, index: int, budget: int):
    """Run the controller's shadow fetch on ``block`` from ``index``.

    Returns ``(seqs, index, budget)`` in :func:`reference_tea_fetch`'s
    terms (an exhausted block reports ``index == block.count``).  The
    controller's rename pipe and pending cursor are restored after.
    """
    saved = (tea._pending_block, tea._pending_index, list(tea.rename_pipe))
    tea.rename_pipe.clear()
    tea._pending_block = block
    tea._pending_index = index
    try:
        left = tea._fetch_from_block(block, budget)
        fetched: list[DynUop] = list(tea.rename_pipe)
        done = tea._pending_block is None
        new_index = block.count if done else tea._pending_index
    finally:
        tea._pending_block, tea._pending_index = saved[0], saved[1]
        tea.rename_pipe.clear()
        tea.rename_pipe.extend(saved[2])
    return [u.seq for u in fetched], new_index, left
