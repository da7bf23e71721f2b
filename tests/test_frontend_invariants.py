"""Property tests on decoupled-frontend invariants over random programs.

The FTQ stream is the contract between the predictor, the main thread,
and the TEA thread; these invariants are what the synchronized
timestamps rely on.
"""

import random

from hypothesis import given, settings, strategies as st

from repro import assemble
from repro.frontend import DecoupledFrontend
from repro.isa import INSTRUCTION_BYTES
from tests.fetch_reference import block_uops


def _random_branchy_source(rng: random.Random) -> str:
    """A random program of small blocks joined by jumps/branches."""
    num_blocks = rng.randint(3, 8)
    lines = []
    for b in range(num_blocks):
        lines.append(f"blk{b}:")
        for _ in range(rng.randint(1, 5)):
            r = rng.randint(1, 8)
            lines.append(f"    addi r{r}, r{r}, 1")
        target = rng.randrange(num_blocks)
        kind = rng.random()
        if kind < 0.5:
            lines.append(f"    beq r1, r2, blk{target}")
            lines.append(f"    jmp blk{rng.randrange(num_blocks)}")
        else:
            lines.append(f"    jmp blk{target}")
    lines.append("    halt")
    return "\n".join(lines)


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=30, deadline=None)
def test_block_stream_invariants(seed):
    rng = random.Random(seed)
    program = assemble(_random_branchy_source(rng))
    frontend = DecoupledFrontend(program)
    last_seq = -1
    for _ in range(120):
        block = frontend.tick()
        if block is None:
            break
        uops = block_uops(program, block)
        assert uops, "empty block emitted"
        # 1. Sequence numbers are strictly increasing, gap-free inside
        #    a block (gaps may only appear across flushes).
        seqs = [u.seq for u in uops]
        assert seqs[0] > last_seq
        assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))
        last_seq = seqs[-1]
        # 2. PCs are sequential within the block.
        pcs = [u.instr.pc for u in uops]
        assert pcs == [
            block.start_pc + i * INSTRUCTION_BYTES for i in range(len(pcs))
        ]
        # 3. Only the final uop may be predicted-taken.
        for uop in uops[:-1]:
            if uop.branch is not None:
                assert not uop.branch.predicted_taken
        # 4. next_fetch_pc matches the last uop's prediction.
        tail = uops[-1]
        if tail.branch is not None and block.next_fetch_pc is not None:
            assert block.next_fetch_pc == tail.branch.predicted_next_pc
        # 5. Block length respects the 32-uop (128B) cap.
        assert len(uops) <= frontend.config.max_block_uops


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=20, deadline=None)
def test_flush_restores_prediction_determinism(seed):
    """Flushing a branch and re-running from its snapshot must produce
    the same downstream decisions as an unflushed twin frontend."""
    rng = random.Random(seed)
    source = _random_branchy_source(rng)
    program = assemble(source)
    frontend = DecoupledFrontend(program)

    # Produce a few blocks; find the first recoverable branch.
    branch = None
    for _ in range(20):
        block = frontend.tick()
        if block is None:
            break
        for uop in block_uops(program, block):
            if uop.branch is not None and uop.branch.can_mispredict:
                branch = uop.branch
                break
        if branch:
            break
    if branch is None:
        return  # nothing to flush in this program
    # Flush at the branch with its own predicted outcome: state must
    # be restored to "as if the prediction had just been made".
    frontend.flush_at(
        branch,
        branch.predicted_taken,
        branch.predicted_target if branch.predicted_taken else branch.fallthrough,
    )
    assert frontend.next_pc == branch.predicted_next_pc
    # The FTQ holds nothing younger than the branch.
    for block in frontend.ftq:
        assert all(u.seq <= branch.seq for u in block_uops(program, block))
