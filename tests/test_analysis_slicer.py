"""Static backward slices as static chains: contents, Block Cache-shaped
masks, flags.  ``analyze_chains`` computes each branch's slice (its
chain membership) in the same pass that collects the chain's edges."""

from repro import assemble
from repro.analysis import analyze_chains
from repro.isa.instructions import INSTRUCTION_BYTES
from repro.workloads import make_workload


def pcs_of(program, *opcodes):
    return [ins.pc for ins in program.instructions if ins.opcode in opcodes]


def test_slice_contains_branch_and_producers():
    program = assemble("""
        li r1, 0
        li r2, 10
    top:
        addi r1, r1, 1
        blt r1, r2, top
        halt
    """)
    chains = analyze_chains(program)
    [branch_pc] = pcs_of(program, "blt")
    chain = chains.chain_at(branch_pc)
    assert chain is not None
    # Chain: both li's, the addi, and the branch itself.
    assert chain.pcs == {0x0, 0x4, 0x8, branch_pc}
    assert not chain.has_indirect
    assert not chain.through_memory


def test_unrelated_computation_excluded():
    program = assemble("""
        li r1, 0
        li r2, 10
        li r5, 999
        mul r6, r5, r5
    top:
        addi r1, r1, 1
        blt r1, r2, top
        halt
    """)
    chains = analyze_chains(program)
    [branch_pc] = pcs_of(program, "blt")
    chain = chains.chain_at(branch_pc)
    excluded = set(pcs_of(program, "mul")) | {0x8}  # li r5 and mul
    assert not (chain.pcs & excluded)


def test_memory_dependence_joins_chain_and_sets_flag():
    program = assemble("""
        li r1, 4096
        li r2, 3
        st r2, 0(r1)
        ld r3, 0(r1)
        beq r3, r0, out
        addi r4, r4, 1
    out:
        halt
    """)
    chains = analyze_chains(program)
    [branch_pc] = pcs_of(program, "beq")
    chain = chains.chain_at(branch_pc)
    [st_pc] = pcs_of(program, "st")
    [ld_pc] = pcs_of(program, "ld")
    assert {st_pc, ld_pc} <= chain.pcs
    assert chain.through_memory


def test_masks_match_pcs_bit_for_bit():
    bundle = make_workload("bfs", "tiny")
    chains = analyze_chains(bundle.program)
    assert chains.chains
    for chain in chains.chains.values():
        rebuilt = set()
        for start, mask in chain.masks.items():
            block = bundle.program.basic_blocks[start]
            k = 0
            while mask:
                if mask & 1:
                    pc = start + k * INSTRUCTION_BYTES
                    assert pc <= block.end_pc
                    rebuilt.add(pc)
                mask >>= 1
                k += 1
        assert rebuilt == set(chain.pcs)


def test_unreachable_conditional_not_sliced():
    program = assemble("""
        jmp out
    dead:
        beq r1, r0, dead
    out:
        halt
    """)
    chains = analyze_chains(program)
    [branch_pc] = pcs_of(program, "beq")
    assert chains.chain_at(branch_pc) is None


def test_every_reachable_conditional_sliced_in_workloads():
    for name in ("bfs", "xz"):
        bundle = make_workload(name, "tiny")
        chains = analyze_chains(bundle.program)
        cfg = chains.cfg
        reachable_pcs = {
            pc for start in cfg.reachable for pc in cfg.blocks[start].pcs()
        }
        expected = {
            ins.pc
            for ins in bundle.program.instructions
            if ins.is_conditional and ins.pc in reachable_pcs
        }
        assert set(chains.chains) == expected
        assert expected, name
