"""Dataflow analysis: reaching defs, may-alias memory, liveness.

The crown test validates the static facts against *dynamic* ground
truth: an instrumented interpreter records, for every executed
instruction, which instruction actually produced each consumed value
(registers via last-writer tracking, loads via last-store-to-address).
Static analysis over-approximates — every dynamically observed def-use
edge must appear in the static chains, on every registered workload.
"""

import pytest

from repro import assemble
from repro.analysis import MemLoc, analyze_dataflow
from repro.isa import REG_ZERO, UopClass
from repro.isa.instructions import INSTRUCTION_BYTES
from repro.isa.semantics import (
    branch_taken,
    branch_target,
    compute_result,
    effective_address,
)
from repro.workloads import make_workload, workload_names


def idx(program, df, pc):
    return df.index_of[pc]


# ---------------------------------------------------------------------------
# MemLoc aliasing


def test_same_base_same_offset_must_alias():
    assert MemLoc(5, 8).may_alias(MemLoc(5, 8))


def test_same_base_different_offset_provably_distinct():
    assert not MemLoc(5, 0).may_alias(MemLoc(5, 8))


def test_different_bases_conservatively_alias():
    assert MemLoc(5, 0).may_alias(MemLoc(6, 1024))


# ---------------------------------------------------------------------------
# Reaching definitions / use-def chains


def test_straight_line_def_use():
    program = assemble("""
        li r1, 5
        addi r2, r1, 1
        halt
    """)
    df = analyze_dataflow(program)
    assert df.ud[1] == {1: (0,)}
    assert df.maybe_undefined == ()


def test_redefinition_kills():
    program = assemble("""
        li r1, 1
        li r1, 2
        addi r2, r1, 0
        halt
    """)
    df = analyze_dataflow(program)
    assert df.ud[2] == {1: (1,)}


def test_merge_point_sees_both_definitions():
    program = assemble("""
        li r3, 1
        beq r3, r0, other
        li r1, 10
        jmp join
    other:
        li r1, 20
    join:
        add r2, r1, r1
        halt
    """)
    df = analyze_dataflow(program)
    add_i = next(
        i for i, ins in enumerate(program.instructions) if ins.opcode == "add"
    )
    li_defs = tuple(
        i for i, ins in enumerate(program.instructions)
        if ins.opcode == "li" and ins.dst == 1
    )
    assert df.ud[add_i][1] == li_defs


def test_loop_carried_dependence():
    program = assemble("""
        li r1, 0
        li r2, 10
    top:
        addi r1, r1, 1
        blt r1, r2, top
        halt
    """)
    df = analyze_dataflow(program)
    addi_i = 2
    # r1 at the addi may come from the initial li or from itself.
    assert set(df.ud[addi_i][1]) == {0, addi_i}


def test_undefined_read_flagged():
    program = assemble("""
        addi r2, r7, 1
        halt
    """)
    df = analyze_dataflow(program)
    assert (0, 7) in df.maybe_undefined


def test_r0_reads_are_not_dependences():
    program = assemble("""
        addi r1, r0, 5
        halt
    """)
    df = analyze_dataflow(program)
    assert df.ud[0] == {}
    assert df.maybe_undefined == ()


# ---------------------------------------------------------------------------
# Memory def-use


def test_store_load_same_location_connected():
    program = assemble("""
        li r1, 4096
        li r2, 7
        st r2, 0(r1)
        ld r3, 0(r1)
        halt
    """)
    df = analyze_dataflow(program)
    assert df.mem_ud[3] == (2,)


def test_distinct_offsets_not_connected():
    program = assemble("""
        li r1, 4096
        li r2, 7
        st r2, 0(r1)
        ld r3, 8(r1)
        halt
    """)
    df = analyze_dataflow(program)
    assert 3 not in df.mem_ud


def test_unknown_bases_conservatively_connected():
    program = assemble("""
        li r1, 4096
        li r4, 8192
        li r2, 7
        st r2, 0(r1)
        ld r3, 0(r4)
        halt
    """)
    df = analyze_dataflow(program)
    assert df.mem_ud[4] == (3,)


def test_must_alias_store_kills_older_store():
    program = assemble("""
        li r1, 4096
        li r2, 7
        st r2, 0(r1)
        li r2, 9
        st r2, 0(r1)
        ld r3, 0(r1)
        halt
    """)
    df = analyze_dataflow(program)
    assert df.mem_ud[5] == (4,)


def test_store_reaches_load_after_base_moves():
    # 0(r1) before the addi and -8(r1) after it are the same address.
    program = assemble("""
        li r1, 4096
        li r2, 7
        st r2, 0(r1)
        addi r1, r1, 8
        ld r3, -8(r1)
        halt
    """)
    df = analyze_dataflow(program)
    assert df.mem_ud[4] == (2,)


def test_store_through_moved_base_may_overwrite():
    # The second store overwrites the first through -8(r1) after r1
    # moved; the load, back at 0(r1), reads the second store's value.
    program = assemble("""
        li r1, 4096
        li r2, 7
        st r2, 0(r1)
        addi r1, r1, 8
        li r4, 9
        st r4, -8(r1)
        addi r1, r1, -8
        ld r3, 0(r1)
        halt
    """)
    df = analyze_dataflow(program)
    assert df.mem_ud[7] == (2, 5)


def test_store_from_an_earlier_iteration_reaches_load():
    # Same block, same base, different offsets, yet the load reads what
    # the store wrote one iteration earlier (r1 moved by -8 since).
    program = assemble("""
        li r1, 4128
        li r4, 4096
    top:
        st r1, 0(r1)
        ld r3, 8(r1)
        addi r1, r1, -8
        blt r4, r1, top
        halt
    """)
    df = analyze_dataflow(program)
    assert df.mem_ud[3] == (2,)


# ---------------------------------------------------------------------------
# Liveness / dead stores


def test_dead_store_detected():
    program = assemble("""
        li r1, 5
        li r1, 6
        addi r2, r1, 0
        halt
    """)
    df = analyze_dataflow(program)
    assert (0, 1) in df.dead_defs
    assert (1, 1) not in df.dead_defs


def test_value_live_across_loop_not_dead():
    program = assemble("""
        li r1, 0
        li r2, 10
    top:
        addi r1, r1, 1
        blt r1, r2, top
        halt
    """)
    df = analyze_dataflow(program)
    assert (0, 1) not in df.dead_defs
    assert (1, 2) not in df.dead_defs


# ---------------------------------------------------------------------------
# Dynamic ground truth: static chains must cover observed def-use edges


def dynamic_def_use(program, memory, max_steps=3_000_000):
    """Execute ``program``, recording actual producer->consumer edges.

    Returns (reg_edges, mem_edges, undefined) where reg_edges maps
    (use_pc, reg) -> set of def PCs observed, mem_edges maps load_pc ->
    set of store PCs observed, and undefined holds (use_pc, reg) pairs
    dynamically read before any write.
    """
    regs = [0] * 48
    last_writer = [None] * 48
    last_store = {}
    reg_edges = {}
    mem_edges = {}
    undefined = set()
    pc = program.entry_pc
    steps = 0
    while steps < max_steps:
        instr = program.instruction_at(pc)
        assert instr is not None, f"control left the image at {pc:#x}"
        steps += 1
        cls = instr.uop_class
        if cls is UopClass.HALT:
            return reg_edges, mem_edges, undefined
        for r in instr.srcs:
            if r == REG_ZERO:
                continue
            if last_writer[r] is None:
                undefined.add((pc, r))
            else:
                reg_edges.setdefault((pc, r), set()).add(last_writer[r])
        values = tuple(regs[r] for r in instr.srcs)
        if instr.is_branch:
            taken = branch_taken(instr, values)
            result = compute_result(instr, values)
            if instr.dst is not None and instr.dst != REG_ZERO:
                regs[instr.dst] = result
                last_writer[instr.dst] = pc
            pc = branch_target(instr, values) if taken else instr.fallthrough_pc
            continue
        if cls is UopClass.LOAD:
            addr = effective_address(instr, values)
            if addr in last_store:
                mem_edges.setdefault(pc, set()).add(last_store[addr])
            if instr.dst != REG_ZERO:
                regs[instr.dst] = memory.load(addr)
                last_writer[instr.dst] = pc
        elif cls is UopClass.STORE:
            addr = effective_address(instr, values)
            memory.store(addr, values[0])
            last_store[addr] = pc
        elif cls is not UopClass.NOP:
            result = compute_result(instr, values)
            if instr.dst is not None and instr.dst != REG_ZERO:
                regs[instr.dst] = result
                last_writer[instr.dst] = pc
        pc += INSTRUCTION_BYTES
    raise AssertionError("program did not halt")


@pytest.mark.parametrize("name", workload_names())
def test_static_chains_cover_dynamic_def_use(name):
    bundle = make_workload(name, "tiny")
    program = bundle.program
    df = analyze_dataflow(program)
    reg_edges, mem_edges, undefined = dynamic_def_use(
        program, bundle.fresh_memory()
    )
    assert reg_edges, "workload executed no register def-use at all?"

    for (use_pc, reg), def_pcs in reg_edges.items():
        use_i = df.index_of[use_pc]
        static = {program.instructions[d].pc for d in df.ud[use_i].get(reg, ())}
        missing = def_pcs - static
        assert not missing, (
            f"{name}: dynamic def of r{reg} at {sorted(missing)} not in "
            f"static chain of use at {use_pc:#x}"
        )

    for load_pc, store_pcs in mem_edges.items():
        load_i = df.index_of[load_pc]
        static = {
            program.instructions[s].pc for s in df.mem_ud.get(load_i, ())
        }
        missing = store_pcs - static
        assert not missing, (
            f"{name}: dynamic store {sorted(missing)} feeding load at "
            f"{load_pc:#x} not in static may-alias set"
        )

    # Dynamically-observed uninitialized reads must be statically flagged.
    static_undef = {
        (program.instructions[i].pc, r) for i, r in df.maybe_undefined
    }
    assert undefined <= static_undef
