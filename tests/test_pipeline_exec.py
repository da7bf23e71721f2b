"""Integration tests: the OoO pipeline commits architectural state
identical to the sequential reference interpreter."""

import pytest

from repro import MemoryImage, Pipeline, SimConfig, assemble
from repro.core.dynamic_uop import DynUop
from repro.harness.runner import make_config
from repro.isa import raw_bits, run_program, to_signed64


def run_both(source, mem_init=None):
    """Run pipeline + interpreter on the same program; return both."""
    program = assemble(source)
    pipe_mem = MemoryImage(mem_init or {})
    ref_mem = MemoryImage(mem_init or {})
    pipeline = Pipeline(program, pipe_mem, SimConfig())
    pipeline.run(max_cycles=1_000_000)
    assert pipeline.halted
    reference = run_program(program, ref_mem)
    return pipeline, reference


def assert_state_matches(pipeline, reference, regs=range(1, 28)):
    for reg in regs:
        assert pipeline.architectural_register(reg) == reference.registers[reg], (
            f"r{reg}: pipeline={pipeline.architectural_register(reg)} "
            f"reference={reference.registers[reg]}"
        )
    assert pipeline.memory.snapshot() == reference.memory.snapshot()


class TestStraightLine:
    def test_dependent_arithmetic_chain(self):
        src = """
            li r1, 3
            mul r2, r1, r1
            add r3, r2, r1
            sub r4, r3, r1
            div r5, r4, r1
            halt
        """
        assert_state_matches(*run_both(src))

    def test_wide_independent_ops(self):
        body = "\n".join(f"li r{i}, {i * 11}" for i in range(1, 20))
        assert_state_matches(*run_both(body + "\nhalt"))

    def test_fp_pipeline(self):
        src = """
            fli f0, 512
            fli f1, 256
            fadd f2, f0, f1
            fmul f3, f2, f2
            ftoi r1, f3
            halt
        """
        pipeline, reference = run_both(src)
        assert pipeline.architectural_register(1) == reference.registers[1] == 9


class TestMemoryOrdering:
    def test_store_to_load_forwarding(self):
        src = """
            li r1, 4096
            li r2, 77
            st r2, 0(r1)
            ld r3, 0(r1)
            add r4, r3, r3
            halt
        """
        pipeline, reference = run_both(src)
        assert pipeline.architectural_register(4) == 154
        assert_state_matches(pipeline, reference)

    def test_store_store_load_same_address(self):
        src = """
            li r1, 4096
            li r2, 1
            li r3, 2
            st r2, 0(r1)
            st r3, 0(r1)
            ld r4, 0(r1)
            halt
        """
        pipeline, _ = run_both(src)
        assert pipeline.architectural_register(4) == 2

    def test_loads_see_preinitialized_memory(self):
        src = "li r1, 4096\nld r2, 0(r1)\nld r3, 8(r1)\nadd r4, r2, r3\nhalt"
        pipeline, reference = run_both(src, {4096: 30, 4104: 12})
        assert pipeline.architectural_register(4) == 42
        assert_state_matches(pipeline, reference)

    def test_memory_only_updated_at_retire(self):
        """A wrong-path store must never reach architectural memory."""
        src = """
            li r1, 4096
            li r2, 5
            beq r2, r2, over     # always taken; cold predict = not-taken
            st r2, 0(r1)         # wrong path!
        over:
            halt
        """
        pipeline, reference = run_both(src)
        assert pipeline.memory.load(4096) == 0
        assert_state_matches(pipeline, reference)


class TestControlFlow:
    def test_counted_loop(self):
        src = """
            li r1, 0
            li r2, 50
        top:
            addi r1, r1, 1
            blt r1, r2, top
            halt
        """
        pipeline, reference = run_both(src)
        assert pipeline.architectural_register(1) == 50
        assert_state_matches(pipeline, reference)

    def test_nested_loops(self):
        src = """
            li r1, 0
            li r2, 0
        outer:
            li r3, 0
        inner:
            addi r1, r1, 1
            addi r3, r3, 1
            li r4, 5
            blt r3, r4, inner
            addi r2, r2, 1
            li r4, 6
            blt r2, r4, outer
            halt
        """
        pipeline, reference = run_both(src)
        assert pipeline.architectural_register(1) == 30

    def test_call_ret_nesting(self):
        src = """
            li sp, 65536
            li r1, 2
            call f1
            halt
        f1:
            subi sp, sp, 8
            st ra, 0(sp)
            add r1, r1, r1
            call f2
            ld ra, 0(sp)
            addi sp, sp, 8
            ret
        f2:
            addi r1, r1, 100
            ret
        """
        pipeline, reference = run_both(src)
        assert pipeline.architectural_register(1) == 104
        assert_state_matches(pipeline, reference)

    def test_recursion(self):
        src = """
            li sp, 65536
            li r1, 6
            call fact
            halt
        fact:                      # r2 = r1!
            li r3, 2
            bge r1, r3, rec
            li r2, 1
            ret
        rec:
            subi sp, sp, 16
            st ra, 0(sp)
            st r1, 8(sp)
            subi r1, r1, 1
            call fact
            ld r1, 8(sp)
            ld ra, 0(sp)
            addi sp, sp, 16
            mul r2, r2, r1
            ret
        """
        pipeline, reference = run_both(src)
        assert pipeline.architectural_register(2) == 720

    def test_indirect_jump_table(self):
        src = """
            li r1, 4096
            la r2, h0
            st r2, 0(r1)
            la r2, h1
            st r2, 8(r1)
            li r3, 1             # select handler 1
            shli r4, r3, 3
            add r4, r4, r1
            ld r5, 0(r4)
            jr r5
        h0: li r6, 100
            halt
        h1: li r6, 200
            halt
        """
        pipeline, reference = run_both(src)
        assert pipeline.architectural_register(6) == 200

    def test_data_dependent_branching(self):
        pipeline, reference = run_both(
            """
            li r1, 4096
            li r2, 0          # sum of odd entries
            li r3, 0          # i
            li r4, 20
        top:
            shli r5, r3, 3
            add r5, r5, r1
            ld r6, 0(r5)
            andi r7, r6, 1
            beqz r7, even
            add r2, r2, r6
        even:
            addi r3, r3, 1
            blt r3, r4, top
            halt
            """,
            {4096 + 8 * i: (i * 7 + 3) % 23 for i in range(20)},
        )
        assert_state_matches(pipeline, reference)


class TestZeroRegister:
    def test_writes_to_r0_discarded(self):
        pipeline, reference = run_both("li r0, 9\nadd r1, r0, r0\nhalt")
        assert pipeline.architectural_register(0) == 0
        assert pipeline.architectural_register(1) == 0


class TestLimits:
    def test_max_cycles_stops_runaway(self):
        program = assemble("x: jmp x")
        pipeline = Pipeline(program, MemoryImage(), SimConfig())
        pipeline.run(max_cycles=500)
        assert not pipeline.halted
        assert pipeline.cycle >= 500

    def test_max_instructions_limit(self):
        program = assemble("x: addi r1, r1, 1\njmp x")
        pipeline = Pipeline(program, MemoryImage(), SimConfig())
        stats = pipeline.run(max_instructions=100, max_cycles=100_000)
        assert not pipeline.halted
        assert stats.retired_instructions >= 100


class TestTeaWrongTypeOperands:
    """A mis-speculated TEA chain may feed FP data to an integer uop;
    it reads the raw 64-bit pattern instead of crashing the run."""

    SOURCE = """
        shli r2, r1, 3
        ld r3, 8(r1)
        st r3, 16(r1)
        blt r1, r0, done
        jr r1
    done:
        halt
    """

    def _execute(self, index, value, is_tea=True):
        pipeline = Pipeline(
            assemble(self.SOURCE), MemoryImage(), make_config("tea")
        )
        instr = pipeline.program.instructions[index]
        uop = DynUop(0, instr, is_tea=is_tea)
        # Every source but r0 reads the same preg, loaded with `value`.
        pipeline.prf.values[1] = value
        uop.src_pregs = tuple(1 if reg else 0 for reg in instr.srcs)
        assert pipeline._start_execution(uop)
        return uop

    def test_alu_reads_float_as_raw_bits(self):
        uop = self._execute(0, 1.5)
        assert uop.result == to_signed64(raw_bits(1.5) << 3)

    def test_load_and_store_addresses_read_raw_bits(self):
        inf = float("inf")
        assert self._execute(1, inf).mem_addr == to_signed64(raw_bits(inf) + 8)
        assert self._execute(2, inf).mem_addr == to_signed64(raw_bits(inf) + 16)

    def test_branch_target_reads_raw_bits(self):
        nan = float("nan")
        uop = self._execute(4, nan)
        assert uop.br_taken
        assert uop.br_target == raw_bits(nan)

    def test_well_typed_evaluations_are_unchanged(self):
        # Comparing a float with an integer succeeds, so the branch
        # keeps its value semantics rather than the raw pattern's.
        assert self._execute(3, -1.5).br_taken
        assert self._execute(1, 4096.0).mem_addr == 4104

    def test_main_thread_type_error_still_raises(self):
        with pytest.raises(TypeError):
            self._execute(0, 1.5, is_tea=False)
