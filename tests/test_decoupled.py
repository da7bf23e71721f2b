"""Unit tests for the decoupled branch-prediction unit and FTQ."""

from repro.frontend import DecoupledFrontend, FrontendConfig
from repro.isa import UopClass, assemble
from tests.fetch_reference import block_uops


def make_frontend(source, **cfg_kwargs):
    program = assemble(source)
    config = FrontendConfig(**cfg_kwargs) if cfg_kwargs else None
    return DecoupledFrontend(program, config), program


class TestBlockGeneration:
    def test_sequential_block_capped_at_32(self):
        source = "\n".join(["nop"] * 40) + "\nhalt"
        frontend, program = make_frontend(source)
        block = frontend.tick()
        assert len(block_uops(program, block)) == 32
        assert block.next_fetch_pc == 32 * 4

    def test_block_ends_at_taken_branch(self):
        frontend, program = make_frontend("nop\njmp target\nnop\ntarget: halt")
        block = frontend.tick()
        assert [u.instr.opcode for u in block_uops(program, block)] == [
            "nop",
            "jmp",
        ]
        assert block.next_fetch_pc == program.labels["target"]

    def test_not_taken_branch_does_not_end_block(self):
        # Cold conditional branches predict not-taken (BTB miss).
        frontend, program = make_frontend("beq r1, r2, away\nnop\nhalt\naway: halt")
        block = frontend.tick()
        assert len(block_uops(program, block)) == 3  # beq, nop, halt

    def test_sequence_numbers_monotonic(self):
        frontend, program = make_frontend("nop\nnop\njmp x\nx: nop\nhalt")
        seqs = []
        for _ in range(3):
            block = frontend.tick()
            if block:
                seqs.extend(u.seq for u in block_uops(program, block))
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_halt_stalls_the_frontend(self):
        frontend, _ = make_frontend("nop\nhalt")
        frontend.tick()
        assert frontend.stalled()
        assert frontend.tick() is None

    def test_ftq_capacity_backpressure(self):
        source = "x: jmp x"
        frontend, _ = make_frontend(source, ftq_capacity=4)
        for _ in range(10):
            frontend.tick()
        assert len(frontend.ftq) == 4
        assert frontend.stall_cycles > 0

    def test_shadow_ftq_mirrors_blocks(self):
        frontend, _ = make_frontend("nop\nnop\nhalt")
        block = frontend.tick()
        assert frontend.shadow_ftq[0] is block


class TestPredictionKinds:
    def test_direct_call_and_return(self):
        source = """
            call fn
            halt
        fn: ret
        """
        frontend, program = make_frontend(source)
        b1 = frontend.tick()
        call_info = block_uops(program, b1)[0].branch
        assert call_info.uop_class is UopClass.BR_CALL
        assert not call_info.can_mispredict
        b2 = frontend.tick()  # fetches at fn
        ret_info = block_uops(program, b2)[0].branch
        assert ret_info.uop_class is UopClass.BR_RET
        assert ret_info.predicted_target == 4  # return address after call

    def test_indirect_without_history_predicts_fallthrough(self):
        frontend, program = make_frontend("jr r1\nhalt")
        block = frontend.tick()
        info = block_uops(program, block)[0].branch
        assert info.predicted_target == info.fallthrough

    def test_conditional_taken_needs_btb(self):
        source = """
        top: beq r0, r0, top
             halt
        """
        frontend, program = make_frontend(source)
        block = frontend.tick()
        info = block_uops(program, block)[0].branch
        # Cold BTB forces not-taken even if TAGE said taken.
        assert info.predicted_taken is False


class TestFlushRecovery:
    def test_flush_truncates_and_redirects(self):
        source = """
            beq r1, r2, away
            nop
            nop
            halt
        away:
            halt
        """
        frontend, program = make_frontend(source)
        block = frontend.tick()
        info = block_uops(program, block)[0].branch
        frontend.tick()  # may produce more wrong-path blocks
        frontend.flush_at(info, True, program.labels["away"])
        assert frontend.next_pc == program.labels["away"]
        # Everything younger than the branch is gone from the FTQ.
        for queue in (frontend.ftq, frontend.shadow_ftq):
            for blk in queue:
                assert all(u.seq <= info.seq for u in block_uops(program, blk))

    def test_flush_restores_history(self):
        source = """
            beq r1, r2, away
            beq r3, r4, away
            halt
        away:
            halt
        """
        frontend, program = make_frontend(source)
        block = frontend.tick()
        first = block_uops(program, block)[0].branch
        snap_at_first = (first.ghr, first.path, first.folds)
        frontend.flush_at(first, True, program.labels["away"])
        # History = snapshot + the corrected outcome applied.
        expected = frontend.history.snapshot()
        frontend.history.restore(snap_at_first)
        frontend.history.push_conditional(True)
        assert frontend.history.snapshot() == expected

    def test_flush_recovers_ras(self):
        source = """
            call fn
            halt
        fn: beq r1, r2, out
            ret
        out: ret
        """
        frontend, program = make_frontend(source)
        frontend.tick()               # call block (pushes RAS)
        depth_after_call = frontend.ras.depth
        block = frontend.tick()       # fn block with beq + ret (pops RAS)
        beq_info = block_uops(program, block)[0].branch
        frontend.flush_at(beq_info, True, program.labels["out"])
        assert frontend.ras.depth == depth_after_call


class TestTraining:
    def test_btb_trained_on_taken_resolution(self):
        source = "top: beq r0, r0, top\nhalt"
        frontend, program = make_frontend(source)
        block = frontend.tick()
        info = block_uops(program, block)[0].branch
        assert frontend.btb.lookup(info.pc) is None
        frontend.train_resolved(info, True, 0)
        assert frontend.btb.lookup(info.pc) == 0

    def test_override_hook_consulted(self):
        source = "top: beq r0, r0, top\nhalt"
        frontend, program = make_frontend(source)
        frontend.btb.install(0, 0)  # allow taken predictions
        calls = []
        frontend.direction_override = lambda pc: calls.append(pc) or True
        block = frontend.tick()
        assert calls == [0]
        branch = block_uops(program, block)[0].branch
        assert branch.override_used
        assert branch.predicted_taken is True
