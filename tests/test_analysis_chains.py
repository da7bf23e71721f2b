"""Static chain analyzer: construction, classification, the runtime
soundness oracle, the TeaConfig branch mask, and timeliness.

Acceptance gates:

* zero unsound runtime chains on the pinned workload matrix;
* every hand-seeded unsound fixture is detected;
* an allow-all static mask leaves a TEA run cycle-exact;
* static timeliness agrees with measured leads on >= 80% of branches
  with >= 10 resolutions, per decisive workload.
"""

from dataclasses import replace

import pytest

from repro import assemble
from repro.analysis import analyze_chains
from repro.analysis.chains import (
    CLASS_CHAINABLE,
    CLASS_TRIVIAL,
    CLASS_UNCHAINABLE,
    StaticChain,
    build_chain_report,
    check_chain,
    render_chain_report,
    run_chain_oracle,
    verify_walks,
)
from repro.core.config import ConfigError
from repro.harness.runner import make_config, run_workload
from repro.obs import Observation
from repro.tea.config import TeaConfig
from repro.tea.fill_buffer import FillEntry
from repro.workloads import make_workload


def pcs_of(program, *opcodes):
    return [ins.pc for ins in program.instructions if ins.opcode in opcodes]


def fe(pc, dst=None, srcs=(), is_load=False, h2p=False):
    """A Fill Buffer entry with only the fields the oracle reads."""
    return FillEntry(
        pc=pc, dst=dst, srcs=tuple(srcs), is_load=is_load, is_store=False,
        mem_addr=None, is_h2p_branch=h2p, chain_seed=False,
        bb_start=0, bb_offset=0,
    )


# ----------------------------------------------------------------------
# Classification
# ----------------------------------------------------------------------

def test_counted_loop_is_trivially_predictable():
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
    assert chain.classification == CLASS_TRIVIAL
    # Taken for r1 = 1..9, falls through at 10.
    assert chain.trip_count == 9
    assert chain.induction_regs == {1}
    # Trivial branches never make the allow mask.
    assert branch_pc not in chains.allow_mask()


def test_one_sided_branch_is_trivially_predictable():
    program = assemble("""
        li r1, 5
        li r3, 2
    top:
        addi r3, r3, 1
        beq r1, r0, top
        halt
    """)
    chains = analyze_chains(program)
    [branch_pc] = pcs_of(program, "beq")
    chain = chains.chain_at(branch_pc)
    assert chain.one_sided
    assert chain.classification == CLASS_TRIVIAL


def test_pointer_chase_exceeds_load_budget():
    program = assemble("""
        li r1, 4096
        ld r1, 0(r1)
        ld r1, 0(r1)
        ld r1, 0(r1)
        ld r1, 0(r1)
        ld r1, 0(r1)
        beq r1, r0, out
        addi r3, r3, 1
    out:
        halt
    """)
    chains = analyze_chains(program)
    [branch_pc] = pcs_of(program, "beq")
    chain = chains.chain_at(branch_pc)
    assert chain.load_depth == 5
    assert chain.classification == CLASS_UNCHAINABLE
    # The chase loads have no statically known producing store.
    assert chain.mem_live_ins


def test_data_dependent_loop_is_chainable():
    program = assemble("""
        li r10, 4096
        ld r2, 0(r10)
        li r1, 0
    top:
        addi r1, r1, 1
        blt r1, r2, top
        halt
    """)
    chains = analyze_chains(program)
    [branch_pc] = pcs_of(program, "blt")
    chain = chains.chain_at(branch_pc)
    assert chain.classification == CLASS_CHAINABLE
    # Every producer is in the slice, so the chain has no live-ins.
    assert chain.live_in_regs == frozenset()
    assert {1, 2, 10} <= set(chain.written_regs)
    assert chains.allow_mask() == (branch_pc,)


def test_ret_edge_over_approximation_is_unchainable():
    # The branch source is produced in the callee; the slice crosses
    # the conservative ret edge and must refuse to chain.
    program = assemble("""
        li r1, 7
        call fn
        beq r2, r0, out
        addi r3, r3, 1
    out:
        halt
    fn:
        addi r2, r1, 1
        ret
    """)
    chains = analyze_chains(program)
    [branch_pc] = pcs_of(program, "beq")
    chain = chains.chain_at(branch_pc)
    assert chain.has_indirect
    assert chain.classification == CLASS_UNCHAINABLE
    assert chains.allow_mask() == ()


def test_jump_table_dispatch_is_unchainable():
    # Generated programs dispatch through a runtime-built jr jump
    # table; every slice that crosses the indirect edge must be
    # refused (the fuzz `indirect_fanout` profile).
    from repro.fuzz.generator import GeneratorProfile, generate_program

    generated = generate_program(0, GeneratorProfile(indirect_fanout=8))
    chains = analyze_chains(generated.unit.program)
    indirect = [c for c in chains.chains.values() if c.has_indirect]
    assert indirect, "generator produced no indirect-crossing slice"
    for chain in indirect:
        assert chain.classification == CLASS_UNCHAINABLE


# ----------------------------------------------------------------------
# Runtime soundness oracle: hand-seeded unsound fixtures
# ----------------------------------------------------------------------

@pytest.fixture()
def simple_chain():
    program = assemble("""
        li r10, 4096
        ld r2, 0(r10)
        li r1, 0
    top:
        addi r1, r1, 1
        blt r1, r2, top
        halt
    """)
    chains = analyze_chains(program)
    [branch_pc] = pcs_of(program, "blt")
    return chains, chains.chain_at(branch_pc)


def test_check_chain_flags_uop_outside_slice(simple_chain):
    _, chain = simple_chain
    rogue = 0x99c
    assert rogue not in chain.pcs
    entries = [fe(rogue, dst=7), fe(chain.branch_pc, srcs=(1, 2), h2p=True)]
    findings = check_chain(chain, entries, [True, True])
    assert [f.kind for f in findings] == ["uop_not_in_slice"]
    assert findings[0].detail["pcs"] == [rogue]


def test_check_chain_flags_uncovered_live_in(simple_chain):
    _, chain = simple_chain
    assert 9 not in chain.live_in_regs | chain.written_regs
    entries = [fe(min(chain.pcs), dst=1, srcs=(9,))]
    findings = check_chain(chain, entries, [True])
    assert [f.kind for f in findings] == ["live_in_uncovered"]
    assert findings[0].detail["regs"] == [9]


def test_check_chain_flags_depth_escape(simple_chain):
    # A dynamic chain deeper than the static bound is impossible for a
    # correctly computed chain (induced-subgraph longest paths only
    # shrink), so the fixture lies about its depth.
    _, real = simple_chain
    lying = replace(real, depth=1)
    entries = [fe(pc, dst=1, srcs=(1,)) for pc in sorted(real.pcs)]
    findings = check_chain(lying, entries, [True] * len(entries))
    kinds = {f.kind for f in findings}
    assert "depth_exceeded" in kinds
    [finding] = [f for f in findings if f.kind == "depth_exceeded"]
    assert finding.detail["dynamic"] > 1


def test_check_chain_accepts_sound_chain(simple_chain):
    _, chain = simple_chain
    # Replayed truthfully: the loop's own uops, slice-internal reads.
    entries = [fe(min(chain.pcs), dst=10), fe(chain.branch_pc, srcs=(1, 2))]
    assert check_chain(chain, entries, [True, True]) == []


def test_verify_walks_skips_initiators_without_a_slice(simple_chain):
    chains, _ = simple_chain
    walk = [fe(0x40, srcs=(1,), h2p=True)]  # no conditional branch here
    assert chains.chain_at(0x40) is None
    report = verify_walks(chains, [walk], TeaConfig())
    assert report["walks_captured"] == 1
    assert report["skipped_no_slice"] == 1
    assert report["branches_checked"] == 0
    assert report["unsound_total"] == 0


# ----------------------------------------------------------------------
# TeaConfig.branch_mask: validation + machine behavior
# ----------------------------------------------------------------------

def test_branch_mask_must_be_sorted_unique_non_negative():
    TeaConfig(branch_mask=(4, 8, 12))  # valid
    TeaConfig(branch_mask=())          # deny-all is valid
    with pytest.raises(ConfigError):
        TeaConfig(branch_mask=(8, 4))
    with pytest.raises(ConfigError):
        TeaConfig(branch_mask=(4, 4, 8))
    with pytest.raises(ConfigError):
        TeaConfig(branch_mask=(-4,))


def test_allow_all_mask_is_cycle_exact():
    bundle = make_workload("bfs", "tiny")
    every_branch = tuple(sorted(analyze_chains(bundle.program).chains))
    base = run_workload(bundle, "tea", "tiny")
    cfg = make_config("tea")
    masked = run_workload(
        bundle, "tea", "tiny",
        config=replace(cfg, tea=replace(cfg.tea, branch_mask=every_branch)),
    )
    assert base.stats == masked.stats


def test_deny_all_mask_runs_clean_and_reports_denials():
    bundle = make_workload("bfs", "tiny")
    cfg = make_config("tea")
    obs = Observation(record_events=False)
    result = run_workload(
        bundle, "tea", "tiny", observe=obs,
        config=replace(cfg, tea=replace(cfg.tea, branch_mask=())),
    )
    assert result.halted and result.validated
    # Each vetoed H2P PC is reported exactly once.
    assert obs.bus.counts.get("tea_mask_denied", 0) >= 1
    assert obs.bus.counts.get("tea_mask_denied") <= len(
        analyze_chains(bundle.program).chains
    ) + 4  # conditionals + a few indirect H2P candidates


# ----------------------------------------------------------------------
# End-to-end oracle on the pinned matrix
# ----------------------------------------------------------------------

MATRIX = ["bfs", "xz"]


@pytest.fixture(scope="module", params=MATRIX)
def oracle_report(request):
    return run_chain_oracle(request.param, scale="tiny", mode="tea")


def test_oracle_attributes_walks(oracle_report):
    assert oracle_report["soundness"]["walks_captured"] > 0
    assert oracle_report["soundness"]["branches_checked"] > 0


def test_zero_unsound_chains_on_matrix(oracle_report):
    assert oracle_report["soundness"]["unsound_total"] == 0, (
        oracle_report["soundness"]["findings"]
    )


def test_timeliness_agreement_meets_bar(oracle_report):
    timeliness = oracle_report["timeliness"]
    assert timeliness["compared"] >= 1
    assert timeliness["agreement"] >= 0.80


def test_report_is_json_safe_and_renders(oracle_report):
    import json

    json.dumps(oracle_report)
    text = render_chain_report(oracle_report)
    assert "conditional branches" in text
    assert "soundness: 0 unsound" in text


def test_masked_oracle_run_stays_sound():
    report = run_chain_oracle("bfs", scale="tiny", mode="tea", use_mask=True)
    assert report["masked"]
    assert report["soundness"]["unsound_total"] == 0
    assert report["ipc"] > 0


def test_static_classification_matches_pinned_table():
    # The CI chains job gates the same table after a full oracle run;
    # the classification itself is static, so drift shows here first.
    import json
    from pathlib import Path

    from repro.workloads import workload_names

    path = Path(__file__).resolve().parents[1] / "benchmarks" / "analysis"
    pinned = json.loads((path / "chains_pinned.json").read_text())
    assert sorted(pinned["workloads"]) == sorted(workload_names())
    for name, expect in pinned["workloads"].items():
        chains = analyze_chains(make_workload(name, pinned["scale"]).program)
        assert chains.counts() == expect["counts"], name
        assert list(chains.allow_mask()) == expect["allow_mask"], name
        assert len(chains.chains) == expect["conditional_branches"], name


def test_static_report_shape():
    bundle = make_workload("mcf", "tiny")
    chains = analyze_chains(bundle.program)
    report = build_chain_report(chains, workload="mcf")
    assert report["conditional_branches"] == len(chains.chains)
    assert sum(report["counts"].values()) == report["conditional_branches"]
    assert report["allow_mask"] == list(chains.allow_mask())
    for rec in report["branches"]:
        assert rec["classification"] in (
            CLASS_TRIVIAL, CLASS_CHAINABLE, CLASS_UNCHAINABLE
        )
        assert rec["depth"] >= 1 and rec["size"] >= 1
