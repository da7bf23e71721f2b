"""Walk oracle: the dynamic Backward Dataflow Walk's chain membership
must agree with the static chains of ``repro.analysis.chains``.

Acceptance gate: for H2P branches free of indirect control flow, every
instruction a walk marks lies inside the branch's static chain
(precision 1.00, above the 0.90 bar), on a pinned matrix.
"""

import pytest

from repro.analysis.chains import render_chain_report, run_chain_oracle

MATRIX = ["bfs", "mcf", "xz"]


@pytest.fixture(scope="module", params=MATRIX)
def oracle_report(request):
    return run_chain_oracle(request.param, scale="tiny", mode="tea")


def test_walks_were_captured(oracle_report):
    soundness = oracle_report["soundness"]
    assert soundness["walks_captured"] > 0
    assert soundness["branches_checked"] > 0
    assert soundness["walks_checked"] > 0


def test_direct_branch_precision_meets_bar(oracle_report):
    soundness = oracle_report["soundness"]
    direct = {
        rec["pc"] for rec in oracle_report["branches"] if not rec["has_indirect"]
    }
    checked = [rec for rec in soundness["branches"] if rec["pc"] in direct]
    assert checked, "no direct-control-flow H2P branches checked"
    # A walk-marked PC outside the chain is a ``uop_not_in_slice``
    # finding; with none, every checked branch has precision 1.00.
    escaped = [
        f for f in soundness["findings"] if f["kind"] == "uop_not_in_slice"
    ]
    assert escaped == []


def test_records_are_well_formed(oracle_report):
    soundness = oracle_report["soundness"]
    chains = {rec["pc"]: rec for rec in oracle_report["branches"]}
    assert len(soundness["branches"]) == soundness["branches_checked"]
    assert sum(r["walks"] for r in soundness["branches"]) == (
        soundness["walks_checked"]
    )
    for rec in soundness["branches"]:
        assert rec["walks"] >= 1
        assert rec["unsound"] == 0
        # The initiating branch is in both chains, so a checked branch
        # never has zero recall.
        assert 0.0 < rec["recall"] <= 1.0
        assert rec["recall"] * chains[rec["pc"]]["size"] >= 1


def test_report_is_json_safe(oracle_report):
    import json

    json.dumps(oracle_report)


def test_render_report_mentions_summary(oracle_report):
    text = render_chain_report(oracle_report)
    assert oracle_report["workload"] in text
    assert "attributed walks" in text
    assert "recall: attributed walks marked" in text


def test_oracle_rejects_modes_without_tea():
    with pytest.raises(ValueError):
        run_chain_oracle("bfs", scale="tiny", mode="baseline")
