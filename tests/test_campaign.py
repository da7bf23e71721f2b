"""Tests for campaign regression diffing over checkpoint journals."""

import dataclasses

import pytest

from repro.harness import CampaignExecutor, RunSpec, load_checkpoint
from repro.harness.campaign import diff_campaigns


@pytest.fixture(scope="module")
def journal(tmp_path_factory):
    """A real xz campaign (baseline + tea, tiny) as loaded from its
    checkpoint journal."""
    path = tmp_path_factory.mktemp("campaign") / "xz.jsonl"
    specs = [RunSpec("xz", mode, "tiny") for mode in ("baseline", "tea")]
    CampaignExecutor(jobs=0).run(specs, checkpoint=path)
    return load_checkpoint(path)


def with_ipc_scaled(campaign: dict, key: str, factor: float) -> dict:
    """A copy of ``campaign`` whose ``key`` cell runs ``factor``x the IPC."""
    outcome = campaign[key]
    stats = dict(outcome.stats)
    stats["cycles"] = round(stats["cycles"] / factor)
    return {**campaign, key: dataclasses.replace(outcome, stats=stats)}


def _ok_task(record):
    return {
        "stats": {"cycles": 100, "retired_instructions": 200},
        "validated": True,
        "halted": True,
    }


class TestTolerantLoading:
    def test_executor_journal_loads_as_campaign(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        specs = [RunSpec("xz", m, "tiny") for m in ("baseline", "tea")]
        CampaignExecutor(jobs=0, task=_ok_task).run(specs, checkpoint=path)
        campaign = load_checkpoint(path)
        assert set(campaign) == {"xz/baseline", "xz/tea"}
        assert {o.spec.scale for o in campaign.values()} == {"tiny"}
        assert campaign["xz/tea"].sim_stats().ipc == pytest.approx(2.0)

    def test_single_record_journal_loads(self, tmp_path):
        path = tmp_path / "one.jsonl"
        CampaignExecutor(jobs=0, task=_ok_task).run(
            [RunSpec("xz", "tea", "tiny")], checkpoint=path
        )
        assert set(load_checkpoint(path)) == {"xz/tea"}

    def test_journal_with_corrupt_tail_loads_rest(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        specs = [RunSpec("xz", m, "tiny") for m in ("baseline", "tea")]
        CampaignExecutor(jobs=0, task=_ok_task).run(specs, checkpoint=path)
        with open(path, "a") as fh:
            fh.write('{"spec": {"workload": "mcf", "mo')  # crash mid-append
        with pytest.warns(UserWarning, match="journal damage"):
            campaign = load_checkpoint(path)
        assert set(campaign) == {"xz/baseline", "xz/tea"}

    def test_failed_cell_preserved_in_loaded_campaign(self, tmp_path):
        def failing(record):
            if record["mode"] == "tea":
                raise ValueError("model bug")
            return _ok_task(record)

        path = tmp_path / "journal.jsonl"
        specs = [RunSpec("xz", m, "tiny") for m in ("baseline", "tea")]
        CampaignExecutor(jobs=0, task=failing).run(specs, checkpoint=path)
        campaign = load_checkpoint(path)
        assert campaign["xz/tea"].failure.kind == "fatal"
        assert "model bug" in campaign["xz/tea"].failure.message
        # Failed cells never contribute to diffs.
        assert diff_campaigns(campaign, campaign) == []


class TestDiff:
    def test_identical_campaigns_no_movements(self, journal):
        assert diff_campaigns(journal, journal) == []

    def test_regression_detected(self, journal):
        after = with_ipc_scaled(journal, "xz/tea", 0.9)
        movements = diff_campaigns(journal, after)
        assert movements
        assert movements[0]["run"] == "xz/tea"
        assert movements[0]["delta_pct"] == pytest.approx(-10.0, abs=0.1)

    def test_threshold_filters_noise(self, journal):
        after = with_ipc_scaled(journal, "xz/tea", 1.005)
        assert diff_campaigns(journal, after, threshold_pct=1.0) == []

    def test_new_runs_ignored(self, journal):
        new = dataclasses.replace(
            journal["xz/tea"], spec=RunSpec("new", "one", "tiny")
        )
        after = {**journal, "new/one": new}
        assert diff_campaigns(journal, after) == []
