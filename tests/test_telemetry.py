"""Campaign telemetry as a fold over settled cells.

``repro.harness.campaign_rollup`` folds a campaign's specs and settled
outcomes into its rollup; ``repro run --follow`` prints one line per
settled cell from the executor's lifecycle events.  Covers histogram
merging with percentiles, cell/throughput accounting for inline and
pool campaigns, crashing and failing cells (which contribute no
metrics, not even those of a partial observed run), exactness against
per-cell observed runs, and the ``--follow`` line.
"""

from __future__ import annotations

import json
import os
from functools import partial

import pytest

from repro.__main__ import _print_settled, main
from repro.harness import (
    CampaignExecutor,
    RunOutcome,
    RunSpec,
    campaign_rollup,
    run_workload,
)
from repro.harness.executor import execute_spec
from repro.obs import Histogram, Observation

OBSERVED = partial(execute_spec, observe=True)

#: Rollup fields measured in wall-clock time (not deterministic).
WALL_CLOCK = {"wall_seconds", "busy_seconds", "cycles_per_sec"}


def _hist(counts, edges=(1, 2, 4)):
    return {
        "edges": list(edges),
        "counts": list(counts),
        "count": sum(counts),
        "sum": 10,
        "min": 1,
        "max": 4,
    }


def _outcome(workload, mode, hists=None, gauges=None, **fields):
    metrics = None
    if hists is not None or gauges is not None:
        metrics = {
            "counters": {},
            "gauges": gauges or {},
            "histograms": hists or {},
        }
    fields.setdefault("status", "ok")
    return RunOutcome(
        spec=RunSpec(workload, mode, "tiny"), metrics=metrics, **fields
    )


def _without_wall_clock(rollup: dict) -> dict:
    rollup = json.loads(json.dumps(rollup))
    for cell in rollup["by_cell"].values():
        del cell["duration"]
    for field in WALL_CLOCK:
        del rollup["throughput"][field]
    return rollup


# ======================================================================
# The fold
# ======================================================================
def test_rollup_merges_histograms_with_percentiles():
    outcomes = [
        _outcome("xz", "tea", {"tea.chain_length": _hist([1, 2, 3, 0])},
                 gauges={"events.flush": 4, "sim.ipc": 0.5}),
        _outcome("xz", "baseline", {"tea.chain_length": _hist([2, 0, 1, 0])},
                 gauges={"events.flush": 1}),
        # Only ok cells contribute metrics.
        _outcome("xz", "runahead", {"tea.chain_length": _hist([5, 5, 5, 5])},
                 gauges={"events.flush": 7}, status="failed"),
    ]
    rollup = campaign_rollup([o.spec for o in outcomes], outcomes, 1.0)
    # Two modes of the same workload merge bucket-wise.
    merged = rollup["histograms"]["xz"]["tea.chain_length"]
    assert merged["counts"] == [3, 2, 4, 0]
    assert merged["count"] == 9
    assert merged["sum"] == 20
    assert (merged["min"], merged["max"]) == (1, 4)
    assert merged["p50"] is not None and merged["p99"] is not None
    # Only events.* gauges are event counts.
    assert rollup["events"] == {"emitted": {"flush": 5}}


def test_histogram_merge_rejects_other_edges():
    hist = Histogram("tea.chain_length", (1, 2, 4))
    with pytest.raises(ValueError, match="cannot merge"):
        hist.merge(_hist([1, 1, 1], edges=(1, 2)))


def test_rollup_counts_unsettled_cells_as_pending():
    specs = [RunSpec(w, "tea", "tiny") for w in ("a", "b", "c")]
    done = _outcome("a", "tea", attempts=2, duration=10.0,
                    stats={"cycles": 1000})
    rollup = campaign_rollup(specs, [done], 12.5)
    assert rollup["cells"] == {
        "total": 3, "ok": 1, "failed": 0, "timeout": 0,
        "pending": 2, "retried": 1, "observed": 0,
    }
    assert rollup["by_cell"]["a/tea"] == {
        "status": "ok", "attempts": 2, "duration": 10.0,
    }
    assert rollup["by_cell"]["b/tea"] == {
        "status": "pending", "attempts": 0, "duration": 0.0,
    }
    assert rollup["throughput"] == {
        "simulated_cycles": 1000, "wall_seconds": 12.5,
        "busy_seconds": 10.0, "cycles_per_sec": 100.0,
    }


def test_rollup_counts_observed_cells():
    observed = _outcome("xz", "tea", {"tea.chain_length": _hist([1, 0, 0, 0])},
                        gauges={"events.flush": 2})
    resumed = _outcome("xz", "baseline", resumed=True,
                       stats={"cycles": 500})
    rollup = campaign_rollup(
        [observed.spec, resumed.spec], [observed, resumed], 1.0
    )
    # Both cells are ok, but only the observed one's metrics are folded.
    assert rollup["cells"]["ok"] == 2
    assert rollup["cells"]["observed"] == 1
    assert rollup["events"] == {"emitted": {"flush": 2}}
    assert rollup["throughput"]["simulated_cycles"] == 500


def test_rollup_is_json_serializable():
    specs = [
        RunSpec(w, m, "tiny") for w in ("bfs", "xz") for m in ("baseline", "tea")
    ]
    outcomes = [_outcome("xz", "tea", {"tea.chain_length": _hist([0, 0, 0, 0])})]
    json.dumps(campaign_rollup(specs, outcomes, 0.0))


# ======================================================================
# End-to-end campaigns
# ======================================================================
def test_inline_campaign_rollup():
    specs = [RunSpec("xz", "tea", scale="tiny", max_cycles=200_000)]
    outcomes = CampaignExecutor(jobs=0, task=OBSERVED).run(specs)
    assert all(o.ok for o in outcomes)
    rollup = campaign_rollup(specs, outcomes, 1.0)
    assert rollup["cells"]["ok"] == 1
    assert rollup["by_cell"]["xz/tea"]["attempts"] == 1
    assert rollup["throughput"]["simulated_cycles"] == (
        outcomes[0].stats["cycles"]
    )
    assert rollup["events"]["emitted"]["branch_resolved"] > 0
    hists = rollup["histograms"]["xz"]
    assert hists["tea.cycles_saved"]["count"] > 0
    assert "p95" in hists["tea.cycles_saved"]


def test_pool_campaign_rollup():
    specs = [
        RunSpec("xz", "tea", scale="tiny", max_cycles=200_000),
        RunSpec("xz", "baseline", scale="tiny", max_cycles=200_000),
    ]
    outcomes = CampaignExecutor(jobs=2, task=OBSERVED).run(specs)
    assert all(o.ok for o in outcomes)
    rollup = campaign_rollup(specs, outcomes, 1.0)
    assert rollup["cells"] == {
        "total": 2, "ok": 2, "failed": 0, "timeout": 0,
        "pending": 0, "retried": 0, "observed": 2,
    }
    assert set(rollup["by_cell"]) == {"xz/tea", "xz/baseline"}
    assert rollup["throughput"]["simulated_cycles"] == sum(
        o.stats["cycles"] for o in outcomes
    )
    assert rollup["histograms"]["xz"]["tea.lead_time"]["count"] > 0


def _crashing_task(record):
    """Module-level (picklable) task whose worker dies outright."""
    os._exit(17)


def test_crashing_worker_fails_after_retries():
    specs = [RunSpec("xz", "tea", scale="tiny")]
    outcomes = CampaignExecutor(
        jobs=1, retries=1, backoff=0.0, task=_crashing_task
    ).run(specs)
    assert outcomes[0].status == "failed"
    assert outcomes[0].failure.exception == "WorkerDied"
    assert outcomes[0].attempts == 2
    rollup = campaign_rollup(specs, outcomes, 1.0)
    assert rollup["cells"]["failed"] == 1
    assert rollup["cells"]["retried"] == 1
    assert rollup["events"]["emitted"] == {}
    assert rollup["histograms"] == {}


#: Cycles the failing cell simulates under observation before it dies;
#: enough for thousands of events and TEA histogram samples.
PARTIAL_CYCLES = 5000
OK_SPEC = RunSpec("xz", "tea", scale="tiny")
FAILING_SPEC = RunSpec("xz", "tea_dedicated", scale="tiny")


def _partial_then_fatal_task(record):
    """Module-level (picklable): the failing cell runs an observed
    simulation for a few thousand cycles, then raises a fatal error."""
    if record["mode"] == FAILING_SPEC.mode:
        run_workload(
            record["workload"], record["mode"], record["scale"],
            max_cycles=PARTIAL_CYCLES,
            observe=Observation(record_events=False),
        )
        raise RuntimeError("fatal error after a partial observed run")
    return OBSERVED(record)


@pytest.fixture(scope="module")
def ok_cell_rollup():
    outcomes = CampaignExecutor(jobs=0, task=OBSERVED).run([OK_SPEC])
    assert outcomes[0].ok
    return campaign_rollup([OK_SPEC], outcomes, 1.0)


@pytest.mark.parametrize("jobs", [0, 2])
def test_failed_cell_contributes_no_metrics(jobs, ok_cell_rollup):
    # The partial run is not empty: had any of it leaked into the
    # rollup, the xz histograms would differ.
    partial_run = run_workload(
        FAILING_SPEC.workload, FAILING_SPEC.mode, "tiny",
        max_cycles=PARTIAL_CYCLES, observe=Observation(record_events=False),
    )
    assert partial_run.observation.metrics.histogram("tea.lead_time").total
    assert sum(partial_run.observation.bus.counts.values()) > 2048

    specs = [OK_SPEC, FAILING_SPEC]
    outcomes = CampaignExecutor(
        jobs=jobs, task=_partial_then_fatal_task
    ).run(specs)
    assert [o.status for o in outcomes] == ["ok", "failed"]
    assert outcomes[1].failure.kind == "fatal"
    rollup = campaign_rollup(specs, outcomes, 1.0)
    assert rollup["histograms"] == ok_cell_rollup["histograms"]
    assert rollup["events"] == ok_cell_rollup["events"]


# ======================================================================
# The CLI rollup is exact and independent of --jobs
# ======================================================================
MATRIX = ("bfs", "xz"), ("baseline", "tea")


@pytest.fixture(scope="module")
def cli_rollups(tmp_path_factory):
    rollups = {}
    for jobs in (0, 2):
        path = tmp_path_factory.mktemp("rollup") / f"jobs{jobs}.json"
        code = main([
            "run", ",".join(MATRIX[0]), "--modes", ",".join(MATRIX[1]),
            "--scale", "tiny", "--jobs", str(jobs),
            "--rollup-out", str(path),
        ])
        assert code == 0
        rollups[jobs] = json.loads(path.read_text())
    return rollups


def test_rollup_is_identical_inline_and_in_the_pool(cli_rollups):
    inline, pool = cli_rollups[0], cli_rollups[2]
    assert inline["cells"]["ok"] == 4
    assert _without_wall_clock(inline) == _without_wall_clock(pool)


def test_rollup_equals_the_per_cell_sum(cli_rollups):
    emitted: dict[str, int] = {}
    expected: dict[str, dict[str, dict]] = {}
    for workload in MATRIX[0]:
        for mode in MATRIX[1]:
            obs = run_workload(
                workload, mode, "tiny",
                observe=Observation(record_events=False),
            ).observation
            for type_, count in obs.bus.counts.items():
                emitted[type_] = emitted.get(type_, 0) + count
            for name, hist in obs.metrics.snapshot()["histograms"].items():
                into = expected.setdefault(workload, {}).setdefault(
                    name,
                    {"edges": hist["edges"], "counts": [0] * len(hist["counts"]),
                     "count": 0, "sum": 0, "min": [], "max": []},
                )
                into["counts"] = [
                    a + b for a, b in zip(into["counts"], hist["counts"])
                ]
                into["count"] += hist["count"]
                into["sum"] += hist["sum"]
                for field in ("min", "max"):
                    if hist[field] is not None:
                        into[field].append(hist[field])
    for hists in expected.values():
        for into in hists.values():
            into["min"] = min(into["min"], default=None)
            into["max"] = max(into["max"], default=None)
    for rollup in cli_rollups.values():
        assert rollup["events"]["emitted"] == emitted
        got = {
            workload: {
                name: {field: hist[field] for field in
                       ("edges", "counts", "count", "sum", "min", "max")}
                for name, hist in hists.items()
            }
            for workload, hists in rollup["histograms"].items()
        }
        assert got == expected
    # The timeliness distribution is in there, not just empty shells.
    assert cli_rollups[0]["histograms"]["bfs"]["tea.lead_time"]["count"] > 0


# ======================================================================
# --follow
# ======================================================================
def _ok_or_fatal_task(record):
    if record["workload"] == "beta":
        raise RuntimeError("deterministic model failure")
    return {"stats": {"cycles": 100}, "validated": True, "halted": True}


def test_follow_prints_a_line_per_settled_cell(capsys):
    obs = Observation()
    obs.bus.subscribe(_print_settled, ("run_finished", "run_failed"))
    specs = [RunSpec("alpha", "baseline"), RunSpec("beta", "baseline")]
    CampaignExecutor(jobs=0, task=_ok_or_fatal_task, observation=obs).run(
        specs
    )
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("settled alpha/baseline: ok, 1 attempt(s), ")
    assert lines[1].startswith(
        "settled beta/baseline: failed, 1 attempt(s), "
    )
    assert all(line.endswith("s") for line in lines)
