"""Tests for the fault-tolerant campaign executor: retry/backoff,
per-run timeouts, checkpoint kill-and-resume, failure records,
run-lifecycle telemetry, and parallel/serial determinism."""

import hashlib
import json
import os
import signal
import time
import warnings

import pytest

from repro.harness import (
    CampaignExecutor,
    ExperimentSuite,
    RunSpec,
    load_checkpoint,
    matrix_specs,
    summarize_outcomes,
)
from repro.harness import executor as executor_module
from repro.harness.executor import (
    FATAL,
    RETRYABLE,
    TIMEOUT,
    RunOutcome,
    classify_exception,
    execute_spec,
)
from repro.obs import Observation


# ----------------------------------------------------------------------
# Module-level tasks: process-mode workers pickle the callable, so
# everything spawned with jobs >= 1 must live at module scope.
# ----------------------------------------------------------------------
def ok_task(record):
    return {
        "stats": {"cycles": 100, "retired_instructions": 250},
        "validated": True,
        "halted": True,
    }


def fatal_task(record):
    if record["workload"] == "bad":
        raise ValueError("deterministic model bug")
    return ok_task(record)


def flaky_task(record):
    """Fails with a transient OSError on the first attempt per cell,
    tracked through marker files so it works across processes."""
    marker = os.path.join(
        os.environ["FLAKY_DIR"], record["workload"] + "_" + record["mode"]
    )
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("attempted")
        raise OSError("transient worker failure")
    return ok_task(record)


def hang_task(record):
    if record["workload"] == "slow":
        time.sleep(60)
    return ok_task(record)


def dying_task(record):
    os._exit(3)


def faulty_fig5_task(record):
    """Real simulation, plus one injected transient failure (xz/tea,
    first attempt only) and one injected hang (mcf/tea)."""
    if record["workload"] == "mcf" and record["mode"] == "tea":
        time.sleep(60)
    if record["workload"] == "xz" and record["mode"] == "tea":
        marker = os.path.join(os.environ["FLAKY_DIR"], "xz_tea_fault")
        if not os.path.exists(marker):
            with open(marker, "w") as fh:
                fh.write("attempted")
            raise OSError("injected transient fault")
    return execute_spec(record)


SPECS = [
    RunSpec("alpha", "baseline", "tiny"),
    RunSpec("beta", "baseline", "tiny"),
    RunSpec("gamma", "baseline", "tiny"),
    RunSpec("delta", "baseline", "tiny"),
]


class TestClassification:
    def test_os_errors_are_retryable(self):
        assert classify_exception("OSError") == RETRYABLE
        assert classify_exception("BrokenPipeError") == RETRYABLE
        assert classify_exception("WorkerDied") == RETRYABLE

    def test_model_errors_are_fatal(self):
        assert classify_exception("SimulationError") == FATAL
        assert classify_exception("ValidationError") == FATAL
        assert classify_exception("ConfigError") == FATAL
        assert classify_exception("ValueError") == FATAL

    def test_retryable_attribute_wins(self):
        assert classify_exception("ValueError", retryable_attr=True) == RETRYABLE


class TestInlineRetryBackoff:
    def test_flaky_run_retries_until_success(self, monkeypatch):
        monkeypatch.setattr(executor_module, "JITTER", 0.0)
        attempts = []

        def flaky(record):
            attempts.append(record["workload"])
            if len(attempts) < 3:
                raise OSError("transient")
            return ok_task(record)

        delays = []
        obs = Observation()
        executor = CampaignExecutor(
            jobs=0,
            retries=2,
            backoff=0.5,
            task=flaky,
            observation=obs,
            sleep=delays.append,
            clock=lambda: 0.0,
        )
        [outcome] = executor.run([SPECS[0]])
        assert outcome.ok
        assert outcome.attempts == 3
        assert len(attempts) == 3
        # Pure exponential backoff with jitter off: 0.5s then 1.0s.
        assert delays == pytest.approx([0.5, 1.0])
        assert obs.bus.counts["run_retried"] == 2
        assert obs.metrics.counter("campaign.run_retried").value == 2

    def test_retry_budget_exhausted(self):
        def always_down(record):
            raise OSError("still down")

        executor = CampaignExecutor(
            jobs=0, retries=2, task=always_down,
            sleep=lambda s: None, clock=lambda: 0.0,
        )
        [outcome] = executor.run([SPECS[0]])
        assert outcome.status == "failed"
        assert outcome.attempts == 3
        assert outcome.failure.kind == RETRYABLE

    def test_fatal_failure_not_retried(self):
        calls = []

        def fatal(record):
            calls.append(1)
            raise ValueError("model bug")

        obs = Observation()
        executor = CampaignExecutor(jobs=0, task=fatal, observation=obs)
        [outcome] = executor.run([SPECS[0]])
        assert outcome.status == "failed"
        assert len(calls) == 1
        failure = outcome.failure
        assert failure.kind == FATAL
        assert failure.exception == "ValueError"
        assert "model bug" in failure.message
        assert "ValueError" in failure.traceback
        assert len(failure.config_digest) == 12
        assert obs.bus.counts["run_failed"] == 1
        assert obs.metrics.counter("campaign.run_failed").value == 1

    def test_simulation_error_diagnostics_preserved(self):
        from repro import SimulationError

        def wedged(record):
            raise SimulationError(
                "no retirement", diagnostics={"cycle": 123, "rob_depth": 4}
            )

        executor = CampaignExecutor(jobs=0, task=wedged)
        [outcome] = executor.run([SPECS[0]])
        assert outcome.failure.kind == FATAL
        assert outcome.failure.diagnostics == {"cycle": 123, "rob_depth": 4}


class TestCheckpointResume:
    def test_journal_written_per_run(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        CampaignExecutor(jobs=0, task=ok_task).run(SPECS, checkpoint=path)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == 4
        assert {l["spec"]["workload"] for l in lines} == {
            "alpha", "beta", "gamma", "delta"
        }

    def test_kill_and_resume_skips_journaled_runs(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        CampaignExecutor(jobs=0, task=ok_task).run(SPECS, checkpoint=path)
        # Simulate a crash after two completed cells: keep 2 records.
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2]) + "\n")

        executed = []

        def counting(record):
            executed.append(record["workload"])
            return ok_task(record)

        outcomes = CampaignExecutor(jobs=0, task=counting).run(
            SPECS, checkpoint=path, resume=True
        )
        assert sorted(executed) == ["delta", "gamma"]
        assert [o.key for o in outcomes] == [s.key for s in SPECS]
        assert [o.resumed for o in outcomes] == [True, True, False, False]
        # The journal now holds the full campaign again.
        assert len(load_checkpoint(path)) == 4

    def test_truncated_trailing_record_skipped_with_warning(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        CampaignExecutor(jobs=0, task=ok_task).run(SPECS, checkpoint=path)
        text = path.read_text()
        path.write_text(text[: len(text) - 25])  # chop the last record
        with pytest.warns(UserWarning, match="corrupt checkpoint record"):
            completed = load_checkpoint(path)
        assert len(completed) == 3

        # Resume re-runs only the chopped cell.
        executed = []

        def counting(record):
            executed.append(record["workload"])
            return ok_task(record)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            CampaignExecutor(jobs=0, task=counting).run(
                SPECS, checkpoint=path, resume=True
            )
        assert executed == ["delta"]

    def test_failed_cells_are_journaled_and_not_rerun(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        specs = [RunSpec("bad", "baseline", "tiny"), SPECS[0]]
        outcomes = CampaignExecutor(jobs=0, task=fatal_task).run(
            specs, checkpoint=path
        )
        assert outcomes[0].status == "failed"
        executed = []

        def counting(record):
            executed.append(record["workload"])
            return ok_task(record)

        resumed = CampaignExecutor(jobs=0, task=counting).run(
            specs, checkpoint=path, resume=True
        )
        assert executed == []
        assert resumed[0].status == "failed"
        assert resumed[0].failure.exception == "ValueError"

    def test_without_resume_checkpoint_starts_fresh(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        CampaignExecutor(jobs=0, task=ok_task).run(SPECS, checkpoint=path)
        CampaignExecutor(jobs=0, task=ok_task).run(
            SPECS[:1], checkpoint=path
        )
        assert len(load_checkpoint(path)) == 1

    def test_journal_is_not_served_for_a_different_spec(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        tiny = RunSpec("xz", "baseline", "tiny")
        bench = RunSpec("xz", "baseline", "bench", check_invariants=64)
        CampaignExecutor(jobs=0, task=ok_task).run([tiny], checkpoint=path)

        executed = []

        def scale_task(record):
            executed.append(record)
            return {
                "stats": {"cycles": 999, "retired_instructions": 1},
                "validated": True,
                "halted": True,
            }

        [outcome] = CampaignExecutor(jobs=0, task=scale_task).run(
            [bench], checkpoint=path, resume=True
        )
        assert executed == [bench.as_record()]
        assert not outcome.resumed
        assert outcome.spec == bench
        assert outcome.stats["cycles"] == 999

    def test_record_from_another_config_digest_is_resimulated(
        self, tmp_path
    ):
        path = tmp_path / "cp.jsonl"
        CampaignExecutor(jobs=0, task=ok_task).run(
            SPECS[:2], checkpoint=path
        )
        # Re-seal the first record as if it ran under another machine
        # configuration: its checksum verifies, its digest is stale.
        first, second = path.read_text().splitlines()
        record = json.loads(first)
        assert record["config_digest"] == SPECS[0].config_digest()
        record["config_digest"] = "0" * 12
        body = {k: v for k, v in record.items() if k != "checksum"}
        record["checksum"] = hashlib.sha256(
            json.dumps(body, sort_keys=True).encode()
        ).hexdigest()
        path.write_text(json.dumps(record) + "\n" + second + "\n")

        executed = []

        def counting(record):
            executed.append(record["workload"])
            return ok_task(record)

        with pytest.warns(UserWarning, match="1 cell\\(s\\) journaled under "
                                             "another config"):
            outcomes = CampaignExecutor(jobs=0, task=counting).run(
                SPECS[:2], checkpoint=path, resume=True
            )
        assert executed == ["alpha"]
        assert [o.resumed for o in outcomes] == [False, True]
        rerun = json.loads(path.read_text().splitlines()[-1])
        assert rerun["config_digest"] == SPECS[0].config_digest()


class TestProcessPool:
    def test_parallel_flaky_worker_retries(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FLAKY_DIR", str(tmp_path))
        obs = Observation()
        executor = CampaignExecutor(
            jobs=2, retries=2, backoff=0.05, task=flaky_task, observation=obs
        )
        outcomes = executor.run(SPECS)
        assert all(o.ok for o in outcomes)
        assert all(o.attempts == 2 for o in outcomes)
        assert obs.metrics.counter("campaign.run_retried").value == 4
        assert obs.metrics.counter("campaign.run_finished").value == 4

    def test_timeout_terminates_worker_and_marks_cell(self):
        specs = [
            RunSpec("slow", "baseline", "tiny"),
            RunSpec("quick", "baseline", "tiny"),
        ]
        obs = Observation()
        executor = CampaignExecutor(
            jobs=2, timeout=1.0, task=hang_task, observation=obs
        )
        started = time.monotonic()
        outcomes = executor.run(specs)
        assert time.monotonic() - started < 30  # not the 60s sleep
        by_key = {o.key: o for o in outcomes}
        assert by_key["slow/baseline"].status == "timeout"
        assert by_key["slow/baseline"].attempts == 1  # timeouts not retried
        assert by_key["slow/baseline"].failure.kind == TIMEOUT
        assert by_key["quick/baseline"].ok
        assert obs.bus.counts["run_failed"] == 1

    def test_worker_terminates_despite_the_parent_sigterm_handler(self):
        # ``repro run`` drains on SIGTERM; forked workers inherit that
        # handler and must still die when the executor terminates them.
        previous = signal.signal(signal.SIGTERM, lambda *_: None)
        try:
            started = time.monotonic()
            [outcome] = CampaignExecutor(
                jobs=1, timeout=1.0, task=hang_task,
            ).run([RunSpec("slow", "baseline", "tiny")])
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert outcome.status == "timeout"
        assert time.monotonic() - started < 30  # not the 60s sleep

    def test_dead_worker_is_retryable(self):
        executor = CampaignExecutor(jobs=1, retries=0, task=dying_task)
        [outcome] = executor.run(SPECS[:1])
        assert outcome.status == "failed"
        assert outcome.failure.exception == "WorkerDied"
        assert outcome.failure.kind == RETRYABLE
        assert "code 3" in outcome.failure.message


class TestDeterminism:
    def test_parallel_and_serial_results_identical(self):
        specs = matrix_specs(("xz",), ("baseline", "tea"), scale="tiny")
        serial = CampaignExecutor(jobs=0).run(specs)
        parallel = CampaignExecutor(jobs=2).run(specs)
        assert [o.key for o in serial] == [o.key for o in parallel]
        for a, b in zip(serial, parallel):
            assert a.stats == b.stats
            assert a.validated and b.validated


class TestFig5CampaignWithInjectedFaults:
    """The acceptance scenario: a fig5 campaign survives one injected
    timeout and one injected transient exception, marks the failed
    cell, retries the transient one, and resumes from its checkpoint
    after a simulated crash."""

    @pytest.fixture(scope="class")
    def campaign(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("fig5")
        os.environ["FLAKY_DIR"] = str(tmp_path)
        checkpoint = tmp_path / "fig5.jsonl"
        workloads = ("xz", "mcf")
        executor = CampaignExecutor(
            jobs=2, timeout=10.0, retries=2, backoff=0.05,
            task=faulty_fig5_task,
        )
        suite = ExperimentSuite(
            scale="tiny", workloads=workloads, executor=executor
        )
        outcomes = suite.run_matrix(
            ("baseline", "tea"), checkpoint=checkpoint
        )
        return suite, outcomes, checkpoint, workloads

    def test_transient_fault_retried_to_success(self, campaign):
        _, outcomes, _, _ = campaign
        by_key = {o.key: o for o in outcomes}
        assert by_key["xz/tea"].ok
        assert by_key["xz/tea"].attempts == 2

    def test_hung_cell_marked_timeout(self, campaign):
        _, outcomes, _, _ = campaign
        by_key = {o.key: o for o in outcomes}
        assert by_key["mcf/tea"].status == "timeout"
        assert by_key["xz/baseline"].ok
        assert by_key["mcf/baseline"].ok

    def test_fig5_renders_with_failed_cell_marked(self, campaign):
        suite, _, _, _ = campaign
        data = suite.fig5()
        assert data["failures"] == {"mcf/tea": "timeout"}
        assert data["speedup_pct"]["mcf"] is None
        assert data["speedup_pct"]["xz"] is not None
        rendered = suite.render_fig5()
        assert "FAILED(timeout)" in rendered
        # The geomean is computed over the surviving workloads only.
        assert data["geomean_pct"] == pytest.approx(
            suite._gm_speedup("tea", ("xz",))
        )

    def test_resume_after_simulated_crash(self, campaign):
        _, _, checkpoint, workloads = campaign
        # Crash simulation: lose the last journaled record.
        lines = checkpoint.read_text().splitlines()
        checkpoint.write_text("\n".join(lines[:-1]) + "\n")
        lost = {json.loads(l)["spec"]["workload"] + "/"
                + json.loads(l)["spec"]["mode"] for l in lines[-1:]}

        executor = CampaignExecutor(
            jobs=2, timeout=10.0, retries=2, backoff=0.05,
            task=faulty_fig5_task,
        )
        suite = ExperimentSuite(
            scale="tiny", workloads=workloads, executor=executor
        )
        outcomes = suite.run_matrix(
            ("baseline", "tea"), checkpoint=checkpoint, resume=True
        )
        assert sum(1 for o in outcomes if not o.resumed) == 1
        assert {o.key for o in outcomes if not o.resumed} == lost
        summary = summarize_outcomes(outcomes)
        assert summary["ok"] + summary["timeout"] == 4


class TestOutcomeRoundtrip:
    def test_as_record_roundtrip(self):
        spec = RunSpec("xz", "tea", "tiny", max_cycles=1000, seed=7)
        outcome = RunOutcome(
            spec=spec, status="ok", attempts=2,
            stats={"cycles": 10, "retired_instructions": 20},
            validated=True, halted=True,
        )
        back = RunOutcome.from_record(
            json.loads(json.dumps(outcome.as_record()))
        )
        assert back.spec == spec
        assert back.stats == outcome.stats
        assert back.resumed is True
        assert back.sim_stats().ipc == pytest.approx(2.0)

    def test_failed_outcome_renders_placeholder_result(self):
        from repro.harness.executor import RunFailure

        outcome = RunOutcome(
            spec=RunSpec("xz", "tea", "tiny"),
            status="timeout",
            failure=RunFailure(
                kind=TIMEOUT, exception="RunTimeout", message="too slow",
                traceback="", config_digest="0" * 12, seed=0,
            ),
        )
        result = outcome.run_result()
        assert not result.ok
        assert result.failure == "timeout"
        assert result.ipc == 0.0


def marker_task(record):
    """Completes normally; the second cell also drops a marker file the
    parent's ``stop`` hook can watch — cross-process drain trigger.

    Under ``jobs=1`` the first cell is reaped and journaled before the
    second launches, so a drain the marker trips always finds at least
    one settled cell, however slowly the second cell's result reaches
    its pipe."""
    if record["workload"] == SPECS[1].workload:
        marker = os.path.join(os.environ["FLAKY_DIR"], "drain_marker")
        with open(marker, "w") as fh:
            fh.write(record["workload"])
    return ok_task(record)


def slow_finish_task(record):
    """Trips the drain marker, then finishes 0.3 s later."""
    marker = os.path.join(os.environ["FLAKY_DIR"], "drain_marker")
    with open(marker, "w") as fh:
        fh.write(record["workload"])
    time.sleep(0.3)
    return ok_task(record)


class TestBackoffJitter:
    def test_jitter_is_seeded_and_bounded(self, monkeypatch):
        monkeypatch.setattr(executor_module, "JITTER", 0.25)

        def always_down(record):
            raise OSError("still down")

        def delays_for(seed):
            monkeypatch.setattr(executor_module, "JITTER_SEED", seed)
            delays = []
            CampaignExecutor(
                jobs=0, retries=3, backoff=0.5, task=always_down,
                sleep=delays.append, clock=lambda: 0.0,
            ).run([SPECS[0]])
            return delays

        first = delays_for(7)
        assert len(first) == 3
        for attempt, delay in enumerate(first, start=1):
            base = 0.5 * 2 ** (attempt - 1)
            assert base <= delay < base * 1.25
        # Same seed replays the same schedule; another seed desyncs,
        # so a burst of failures does not re-launch in lockstep.
        assert delays_for(7) == first
        assert delays_for(8) != first

    def test_run_retried_event_carries_backoff_schedule(self):
        def always_down(record):
            raise OSError("still down")

        obs = Observation()
        got = []
        obs.bus.subscribe(got.append, ("run_retried",))
        executor = CampaignExecutor(
            jobs=0, retries=2, backoff=0.5,
            task=always_down, observation=obs,
            sleep=lambda s: None, clock=lambda: 0.0,
        )
        [outcome] = executor.run([SPECS[0]])
        assert outcome.status == "failed"
        assert [e.data["attempt"] for e in got] == [1, 2]
        assert got[0].data["backoff"] == pytest.approx(0.5)
        assert got[1].data["backoff"] == pytest.approx(1.0)
        for event in got:
            base = event.data["backoff"]
            assert base <= event.data["delay"] <= base * (
                1 + executor_module.JITTER
            )


class TestDrainStop:
    def test_inline_stop_leaves_cells_unsettled_and_resumable(
        self, tmp_path
    ):
        path = tmp_path / "cp.jsonl"
        done = []

        def task(record):
            done.append(record["workload"])
            return ok_task(record)

        outcomes = CampaignExecutor(
            jobs=0, task=task, stop=lambda: len(done) >= 2,
        ).run(SPECS, checkpoint=path)
        # run() returns only settled cells; the rest stay unsettled.
        assert len(outcomes) == 2
        assert done == ["alpha", "beta"]

        resumed = CampaignExecutor(jobs=0, task=task).run(
            SPECS, checkpoint=path, resume=True
        )
        assert len(resumed) == 4
        assert done == ["alpha", "beta", "gamma", "delta"]

    def test_pool_stop_drains_workers(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FLAKY_DIR", str(tmp_path))
        marker = tmp_path / "drain_marker"
        path = tmp_path / "cp.jsonl"
        outcomes = CampaignExecutor(
            jobs=1, task=marker_task, stop=marker.exists,
        ).run(SPECS, checkpoint=path)
        assert 0 < len(outcomes) < len(SPECS)
        assert all(o.ok for o in outcomes)
        # Settled cells were journaled before the drain; a resume
        # completes exactly the remainder.
        assert len(load_checkpoint(path)) == len(outcomes)
        resumed = CampaignExecutor(jobs=0, task=ok_task).run(
            SPECS, checkpoint=path, resume=True
        )
        assert len(resumed) == len(SPECS)
        assert all(o.ok for o in resumed)


    def test_drain_settles_results_already_in_the_pipe(
        self, tmp_path, monkeypatch
    ):
        # The task trips the drain and finishes 0.3 s later; the hook
        # takes 0.6 s to answer, so when the drain begins the finished
        # result is already waiting in the worker's pipe.
        monkeypatch.setenv("FLAKY_DIR", str(tmp_path))
        marker = tmp_path / "drain_marker"

        def slow_stop():
            if not marker.exists():
                return False
            time.sleep(0.6)
            return True

        path = tmp_path / "cp.jsonl"
        outcomes = CampaignExecutor(
            jobs=1, task=slow_finish_task, stop=slow_stop,
        ).run(SPECS[:1], checkpoint=path)
        assert [o.key for o in outcomes] == [SPECS[0].key]
        assert outcomes[0].ok
        assert list(load_checkpoint(path)) == [SPECS[0].key]


class TestTornJournalRecovery:
    def test_read_journal_lines_resyncs_glued_record(self):
        from repro.harness.executor import read_journal_lines

        good = json.dumps({"k": 1})
        text = good + "\n" + '{"torn": ' + good + "\nnot json at all\n"
        records, counters = read_journal_lines(text)
        assert [record for _, record in records] == [{"k": 1}, {"k": 1}]
        assert counters["recovered"] == 1
        assert counters["skipped"] == 1

    def test_mid_file_torn_record_recovered_with_warning(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        CampaignExecutor(jobs=0, task=ok_task).run(SPECS, checkpoint=path)
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        # Simulate a torn write: record 1 loses its tail and record 2
        # lands glued onto the same line without a newline.
        glued = lines[1][:10] + lines[2]
        path.write_text("\n".join([lines[0], glued, lines[3]]) + "\n")
        with pytest.warns(UserWarning, match="journal damage"):
            outcomes = load_checkpoint(path)
        assert set(outcomes) == {
            SPECS[0].key, SPECS[2].key, SPECS[3].key,
        }
        # The salvaged journal still resumes: only the lost cell reruns.
        executed = []

        def counting(record):
            executed.append(record["workload"])
            return ok_task(record)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            resumed = CampaignExecutor(jobs=0, task=counting).run(
                SPECS, checkpoint=path, resume=True
            )
        assert executed == ["beta"]
        assert len(resumed) == 4
