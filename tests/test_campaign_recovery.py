"""Crash-recovery drill for checkpointed campaigns.

Drives real ``python -m repro run … --checkpoint`` subprocesses running
real tiny-scale simulations, and holds the checkpoint journal to the
guarantees a campaign store needs:

* SIGKILL mid-campaign, then ``--resume``: the journal's canonical cells
  equal a fault-free inline run, with exactly one record per cell;
* SIGTERM on a process-pool campaign: exit 143 promptly, no worker left
  alive, only settled cells journaled, and ``--resume`` completes to the
  same canonical cells;
* a SIGKILLed parent never leaves workers behind: a worker's one
  result message fails to send instead of blocking;
* a record with altered bytes fails its checksum and is re-simulated,
  never returned;
* campaigns sharing one journal simulate only the cells it lacks.

Waits poll for progress against generous deadlines; nothing sleeps for
a fixed time.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.harness import CampaignExecutor, load_checkpoint, matrix_specs

SRC = str(Path(repro.__file__).resolve().parents[1])
WORKLOADS = ("xz", "bfs")
MODES = ("baseline", "tea")
SPECS = matrix_specs(WORKLOADS, MODES, scale="tiny")
RUN = [
    "run", ",".join(WORKLOADS), "--modes", ",".join(MODES),
    "--scale", "tiny",
]

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/status").exists(),
    reason="worker discovery reads /proc",
)


def canonical(outcome) -> dict:
    """What a cell must reproduce: no attempts, durations or digests."""
    record = outcome.as_record()
    return {
        key: record[key]
        for key in ("spec", "status", "stats", "validated", "halted")
    }


@pytest.fixture(scope="module")
def reference():
    """Canonical cells of a fault-free inline run of the matrix."""
    outcomes = CampaignExecutor(jobs=0, retries=0).run(SPECS)
    return {outcome.key: canonical(outcome) for outcome in outcomes}


def repro_cli(*args, **popen):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        env={**os.environ, "PYTHONPATH": SRC},
        **popen,
    )


def wait_for(predicate, timeout, message):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    pytest.fail(f"timed out after {timeout}s waiting for {message}")


def journal_lines(path) -> list[str]:
    return path.read_text().splitlines() if path.exists() else []


def alive(pid: int) -> bool:
    """Running: neither gone nor a zombie awaiting its reaper."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def children_of(pid: int) -> set[int]:
    kids = set()
    for status in Path("/proc").glob("[0-9]*/status"):
        try:
            text = status.read_text()
        except OSError:
            continue
        if f"\nPPid:\t{pid}\n" in text:
            kids.add(int(status.parent.name))
    return kids


def kill_all(pids) -> None:
    for pid in pids:
        if alive(pid):
            os.kill(pid, signal.SIGKILL)


def assert_one_intact_record_per_cell(path) -> dict:
    lines = journal_lines(path)
    keys = [
        "{workload}/{mode}".format(**json.loads(line)["spec"])
        for line in lines
    ]
    assert len(keys) == len(set(keys)), keys
    outcomes = load_checkpoint(path)
    assert sorted(outcomes) == sorted(keys)
    return outcomes


class TestSigkillResume:
    def test_resume_reproduces_the_fault_free_cells(
        self, tmp_path, reference
    ):
        journal = tmp_path / "campaign.jsonl"
        proc = repro_cli(
            *RUN, "--jobs", "1", "--checkpoint", str(journal),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            wait_for(lambda: journal_lines(journal), 300,
                     "the first journaled cell")
        finally:
            proc.kill()
            proc.wait()
        journaled = len(load_checkpoint(journal))
        assert journaled >= 1

        resumed = repro_cli(
            *RUN, "--jobs", "1", "--checkpoint", str(journal), "--resume",
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        out, _ = resumed.communicate(timeout=300)
        assert resumed.returncode == 0, out
        assert f"{journaled} resumed from checkpoint" in out

        outcomes = assert_one_intact_record_per_cell(journal)
        assert {key: canonical(o) for key, o in outcomes.items()} == reference


class TestSigtermDrain:
    def test_drain_exits_143_and_resume_completes(self, tmp_path, reference):
        journal = tmp_path / "campaign.jsonl"
        proc = repro_cli(
            *RUN, "--jobs", "2", "--checkpoint", str(journal),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        workers: set[int] = set()

        def first_cell_settled() -> bool:
            workers.update(children_of(proc.pid))
            return bool(journal_lines(journal))

        try:
            wait_for(first_cell_settled, 300, "the first journaled cell")
            workers.update(children_of(proc.pid))
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        finally:
            proc.kill()
            kill_all(workers)
        assert proc.returncode == 143, out
        assert "unsettled; rerun with --resume" in out
        assert workers, "no worker process was observed"
        assert not [pid for pid in workers if alive(pid)]

        # Only settled cells reach the journal: intact, ok, one each.
        settled = assert_one_intact_record_per_cell(journal)
        assert all(outcome.ok for outcome in settled.values())

        resumed = repro_cli(
            *RUN, "--jobs", "2", "--checkpoint", str(journal), "--resume",
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        out, _ = resumed.communicate(timeout=300)
        assert resumed.returncode == 0, out
        assert f"{len(settled)} resumed from checkpoint" in out
        outcomes = assert_one_intact_record_per_cell(journal)
        assert {key: canonical(o) for key, o in outcomes.items()} == reference


class TestOrphanedWorkers:
    def test_workers_exit_after_the_parent_is_sigkilled(self, tmp_path):
        # Once the parent is gone nobody reads the workers' pipes; each
        # worker closed its inherited parent-side ends, so sending its
        # result raises EPIPE and the worker exits instead of blocking.
        proc = repro_cli(
            "run", "xz,bfs,mcf", "--modes", "baseline,tea",
            "--scale", "tiny", "--jobs", "2", "--follow",
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        workers: set[int] = set()

        def two_workers() -> bool:
            workers.update(children_of(proc.pid))
            return len(workers) >= 2

        try:
            wait_for(two_workers, 120, "two workers")
            proc.kill()
            proc.wait()
            wait_for(
                lambda: not any(alive(pid) for pid in workers), 120,
                f"orphaned workers {sorted(workers)} to exit",
            )
        finally:
            proc.kill()
            kill_all(workers)


def ok_task(record):
    return {
        "stats": {"cycles": 100, "retired_instructions": 250},
        "validated": True,
        "halted": True,
    }


class TestJournalAsCellStore:
    def test_altered_record_fails_its_checksum_and_is_resimulated(
        self, tmp_path
    ):
        path = tmp_path / "cp.jsonl"
        specs = matrix_specs(("alpha", "beta"), ("baseline",), scale="tiny")
        CampaignExecutor(jobs=0, task=ok_task).run(specs, checkpoint=path)
        lines = journal_lines(path)
        assert '"cycles": 100' in lines[0]
        lines[0] = lines[0].replace('"cycles": 100', '"cycles": 999')
        path.write_text("\n".join(lines) + "\n")

        with pytest.warns(UserWarning, match="1 corrupt checkpoint record"):
            assert sorted(load_checkpoint(path)) == ["beta/baseline"]
        executed = []

        def counting(record):
            executed.append(record["workload"])
            return ok_task(record)

        with pytest.warns(UserWarning, match="1 corrupt checkpoint record"):
            outcomes = CampaignExecutor(jobs=0, task=counting).run(
                specs, checkpoint=path, resume=True
            )
        assert executed == ["alpha"]
        assert [o.resumed for o in outcomes] == [False, True]
        assert all(o.stats["cycles"] == 100 for o in outcomes)

    def test_campaigns_sharing_a_journal_simulate_only_new_cells(
        self, tmp_path
    ):
        path = tmp_path / "shared.jsonl"
        executed = []

        def counting(record):
            executed.append(f"{record['workload']}/{record['mode']}")
            return ok_task(record)

        first = matrix_specs(("alpha", "beta"), ("baseline",), scale="tiny")
        second = matrix_specs(("beta", "gamma"), ("baseline", "tea"),
                              scale="tiny")
        CampaignExecutor(jobs=0, task=counting).run(
            first, checkpoint=path, resume=True
        )
        outcomes = CampaignExecutor(jobs=0, task=counting).run(
            second, checkpoint=path, resume=True
        )
        assert executed == [
            "alpha/baseline", "beta/baseline",
            "beta/tea", "gamma/baseline", "gamma/tea",
        ]
        assert [o.resumed for o in outcomes] == [True, False, False, False]
        # The shared journal holds exactly one record per cell.
        assert_one_intact_record_per_cell(path)
        assert len(journal_lines(path)) == 5
