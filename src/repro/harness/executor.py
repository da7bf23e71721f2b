"""Fault-tolerant campaign execution: process fan-out, timeouts, retry.

The paper's evaluation is a large (workload × mode × scale) run matrix;
executing it serially in one process means a single hung or crashing
run throws away hours of completed simulation.  This module fans the
matrix out over worker processes and turns every failure into data:

* **per-run wall-clock timeouts** — a wedged simulation is terminated
  (SIGTERM to its worker) and journaled as a ``timeout`` cell;
* **bounded retry with exponential backoff** — *retryable* failures
  (worker death, OS-level errors, anything raising with a truthy
  ``retryable`` attribute) are re-attempted up to ``retries`` times;
  deterministic model failures (:class:`~repro.core.SimulationError`,
  :class:`~repro.harness.runner.ValidationError`, config errors) are
  *fatal* — retrying a deterministic simulator cannot change the
  outcome — and fail the cell immediately;
* **structured failure records** — exception class, message, traceback,
  config digest, and seed are captured per failed cell instead of a
  propagated crash;
* **checkpoint/resume** — every completed cell is appended to a JSONL
  journal as it finishes (flushed + fsynced), stamped with the config
  digest it ran under and a checksum of itself.  The journal is the
  campaign's cell store: a resumed campaign reuses a record only when
  its spec record and config digest match the cell's
  :meth:`RunSpec.cell_id` and its checksum verifies, so campaigns that
  share one journal never re-simulate a cell and never reuse a stale
  or damaged one;
* **graceful drain** — a ``stop`` hook (``repro run`` wires it to
  SIGTERM) launches nothing new, settles every cell whose result is
  already in its pipe, and terminates the rest unjournaled, so a
  ``--resume`` picks up exactly the unsettled cells.

Determinism: each run is an isolated, seeded simulation, so parallel
and serial execution produce bit-identical per-run results; only the
completion *order* differs, and results are returned in spec order.

Run-lifecycle events (``run_started`` / ``run_finished`` /
``run_failed`` / ``run_retried``) are emitted on a
:class:`~repro.obs.Observation`'s event bus when one is supplied, and
counted in its metrics registry under ``campaign.*``; a settled cell's
event carries its wall seconds.  Campaign-wide telemetry is a fold over
the settled outcomes (:func:`~repro.harness.campaign.campaign_rollup`):
a task run as ``execute_spec(record, observe=True)`` returns its cell's
final metrics snapshot on :attr:`RunOutcome.metrics`, so every worker
attempt sends its parent exactly one message.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing as mp
import os
import random as _random
import signal
import time
import traceback
import warnings
from collections import deque
from dataclasses import dataclass, fields
from multiprocessing.connection import wait as _conn_wait
from pathlib import Path

from ..core.stats import SimStats

# Failure taxonomy (see HACKING.md).
RETRYABLE = "retryable"
FATAL = "fatal"
TIMEOUT = "timeout"

#: Exception class names treated as transient infrastructure failures.
RETRYABLE_EXCEPTION_NAMES = frozenset(
    {
        "OSError",
        "IOError",
        "EOFError",
        "BrokenPipeError",
        "ConnectionError",
        "ConnectionResetError",
        "MemoryError",
        "WorkerDied",
    }
)

#: Retry backoff jitter: each delay is stretched by ``1 + JITTER * u``,
#: ``u ~ U[0, 1)`` drawn from ``random.Random(JITTER_SEED)``, so a burst
#: of simultaneous failures does not re-launch in lockstep.
JITTER = 0.1
JITTER_SEED = 0

#: SimStats counter fields serialized across the worker boundary.
STAT_FIELDS = tuple(
    spec.name for spec in fields(SimStats) if spec.name not in ("extra",)
)


class WorkerDied(RuntimeError):
    """A worker process exited without reporting a result."""


def classify_exception(name: str, retryable_attr: bool = False) -> str:
    """Map an exception class name to a failure kind."""
    if retryable_attr or name in RETRYABLE_EXCEPTION_NAMES:
        return RETRYABLE
    return FATAL


# ======================================================================
# Specs, failures, outcomes
# ======================================================================
@dataclass(frozen=True)
class RunSpec:
    """One cell of the campaign matrix."""

    workload: str
    mode: str
    scale: str = "bench"
    max_cycles: int = 30_000_000
    seed: int = 0
    check_invariants: int = 0   # repro.verify audit period (0 = off)

    @property
    def key(self) -> str:
        """Display key (``workload/mode``) for tables and telemetry; it
        does not identify a cell — :meth:`cell_id` does."""
        return f"{self.workload}/{self.mode}"

    def as_record(self) -> dict:
        return {
            "workload": self.workload,
            "mode": self.mode,
            "scale": self.scale,
            "max_cycles": self.max_cycles,
            "seed": self.seed,
            "check_invariants": self.check_invariants,
        }

    @classmethod
    def from_record(cls, record: dict) -> "RunSpec":
        # Tolerant of records written before a field existed (the
        # defaulted dataclass field fills the gap).
        return cls(
            **{f.name: record[f.name] for f in fields(cls) if f.name in record}
        )

    def config_digest(self) -> str:
        """Stable digest of the machine configuration this cell runs."""
        from .runner import make_config

        text = repr(make_config(self.mode))
        return hashlib.sha256(text.encode()).hexdigest()[:12]

    def cell_id(self, config_digest: str | None = None) -> str:
        """Content identity of this cell: its spec record plus the digest
        of the configuration it runs under (today's unless given).

        The simulator is deterministic, so two cells with the same id
        produce the same outcome; the checkpoint journal reuses records
        by this id only.
        """
        if config_digest is None:
            config_digest = self.config_digest()
        payload = json.dumps(
            {"spec": self.as_record(), "config": config_digest},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class RunFailure:
    """Structured record of why a cell failed (journal-safe)."""

    kind: str                 # RETRYABLE / FATAL / TIMEOUT
    exception: str            # exception class name
    message: str
    traceback: str
    config_digest: str
    seed: int
    diagnostics: dict | None = None   # watchdog state dump, if any

    def as_record(self) -> dict:
        return {
            "kind": self.kind,
            "exception": self.exception,
            "message": self.message,
            "traceback": self.traceback,
            "config_digest": self.config_digest,
            "seed": self.seed,
            "diagnostics": self.diagnostics,
        }

    @classmethod
    def from_record(cls, record: dict) -> "RunFailure":
        return cls(**{f.name: record.get(f.name) for f in fields(cls)})


@dataclass
class RunOutcome:
    """Final state of one campaign cell (after all retries)."""

    spec: RunSpec
    status: str                       # "ok" / "failed" / "timeout"
    attempts: int = 1
    stats: dict | None = None         # raw SimStats counters
    validated: bool = False
    halted: bool = False
    failure: RunFailure | None = None
    resumed: bool = False             # loaded from a checkpoint journal
    duration: float = 0.0             # wall seconds (not deterministic)
    # Structured metrics snapshot of an observed cell (``execute_spec``
    # with ``observe=True``); never journaled, so resumed cells have none.
    metrics: dict | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def key(self) -> str:
        return self.spec.key

    def sim_stats(self) -> SimStats:
        """Rebuild a SimStats (zeroed for failed cells) — derived
        properties (ipc, coverage, ...) come back exactly."""
        if not self.stats:
            return SimStats()
        return SimStats(**{k: v for k, v in self.stats.items()
                           if k in STAT_FIELDS})

    def run_result(self):
        """Adapt to the harness :class:`~repro.harness.runner.RunResult`
        shape the :class:`ExperimentSuite` caches."""
        from .runner import RunResult

        failure_kind = None if self.ok else (
            TIMEOUT if self.status == "timeout" else self.failure.kind
        )
        return RunResult(
            workload=self.spec.workload,
            mode=self.spec.mode,
            stats=self.sim_stats(),
            validated=self.validated,
            halted=self.halted,
            failure=failure_kind,
            error=self.failure.message if self.failure else None,
        )

    def as_record(self) -> dict:
        return {
            "spec": self.spec.as_record(),
            "status": self.status,
            "attempts": self.attempts,
            "stats": self.stats,
            "validated": self.validated,
            "halted": self.halted,
            "failure": self.failure.as_record() if self.failure else None,
            "duration": round(self.duration, 3),
        }

    @classmethod
    def from_record(cls, record: dict) -> "RunOutcome":
        return cls(
            spec=RunSpec.from_record(record["spec"]),
            status=record["status"],
            attempts=record.get("attempts", 1),
            stats=record.get("stats"),
            validated=record.get("validated", False),
            halted=record.get("halted", False),
            failure=(
                RunFailure.from_record(record["failure"])
                if record.get("failure")
                else None
            ),
            resumed=True,
            duration=record.get("duration", 0.0),
        )


# ======================================================================
# Checkpoint journal (JSONL, append-only, corruption-tolerant)
# ======================================================================
def read_journal_lines(
    text: str,
) -> tuple[list[tuple[int, dict]], dict[str, int]]:
    """Parse newline-delimited JSON records, tolerating torn records.

    A crash mid-append can leave a *torn* record anywhere in the file —
    a partial line with the next record appended to it without an
    intervening newline (``{"spe{"spec": ...}``).  A plain
    line-by-line loader would discard the good record glued to the torn
    prefix; this reader *resynchronizes*: on a line that fails to parse
    whole, it scans forward for the next position where a complete JSON
    object decodes and recovers every object embedded in the line.

    Returns ``(records, counters)`` where records are ``(lineno, dict)``
    pairs in file order and ``counters`` tallies the damage:
    ``{"recovered": objects salvaged from torn lines,
    "skipped": lines with nothing salvageable}`` — callers surface
    these as warnings/metrics rather than silently dropping data.
    """
    decoder = json.JSONDecoder()
    records: list[tuple[int, dict]] = []
    counters = {"recovered": 0, "skipped": 0}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            obj = json.loads(stripped)
        except json.JSONDecodeError:
            pass
        else:
            if isinstance(obj, dict):
                records.append((lineno, obj))
            else:
                counters["skipped"] += 1
            continue
        # Torn line: resynchronize on the next decodable JSON object.
        pos, salvaged = 0, 0
        while True:
            start = stripped.find("{", pos)
            if start < 0:
                break
            try:
                obj, end = decoder.raw_decode(stripped, start)
            except json.JSONDecodeError:
                pos = start + 1
                continue
            if isinstance(obj, dict):
                records.append((lineno, obj))
                salvaged += 1
                pos = end
            else:
                pos = start + 1
        counters["recovered"] += salvaged
        if not salvaged:
            counters["skipped"] += 1
    return records, counters


def _checksum(record: dict) -> str:
    """sha256 of a journal record's canonical JSON, its own checksum
    excluded."""
    body = {k: v for k, v in record.items() if k != "checksum"}
    return hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()
    ).hexdigest()


def _read_checkpoint(path: str | Path) -> tuple[dict[str, RunOutcome], dict]:
    """Every intact record of a journal keyed by the
    :meth:`RunSpec.cell_id` it was journaled under (later records win),
    plus damage counters (see :func:`read_journal_lines`).

    A record is intact when its checksum verifies and it parses as a
    :class:`RunOutcome`.  Anything else — a fragment salvaged from a
    torn line, a record with altered bytes — is counted as ``corrupt``
    and never returned.
    """
    path = Path(path)
    if not path.exists():
        return {}, {}
    records, counters = read_journal_lines(path.read_text())
    counters["corrupt"] = 0
    cells = {}
    for _, record in records:
        try:
            if record.get("checksum") != _checksum(record):
                raise ValueError("checksum mismatch")
            outcome = RunOutcome.from_record(record)
            cells[outcome.spec.cell_id(record["config_digest"])] = outcome
        except (KeyError, TypeError, ValueError):
            counters["corrupt"] += 1
    return cells, counters


_DAMAGE = {
    "recovered": "recovered {} torn record(s)",
    "skipped": "skipped {} unrecoverable line(s)",
    "corrupt": "rejected {} corrupt checkpoint record(s)",
    "stale": "re-simulating {} cell(s) journaled under another config",
}


def _warn_damage(path, counters: dict) -> None:
    parts = [_DAMAGE[kind].format(n) for kind, n in counters.items() if n]
    if parts:
        warnings.warn(
            f"{path}: journal damage — {', '.join(parts)}", stacklevel=3
        )


def load_checkpoint(path: str | Path) -> dict[str, RunOutcome]:
    """Load a JSONL campaign journal keyed by display key (later records
    win), tolerating corruption anywhere in the file: a truncated
    trailing line (the normal aftermath of a crash mid-append) *and* a
    torn mid-file record are handled by resynchronizing on the next
    decodable JSON object (:func:`read_journal_lines`); records that
    fail their checksum are rejected.  Damage is reported in one
    warning, never raised."""
    cells, counters = _read_checkpoint(path)
    _warn_damage(path, counters)
    return {outcome.key: outcome for outcome in cells.values()}


def _journaled_cells(path, specs) -> dict[RunSpec, RunOutcome]:
    """The cells of ``specs`` a journal can serve on resume.

    A record is reused only when its spec record and the config digest
    it ran under match the cell's :meth:`RunSpec.cell_id` today, and its
    checksum verifies.  Cells journaled under another config digest are
    counted as stale in the journal-damage warning and re-simulated.
    """
    journaled, counters = _read_checkpoint(path)
    cells = {}
    for spec in specs:
        hit = journaled.get(spec.cell_id())
        if hit is not None:
            cells[spec] = hit
    ran = {outcome.spec for outcome in journaled.values()}
    counters["stale"] = sum(
        1 for spec in set(specs) if spec in ran and spec not in cells
    )
    _warn_damage(path, counters)
    return cells


class CheckpointJournal:
    """Append-only JSONL writer.  Each record carries the config digest
    its cell ran under and a checksum of itself, and is flushed and
    fsynced, so a crash loses at most the record being written."""

    def __init__(self, path: str | Path, fresh: bool = False):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if fresh and self.path.exists():
            self.path.unlink()

    def append(self, outcome: RunOutcome) -> None:
        record = outcome.as_record()
        record["config_digest"] = outcome.spec.config_digest()
        record["checksum"] = _checksum(record)
        with open(self.path, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())


# ======================================================================
# The worker side (runs in a subprocess; must stay picklable)
# ======================================================================
def execute_spec(record: dict, observe: bool = False) -> dict:
    """Default task: simulate one cell and return its result payload.

    With ``observe`` the run carries an ``Observation(record_events=
    False)``, and the payload gains its final structured metrics
    snapshot under ``"metrics"``: the standard histograms, the SimStats
    block (``sim.*``) and per-type event counts (``events.*``).
    """
    from ..obs import Observation
    from .runner import run_workload

    spec = RunSpec.from_record(record)
    observation = Observation(record_events=False) if observe else None
    result = run_workload(
        spec.workload,
        spec.mode,
        spec.scale,
        max_cycles=spec.max_cycles,
        observe=observation,
        check_invariants=spec.check_invariants,
    )
    payload = {
        "stats": {name: getattr(result.stats, name) for name in STAT_FIELDS},
        "validated": result.validated,
        "halted": result.halted,
    }
    if observation is not None:
        # Publishes sim.* and events.* into the registry first.
        observation.metrics_snapshot(result.stats)
        payload["metrics"] = observation.metrics.snapshot()
    return payload


def _worker_main(conn, task, record: dict, inherited=()) -> None:
    """Subprocess entry: run the task, send one ok/err message.

    ``inherited`` holds the parent-side pipe ends a forked worker
    copied from the parent — its own and every earlier worker's.  They
    are closed first: while a worker holds a read end, the parent's
    death never raises EPIPE in the writer, so a worker whose result
    overflows the pipe buffer would block forever.  SIGTERM goes back
    to its default action, since the parent's drain handler is
    inherited too and termination must stay termination.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    for other in inherited:
        other.close()
    try:
        payload = task(record)
        conn.send(("ok", payload))
    except BaseException as exc:  # noqa: BLE001 - everything becomes data
        conn.send(
            (
                "err",
                type(exc).__name__,
                str(exc),
                traceback.format_exc(),
                bool(getattr(exc, "retryable", False)),
                dict(getattr(exc, "diagnostics", None) or {}) or None,
            )
        )
    finally:
        conn.close()


# ======================================================================
# The executor
# ======================================================================
@dataclass
class _Attempt:
    spec: RunSpec
    attempt: int = 1
    ready_at: float = 0.0
    started: float = 0.0


def _ok_outcome(item: _Attempt, payload: dict, duration: float) -> RunOutcome:
    """The settled outcome of an attempt whose task returned ``payload``."""
    return RunOutcome(
        spec=item.spec,
        status="ok",
        attempts=item.attempt,
        stats=payload.get("stats"),
        validated=payload.get("validated", False),
        halted=payload.get("halted", False),
        duration=duration,
        metrics=payload.get("metrics"),
    )


class CampaignExecutor:
    """Fault-tolerant runner for a list of :class:`RunSpec` cells.

    ``jobs=0`` executes inline in this process (no isolation, timeouts
    unenforced — the mode unit tests and debuggers want); ``jobs>=1``
    fans out over that many worker processes with per-run wall-clock
    ``timeout`` seconds enforced by terminating the worker; a cell
    that overruns ends as a terminal ``timeout`` cell.

    ``task`` maps a spec record dict to a result payload dict and
    defaults to :func:`execute_spec`; tests inject flaky tasks through
    it (module-level functions only when ``jobs>=1`` — workers pickle
    the callable).  A payload's ``"metrics"`` entry lands on
    :attr:`RunOutcome.metrics` of an ``ok`` cell; a worker sends the
    payload as its one message.  ``sleep``/``clock`` are injectable
    for backoff tests.  Retry backoff is exponential with seeded
    multiplicative jitter (:data:`JITTER`, :data:`JITTER_SEED`).

    ``stop`` is a zero-argument drain hook polled between launches:
    once it returns true, no further cell is started, every cell whose
    result already sits in its pipe is settled, the remaining workers
    are terminated *without journaling* their cells, and :meth:`run`
    returns only the cells that settled — the journal plus a later
    ``resume=True`` run picks up exactly where the drain cut off.
    """

    def __init__(
        self,
        jobs: int = 1,
        timeout: float | None = None,
        retries: int = 2,
        backoff: float = 0.5,
        backoff_factor: float = 2.0,
        task=None,
        observation=None,
        sleep=time.sleep,
        clock=time.monotonic,
        stop=None,
    ):
        if jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {jobs}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.backoff_factor = backoff_factor
        self.task = task or execute_spec
        self.observation = observation
        self.stop = stop
        self._jitter_rng = _random.Random(JITTER_SEED)
        self._sleep = sleep
        self._clock = clock

    # -- lifecycle telemetry -------------------------------------------
    def _emit(self, type_: str, spec: RunSpec, **data) -> None:
        obs = self.observation
        if obs is None:
            return
        obs.bus.emit(type_, workload=spec.workload, mode=spec.mode, **data)
        obs.metrics.counter(f"campaign.{type_}").inc()

    # -- public API ----------------------------------------------------
    def run(
        self,
        specs,
        checkpoint: str | Path | None = None,
        resume: bool = False,
    ) -> list[RunOutcome]:
        """Execute every spec; returns outcomes in spec order.

        With ``checkpoint``, completed cells are journaled as they
        finish; with ``resume`` additionally set, cells the journal
        already holds (same :meth:`RunSpec.cell_id`, intact record) are
        skipped and returned as ``resumed`` outcomes, and new records
        are appended — so several campaigns can share one journal.
        """
        specs = list(specs)
        journal = None
        outcomes: dict[RunSpec, RunOutcome] = {}
        if checkpoint is not None:
            if resume:
                outcomes = _journaled_cells(checkpoint, specs)
            journal = CheckpointJournal(checkpoint, fresh=not resume)

        pending: deque[_Attempt] = deque(
            _Attempt(spec) for spec in specs if spec not in outcomes
        )

        if pending:
            execute = self._run_inline if self.jobs == 0 else self._run_pool
            execute(pending, outcomes, journal)
        # A drain (``stop`` hook) leaves unfinished cells unsettled;
        # they are simply absent from the returned list and stay
        # resumable from the journal.
        return [outcomes[spec] for spec in specs if spec in outcomes]

    # -- shared bookkeeping --------------------------------------------
    def _stopping(self) -> bool:
        return self.stop is not None and bool(self.stop())

    def _backoff_delay(self, attempt: int) -> tuple[float, float]:
        """``(base, jittered)`` delay before re-attempting."""
        base = self.backoff * (self.backoff_factor ** (attempt - 1))
        return base, base * (1.0 + JITTER * self._jitter_rng.random())

    def _settle(
        self,
        item: _Attempt,
        outcome: RunOutcome,
        outcomes: dict,
        journal,
    ) -> None:
        outcomes[item.spec] = outcome
        if journal is not None:
            journal.append(outcome)
        seconds = round(outcome.duration, 3)
        if outcome.ok:
            self._emit(
                "run_finished", item.spec,
                attempts=outcome.attempts, seconds=seconds,
            )
        else:
            self._emit(
                "run_failed",
                item.spec,
                status=outcome.status,
                kind=outcome.failure.kind,
                exception=outcome.failure.exception,
                attempts=outcome.attempts,
                seconds=seconds,
            )

    def _failure(
        self,
        item: _Attempt,
        kind: str,
        exception: str,
        message: str,
        tb: str,
        diagnostics: dict | None = None,
    ) -> RunFailure:
        return RunFailure(
            kind=kind,
            exception=exception,
            message=message,
            traceback=tb,
            config_digest=item.spec.config_digest(),
            seed=item.spec.seed,
            diagnostics=diagnostics,
        )

    def _should_retry(self, item: _Attempt, kind: str) -> bool:
        return kind == RETRYABLE and item.attempt <= self.retries

    def _requeue(self, item: _Attempt, pending: deque) -> None:
        backoff, delay = self._backoff_delay(item.attempt)
        self._emit(
            "run_retried", item.spec,
            attempt=item.attempt, backoff=backoff, delay=delay,
        )
        pending.append(
            _Attempt(
                item.spec,
                attempt=item.attempt + 1,
                ready_at=self._clock() + delay,
            )
        )

    # -- inline (jobs == 0) --------------------------------------------
    def _run_inline(self, pending: deque, outcomes: dict, journal) -> None:
        while pending:
            if self._stopping():
                return
            item = pending.popleft()
            now = self._clock()
            if item.ready_at > now:
                self._sleep(item.ready_at - now)
            self._emit("run_started", item.spec, attempt=item.attempt)
            started = self._clock()
            try:
                payload = self.task(item.spec.as_record())
            except Exception as exc:  # noqa: BLE001
                kind = classify_exception(
                    type(exc).__name__, bool(getattr(exc, "retryable", False))
                )
                if self._should_retry(item, kind):
                    self._requeue(item, pending)
                    continue
                failure = self._failure(
                    item,
                    kind,
                    type(exc).__name__,
                    str(exc),
                    traceback.format_exc(),
                    dict(getattr(exc, "diagnostics", None) or {}) or None,
                )
                outcome = RunOutcome(
                    spec=item.spec,
                    status="failed",
                    attempts=item.attempt,
                    failure=failure,
                    duration=self._clock() - started,
                )
            else:
                outcome = _ok_outcome(
                    item, payload, self._clock() - started
                )
            self._settle(item, outcome, outcomes, journal)

    # -- process pool (jobs >= 1) --------------------------------------
    def _run_pool(self, pending: deque, outcomes: dict, journal) -> None:
        ctx = mp.get_context()
        active: dict = {}   # parent-side conn -> (proc, attempt)

        def launch(item: _Attempt) -> None:
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_worker_main,
                args=(
                    child_conn, self.task, item.spec.as_record(),
                    (parent_conn, *active),
                ),
                daemon=True,
            )
            item.started = self._clock()
            proc.start()
            child_conn.close()
            self._emit("run_started", item.spec, attempt=item.attempt)
            active[parent_conn] = (proc, item)

        def receive(conn):
            """The worker's one result tuple, or ``None`` if the pipe
            closed without one (the worker died)."""
            try:
                return conn.recv()
            except (EOFError, OSError):
                return None

        def retire(conn, kill: bool = False):
            proc, item = active.pop(conn)
            conn.close()
            if kill:
                proc.terminate()
            proc.join()
            return proc, item

        def reap(conn, msg) -> None:
            proc, item = retire(conn)
            duration = self._clock() - item.started
            if msg is not None and msg[0] == "ok":
                self._settle(
                    item, _ok_outcome(item, msg[1], duration),
                    outcomes, journal,
                )
                return
            if msg is not None:  # ("err", name, message, tb, retryable, diag)
                _, name, message, tb, retryable, diag = msg
                kind = classify_exception(name, retryable)
            else:  # pipe closed without a message: the worker died
                name = "WorkerDied"
                message = f"worker exited with code {proc.exitcode}"
                tb, diag = "", None
                kind = RETRYABLE
            if self._should_retry(item, kind):
                self._requeue(item, pending)
                return
            failure = self._failure(item, kind, name, message, tb, diag)
            self._settle(
                item,
                RunOutcome(
                    spec=item.spec,
                    status="failed",
                    attempts=item.attempt,
                    failure=failure,
                    duration=duration,
                ),
                outcomes,
                journal,
            )

        def cancel(conn) -> None:
            """Terminate an over-deadline worker; its cell ends as a
            terminal timeout."""
            _, item = retire(conn, kill=True)
            failure = self._failure(
                item,
                TIMEOUT,
                "RunTimeout",
                f"exceeded {self.timeout}s wall-clock limit",
                "",
            )
            self._settle(
                item,
                RunOutcome(
                    spec=item.spec,
                    status="timeout",
                    attempts=item.attempt,
                    failure=failure,
                    duration=self._clock() - item.started,
                ),
                outcomes,
                journal,
            )

        while pending or active:
            if self._stopping():
                # Graceful drain: settle every cell whose result already
                # sits in its pipe, then terminate the rest without
                # journaling them (the journal keeps only *settled*
                # cells, so resume recomputes exactly these).  A worker
                # that died meanwhile stays unsettled too.
                for conn in _conn_wait(list(active), timeout=0):
                    msg = receive(conn)
                    if msg is not None:
                        reap(conn, msg)
                for conn in list(active):
                    retire(conn, kill=True)
                pending.clear()
                return
            now = self._clock()
            # Launch every ready pending item into free slots.
            launched = True
            while launched and len(active) < self.jobs:
                launched = False
                for i, item in enumerate(pending):
                    if item.ready_at <= now:
                        del pending[i]
                        launch(item)
                        launched = True
                        break
            if not active:
                # Everything pending is backing off; sleep to the first
                # (in short slices when a drain hook could fire).
                next_ready = min(item.ready_at for item in pending)
                doze = max(0.0, next_ready - self._clock())
                if self.stop is not None:
                    doze = min(doze, 0.25)
                self._sleep(doze)
                continue
            # Wait for a result, the nearest deadline, or the next
            # backoff expiry — whichever comes first.
            wait_for = 60.0 if self.stop is None else 0.25
            if self.timeout is not None:
                nearest = min(
                    item.started + self.timeout for _, item in active.values()
                )
                wait_for = min(wait_for, max(0.0, nearest - now))
            if pending:
                next_ready = min(item.ready_at for item in pending)
                wait_for = min(wait_for, max(0.0, next_ready - now))
            for conn in _conn_wait(list(active), timeout=wait_for):
                reap(conn, receive(conn))
            if self.timeout is not None:
                now = self._clock()
                for conn in [
                    conn
                    for conn, (_, item) in active.items()
                    if now - item.started > self.timeout
                ]:
                    cancel(conn)


# ======================================================================
# Convenience: full-matrix campaign
# ======================================================================
def matrix_specs(
    workloads,
    modes,
    scale: str = "bench",
    max_cycles: int = 30_000_000,
) -> list[RunSpec]:
    """The cross product of workloads × modes as run specs."""
    return [
        RunSpec(workload=w, mode=m, scale=scale, max_cycles=max_cycles)
        for w in workloads
        for m in modes
    ]


def summarize_outcomes(outcomes) -> dict:
    """Counts by status plus the failed-cell keys (for CLI reporting)."""
    summary = {
        "total": len(outcomes),
        "ok": sum(1 for o in outcomes if o.ok),
        "failed": sum(1 for o in outcomes if o.status == "failed"),
        "timeout": sum(1 for o in outcomes if o.status == "timeout"),
        "resumed": sum(1 for o in outcomes if o.resumed),
        "retried": sum(1 for o in outcomes if o.attempts > 1),
        "failed_cells": {
            o.key: o.failure.kind for o in outcomes if not o.ok
        },
    }
    return summary
