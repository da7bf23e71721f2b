"""Typed event bus for simulator observability.

The simulator's interesting moments — H2P identification, backward-walk
start/finish, Block Cache hits/misses/evictions, shadow fetches, TEA
branch resolutions, early flushes, poison terminations — are emitted as
:class:`Event` objects onto an :class:`EventBus` attached to a pipeline
(``pipeline.obs``).  Emission is synchronous and happens in simulation
order, so for a fixed seed the event stream is bit-identical across
runs (tested in ``tests/test_observability.py``).

Overhead discipline
-------------------
* With no bus attached, every emission site is a single attribute load
  plus an ``is None`` check.
* High-volume *firehose* events (``cycle_end``, ``uop_commit``,
  ``uop_squash``, ``tea_uop_done`` — used by the
  :class:`~repro.core.tracing.PipelineTracer`) are additionally guarded
  by :meth:`EventBus.wants`, so attaching a bus for the structured
  taxonomy does not pay per-cycle/per-uop costs.
* ``Event`` objects are only constructed when at least one subscriber
  listens to that type; the per-type ``counts`` tally is kept always.

Firehose events carry live simulator objects (e.g. the ``DynUop``) in
their payload and are *not* part of the exported taxonomy; exporters
subscribe only to :data:`EVENT_TYPES`, whose payloads are JSON-safe.
"""

from __future__ import annotations

from typing import Callable, Iterable

#: The structured event taxonomy (JSON-safe payloads, export-eligible).
EVENT_TYPES: frozenset[str] = frozenset(
    {
        "measurement_start",   # warmup boundary crossed; counters reset
        "h2p_identified",      # a branch PC crossed the H2P threshold
        "walk_start",          # Fill Buffer full, Backward Dataflow Walk began
        "walk_finish",         # walk completed; masks merged into Block Cache
        "block_cache_hit",     # shadow-fetch Block Cache lookup hit (maybe empty)
        "block_cache_miss",    # shadow-fetch lookup miss (terminates the thread)
        "block_cache_evict",   # walk-completion inserts evicted entries
        "shadow_fetch",        # TEA thread fetched chain uops from one block
        "tea_initiate",        # TEA thread started at a synchronized timestamp
        "tea_terminate",       # TEA thread stopped (reason in payload)
        "tea_resolve",         # a TEA copy of an H2P branch resolved
        "early_flush",         # TEA disagreement issued an early flush
        "poison_term",         # RAT poisoning preempted an incorrect chain
        "mispredict_flush",    # main-thread resolution flushed a misprediction
        "flush",               # any flush through flush_at_branch (with squash counts)
        "frontend_redirect",   # decoupled BP recovered + redirected after a flush
        "branch_retire",       # a can-mispredict branch retired (attribution feed)
        "branch_resolved",     # main resolution outcome of a TEA-relevant branch
        "slice_oracle",        # static-slicer vs dynamic-walk chain comparison
                               # (per H2P branch; repro.analysis.oracle)
        # Static chain analysis (repro.analysis.chains).
        "chain_oracle",        # per-branch runtime-chain soundness verdict
        "chain_unsound",       # a runtime chain escaped its static bound
        "tea_mask_denied",     # static branch mask vetoed an H2P branch
                               # (once per PC; chain slots never allocated)
        # Runtime verification (repro.verify).
        "invariant_violation", # the checker found an illegal machine state
        "fault_injected",      # a planned fault was applied (kind in payload)
        # TEA graceful degradation (accuracy gating in the controller).
        "tea_chain_disabled",  # a chain's accuracy fell below the threshold
        "tea_chain_enabled",   # a disabled chain's decay period elapsed
        "tea_degraded",        # sustained low accuracy fired the kill-switch
        # Campaign run lifecycle (emitted by repro.harness.executor on
        # the parent-process bus; cycle is -1, these are wall-clock-side).
        "run_started",         # one (workload, mode) attempt launched
        "run_finished",        # attempt succeeded; payload has attempts taken
        "run_failed",          # run gave up (kind: fatal/timeout/retryable)
        "run_retried",         # retryable failure; another attempt scheduled
        # Sampled simulation (repro.sampling.windows, parent-process
        # bus; cycle is -1, these are wall-clock-side).
        "sample_plan",         # window placement chosen (count/positions)
        "sample_checkpoint",   # one functional checkpoint captured
        "sample_window_done",  # one detailed window settled (ipc/mpki)
        "sample_estimate",     # extrapolated metrics + confidence bounds
    }
)

#: High-volume internal events; payloads may hold live simulator objects.
FIREHOSE_TYPES: frozenset[str] = frozenset(
    {"cycle_end", "uop_commit", "uop_squash", "tea_uop_done", "walk_done"}
)


class Event:
    """One observed simulator occurrence.

    ``pc``/``seq`` are ``-1`` when not meaningful for the type; any
    further payload lives in ``data``.
    """

    __slots__ = ("type", "cycle", "pc", "seq", "data")

    def __init__(self, type_: str, cycle: int, pc: int, seq: int, data: dict):
        self.type = type_
        self.cycle = cycle
        self.pc = pc
        self.seq = seq
        self.data = data

    def as_dict(self) -> dict:
        """Flat JSON-safe dict (taxonomy events only)."""
        out = {"type": self.type, "cycle": self.cycle}
        if self.pc >= 0:
            out["pc"] = self.pc
        if self.seq >= 0:
            out["seq"] = self.seq
        out.update(self.data)
        return out

    def key(self) -> tuple:
        """Hashable identity used by determinism tests."""
        return (
            self.type,
            self.cycle,
            self.pc,
            self.seq,
            tuple(sorted(self.data.items())),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Event {self.type} @{self.cycle} pc={self.pc} seq={self.seq}>"


class EventBus:
    """Synchronous publish/subscribe fan-out with per-type counts.

    The bus stamps each event with the current cycle via its *clock*
    (bound to ``pipeline.cycle`` at attach time).  Subscribers register
    for explicit type tuples; there is deliberately no wildcard — it
    would silently subscribe callers to the firehose events and defeat
    the :meth:`wants` fast path.
    """

    def __init__(self, clock: Callable[[], int] | None = None):
        self._clock: Callable[[], int] = clock or (lambda: -1)
        self._subs: dict[str, list[Callable[[Event], None]]] = {}
        self._wanted: set[str] = set()
        self.counts: dict[str, int] = {}

    # ------------------------------------------------------------------
    def bind_clock(self, clock: Callable[[], int]) -> None:
        """Set the cycle source used to timestamp events."""
        self._clock = clock

    def subscribe(
        self, callback: Callable[[Event], None], types: Iterable[str]
    ) -> None:
        """Deliver every future event of the given types to ``callback``."""
        for type_ in types:
            self._subs.setdefault(type_, []).append(callback)
            self._wanted.add(type_)

    def unsubscribe(self, callback: Callable[[Event], None]) -> None:
        """Remove ``callback`` from every type it subscribed to.

        Equality (not identity) comparison: bound methods are rebuilt
        on every attribute access, so ``bus.unsubscribe(obj.method)``
        must match the object registered by ``bus.subscribe(obj.method)``.
        """
        for type_, callbacks in list(self._subs.items()):
            self._subs[type_] = [cb for cb in callbacks if cb != callback]
            if not self._subs[type_]:
                del self._subs[type_]
        self._wanted = set(self._subs)

    def wants(self, type_: str) -> bool:
        """Fast guard for expensive emission sites (firehose events)."""
        return type_ in self._wanted

    # ------------------------------------------------------------------
    def emit(self, type_: str, pc: int = -1, seq: int = -1, **data) -> None:
        """Count and (if anyone listens) construct + dispatch an event.

        Hot-path contract: when ``type_`` has no subscriber the call
        does exactly one counter increment and one set-membership test
        — no :class:`Event` is constructed and no payload dict escapes
        (``**data`` packing is unavoidable but stays local).  The
        disabled-path cost is asserted near-zero by a micro-benchmark
        in ``tests/test_observability.py``.
        """
        counts = self.counts
        if type_ in counts:
            counts[type_] += 1
        else:
            counts[type_] = 1
        if type_ not in self._wanted:
            return
        event = Event(type_, self._clock(), pc, seq, data)
        for callback in self._subs[type_]:
            callback(event)

    # ------------------------------------------------------------------
    def distinct_types(self) -> set[str]:
        """Event types emitted at least once."""
        return set(self.counts)
