"""Span tracing for the benchmark's traced run.

Spans are recorded from the benchmark's own files: :func:`instrument`
wraps public functions and methods of the program's modules, so no
program file changes.  A span has a name (``<layer>.<call>``), a start,
an end, the span that caused it, and the id of the op it belongs to.
A span's *self time* is its duration minus the time covered by its
child spans, so the self times of all spans inside an op add up to the
op's own span.

Two kinds of span keep the trace small:

* *detailed* spans (one record each) wrap coarse calls such as
  ``Pipeline.run``, ``make_workload`` or a sampled window;
* *hot* spans wrap calls made every simulated cycle (frontend ticks,
  cache accesses, TEA and runahead hooks, invariant audits).  They are
  aggregated per ``(name, parent span, op)`` into call count, total
  and self seconds.

Everything stays in memory until :meth:`Tracer.write` at the end of
the run.  Besides timing, the ``Pipeline.run`` wrapper reads the
program's own counters after each run, so :func:`reconcile` can
compare call counts seen by the wrappers with what the program
counted; a call path that bypasses a wrapper shows up there.  Calls
are matched run by run: only calls made inside that run's span count,
and for ``SimStats`` counters, which restart at the warmup boundary,
only calls made after ``SimStats.start_measurement``.  Calls outside
any run (a sampled window's predictor warm-up replay, for example) are
timed but not reconciled.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# (module, function, span name): functions wrapped wherever the program
# binds them by name.
FUNCTIONS = (
    ("repro.workloads.registry", "make_workload", "workloads.build"),
    ("repro.isa.assembler", "assemble", "isa.assemble"),
    ("repro.isa.data_directives", "assemble_unit", "isa.assemble"),
    ("repro.isa.interpreter", "run_program", "isa.interp"),
    ("repro.analysis.lint", "lint_program", "analysis.lint"),
    ("repro.fuzz.generator", "generate_program", "fuzz.generate"),
    ("repro.sampling.checkpoint", "run_and_capture", "sampling.fastforward"),
    ("repro.sampling.checkpoint", "seed_pipeline", "sampling.restore"),
    ("repro.sampling.windows", "execute_window", "sampling.window"),
)

# (module, class, methods, layer): per-cycle methods, traced as hot spans.
HOT_METHODS = (
    ("repro.frontend.decoupled", "DecoupledFrontend",
     ("tick", "train_resolved", "flush_at"), "frontend"),
    ("repro.memory.hierarchy", "MemoryHierarchy",
     ("access_ifetch", "access_load", "access_load_bypass_l1",
      "access_store_retire"), "memory"),
    ("repro.tea.controller", "TeaController",
     ("fetch", "on_retire", "on_operands_read", "on_main_rename",
      "on_accuracy_sample", "on_tea_branch_resolved", "on_tea_uop_done",
      "on_flush"), "tea"),
    ("repro.runahead.controller", "RunaheadController",
     ("tick", "on_branch_predicted", "on_branches_squashed", "on_retire",
      "on_flush"), "runahead"),
    ("repro.verify.invariants", "InvariantChecker",
     ("maybe_audit", "audit"), "verify"),
)

# Program counters summed over every pipeline that ran.
_PIPELINE_COUNTERS = (
    "cycles", "retired_instructions", "fetched_uops", "tea_fetched_uops",
    "retired_branches", "flushes", "direction_mispredicts",
    "target_mispredicts", "covered_timely", "covered_late",
    "incorrect_precomputations", "uncovered_mispredicts",
    "tea_resolved_branches", "tea_wrong_resolutions", "runahead_overrides",
    "runahead_wrong_overrides", "invariant_checks",
)

# Wrapped calls reconciled against ``SimStats`` counters, so counted
# from the start of measurement; other wrapped calls are counted over
# the whole run.
_MEASURED_CALLS = (
    "frontend.flush_at", "frontend.train_resolved", "verify.audit",
    "verify.maybe_audit",
)


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self) -> None:
        # (span id, name, start, end, parent id, op id, self seconds)
        self.spans: list[tuple] = []
        # (name, parent id, op id) -> [calls, seconds, self seconds]
        self.hot: dict[tuple, list] = {}
        # Program counters, and the wrapped calls that should match
        # them, summed over every pipeline run.
        self.counters: Counter = Counter()
        self.seen: Counter = Counter()
        self.op: int | None = None
        self.ops = 0
        # Frames of open spans: [span id, child seconds].
        self._stack: list[list] = [[None, 0.0]]
        self._next_id = 0
        # Calls inside the running pipeline's span when its
        # measurement started.
        self._measure_base: Counter | None = None

    # -- recording --------------------------------------------------------
    def _open(self) -> tuple[list, list]:
        self._next_id += 1
        parent = self._stack[-1]
        frame = [self._next_id, 0.0]
        self._stack.append(frame)
        return parent, frame

    def _close(self, name, parent, frame, start, end) -> None:
        self._stack.pop()
        duration = end - start
        parent[1] += duration
        self.spans.append(
            (frame[0], name, start, end, parent[0], self.op,
             duration - frame[1])
        )

    def span(self, name: str, fn):
        """Call ``fn()`` inside a detailed span named ``name``."""
        parent, frame = self._open()
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self._close(name, parent, frame, start, time.perf_counter())

    def op_span(self, name: str, fn):
        """Call ``fn()`` as one op: a root span with a fresh op id."""
        outer = self.op
        self.ops += 1
        self.op = self.ops
        try:
            return self.span(name, fn)
        finally:
            self.op = outer

    def wrap(self, fn, name: str, op: bool = False):
        """``fn`` inside a detailed span (a new op when ``op``)."""
        if op:
            return lambda *a, **k: self.op_span(name, lambda: fn(*a, **k))
        return lambda *a, **k: self.span(name, lambda: fn(*a, **k))

    def wrap_hot(self, fn, name: str):
        """``fn`` inside an aggregated per-cycle span."""
        stack = self._stack
        hot = self.hot
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            # Hot spans have no id of their own: children attach to the
            # nearest detailed span.
            frame = [parent[0], 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                parent[1] += duration
                key = (name, frame[0], tracer.op)
                agg = hot.get(key)
                if agg is None:
                    agg = hot[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[1]

        return traced

    def _calls_under(self, span_id) -> Counter:
        """Hot calls made so far directly inside detailed span
        ``span_id``."""
        out: Counter = Counter()
        for (name, parent, _), agg in self.hot.items():
            if parent == span_id:
                out[name] += agg[0]
        return out

    def mark_measurement(self) -> None:
        """The running pipeline's ``SimStats`` just restarted."""
        self._measure_base = self._calls_under(self._stack[-1][0])

    def harvest(self, pipeline, run_span) -> None:
        """Add one finished pipeline's counters to :attr:`counters`,
        and the calls made inside its run span ``run_span`` to
        :attr:`seen`."""
        calls = self._calls_under(run_span)
        measured = calls - (self._measure_base or Counter())
        self._measure_base = None
        for name in ("memory.access_load", "tea.on_retire",
                     "runahead.on_retire"):
            self.seen[name] += calls[name]
        for name in _MEASURED_CALLS:
            self.seen[name] += measured[name]
        c = self.counters
        stats = pipeline.stats
        for name in _PIPELINE_COUNTERS:
            c[name] += getattr(stats, name)
        c["pipelines"] += 1
        h = pipeline.hierarchy
        c["demand_loads"] += h.demand_loads
        c["mshr_full_events"] += h.mshr_full_events
        for cache in (h.l1i, h.l1d, h.llc):
            c[f"{cache.name}_hits"] += cache.hits
            c[f"{cache.name}_misses"] += cache.misses
        c["dram_row_hits"] += h.dram.row_hits
        c["dram_row_misses"] += h.dram.row_misses
        if pipeline.tea is not None:
            c["tea_retired_total"] += pipeline.retired_total
        if pipeline.runahead is not None:
            c["runahead_retired_total"] += pipeline.retired_total
        if pipeline.config.check_invariants:
            c["checked_cycles"] += stats.cycles

    # -- summaries --------------------------------------------------------
    def calls(self) -> Counter:
        out: Counter = Counter()
        for span in self.spans:
            out[span[1]] += 1
        for (name, _, _), agg in self.hot.items():
            out[name] += agg[0]
        return out

    def self_seconds(self) -> dict[str, float]:
        """Self time summed per span name."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span[1]] += span[6]
        for (name, _, _), agg in self.hot.items():
            out[name] += agg[2]
        return out

    def total_seconds(self, name: str) -> float:
        """Inclusive time of detailed spans named ``name``."""
        return sum(s[3] - s[2] for s in self.spans if s[1] == name)

    def op_accounting(self) -> list[tuple[int, float, float]]:
        """``(op id, op span seconds, summed self seconds)`` per op."""
        roots: dict[int, float] = {}
        owned: dict[int, float] = defaultdict(float)
        ids_in_op = {s[0] for s in self.spans if s[5] is not None}
        for span in self.spans:
            if span[5] is None:
                continue
            owned[span[5]] += span[6]
            if span[4] not in ids_in_op:
                roots[span[5]] = span[3] - span[2]
        for (_, _, op), agg in self.hot.items():
            if op is not None:
                owned[op] += agg[2]
        return [(op, roots[op], owned[op]) for op in sorted(roots)]

    def write(self, path) -> None:
        """Write spans and hot aggregates as JSON lines."""
        with open(path, "w") as fh:
            for sid, name, start, end, parent, op, own in self.spans:
                fh.write(json.dumps({
                    "span": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "self": own,
                }) + "\n")
            for (name, parent, op), (calls, total, own) in sorted(
                self.hot.items(), key=lambda item: repr(item[0])
            ):
                fh.write(json.dumps({
                    "name": name, "parent": parent, "op": op,
                    "calls": calls, "seconds": total, "self": own,
                }) + "\n")


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------
def rebind(original, replacement) -> list[tuple]:
    """Point every ``repro`` module binding of ``original`` at
    ``replacement``; returns the undo list."""
    undo = []
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def instrument(tracer: Tracer):
    """Install the tracer's wrappers; returns a function undoing them.

    Op spans are opened by the caller (see ``workloads.py``).
    """
    import importlib

    undo: list[tuple] = []
    for module_name, attr, name in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        undo += rebind(original, tracer.wrap(original, name))

    from repro.core.pipeline import Pipeline
    from repro.core.stats import SimStats

    init, run = Pipeline.__init__, Pipeline.run
    start_measurement = SimStats.start_measurement

    def traced_init(pipeline, *args, **kwargs):
        tracer.span("core.init", lambda: init(pipeline, *args, **kwargs))

    def traced_run(pipeline, *args, **kwargs):
        run_span = []

        def body():
            run_span.append(tracer._stack[-1][0])
            return run(pipeline, *args, **kwargs)

        try:
            return tracer.span("core.run", body)
        finally:
            tracer.harvest(pipeline, run_span[0])

    def traced_start_measurement(stats):
        start_measurement(stats)
        tracer.mark_measurement()

    undo += [(Pipeline, "__init__", init), (Pipeline, "run", run),
             (SimStats, "start_measurement", start_measurement)]
    Pipeline.__init__, Pipeline.run = traced_init, traced_run
    SimStats.start_measurement = traced_start_measurement
    for module_name, class_name, methods, layer in HOT_METHODS:
        cls = getattr(importlib.import_module(module_name), class_name)
        for method in methods:
            original = cls.__dict__[method]
            undo.append((cls, method, original))
            setattr(cls, method, tracer.wrap_hot(original, f"{layer}.{method}"))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


# ----------------------------------------------------------------------
# Reconciliation and per-layer metrics
# ----------------------------------------------------------------------
#: Unit of every per-layer metric a traced run reports.
UNITS = {
    "harness.cells": "count", "harness.repeat_share": "ratio",
    "harness.self_s": "s", "harness.failed": "count",
    "workloads.build_s": "s",
    "core.init_s": "s", "core.inits": "count",
    "core.run_s": "s", "core.self_s": "s", "core.host_us_per_cycle": "us",
    "core.cycles": "count", "core.retired_instr": "count",
    "core.useful_uop_ratio": "ratio",
    "frontend.busy_s": "s", "frontend.mpki": "1/kinstr",
    "frontend.flushes": "count",
    "memory.busy_s": "s", "memory.l1i_hit_rate": "ratio",
    "memory.l1d_hit_rate": "ratio", "memory.llc_hit_rate": "ratio",
    "memory.dram_row_hit_rate": "ratio", "memory.mshr_full_events": "count",
    "tea.busy_s": "s", "tea.busy_share": "ratio", "tea.fetched_uops": "count",
    "tea.accuracy": "ratio", "tea.coverage": "ratio",
    "tea.timely_share": "ratio",
    "runahead.busy_s": "s", "runahead.override_accuracy": "ratio",
    "verify.audit_s": "s", "verify.audits": "count",
    "sampling.fastforward_s": "s", "sampling.fastforward_instr_per_s": "1/s",
    "sampling.restore_s": "s", "sampling.window_s": "s",
    "sampling.checkpoints": "count",
    "isa.assemble_s": "s", "isa.interp_s": "s", "analysis.lint_s": "s",
    "fuzz.generate_s": "s", "fuzz.gen_attempts": "count",
    "fuzz.verdicts": "count",
    "trace.overhead": "ratio", "trace.unreconciled": "count",
    "host.slowdown": "ratio",
}

def reconcile(tracer: Tracer) -> list[tuple[str, int, int]]:
    """``(what, wrapper count, program count)`` pairs that must agree."""
    calls = tracer.calls()
    seen = tracer.seen
    c = tracer.counters
    return [
        ("memory.access_load calls vs demand loads + MSHR-full retries",
         seen["memory.access_load"],
         c["demand_loads"] + c["mshr_full_events"]),
        ("core.init calls vs pipelines run", calls["core.init"],
         c["pipelines"]),
        ("core.run calls vs pipelines run", calls["core.run"],
         c["pipelines"]),
        ("frontend.flush_at calls vs SimStats.flushes",
         seen["frontend.flush_at"], c["flushes"]),
        ("frontend.train_resolved calls vs SimStats.retired_branches",
         seen["frontend.train_resolved"], c["retired_branches"]),
        ("tea.on_retire calls vs uops retired under TEA",
         seen["tea.on_retire"], c["tea_retired_total"]),
        ("runahead.on_retire calls vs uops retired under runahead",
         seen["runahead.on_retire"], c["runahead_retired_total"]),
        ("verify.audit calls vs SimStats.invariant_checks",
         seen["verify.audit"], c["invariant_checks"]),
        ("verify.maybe_audit calls vs audited cycles",
         seen["verify.maybe_audit"], c["checked_cycles"]),
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, extra: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ``extra`` carries what only the workload classes know: harness cell
    counts, failed ops, fuzz generation attempts and verdicts, the
    functional instruction total, and the traced and untraced wall
    times for ``trace.overhead``.
    """
    own = tracer.self_seconds()
    calls = tracer.calls()
    c = tracer.counters

    def layer(prefix: str) -> float:
        return sum(s for n, s in own.items() if n.split(".")[0] == prefix)

    core_run = tracer.total_seconds("core.run")
    mispredicts = c["direction_mispredicts"] + c["target_mispredicts"]
    covered = c["covered_timely"] + c["covered_late"]
    fastforward = tracer.total_seconds("sampling.fastforward")
    cells = extra.get("cells", 0)
    return {
        "harness.cells": cells,
        "harness.repeat_share": _ratio(extra.get("repeats", 0), cells),
        "harness.self_s": layer("harness"),
        "harness.failed": extra.get("failed", 0),
        "workloads.build_s": layer("workloads"),
        "core.init_s": own.get("core.init", 0.0),
        "core.inits": calls["core.init"],
        "core.run_s": core_run,
        "core.self_s": own.get("core.run", 0.0),
        "core.host_us_per_cycle": 1e6 * _ratio(core_run, c["cycles"]),
        "core.cycles": c["cycles"],
        "core.retired_instr": c["retired_instructions"],
        "core.useful_uop_ratio": _ratio(
            c["retired_instructions"], c["fetched_uops"]
        ),
        "frontend.busy_s": layer("frontend"),
        "frontend.mpki": 1000 * _ratio(mispredicts, c["retired_instructions"]),
        "frontend.flushes": c["flushes"],
        "memory.busy_s": layer("memory"),
        "memory.l1i_hit_rate": _ratio(
            c["l1i_hits"], c["l1i_hits"] + c["l1i_misses"]
        ),
        "memory.l1d_hit_rate": _ratio(
            c["l1d_hits"], c["l1d_hits"] + c["l1d_misses"]
        ),
        "memory.llc_hit_rate": _ratio(
            c["llc_hits"], c["llc_hits"] + c["llc_misses"]
        ),
        "memory.dram_row_hit_rate": _ratio(
            c["dram_row_hits"], c["dram_row_hits"] + c["dram_row_misses"]
        ),
        "memory.mshr_full_events": c["mshr_full_events"],
        "tea.busy_s": layer("tea"),
        "tea.busy_share": _ratio(layer("tea"), core_run),
        "tea.fetched_uops": c["tea_fetched_uops"],
        "tea.accuracy": 1 - _ratio(
            c["tea_wrong_resolutions"], c["tea_resolved_branches"]
        ) if c["tea_resolved_branches"] else 0.0,
        "tea.coverage": _ratio(
            covered,
            covered + c["uncovered_mispredicts"]
            + c["incorrect_precomputations"],
        ),
        "tea.timely_share": _ratio(c["covered_timely"], covered),
        "runahead.busy_s": layer("runahead"),
        "runahead.override_accuracy": 1 - _ratio(
            c["runahead_wrong_overrides"], c["runahead_overrides"]
        ) if c["runahead_overrides"] else 0.0,
        "verify.audit_s": layer("verify"),
        "verify.audits": calls["verify.audit"],
        "sampling.fastforward_s": fastforward,
        "sampling.fastforward_instr_per_s": _ratio(
            extra.get("functional_instr", 0), fastforward
        ),
        "sampling.restore_s": own.get("sampling.restore", 0.0),
        "sampling.window_s": tracer.total_seconds("sampling.window"),
        "sampling.checkpoints": extra.get("checkpoints", 0),
        "isa.assemble_s": layer("isa") - own.get("isa.interp", 0.0),
        "isa.interp_s": own.get("isa.interp", 0.0),
        "analysis.lint_s": layer("analysis"),
        "fuzz.generate_s": own.get("fuzz.generate", 0.0),
        "fuzz.gen_attempts": extra.get("gen_attempts", 0),
        "fuzz.verdicts": extra.get("verdicts", 0),
        "trace.overhead": _ratio(
            extra.get("traced_wall_s", 0.0), extra.get("untraced_wall_s", 0.0)
        ),
    }
