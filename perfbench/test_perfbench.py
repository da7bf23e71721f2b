"""Tests of the benchmark itself: every correctness check fails on a
perturbed result, plans are deterministic and balanced, the host clock
and span accounting add up, and BENCHMARK.json names what the code
reports.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import copy
import json
import statistics
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import checks, hostref, plans, run, spans  # noqa: E402


# ----------------------------------------------------------------------
# figure checks
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def golden():
    return checks.load_golden(ROOT)


def _outcome(golden, key, **changes):
    stats = dict(golden["stats"][key])
    stats.update(changes)
    return SimpleNamespace(ok=True, status="ok", validated=True, stats=stats)


def test_cell_matching_golden_passes(golden):
    assert checks.check_cell(golden, "xz", "tea",
                             _outcome(golden, "xz/tea")) == []


@pytest.mark.parametrize("field", ["cycles", "fetched_uops",
                                   "covered_timely", "runahead_overrides"])
def test_cell_with_one_counter_off_fails(golden, field):
    want = golden["stats"]["mcf/runahead"][field]
    outcome = _outcome(golden, "mcf/runahead", **{field: want + 1})
    problems = checks.check_cell(golden, "mcf", "runahead", outcome)
    assert len(problems) == 1 and field in problems[0]


def test_cell_failing_validation_or_run_fails(golden):
    outcome = _outcome(golden, "bfs/baseline")
    outcome.validated = False
    assert checks.check_cell(golden, "bfs", "baseline", outcome)
    failed = SimpleNamespace(ok=False, status="failed", validated=False,
                             stats=None)
    assert checks.check_cell(golden, "bfs", "baseline", failed)


def test_rendered_failed_cell_fails():
    assert checks.check_figure_text("fig5", "xz  12.5") == []
    assert checks.check_figure_text("fig5", "xz  FAILED(fatal)")


# ----------------------------------------------------------------------
# sampled checks
# ----------------------------------------------------------------------
def _report():
    return {
        "workload": "xz", "mode": "tea", "scale": "bench",
        "functional": {"total_instructions": 63295, "positions": [0, 8470],
                       "captured": 2},
        "windows": [
            {"index": 0, "instructions": 4000, "cycles": 5100},
            {"index": 1, "instructions": 4000, "cycles": 4900},
        ],
        "estimates": {"ipc": {"value": 0.8}},
    }


def test_sampled_report_matching_interpreter_passes():
    assert checks.check_sampled(_report(), 63295) == []


def test_sampled_functional_total_off_by_one_fails():
    assert checks.check_sampled(_report(), 63296)


def test_sampled_missing_or_empty_window_fails():
    report = _report()
    report["windows"].pop()
    assert checks.check_sampled(report, 63295)
    report = _report()
    report["windows"][1]["cycles"] = 0
    assert checks.check_sampled(report, 63295)


def test_repeated_op_must_be_identical():
    first = _report()
    assert checks.check_repeat(first, copy.deepcopy(first)) == []
    second = copy.deepcopy(first)
    second["estimates"]["ipc"]["value"] = 0.8000001
    assert checks.check_repeat(first, second)


# ----------------------------------------------------------------------
# fuzz checks
# ----------------------------------------------------------------------
def _fuzz(statuses):
    counts = {s: 0 for s in ("pass", "divergence", "invariant", "hang",
                             "crash")}
    for status in statuses:
        counts[status] += 1
    report = {
        "num_seeds": len(statuses), "counts": counts,
        "unique_failures": [{"signature": f"{s}:x"} for s in statuses
                            if s != "pass"],
    }
    payloads = [{"stats": {"fuzz": {"status": s}}} for s in statuses]
    return report, payloads


def test_fuzz_batch_all_passing_passes():
    assert checks.check_fuzz(*_fuzz(["pass"] * 4)) == []


def test_fuzz_batch_with_a_divergence_fails():
    problems = checks.check_fuzz(*_fuzz(["pass", "divergence", "pass"]))
    assert problems and "divergence:x" in problems[0]


def test_fuzz_verdicts_disagreeing_with_report_fail():
    report, payloads = _fuzz(["pass"] * 3)
    payloads[1]["stats"]["fuzz"]["status"] = "hang"
    assert checks.check_fuzz(report, payloads)
    report, payloads = _fuzz(["pass"] * 3)
    assert checks.check_fuzz(report, payloads[:2])


# ----------------------------------------------------------------------
# plans
# ----------------------------------------------------------------------
@pytest.mark.parametrize("make, cost, seconds", [
    (plans.figure_plan, plans.figure_cells, 20),
    (plans.sampled_plan, plans.sampled_ops, 20),
    (plans.fuzz_plan, plans.fuzz_cells, None),
])
def test_plans_are_seeded_and_balanced(make, cost, seconds):
    first = make(11, 20)
    assert make(11, 20) == first
    assert make(12, 20) != first
    totals = [plans._profile(cost(make(seed, 20)))["seconds"]
              for seed in range(5)]
    target = seconds or statistics.median(totals)
    assert all(abs(t / target - 1) <= 2 * plans.TOLERANCE["seconds"]
               for t in totals)


def test_plan_tables_match_the_program(golden):
    from repro.harness.experiments import FIGURE_MODES

    for figure in plans.FIGURES:
        assert plans.FIGURE_MODES[figure] == FIGURE_MODES[figure]
    assert {key.split("/")[0] for key in golden["stats"]} == set(
        plans.GOLDEN_WORKLOADS)
    assert {(w, m) for w in plans.GOLDEN_WORKLOADS
            for f in plans.FIGURES for m in FIGURE_MODES[f]} == set(
        plans.FIGURE_CELLS)


def test_fuzz_plan_batches_are_whole_and_disjoint():
    table = len(plans.fuzz_programs())
    for seed in range(5):
        plan = plans.fuzz_plan(seed, 20)
        seeds = [s for batch in plan for s in batch]
        assert all(len(batch) == plans.FUZZ_BATCH for batch in plan)
        assert len(set(seeds)) == len(seeds) and max(seeds) < table


# ----------------------------------------------------------------------
# host clock and spans
# ----------------------------------------------------------------------
def _clock(seconds):
    """A host clock whose slice ``i`` ran over ``[11 i, 11 i + 1]``."""
    clock = hostref.HostClock.__new__(hostref.HostClock)
    clock.slices = [(11.0 * i, 11.0 * i + 1, s) for i, s in enumerate(seconds)]
    return clock


def test_host_clock_divides_by_slowdown_and_skips_slices():
    nominal = hostref.NOMINAL_SLICE_S
    slow = nominal * 2 ** (1 / hostref.SENSITIVITY)  # factor 2
    clock = _clock([nominal] * 5 + [slow] * 5)
    assert clock.normalize(1.0, 11.0) == pytest.approx(10.0)
    assert clock.normalize(67.0, 77.0) == pytest.approx(5.0)
    # Slice time is excluded; the segment where the speed changes uses
    # the mean of its two bounding slices.
    mixed = ((nominal + slow) / 2 / nominal) ** hostref.SENSITIVITY
    assert clock.normalize(0.0, 56.0) == pytest.approx(40.0 + 10.0 / mixed)


def test_host_clock_ignores_a_single_noisy_slice():
    nominal = hostref.NOMINAL_SLICE_S
    clock = _clock([nominal] * 4 + [nominal * 3] + [nominal] * 5)
    assert clock.normalize(1.0, 99.0) == pytest.approx(90.0)


def test_self_times_add_up_to_each_op_span():
    tracer = spans.Tracer()
    leaf = tracer.wrap_hot(lambda: sum(range(1000)), "memory.access_load")
    inner = tracer.wrap(lambda: [leaf() for _ in range(3)], "core.run")
    op = tracer.wrap(lambda: (inner(), leaf()), "harness.cell", op=True)
    for _ in range(2):
        op()
    accounting = tracer.op_accounting()
    assert [a[0] for a in accounting] == [1, 2]
    for _, span, owned in accounting:
        assert owned == pytest.approx(span, rel=1e-9)
    assert tracer.calls()["memory.access_load"] == 8
    assert tracer.self_seconds()["core.run"] > 0


def test_reconcile_flags_calls_that_bypass_a_wrapper():
    tracer = spans.Tracer()
    tracer.counters.update(demand_loads=10, mshr_full_events=2)
    tracer.seen["memory.access_load"] = 12
    rows = {what.split()[0]: (seen, counted)
            for what, seen, counted in spans.reconcile(tracer)}
    assert rows["memory.access_load"] == (12, 12)
    tracer.counters["demand_loads"] += 1  # one load the wrapper missed
    rows = {what.split()[0]: (seen, counted)
            for what, seen, counted in spans.reconcile(tracer)}
    assert rows["memory.access_load"] == (12, 13)


def _traced(call):
    tracer = spans.Tracer()
    restore = spans.instrument(tracer)
    try:
        result = call(tracer)
    finally:
        restore()
    for what, seen, counted in spans.reconcile(tracer):
        assert seen == counted, what
    return tracer, result


def test_traced_fuzz_program_reconciles_with_program_counters():
    from repro.fuzz.campaign import execute_fuzz_spec, fuzz_spec
    from repro.fuzz.generator import generate_program

    tracer, payload = _traced(lambda tracer: tracer.wrap(
        execute_fuzz_spec, "fuzz.program", op=True
    )(fuzz_spec(7).as_record()))
    assert payload["stats"]["fuzz"]["status"] == "pass"
    import repro.fuzz.campaign as campaign

    assert campaign.generate_program is generate_program  # undone
    calls = tracer.calls()
    assert calls["verify.audit"] > 0 and calls["fuzz.generate"] == 1
    ((_, span, owned),) = tracer.op_accounting()
    assert owned == pytest.approx(span, rel=1e-9)


def test_traced_warm_windows_reconcile_from_the_warmup_boundary(tmp_path):
    """Sampled windows replay branches through the frontend before
    their run and restart SimStats after warmup; only calls inside the
    measured part of each run are matched against SimStats."""
    from repro.sampling import run_sampled

    tracer, report = _traced(lambda tracer: run_sampled(
        "xz", mode="tea", scale="tiny", windows=2, workdir=tmp_path))
    assert len(report["windows"]) == 2
    calls = tracer.calls()
    assert calls["frontend.train_resolved"] > tracer.seen[
        "frontend.train_resolved"] > 0
    assert tracer.seen["tea.on_retire"] > 0


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.UNITS
    assert {w["name"] for w in spec["workloads"]} == {
        "figure", "sampled", "fuzz"}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
