"""The three benchmark workloads: figure, sampled and fuzz.

Each is a closed loop with one client running inline: the next op
starts when the previous one returns, in this one process, with no
worker pool.  The workload seed only picks inputs (see ``plans.py``).
Each class runs one *unit* of its plan at a time (a figure, a sampled
op, a fuzz batch) so that a traced run can interleave untraced and
traced passes unit by unit, and checks its outputs afterwards.
"""

from __future__ import annotations

import ctypes
import gc
import importlib
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import checks
from . import plans
from .spans import Tracer, rebind

try:
    _malloc_trim = ctypes.CDLL("libc.so.6").malloc_trim
    _malloc_trim.argtypes = [ctypes.c_size_t]
    _malloc_trim.restype = ctypes.c_int
except (OSError, AttributeError):  # not glibc
    _malloc_trim = None


@dataclass
class Pass:
    """What one pass over a plan produced (timings are raw seconds)."""

    ops: list[tuple[float, float]] = field(default_factory=list)
    units: list[tuple[float, float]] = field(default_factory=list)
    failed: int = 0
    cycles: int = 0
    instructions: int = 0
    cells: int = 0
    repeats: int = 0
    returns: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.ops)


class _OpTimer:
    """Times every call of the program's op function in one pass and
    keeps what it returned."""

    def __init__(self, result: Pass) -> None:
        self.result = result

    def wrap(self, fn):
        def op(*args, **kwargs):
            start = time.perf_counter()
            try:
                value = fn(*args, **kwargs)
            finally:
                self.result.ops.append((start, time.perf_counter()))
            self.result.returns.append(value)
            return value

        return op


class _Workload:
    """Shared unit loop; subclasses define plan, setup, unit and check."""

    name = ""
    #: Program modules the workload path imports (beyond the CLI's).
    imports: tuple[str, ...] = ()
    #: ``(module, function, span)`` of the program call that is one op,
    #: or ``None`` when the unit opens its op itself.
    op_function: tuple[str, str, str] | None = None

    def __init__(self, seed: int, seconds: int, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.plan = self.make_plan(seed, seconds)

    def run_unit(self, index: int, result: Pass, clock,
                 tracer: Tracer | None) -> None:
        """Run unit ``index`` into ``result``; traced when ``tracer``.

        Host-speed slices (``clock``) run on a timer through untraced
        units; a traced unit gets one slice before it instead, so no
        slice falls inside a traced span.  Garbage left by earlier units
        is collected and freed heap returned to the system first,
        untimed, as if each unit were its own CLI process, so peak
        memory does not depend on the order of units.
        """
        gc.collect()
        if _malloc_trim is not None:
            _malloc_trim(0)
        clock.mark()
        undo = []
        if self.op_function is not None:
            module_name, attr, span = self.op_function
            original = getattr(importlib.import_module(module_name), attr)
            fn = original if tracer is None else tracer.wrap(
                original, span, op=True
            )
            undo = rebind(original, _OpTimer(result).wrap(fn))
        start = time.perf_counter()
        try:
            if tracer is None:
                with clock.sampling():
                    self.unit(index, result, tracer)
            else:
                self.unit(index, result, tracer)
        finally:
            result.units.append((start, time.perf_counter()))
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)

    # -- subclass hooks ------------------------------------------------------
    def make_plan(self, seed: int, seconds: int) -> list:
        raise NotImplementedError

    def setup(self) -> None:
        """Build the first workload and its config (timed as set-up)."""
        raise NotImplementedError

    def unit(self, index, result, tracer) -> None:
        raise NotImplementedError

    def check(self, result: Pass) -> list[str]:
        raise NotImplementedError


# ======================================================================
# figure: regenerate paper figures at tiny scale
# ======================================================================
class Figure(_Workload):
    name = "figure"
    imports = ("repro.harness.experiments", "repro.harness.executor")
    op_function = ("repro.harness.executor", "execute_spec", "harness.cell")

    def make_plan(self, seed, seconds):
        return plans.figure_plan(seed, seconds)

    def setup(self):
        from repro.harness.experiments import FIGURE_MODES
        from repro.harness.runner import make_config
        from repro.workloads import make_workload

        figure, workloads = self.plan[0]
        make_workload(workloads[0], "tiny")
        make_config(FIGURE_MODES[figure][0])

    def unit(self, index, result, tracer):
        from repro.harness.executor import CampaignExecutor
        from repro.harness.experiments import FIGURE_MODES, ExperimentSuite

        figure, workloads = self.plan[index]

        def regenerate():
            # The ``repro figure <name> --jobs 0`` path: a fresh suite,
            # the figure's matrix on an inline executor, then render.
            suite = ExperimentSuite(
                scale="tiny", workloads=workloads,
                executor=CampaignExecutor(jobs=0),
            )
            outcomes = suite.run_matrix(FIGURE_MODES[figure])
            return outcomes, getattr(suite, f"render_{figure}")()

        if tracer is None:
            outcomes, text = regenerate()
        else:
            outcomes, text = tracer.span("harness.figure", regenerate)
        seen = result.extra.setdefault("seen", set())
        for outcome in outcomes:
            result.cells += 1
            if outcome.key in seen:
                result.repeats += 1
            seen.add(outcome.key)
            if not outcome.ok:
                result.failed += 1
                continue
            result.cycles += outcome.stats["cycles"]
            result.instructions += outcome.stats["retired_instructions"]
        result.outputs.append((figure, outcomes, text))

    def check(self, result):
        golden = checks.load_golden(self.root)
        problems = []
        for figure, outcomes, text in result.outputs:
            for outcome in outcomes:
                problems += checks.check_cell(
                    golden, outcome.spec.workload, outcome.spec.mode, outcome
                )
            problems += checks.check_figure_text(figure, text)
        return problems


# ======================================================================
# sampled: repro sample at its defaults on bench and full inputs
# ======================================================================
class Sampled(_Workload):
    name = "sampled"
    imports = ("repro.sampling",)

    def make_plan(self, seed, seconds):
        return plans.sampled_plan(seed, seconds)

    def setup(self):
        from repro.harness.runner import make_config
        from repro.workloads import make_workload

        workload, mode, scale = self.plan[0]
        make_workload(workload, scale)
        make_config(mode)

    def unit(self, index, result, tracer):
        from repro.sampling import run_sampled

        workload, mode, scale = self.plan[index]
        workdir = tempfile.mkdtemp(prefix=f"sample-{index}-", dir=self.workdir)

        def op():
            # ``repro sample`` defaults: 8 even windows, warmup 2000,
            # measure 4000, inline.
            return run_sampled(workload, mode=mode, scale=scale,
                               workdir=workdir)

        start = time.perf_counter()
        try:
            if tracer is None:
                report = op()
            else:
                report = tracer.op_span("sampling.op", op)
        except Exception as exc:  # noqa: BLE001 - a failed op is data
            result.failed += 1
            result.outputs.append((self.plan[index], None, repr(exc)))
            return
        finally:
            result.ops.append((start, time.perf_counter()))
        result.cells += len(report["windows"])
        result.cycles += sum(w["cycles"] for w in report["windows"])
        result.instructions += report["functional"]["total_instructions"]
        result.extra["checkpoints"] = (
            result.extra.get("checkpoints", 0) + report["functional"]["captured"]
        )
        result.outputs.append((self.plan[index], report, None))

    def check(self, result):
        from repro.isa import run_program
        from repro.sampling.windows import FASTFORWARD_MAX_STEPS
        from repro.workloads import make_workload

        problems = []
        references: dict[tuple[str, str], int] = {}
        for (workload, mode, scale), report, error in result.outputs:
            if report is None:
                problems.append(f"{workload}/{mode}@{scale}: {error}")
                continue
            if (workload, scale) not in references:
                unit = make_workload(workload, scale)
                references[workload, scale] = run_program(
                    unit.program, unit.fresh_memory(),
                    max_steps=FASTFORWARD_MAX_STEPS,
                ).instructions_executed
            problems += checks.check_sampled(
                report, references[workload, scale]
            )
        return problems

    def check_repeat(self, untraced: Pass, traced: Pass) -> list[str]:
        """A recurring op must yield a byte-identical report.  A traced
        run repeats every op already; otherwise the cheapest op of the
        plan runs once more."""
        pairs = list(zip(untraced.outputs, traced.outputs))
        if not pairs:
            done = [i for i, out in enumerate(untraced.outputs)
                    if out[1] is not None]
            if not done:
                return []
            index = min(done, key=lambda i: plans.SAMPLED_OPS[self.plan[i]][0])
            again = Pass()
            self.unit(index, again, None)
            pairs = [(untraced.outputs[index], again.outputs[0])]
        problems = []
        for (op, first, _), (_, second, error) in pairs:
            if first is None:
                continue
            if second is None:
                problems.append(f"{op}: repeated op failed: {error}")
            else:
                problems += checks.check_repeat(first, second)
        return problems


# ======================================================================
# fuzz: the repro fuzz oracle over generated programs
# ======================================================================
class Fuzz(_Workload):
    name = "fuzz"
    imports = ("repro.fuzz",)
    op_function = ("repro.fuzz.campaign", "execute_fuzz_spec", "fuzz.program")

    def make_plan(self, seed, seconds):
        return plans.fuzz_plan(seed, seconds)

    def setup(self):
        from repro.fuzz import GeneratorProfile
        from repro.fuzz.generator import generate_program
        from repro.harness.runner import make_config

        generate_program(self.plan[0][0], GeneratorProfile())
        make_config("baseline")

    def unit(self, index, result, tracer):
        from repro.fuzz.campaign import run_fuzz_campaign

        first = len(result.returns)

        def batch():
            # ``repro fuzz`` defaults, shrinking off; failures would be
            # recorded in the run's own corpus directory, not the repo's.
            return run_fuzz_campaign(
                self.plan[index], mode="baseline", check_invariants=64,
                jobs=0, shrink=False, corpus_dir=self.workdir / "corpus",
            )

        if tracer is None:
            report = batch()
        else:
            report = tracer.span("harness.campaign", batch)
        payloads = result.returns[first:]
        result.cells += report["num_seeds"]
        result.failed += report["num_seeds"] - report["counts"]["pass"]
        for payload in payloads:
            outcome = payload["stats"]["fuzz"]
            result.cycles += outcome["cycles"]
            result.instructions += outcome["steps"]
            result.extra["gen_attempts"] = (
                result.extra.get("gen_attempts", 0)
                + payload["stats"]["attempt"] + 1
            )
        result.extra["verdicts"] = (
            result.extra.get("verdicts", 0) + sum(report["counts"].values())
        )
        result.outputs.append((report, payloads))

    def check(self, result):
        problems = []
        for report, payloads in result.outputs:
            problems += checks.check_fuzz(report, payloads)
        return problems


WORKLOADS = {cls.name: cls for cls in (Figure, Sampled, Fuzz)}
