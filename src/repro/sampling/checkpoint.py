"""Serializable sample-point checkpoints and pipeline warm-start.

A :class:`Checkpoint` captures everything a detailed window needs to
resume from a functional fast-forward at instruction ``position``:

* **architectural state** — registers, the sparse memory image, and
  the next PC,
* **predictor-warmup state** — the 512-bit global direction history and
  path history, the BTB warmup map (insertion-ordered ``pc -> target``
  pairs), the return-address-stack image, per-branch misprediction
  proxy counts for TEA H2P seeding, and the bounded branch trace of
  the most recent control-flow events
  (:class:`~repro.sampling.functional.WarmupState`).

Records are JSON-safe and self-contained, so the window scheduler can
write one file per sample point and ship the *path* through the
existing :class:`~repro.harness.executor.CampaignExecutor` RunSpec
machinery to worker processes.

:func:`seed_pipeline` is the restore side: it warm-starts a freshly
built :class:`~repro.core.pipeline.Pipeline` *before its first cycle* —
committed registers enter through the normal rename machinery
(allocate + write + RAT update, preserving the preg-conservation
invariant), the branch trace is replayed through the frontend's *real*
predict/train path (warming the TAGE-SC-L and ITTAGE tables with the
exact per-branch history context, and leaving the GHR and its packed
fold lanes bit-exact — verified against the checkpointed GHR),
BTB entries are installed in insertion order (LRU order preserved),
the RAS is pushed bottom-up, and TEA's H2P table replays the proxy
misprediction counts.
Restoring the same checkpoint twice yields bit-identical pipelines, so
a resumed window is cycle-exact regardless of the serialize/restore
round-trip (``tests/test_sampling_checkpoint.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable

from ..memory.memory_image import MemoryImage
from .functional import EngineSnapshot, FunctionalEngine, WarmupState

if TYPE_CHECKING:
    from ..core.pipeline import Pipeline
    from ..frontend.decoupled import DecoupledFrontend
    from ..workloads.base import Workload

CHECKPOINT_SCHEMA = 1


@dataclass(frozen=True)
class Checkpoint:
    """One sample point: architectural + predictor-warmup state."""

    workload: str
    scale: str
    position: int                  # instructions executed so far
    pc: int                        # next instruction to execute
    registers: tuple = ()
    memory: tuple = ()             # ((addr, value), ...) sorted
    ghr: int = 0
    path: int = 0
    btb: tuple = ()                # ((pc, target), ...) insertion order
    ras: tuple = ()                # bottom-up return addresses
    mispredicts: tuple = ()        # ((pc, count), ...) proxy misses
    trace: tuple = ()              # recent branch events, oldest first
    dlines: tuple = ()             # touched data lines, LRU order
    schema: int = CHECKPOINT_SCHEMA
    extra: dict = field(default_factory=dict, compare=False)

    # ------------------------------------------------------------------
    @classmethod
    def capture(
        cls,
        engine: FunctionalEngine,
        workload: str,
        scale: str,
    ) -> "Checkpoint":
        """Snapshot a paused functional engine at its current position."""
        warmup = engine.warmup
        if warmup is None:
            warmup = WarmupState()
        misses = warmup.mispredict_counts()
        return cls(
            workload=workload,
            scale=scale,
            position=engine.instructions_executed,
            pc=engine.pc,
            registers=tuple(engine.regs),
            memory=tuple(sorted(engine.memory.snapshot().items())),
            ghr=warmup.ghr,
            path=warmup.path,
            btb=tuple(warmup.btb.items()),
            ras=tuple(warmup.ras),
            mispredicts=tuple(sorted(misses.items())),
            trace=tuple(warmup.trace),
            # LLC capacity bounds how much LRU depth can matter.
            dlines=tuple(warmup.dlines)[-16384:],
        )

    # ------------------------------------------------------------------
    def as_record(self) -> dict:
        """JSON-safe dict (GHR as hex — 512 bits stay compact)."""
        return {
            "schema": self.schema,
            "workload": self.workload,
            "scale": self.scale,
            "position": self.position,
            "pc": self.pc,
            "registers": list(self.registers),
            "memory": [[addr, value] for addr, value in self.memory],
            "ghr": f"{self.ghr:x}",
            "path": self.path,
            "btb": [[pc, target] for pc, target in self.btb],
            "ras": list(self.ras),
            "mispredicts": [[pc, n] for pc, n in self.mispredicts],
            "trace": [list(event) for event in self.trace],
            "dlines": list(self.dlines),
        }

    @classmethod
    def from_record(cls, record: dict) -> "Checkpoint":
        if record.get("schema") != CHECKPOINT_SCHEMA:
            raise ValueError(
                f"unsupported checkpoint schema {record.get('schema')!r}"
            )
        return cls(
            workload=record["workload"],
            scale=record["scale"],
            position=record["position"],
            pc=record["pc"],
            registers=tuple(record["registers"]),
            memory=tuple(
                (addr, value) for addr, value in record["memory"]
            ),
            ghr=int(record["ghr"], 16),
            path=record["path"],
            btb=tuple((pc, target) for pc, target in record["btb"]),
            ras=tuple(record["ras"]),
            mispredicts=tuple(
                (pc, n) for pc, n in record["mispredicts"]
            ),
            trace=tuple(
                tuple(event) for event in record.get("trace", [])
            ),
            dlines=tuple(record.get("dlines", [])),
        )

    def save(self, path: Path | str) -> Path:
        path = Path(path)
        path.write_text(
            json.dumps(self.as_record(), sort_keys=True) + "\n"
        )
        return path

    @classmethod
    def load(cls, path: Path | str) -> "Checkpoint":
        return cls.from_record(json.loads(Path(path).read_text()))

    # ------------------------------------------------------------------
    def fresh_memory(self) -> MemoryImage:
        """A new memory image holding the checkpointed words."""
        return MemoryImage(dict(self.memory))


def seed_pipeline(pipeline: "Pipeline", checkpoint: Checkpoint) -> None:
    """Warm-start a freshly built pipeline from a checkpoint.

    Must be called before the pipeline's first cycle.  The pipeline's
    memory image is *not* touched here — build it with
    ``Pipeline(program, checkpoint.fresh_memory(), config)``.
    """
    if pipeline.cycle != 0 or pipeline.rob:
        raise ValueError("seed_pipeline() requires an unstarted pipeline")
    # Architectural registers flow through the normal rename path so
    # every invariant (preg conservation, RAT consistency) holds.
    prf = pipeline.prf
    rat = pipeline.rat
    for reg, value in enumerate(checkpoint.registers):
        if reg == 0 or value == 0:
            continue
        preg = prf.allocate()
        if preg is None:  # pragma: no cover - 47 regs vs hundreds of pregs
            raise RuntimeError("physical register file exhausted while seeding")
        prf.write(preg, value)
        rat.set(reg, preg)
        pipeline.committed_regs[reg] = value
    # Resume fetch at the checkpointed PC.
    frontend = pipeline.frontend
    frontend.next_pc = checkpoint.pc
    # BTB image first (oldest information), so trace replay below
    # refreshes the recently-used entries into MRU position.
    for pc, target in checkpoint.btb:
        frontend.btb.install(pc, target)
    _replay_trace(frontend, checkpoint)
    for return_address in checkpoint.ras:
        frontend.ras.push(return_address)
    # Cache warmth.  The static code image is small relative to the
    # L1I, so code the program has been executing is resident; data
    # lines replay in LRU order so the L1D/LLC tag arrays keep the
    # most-recently-touched working set.
    if checkpoint.position > 0:
        hierarchy = pipeline.hierarchy
        code_lines = sorted(
            {instr.pc & ~63 for instr in pipeline.program.instructions}
        )
        for line in code_lines:
            hierarchy.llc.fill(line)
            hierarchy.l1i.fill(line)
        for line in checkpoint.dlines:
            hierarchy.llc.fill(line)
            hierarchy.l1d.fill(line)
    # TEA chain-training inputs: hottest proxy-misprediction branches
    # first so H2P capacity goes to them under eviction pressure.
    if pipeline.tea is not None:
        ranked = sorted(
            checkpoint.mispredicts, key=lambda item: (-item[1], item[0])
        )
        for pc, count in ranked:
            pipeline.tea.h2p.seed(pc, count)


def _replay_trace(
    frontend: "DecoupledFrontend", checkpoint: Checkpoint
) -> None:
    """Replay the branch trace through the real predictor train path.

    Each event is processed exactly as the decoupled frontend would on
    the correct path: predict with the current history context, train
    with the actual outcome, then push the history bits.  Because every
    global-history push is traced and the trace depth exceeds the
    512-bit history window, the GHR comes out bit-exact — verified
    against the checkpointed GHR below — and so does every packed fold
    lane, each being a function of the GHR.
    """
    history = frontend.history
    if checkpoint.trace:
        cond = frontend.cond
        indirect = frontend.indirect
        btb = frontend.btb
        for event in checkpoint.trace:
            kind = event[0]
            if kind == "c":
                _, pc, taken, target = event
                pred = cond.predict(pc, target < pc)
                cond.train(pc, bool(taken), pred)
                if taken:
                    btb.install(pc, target)
                history.push_conditional(bool(taken))
            elif kind == "i":
                _, pc, target = event
                pred = indirect.predict(pc)
                indirect.train(pc, target, pred)
                btb.install(pc, target)
                history.push_target(pc, target)
            elif kind == "j":
                _, pc, target = event
                btb.install(pc, target)
                history.push_target(pc, target)
            else:  # "r": returns train only the RAS (seeded separately)
                _, pc, target = event
                history.push_target(pc, target)
        if history.ghr != checkpoint.ghr:
            raise RuntimeError(
                "branch-trace replay diverged from the checkpointed "
                f"global history at pc {checkpoint.pc:#x}"
            )
        # The trace bounds taken-transfer depth, not path depth; pin
        # the path register to the checkpointed value directly.
        history.path = checkpoint.path
    elif checkpoint.ghr:
        # Trace-less checkpoint (warmup tracking disabled): fall back
        # to bit-exact history replay without table warming.
        history.warm_replay(checkpoint.ghr, checkpoint.path)


def capture_checkpoints(
    workload: "Workload",
    positions: Iterable[int],
    workload_name: str | None = None,
    scale: str = "bench",
) -> list[Checkpoint]:
    """Fast-forward one functional pass, checkpointing at ``positions``.

    ``positions`` are instruction counts (ascending); duplicates are
    collapsed.  A position at or beyond the halt point yields no
    checkpoint (the window would have nothing to measure).
    """
    engine = FunctionalEngine(workload.program, workload.fresh_memory())
    name = workload_name or workload.name
    checkpoints: list[Checkpoint] = []
    last = -1
    for position in sorted(set(positions)):
        if position <= last:
            continue
        engine.advance(position - engine.instructions_executed)
        if engine.halted:
            break
        checkpoints.append(
            Checkpoint.capture(engine, name, scale)
        )
        last = position
    return checkpoints


#: Snapshot reservoir bound for :func:`run_and_capture`.  Rewinding to
#: any position then replays at most ~total/SNAPSHOT_SLOTS instructions
#: from the nearest snapshot; the resident copies stay cheap (sparse
#: memory images plus bounded warmup state).
SNAPSHOT_SLOTS = 32

#: Initial snapshot spacing.  Small enough that the registered bench
#: scales (tens to hundreds of thousands of instructions) fill the
#: reservoir and rewinds stay short; stride doubling keeps the
#: snapshot count bounded however long the run turns out to be.
_INITIAL_STRIDE = 1 << 12


def run_and_capture(
    workload: "Workload",
    plan: Callable[[int], Iterable[int]],
    workload_name: str | None = None,
    scale: str = "bench",
    max_steps: int = 5_000_000,
) -> tuple[int, list[Checkpoint]]:
    """One functional pass: instruction count *and* checkpoint capture.

    The window scheduler needs the total instruction count before it
    can place checkpoints, which used to cost two full functional
    passes.  This runs the program once, keeping a stride-doubling
    reservoir of at most :data:`SNAPSHOT_SLOTS` engine snapshots; after
    halt, ``plan(total)`` chooses the checkpoint positions and each one
    is materialized by restoring the nearest snapshot at or below it
    and advancing the residual — bit-identical to
    :func:`capture_checkpoints` (``tests/test_sampling_checkpoint.py``)
    at a fraction of the replay cost.

    Raises :class:`InterpreterTimeout` when ``max_steps`` is exhausted
    before halt, matching :meth:`FunctionalEngine.run_to_halt`.
    """
    from bisect import bisect_right

    from ..isa.interpreter import InterpreterTimeout

    engine = FunctionalEngine(workload.program, workload.fresh_memory())
    name = workload_name or workload.name
    snapshots: list[EngineSnapshot] = [engine.snapshot()]
    stride = _INITIAL_STRIDE
    while not engine.halted:
        remaining = max_steps - engine.instructions_executed
        if remaining <= 0:
            raise InterpreterTimeout(engine.pc, max_steps)
        # A snapshot copies the live state, so space them at least one
        # state-size apart: memory-heavy workloads take fewer, cheaper
        # snapshots instead of drowning in dict copies.
        state = len(engine.memory._words)
        if engine.warmup is not None:
            state += len(engine.warmup.dlines)
        engine.advance(min(max(stride, state), remaining))
        if engine.halted:
            break
        snapshots.append(engine.snapshot())
        if len(snapshots) > SNAPSHOT_SLOTS:
            # Halve the reservoir, double the stride: granularity
            # degrades gracefully as the run turns out to be long.
            snapshots = snapshots[::2]
            stride *= 2
    total = engine.instructions_executed

    snap_positions = [snap.position for snap in snapshots]
    checkpoints: list[Checkpoint] = []
    last = -1
    for position in sorted(set(plan(total))):
        if position <= last or position >= total:
            continue
        nearest = bisect_right(snap_positions, position) - 1
        at = engine.instructions_executed
        # Restore when behind the target, or when a snapshot lands
        # closer than the engine's current position (jump forward).
        if at > position or snap_positions[nearest] > at or engine.halted:
            engine.restore(snapshots[nearest])
        engine.advance(position - engine.instructions_executed)
        checkpoints.append(Checkpoint.capture(engine, name, scale))
        last = position
    return total, checkpoints
