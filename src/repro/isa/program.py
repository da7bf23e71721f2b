"""Static program representation: instruction memory and basic blocks.

A :class:`Program` is the immutable instruction image the simulator
fetches from.  Instructions live at ``entry_pc + 4*i``.  Basic blocks
are derived once at construction: a *leader* is the entry PC, any
control-flow target, or the instruction after any control-flow
instruction.  Basic-block start PCs tag the TEA Block Cache entries
(paper §III-A) and bound its per-block bit-masks.

Two lookups serve the decoupled frontend, which handles a fetch block
as a run of sequential instructions rather than one uop at a time:
:attr:`Program.plain_runs` lets the predictor step over a straight-line
stretch at once, and :meth:`Program.basic_block_spans` gives the TEA
thread the basic blocks a run passes through.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .instructions import INSTRUCTION_BYTES, Instruction, UopClass


@dataclass(frozen=True)
class BasicBlock:
    """A maximal single-entry straight-line region of the program."""

    start_pc: int
    end_pc: int  # PC of the *last* instruction in the block (inclusive)
    #: (first, last) 1-based source lines spanned by the block's
    #: instructions, or ``None`` when no instruction carries line info.
    #: Excluded from equality so blocks still compare by PC range.
    line_range: tuple[int, int] | None = field(default=None, compare=False)

    @property
    def num_instructions(self) -> int:
        return (self.end_pc - self.start_pc) // INSTRUCTION_BYTES + 1

    def pcs(self) -> range:
        return range(self.start_pc, self.end_pc + 1, INSTRUCTION_BYTES)


class Program:
    """An assembled program: instructions, labels, and basic blocks."""

    def __init__(
        self,
        instructions: list[Instruction],
        labels: dict[str, int] | None = None,
        entry_pc: int = 0,
    ):
        if not instructions:
            raise ValueError("a program needs at least one instruction")
        self.entry_pc = entry_pc
        self.instructions = instructions
        self.labels = dict(labels or {})
        self._by_pc = {ins.pc: ins for ins in instructions}
        self.end_pc = instructions[-1].pc
        self._blocks = self._compute_blocks()
        self._block_start_by_pc = {}
        for block in self._blocks.values():
            for pc in block.pcs():
                self._block_start_by_pc[pc] = block.start_pc
        #: PC -> how many instructions from that PC on are neither a
        #: branch nor HALT (0 at a branch or HALT); PCs outside the
        #: image are absent.
        self.plain_runs: dict[int, int] = {}
        run = 0
        for ins in reversed(instructions):
            if ins.is_branch or ins.uop_class is UopClass.HALT:
                run = 0
            else:
                run += 1
            self.plain_runs[ins.pc] = run
        self._spans: dict[tuple[int, int], tuple[tuple[int, int, int, int], ...]] = {}

    def __len__(self) -> int:
        return len(self.instructions)

    def instruction_at(self, pc: int) -> Instruction | None:
        """The instruction at ``pc``, or ``None`` if outside the image."""
        return self._by_pc.get(pc)

    def contains(self, pc: int) -> bool:
        return pc in self._by_pc

    @property
    def basic_blocks(self) -> dict[int, BasicBlock]:
        """Mapping of start PC -> basic block."""
        return self._blocks

    def block_starting_at(self, pc: int) -> BasicBlock | None:
        return self._blocks.get(pc)

    def block_containing(self, pc: int) -> BasicBlock | None:
        start = self._block_start_by_pc.get(pc)
        return self._blocks.get(start) if start is not None else None

    def basic_block_spans(
        self, start_pc: int, count: int
    ) -> tuple[tuple[int, int, int, int], ...]:
        """The basic blocks that ``count`` instructions from ``start_pc``
        pass through, in order, as ``(bb_start, first, stop, bit)``.

        Instructions ``first`` to ``stop - 1`` of the run lie in the
        block at ``bb_start``, and instruction ``first`` is that
        block's instruction ``bit`` (its Block Cache mask bit).  PCs
        outside every block are left out.  Memoized per run.
        """
        key = (start_pc, count)
        spans = self._spans.get(key)
        if spans is None:
            spans = self._spans[key] = self._compute_spans(start_pc, count)
        return spans

    def _compute_spans(
        self, start_pc: int, count: int
    ) -> tuple[tuple[int, int, int, int], ...]:
        spans = []
        stop_pc = start_pc + count * INSTRUCTION_BYTES
        pc = start_pc
        while pc < stop_pc:
            block = self.block_containing(pc)
            if block is None:
                pc += INSTRUCTION_BYTES
                continue
            end = min(block.end_pc + INSTRUCTION_BYTES, stop_pc)
            spans.append(
                (
                    block.start_pc,
                    (pc - start_pc) // INSTRUCTION_BYTES,
                    (end - start_pc) // INSTRUCTION_BYTES,
                    (pc - block.start_pc) // INSTRUCTION_BYTES,
                )
            )
            pc = end
        return tuple(spans)

    def label_pc(self, label: str) -> int:
        return self.labels[label]

    def _compute_blocks(self) -> dict[int, BasicBlock]:
        leaders = {self.entry_pc}
        for ins in self.instructions:
            if ins.is_branch:
                if ins.target is not None:
                    leaders.add(ins.target)
                fall = ins.fallthrough_pc
                if fall in self._by_pc:
                    leaders.add(fall)
        # Every branch's fallthrough is a leader, so a branch is always
        # the last instruction before the next leader; blocks therefore
        # simply span leader-to-leader.
        ordered = sorted(pc for pc in leaders if pc in self._by_pc)
        blocks: dict[int, BasicBlock] = {}
        for i, start in enumerate(ordered):
            if i + 1 < len(ordered):
                end = ordered[i + 1] - INSTRUCTION_BYTES
            else:
                end = self.end_pc
            lines = [
                ins.line
                for pc in range(start, end + 1, INSTRUCTION_BYTES)
                if (ins := self._by_pc[pc]).line is not None
            ]
            span = (min(lines), max(lines)) if lines else None
            blocks[start] = BasicBlock(start, end, span)
        return blocks

    def line_of(self, pc: int) -> int | None:
        """Source line of the instruction at ``pc`` (``None`` if unknown)."""
        ins = self._by_pc.get(pc)
        return ins.line if ins is not None else None
