"""Control-flow graph construction over an assembled program.

Nodes are the program's existing :class:`~repro.isa.program.BasicBlock`
records (the same blocks that tag TEA Block Cache entries, so static-chain
bit-masks line up bit-for-bit with the dynamic masks).  Edges come from
the block terminator:

* conditional branches: target + fallthrough,
* direct jumps/calls: the encoded target (a ``call`` additionally
  registers its fallthrough as a *return site*),
* ``ret``: conservative edges to every return site,
* ``jr``/``callr`` (indirect): conservative edges to every block that
  contains a code label — label addresses are the only values a
  workload can materialize as jump targets (``la``),
* anything else: fallthrough.

Blocks whose fallthrough would leave the instruction image are recorded
in :attr:`CFG.falls_off_end`; reachability is a forward closure from
the entry block over these edges.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa import UopClass
from ..isa.instructions import Instruction
from ..isa.program import BasicBlock, Program


@dataclass(frozen=True)
class CFG:
    """An explicit control-flow graph over a program's basic blocks."""

    program: Program
    entry: int
    successors: dict[int, tuple[int, ...]]
    predecessors: dict[int, tuple[int, ...]]
    reachable: frozenset[int]
    #: Blocks whose terminator is indirect control flow (``jr``,
    #: ``callr``, ``ret``) — their out-edges are conservative.
    indirect_blocks: frozenset[int]
    #: Blocks that are conservative *targets* of ``jr``/``callr`` edges.
    indirect_targets: frozenset[int]
    #: Block starts of the instruction after each call (``ret`` edges).
    return_sites: frozenset[int]
    #: Reachable blocks whose execution can fall through past the last
    #: instruction of the image (no terminator on the last path).
    falls_off_end: frozenset[int]

    @property
    def blocks(self) -> dict[int, BasicBlock]:
        return self.program.basic_blocks

    def block(self, start_pc: int) -> BasicBlock:
        return self.program.basic_blocks[start_pc]

    def terminator(self, start_pc: int) -> Instruction:
        """The last instruction of a block."""
        instr = self.program.instruction_at(self.blocks[start_pc].end_pc)
        assert instr is not None
        return instr

    def reachable_blocks(self) -> list[BasicBlock]:
        """Reachable blocks in ascending start-PC order."""
        return [
            block
            for start, block in sorted(self.blocks.items())
            if start in self.reachable
        ]


def _block_start(program: Program, pc: int) -> int | None:
    block = program.block_containing(pc)
    return block.start_pc if block is not None else None


def build_cfg(program: Program) -> CFG:
    """Construct the conservative CFG for ``program``."""
    blocks = program.basic_blocks
    label_blocks = tuple(
        sorted(
            {
                start
                for pc in program.labels.values()
                if (start := _block_start(program, pc)) is not None
            }
        )
    )
    return_sites = []
    for ins in program.instructions:
        if ins.uop_class is UopClass.BR_CALL or ins.opcode == "callr":
            site = _block_start(program, ins.fallthrough_pc)
            if site is not None:
                return_sites.append(site)
    return_sites_t = tuple(sorted(set(return_sites)))

    successors: dict[int, tuple[int, ...]] = {}
    indirect_blocks: set[int] = set()
    indirect_targets: set[int] = set()
    falls_off: set[int] = set()

    for start, block in blocks.items():
        term = program.instruction_at(block.end_pc)
        assert term is not None
        succs: list[int] = []
        cls = term.uop_class
        # Block leaders come from branch structure, so a ``halt`` can sit
        # mid-block (e.g. followed by trailing data-like code).  Execution
        # cannot pass it: the block then has no out-edges at all.
        if cls is not UopClass.HALT and any(
            ins is not None and ins.uop_class is UopClass.HALT
            for pc in block.pcs()
            if (ins := program.instruction_at(pc)) is not term
        ):
            successors[start] = ()
            continue

        def fallthrough() -> None:
            nxt = _block_start(program, term.fallthrough_pc)
            if nxt is None:
                falls_off.add(start)
            else:
                succs.append(nxt)

        if cls is UopClass.HALT:
            pass
        elif cls is UopClass.BR_COND:
            if term.target is not None:
                tgt = _block_start(program, term.target)
                if tgt is not None:
                    succs.append(tgt)
            fallthrough()
        elif cls in (UopClass.BR_JUMP, UopClass.BR_CALL):
            if term.target is not None:
                tgt = _block_start(program, term.target)
                if tgt is not None:
                    succs.append(tgt)
        elif cls is UopClass.BR_RET:
            indirect_blocks.add(start)
            succs.extend(return_sites_t)
        elif cls is UopClass.BR_IND:
            indirect_blocks.add(start)
            succs.extend(label_blocks)
            indirect_targets.update(label_blocks)
        else:
            fallthrough()
        # De-duplicate while preserving order.
        successors[start] = tuple(dict.fromkeys(succs))

    predecessors: dict[int, list[int]] = {start: [] for start in blocks}
    for start, succs in successors.items():
        for succ in succs:
            predecessors[succ].append(start)

    entry_block = program.block_containing(program.entry_pc)
    entry = entry_block.start_pc if entry_block is not None else program.entry_pc
    reachable: set[int] = set()
    work = [entry]
    while work:
        start = work.pop()
        if start in reachable:
            continue
        reachable.add(start)
        work.extend(successors.get(start, ()))

    return CFG(
        program=program,
        entry=entry,
        successors=successors,
        predecessors={s: tuple(p) for s, p in predecessors.items()},
        reachable=frozenset(reachable),
        indirect_blocks=frozenset(indirect_blocks),
        indirect_targets=frozenset(indirect_targets),
        return_sites=frozenset(return_sites_t),
        falls_off_end=frozenset(falls_off & reachable),
    )
