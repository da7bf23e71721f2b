"""Iterative dataflow analysis to fixpoint over the CFG.

Three classic analyses, all operating on the flat architectural
register space (the same indices the rename logic and the Backward
Dataflow Walk's Source List use):

* **Reaching definitions** — which instruction's write of a register
  (or of a memory location) can reach each use.  Register definitions
  are killed by redefinition; a synthetic *entry* definition per
  register models the architecturally zero-initialized state, so a use
  reached by it is a read of a register the program never wrote on some
  path (the linter's undefined-read rule).
* **Memory def-use with conservative may-alias** — memory locations
  are abstracted as ``(base register, offset)`` pairs, which name one
  address only while the base register keeps its value.  So a store
  kills an earlier access, and a same-base access counts as a
  different address from it, only when the earlier access is in the
  same basic block and its base register has not been redefined
  since: same offset is then the same address, a different offset a
  different one.  Everything else may alias — accesses through
  different base registers, accesses on either side of a base
  redefinition, and every store reaching from another block (or from
  an earlier iteration of the same block).  A load depends on every
  reaching store it may alias.
* **Liveness** — backward analysis over register use/def, used for the
  dead-store lint rule.

Everything is computed with bitsets (Python ints) over instruction
indices, so whole-program fixpoints on the largest workload kernels
take well under a millisecond.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa import REG_ZERO
from ..isa.instructions import INSTRUCTION_BYTES, Instruction
from ..isa.program import Program
from ..isa.registers import NUM_ARCH_REGS
from .cfg import CFG, build_cfg


@dataclass(frozen=True)
class MemLoc:
    """Abstract memory location: base register + byte offset."""

    base: int
    offset: int

    def may_alias(self, other: "MemLoc") -> bool:
        """Aliasing at one value of the base registers: only
        same-base/different-offset pairs are provably distinct."""
        if self.base == other.base:
            return self.offset == other.offset
        return True


def reg_uses(instr: Instruction) -> tuple[int, ...]:
    """Architectural registers read by ``instr`` (``r0`` excluded —
    it is hardwired zero, not a dataflow dependence)."""
    return tuple(r for r in instr.srcs if r != REG_ZERO)


def reg_def(instr: Instruction) -> int | None:
    """The architectural register written by ``instr``, if any
    (writes to ``r0`` are discarded by the machine)."""
    if instr.dst is None or instr.dst == REG_ZERO:
        return None
    return instr.dst


def mem_loc(instr: Instruction) -> MemLoc | None:
    """The abstract ``(base, offset)`` location of a memory op."""
    if instr.is_load:
        return MemLoc(instr.srcs[0], instr.imm or 0)
    if instr.is_store:
        return MemLoc(instr.srcs[1], instr.imm or 0)
    return None


@dataclass
class DataflowResult:
    """Def-use facts for one program, computed once to fixpoint."""

    program: Program
    cfg: CFG
    #: instruction index (position in ``program.instructions``) by PC.
    index_of: dict[int, int]
    #: per-instruction register def-use chains: for instruction ``i``,
    #: ``ud[i][r]`` holds the indices of instructions whose definition
    #: of register ``r`` may reach this use of ``r``.
    ud: list[dict[int, tuple[int, ...]]]
    #: per-load may-alias reaching stores: load index -> store indices.
    mem_ud: dict[int, tuple[int, ...]]
    #: ``(instruction index, register)`` uses reachable from entry that
    #: the synthetic uninitialized definition may reach.
    maybe_undefined: tuple[tuple[int, int], ...]
    #: ``(instruction index, register)`` definitions that are dead —
    #: no path uses the value before redefinition or program exit.
    dead_defs: tuple[tuple[int, int], ...]

    def instruction(self, index: int) -> Instruction:
        return self.program.instructions[index]


def analyze_dataflow(program: Program, cfg: CFG | None = None) -> DataflowResult:
    """Run all analyses over the reachable portion of ``program``."""
    cfg = cfg or build_cfg(program)
    instrs = program.instructions
    n = len(instrs)
    index_of = {ins.pc: i for i, ins in enumerate(instrs)}

    # --- definition id space: [0, n) instruction defs, [n, n+regs)
    # synthetic per-register entry defs.
    defs_by_reg: list[int] = [1 << (n + r) for r in range(NUM_ARCH_REGS)]
    store_locs: dict[int, MemLoc] = {}
    all_stores = 0
    # Stores by base register, and by identical ``(base, offset)``.
    stores_by_base: list[int] = [0] * NUM_ARCH_REGS
    must_alias_mask: dict[MemLoc, int] = {}
    for i, ins in enumerate(instrs):
        dst = reg_def(ins)
        if dst is not None:
            defs_by_reg[dst] |= 1 << i
        if ins.is_store:
            loc = mem_loc(ins)
            assert loc is not None
            store_locs[i] = loc
            all_stores |= 1 << i
            stores_by_base[loc.base] |= 1 << i
            must_alias_mask[loc] = must_alias_mask.get(loc, 0) | (1 << i)

    blocks = cfg.program.basic_blocks
    reachable = sorted(cfg.reachable)

    # --- per-block gen/kill for reaching definitions -------------------
    # A store never kills a definition reaching the block: its
    # ``(base, offset)`` is only comparable with accesses made earlier
    # in the same block under the same base value.  ``fresh`` holds the
    # block's stores whose base register is unchanged since they ran.
    gen: dict[int, int] = {}
    kill: dict[int, int] = {}
    for start in reachable:
        block = blocks[start]
        g = 0
        k = 0
        fresh = 0
        for pc in block.pcs():
            i = index_of[pc]
            ins = instrs[i]
            dst = reg_def(ins)
            if dst is not None:
                mask = defs_by_reg[dst]
                k |= mask
                g = (g & ~mask) | (1 << i)
                fresh &= ~stores_by_base[dst]
            elif ins.is_store:
                killed = fresh & must_alias_mask[store_locs[i]]
                g = (g & ~killed) | (1 << i)
                fresh = (fresh & ~killed) | (1 << i)
        gen[start] = g
        kill[start] = k

    entry_defs = 0
    for r in range(NUM_ARCH_REGS):
        entry_defs |= 1 << (n + r)

    rd_in: dict[int, int] = {start: 0 for start in reachable}
    rd_out: dict[int, int] = {
        start: gen[start] | (entry_defs if start == cfg.entry else 0)
        for start in reachable
    }
    rd_in[cfg.entry] = entry_defs
    rd_out[cfg.entry] = gen[cfg.entry] | (entry_defs & ~kill[cfg.entry])
    work = list(reachable)
    while work:
        start = work.pop()
        in_set = entry_defs if start == cfg.entry else 0
        for pred in cfg.predecessors.get(start, ()):
            if pred in rd_out:
                in_set |= rd_out[pred]
        out_set = gen[start] | (in_set & ~kill[start])
        rd_in[start] = in_set
        if out_set != rd_out[start]:
            rd_out[start] = out_set
            for succ in cfg.successors.get(start, ()):
                if succ in rd_in and succ not in work:
                    work.append(succ)

    # --- per-instruction use-def chains --------------------------------
    instr_mask = (1 << n) - 1
    ud: list[dict[int, tuple[int, ...]]] = [{} for _ in range(n)]
    mem_ud: dict[int, tuple[int, ...]] = {}
    maybe_undefined: list[tuple[int, int]] = []
    for start in reachable:
        block = blocks[start]
        current = rd_in[start]
        # Stores reaching the block entry: an instance from elsewhere
        # (or from an earlier pass through this block) may alias anything.
        incoming = current & all_stores
        fresh = 0
        for pc in block.pcs():
            i = index_of[pc]
            ins = instrs[i]
            for r in reg_uses(ins):
                reaching = current & defs_by_reg[r]
                if reaching >> (n + r) & 1:
                    maybe_undefined.append((i, r))
                defs = reaching & instr_mask
                if defs:
                    ud[i][r] = _bits(defs)
            if ins.is_load:
                loc = mem_loc(ins)
                assert loc is not None
                distinct = (
                    fresh
                    & ~incoming
                    & stores_by_base[loc.base]
                    & ~must_alias_mask.get(loc, 0)
                )
                stores = current & all_stores & ~distinct
                if stores:
                    mem_ud[i] = _bits(stores)
            dst = reg_def(ins)
            if dst is not None:
                current = (current & ~defs_by_reg[dst]) | (1 << i)
                fresh &= ~stores_by_base[dst]
            elif ins.is_store:
                killed = fresh & must_alias_mask[store_locs[i]]
                current = (current & ~(killed & ~incoming)) | (1 << i)
                fresh = (fresh & ~killed) | (1 << i)

    # --- liveness (backward) -------------------------------------------
    use_b: dict[int, int] = {}
    def_b: dict[int, int] = {}
    for start in reachable:
        block = blocks[start]
        used = 0
        defined = 0
        for pc in block.pcs():
            ins = instrs[index_of[pc]]
            for r in reg_uses(ins):
                if not (defined >> r) & 1:
                    used |= 1 << r
            dst = reg_def(ins)
            if dst is not None:
                defined |= 1 << dst
        use_b[start] = used
        def_b[start] = defined

    live_in: dict[int, int] = {start: use_b[start] for start in reachable}
    live_out: dict[int, int] = {start: 0 for start in reachable}
    changed = True
    while changed:
        changed = False
        for start in reversed(reachable):
            out = 0
            for succ in cfg.successors.get(start, ()):
                if succ in live_in:
                    out |= live_in[succ]
            inn = use_b[start] | (out & ~def_b[start])
            if out != live_out[start] or inn != live_in[start]:
                live_out[start] = out
                live_in[start] = inn
                changed = True

    dead_defs: list[tuple[int, int]] = []
    for start in reachable:
        block = blocks[start]
        live = live_out[start]
        for pc in range(block.end_pc, block.start_pc - 1, -INSTRUCTION_BYTES):
            i = index_of[pc]
            ins = instrs[i]
            dst = reg_def(ins)
            if dst is not None:
                if not (live >> dst) & 1 and not ins.is_branch:
                    # Calls (dst = ra) are control flow with their own
                    # liveness story; only data definitions are flagged.
                    dead_defs.append((i, dst))
                live &= ~(1 << dst)
            for r in reg_uses(ins):
                live |= 1 << r

    return DataflowResult(
        program=program,
        cfg=cfg,
        index_of=index_of,
        ud=ud,
        mem_ud=mem_ud,
        maybe_undefined=tuple(maybe_undefined),
        dead_defs=tuple(dead_defs),
    )


def _bits(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)
