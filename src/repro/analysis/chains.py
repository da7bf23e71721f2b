"""Static precomputation chains: construction, classification, soundness.

TEA discovers the dataflow chain feeding each H2P branch *dynamically*
(Fill Buffer sampling + Backward Dataflow Walk).  This module builds
the same chains *statically* on top of the CFG and dataflow analyses,
and is the one place that decides what a branch's static chain is and
how a dynamic walk is judged against it.  It uses the chains three
ways:

1. **Chain construction** — every reachable conditional branch's
   backward slice (the transitive closure over register and memory
   def-use) becomes a :class:`StaticChain`: the chain uop set and
   Block Cache-shaped masks (bit ``k`` of a block's mask set means
   instruction ``k`` of the block is in the chain, the shape the TEA
   Block Cache stores), live-in registers and memory locations,
   the maximum dataflow depth (longest path over the SCC-condensed
   dependence graph, so loop-carried induction cycles are handled),
   and a critical-path latency from the ISA class latencies.
2. **Branch classification** — the static analogue of the Constantinou
   et al. pre-screen: interval analysis (constant propagation with
   widening) proves some branches one-sided or loop exits with a known
   trip count (``trivially-predictable``); slices that close within
   the depth/size/load budgets are ``chainable``; indirect-dependent
   or over-budget slices are ``unchainable``.  The chainable set is
   exported as a per-branch allow mask for
   :attr:`~repro.tea.config.TeaConfig.branch_mask`.
3. **Runtime soundness oracle** — every Backward Dataflow Walk is
   replayed per initiating branch (the ``walk_done`` firehose) and
   checked against the static chain: marked uops must lie inside the
   slice, dynamically-observed live-in registers must be covered by
   the static live-ins (or produced inside the slice — the Fill Buffer
   window truncates chains), and the dynamic dataflow depth must stay
   within the static bound.  Violations are structured
   :class:`ChainUnsound` findings (``chain_unsound`` events, CI-gated
   to zero on every registered workload).  Each checked branch also
   reports its recall: the share of the static chain's PCs its
   attributed walks marked (low values just mean the Fill Buffer
   window is smaller than the whole chain).

A **timeliness cost model** scores each loop branch statically: the
shadow frontend sees the next iteration roughly one loop of fetch
ahead, so a chain is timely when its critical-path latency fits inside
``frontend_delay + loop_length / fetch_width``.  The verdicts are
reconciled against the measured ``tea_report`` lead times by
:func:`run_chain_oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Any, Iterable

from ..isa import REG_ZERO
from ..isa.instructions import CLASS_LATENCY, INSTRUCTION_BYTES, Instruction
from ..isa.program import Program
from ..isa.registers import NUM_ARCH_REGS
from ..obs.events import Event, EventBus
from ..tea.config import TeaConfig
from ..tea.fill_buffer import FillEntry, backward_dataflow_walk
from .cfg import CFG
from .dataflow import (
    DataflowResult,
    MemLoc,
    analyze_dataflow,
    mem_loc,
    reg_def,
    reg_uses,
)

CLASS_TRIVIAL = "trivially-predictable"
CLASS_CHAINABLE = "chainable"
CLASS_UNCHAINABLE = "unchainable"

#: Bounded-iteration cap for the static trip-count evaluation; loops
#: that do not close within this many iterations (wrong step direction,
#: zero step) report an unknown trip count.
_TRIP_COUNT_CAP = 1 << 20

#: Widening threshold: joins per block before changing bounds go to
#: +/-infinity (guarantees the interval fixpoint terminates).
_WIDEN_AFTER = 4


@dataclass(frozen=True)
class ChainBudgets:
    """Resource budgets separating chainable from unchainable slices."""

    #: Maximum chain size (static uops in the slice, branch included).
    max_uops: int = 64
    #: Maximum dataflow depth (longest SCC-condensed dependence path).
    max_depth: int = 24
    #: Maximum loads on any dependence path (pointer-chase cutoff).
    max_load_depth: int = 4
    #: Modeled load-to-use latency for the cost model (L1 hit; the
    #: LOAD class latency only covers address generation).
    load_latency: int = 4


# ----------------------------------------------------------------------
# Interval analysis (constant / value-range propagation)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """A closed integer interval; ``None`` bounds are unbounded."""

    lo: int | None
    hi: int | None

    @property
    def is_singleton(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    def hull(self, other: "Interval") -> "Interval":
        lo = None if self.lo is None or other.lo is None else min(self.lo, other.lo)
        hi = None if self.hi is None or other.hi is None else max(self.hi, other.hi)
        return Interval(lo, hi)

    def widen(self, newer: "Interval") -> "Interval":
        """Classic widening: a moving bound jumps straight to infinity."""
        lo = self.lo
        if newer.lo is None or (lo is not None and newer.lo < lo):
            lo = None
        hi = self.hi
        if newer.hi is None or (hi is not None and newer.hi > hi):
            hi = None
        return Interval(lo, hi)


TOP = Interval(None, None)
ZERO = Interval(0, 0)
BIT = Interval(0, 1)


def _add(a: Interval, b: Interval) -> Interval:
    lo = None if a.lo is None or b.lo is None else a.lo + b.lo
    hi = None if a.hi is None or b.hi is None else a.hi + b.hi
    return Interval(lo, hi)


def _sub(a: Interval, b: Interval) -> Interval:
    lo = None if a.lo is None or b.hi is None else a.lo - b.hi
    hi = None if a.hi is None or b.lo is None else a.hi - b.lo
    return Interval(lo, hi)


def _transfer(env: list[Interval], instr: Instruction) -> None:
    """Abstract semantics of one instruction over the register file.

    Only the integer ops the workloads use for loop control get precise
    transfer functions; everything else (loads, FP, divisions, ...)
    conservatively produces ``TOP``.
    """
    dst = instr.dst
    if dst is None or dst == REG_ZERO:
        return
    op = instr.opcode
    srcs = instr.srcs

    def src(i: int) -> Interval:
        r = srcs[i]
        return ZERO if r == REG_ZERO else env[r]

    imm = instr.imm or 0
    value = TOP
    if op == "li":
        value = Interval(imm, imm)
    elif op == "mov":
        value = src(0)
    elif op == "addi":
        value = _add(src(0), Interval(imm, imm))
    elif op == "subi":
        value = _sub(src(0), Interval(imm, imm))
    elif op == "add":
        value = _add(src(0), src(1))
    elif op == "sub":
        value = _sub(src(0), src(1))
    elif op in ("slt", "sltu", "slti", "fcmplt"):
        value = BIT
    elif op == "andi" and imm >= 0:
        value = Interval(0, imm)
    elif op == "min":
        a, b = src(0), src(1)
        lo = None if a.lo is None or b.lo is None else min(a.lo, b.lo)
        hi = None if a.hi is None or b.hi is None else min(a.hi, b.hi)
        value = Interval(lo, hi)
    elif op == "max":
        a, b = src(0), src(1)
        lo = None if a.lo is None or b.lo is None else max(a.lo, b.lo)
        hi = None if a.hi is None or b.hi is None else max(a.hi, b.hi)
        value = Interval(lo, hi)
    elif op in ("mul", "shli", "shri", "andi", "ori", "xori"):
        a = src(0)
        b = Interval(imm, imm) if op.endswith("i") else src(1)
        if a.is_singleton and b.is_singleton:
            assert a.lo is not None and b.lo is not None
            if op == "mul":
                v = a.lo * b.lo
            elif op == "shli":
                v = a.lo << b.lo
            elif op == "shri":
                v = a.lo >> b.lo
            elif op == "andi":
                v = a.lo & b.lo
            elif op == "ori":
                v = a.lo | b.lo
            else:
                v = a.lo ^ b.lo
            value = Interval(v, v)
    env[dst] = value


def _branch_environments(cfg: CFG) -> dict[int, list[Interval]]:
    """Register intervals holding immediately before each conditional
    branch, from a flow-sensitive fixpoint with widening.

    The entry state is all-zero (the machine's registers are
    architecturally zero-initialized, matching the dataflow module's
    synthetic entry definitions).
    """
    program = cfg.program
    blocks = cfg.blocks
    reachable = sorted(cfg.reachable)
    in_states: dict[int, list[Interval]] = {}
    join_counts: dict[int, int] = {}
    in_states[cfg.entry] = [ZERO] * NUM_ARCH_REGS

    def flow(start: int) -> list[Interval]:
        env = list(in_states[start])
        for pc in blocks[start].pcs():
            ins = program.instruction_at(pc)
            assert ins is not None
            _transfer(env, ins)
        return env

    work = [cfg.entry]
    on_work = {cfg.entry}
    while work:
        start = work.pop()
        on_work.discard(start)
        out = flow(start)
        for succ in cfg.successors.get(start, ()):
            if succ not in cfg.reachable:
                continue
            old = in_states.get(succ)
            if old is None:
                in_states[succ] = list(out)
                changed = True
            else:
                joined = [o.hull(n) for o, n in zip(old, out)]
                if join_counts.get(succ, 0) >= _WIDEN_AFTER:
                    joined = [o.widen(j) for o, j in zip(old, joined)]
                changed = joined != old
                if changed:
                    join_counts[succ] = join_counts.get(succ, 0) + 1
                    in_states[succ] = joined
            if changed and succ not in on_work:
                work.append(succ)
                on_work.add(succ)

    envs: dict[int, list[Interval]] = {}
    for start in reachable:
        if start not in in_states:
            continue
        term = cfg.terminator(start)
        if not term.is_conditional:
            continue
        env = list(in_states[start])
        for pc in blocks[start].pcs():
            ins = program.instruction_at(pc)
            assert ins is not None
            if ins is term:
                break
            _transfer(env, ins)
        envs[term.pc] = env
    return envs


def _compare(op: str, a: Interval, b: Interval) -> bool | None:
    """Decide ``op(a, b)`` over intervals: True/False if provable."""
    disjoint = (
        a.hi is not None and b.lo is not None and a.hi < b.lo
    ) or (b.hi is not None and a.lo is not None and b.hi < a.lo)
    if op == "beq":
        if a.is_singleton and b.is_singleton and a.lo == b.lo:
            return True
        return False if disjoint else None
    if op == "bne":
        if disjoint:
            return True
        if a.is_singleton and b.is_singleton and a.lo == b.lo:
            return False
        return None
    if op == "blt":
        if a.hi is not None and b.lo is not None and a.hi < b.lo:
            return True
        if a.lo is not None and b.hi is not None and a.lo >= b.hi:
            return False
        return None
    if op == "ble":
        if a.hi is not None and b.lo is not None and a.hi <= b.lo:
            return True
        if a.lo is not None and b.hi is not None and a.lo > b.hi:
            return False
        return None
    if op == "bge":
        inverse = _compare("blt", a, b)
        return None if inverse is None else not inverse
    if op == "bgt":
        inverse = _compare("ble", a, b)
        return None if inverse is None else not inverse
    return None


def _holds(op: str, a: int, b: int) -> bool:
    if op == "beq":
        return a == b
    if op == "bne":
        return a != b
    if op == "blt":
        return a < b
    if op == "ble":
        return a <= b
    if op == "bge":
        return a >= b
    if op == "bgt":
        return a > b
    raise ValueError(f"not a conditional opcode: {op!r}")


# ----------------------------------------------------------------------
# Dependence graph machinery (SCC condensation + weighted longest path)
# ----------------------------------------------------------------------

def _tarjan_sccs(
    nodes: list[int], edges: dict[int, list[int]]
) -> list[list[int]]:
    """Iterative Tarjan; SCCs come out in reverse topological order
    (every SCC is emitted before its predecessors)."""
    index: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        call: list[tuple[int, int]] = [(root, 0)]
        while call:
            node, child_i = call.pop()
            if child_i == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            succs = edges.get(node, [])
            for k in range(child_i, len(succs)):
                succ = succs[k]
                if succ not in index:
                    call.append((node, k + 1))
                    call.append((succ, 0))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            if call:
                parent = call[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                scc: list[int] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                sccs.append(scc)
    return sccs


def _condensed_longest_paths(
    nodes: list[int],
    edges: dict[int, list[int]],
    weight: dict[int, int],
) -> tuple[dict[int, int], dict[int, int], list[list[int]]]:
    """Longest weighted path *ending at* each node's SCC.

    Node weights are summed per SCC (a loop-carried dependence cycle
    counts once, with its full weight).  Returns ``(dist_by_node,
    comp_by_node, sccs)`` where ``dist_by_node[n]`` is the heaviest
    condensed path ending at ``n``'s component.
    """
    sccs = _tarjan_sccs(nodes, edges)
    comp: dict[int, int] = {}
    for cid, scc in enumerate(sccs):
        for node in scc:
            comp[node] = cid
    comp_weight = [sum(weight.get(n, 1) for n in scc) for scc in sccs]
    preds: dict[int, set[int]] = {}
    for u in nodes:
        for v in edges.get(u, []):
            cu, cv = comp[u], comp[v]
            if cu != cv:
                preds.setdefault(cv, set()).add(cu)
    # Tarjan order is reverse-topological, so descending component id
    # walks sources -> sinks; every predecessor (higher id) is final
    # by the time its successor is processed.
    dist = [0] * len(sccs)
    for cid in range(len(sccs) - 1, -1, -1):
        best = 0
        for p in preds.get(cid, ()):
            if dist[p] > best:
                best = dist[p]
        dist[cid] = best + comp_weight[cid]
    return {n: dist[comp[n]] for n in nodes}, comp, sccs


def _shortest_cycle_instrs(cfg: CFG, start: int) -> int | None:
    """Instructions on the shortest CFG cycle through block ``start``
    (``None`` when the block is not on any cycle)."""
    sizes = {s: len(list(b.pcs())) for s, b in cfg.blocks.items()}
    succ = cfg.successors
    if start in succ.get(start, ()):
        return sizes[start]
    dist: dict[int, int] = {}
    heap: list[tuple[int, int]] = []
    for s in succ.get(start, ()):
        if s == start or s not in cfg.reachable:
            continue
        d = sizes[s]
        if d < dist.get(s, 1 << 60):
            dist[s] = d
            heappush(heap, (d, s))
    best: int | None = None
    while heap:
        d, node = heappop(heap)
        if d > dist.get(node, 1 << 60):
            continue
        for s in succ.get(node, ()):
            if s == start:
                if best is None or d < best:
                    best = d
                continue
            nd = d + sizes[s]
            if nd < dist.get(s, 1 << 60):
                dist[s] = nd
                heappush(heap, (nd, s))
    return None if best is None else best + sizes[start]


# ----------------------------------------------------------------------
# Static chains
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class StaticChain:
    """The static precomputation chain of one conditional branch."""

    branch_pc: int
    line: int | None
    #: Chain membership (the branch's backward slice, branch included).
    pcs: frozenset[int]
    #: Block Cache-shaped masks: block start PC -> bit-mask over the
    #: block's instructions (bit k = instruction k is in the chain).
    masks: dict[int, int] = field(compare=False)
    #: Dependence edges inside the chain: producer PC -> consumer PCs.
    edges: dict[int, tuple[int, ...]] = field(compare=False)
    #: Registers the chain reads from outside itself (its live-ins).
    live_in_regs: frozenset[int]
    #: Registers written by chain instructions.
    written_regs: frozenset[int]
    #: Abstract locations of chain loads whose producing store is
    #: outside the chain (or statically unknown).
    mem_live_ins: tuple[MemLoc, ...]
    #: Longest dependence path, in instructions, over the SCC-condensed
    #: chain graph ending at the branch (loop-carried cycles count once
    #: with their full size) — the sound upper bound for any dynamic
    #: walk restricted to distinct chain PCs.
    depth: int
    #: Loads on the heaviest load path (pointer-chase depth).
    load_depth: int
    #: Critical-path issue latency of the chain (cycles), loads charged
    #: the modeled load-to-use latency.
    latency: int
    #: Registers updated by a simple induction (an ``addi``/``subi``
    #: self-cycle in the chain's dependence graph).
    induction_regs: frozenset[int]
    #: The chain crosses indirect control flow (a block ending in
    #: ``jr``/``callr``, or a conservative indirect target): its CFG
    #: edges, and therefore the chain, are approximate.
    has_indirect: bool
    #: At least one dependence flows through memory.
    through_memory: bool
    #: Interval analysis proved the branch always/never taken.
    one_sided: bool
    #: Constant trip count for a recognized induction loop exit.
    trip_count: int | None
    #: Instructions on the shortest CFG cycle through the branch's
    #: block (``None`` for non-loop branches).
    loop_length: int | None
    #: Static timeliness verdict (``None`` for non-loop branches).
    timely: bool | None
    #: Modeled lead: available cycles minus chain latency.
    lead_estimate: int | None
    classification: str
    reason: str

    @property
    def size(self) -> int:
        return len(self.pcs)

    def as_dict(self) -> dict[str, Any]:
        """Flat JSON-safe record (mask keys hex-encoded)."""
        return {
            "pc": self.branch_pc,
            "line": self.line,
            "size": self.size,
            "pcs": sorted(self.pcs),
            "depth": self.depth,
            "load_depth": self.load_depth,
            "latency": self.latency,
            "live_in_regs": sorted(self.live_in_regs),
            "mem_live_ins": [
                {"base": m.base, "offset": m.offset} for m in self.mem_live_ins
            ],
            "induction_regs": sorted(self.induction_regs),
            "has_indirect": self.has_indirect,
            "through_memory": self.through_memory,
            "one_sided": self.one_sided,
            "trip_count": self.trip_count,
            "loop_length": self.loop_length,
            "timely": self.timely,
            "lead_estimate": self.lead_estimate,
            "classification": self.classification,
            "reason": self.reason,
            "masks": {f"{s:#x}": m for s, m in sorted(self.masks.items())},
        }


@dataclass
class ProgramChains:
    """Every conditional branch's static chain for one program."""

    program: Program
    cfg: CFG
    dataflow: DataflowResult
    budgets: ChainBudgets
    chains: dict[int, StaticChain]

    def chain_at(self, pc: int) -> StaticChain | None:
        return self.chains.get(pc)

    def counts(self) -> dict[str, int]:
        out = {CLASS_TRIVIAL: 0, CLASS_CHAINABLE: 0, CLASS_UNCHAINABLE: 0}
        for chain in self.chains.values():
            out[chain.classification] += 1
        return out

    def allow_mask(self) -> tuple[int, ...]:
        """Branch PCs the TEA controller should spend chain slots on —
        the value for :attr:`TeaConfig.branch_mask`."""
        return tuple(
            sorted(
                pc
                for pc, chain in self.chains.items()
                if chain.classification == CLASS_CHAINABLE
            )
        )


def _trip_count(
    df: DataflowResult, branch: Instruction, envs: list[Interval]
) -> int | None:
    """Constant trip count of a recognized bottom-tested counted loop.

    The pattern is deliberately narrow so the claim is exact: the
    branch compares an induction register against a register whose
    interval is a compile-time singleton; the induction register's sole
    reaching definition is an ``addi``/``subi`` self-update *in the
    branch's own basic block* (so it executes exactly once per branch
    execution), initialized by a single ``li``.  The branch outcome
    sequence is then fully determined and its run length is evaluated
    directly (capped, so diverging loops report ``None``).
    """
    srcs = branch.srcs
    if len(srcs) != 2:
        return None
    program = df.program
    branch_block = program.block_containing(branch.pc)
    if branch_block is None:
        return None
    for var_pos in (0, 1):
        var = srcs[var_pos]
        bound_reg = srcs[1 - var_pos]
        bound_iv = ZERO if bound_reg == REG_ZERO else envs[bound_reg]
        if not bound_iv.is_singleton or var == REG_ZERO:
            continue
        assert bound_iv.lo is not None
        branch_i = df.index_of[branch.pc]
        defs = df.ud[branch_i].get(var)
        if defs is None or len(defs) != 1:
            continue
        d = defs[0]
        update = df.instruction(d)
        if update.opcode not in ("addi", "subi"):
            continue
        if update.srcs != (var,) or update.dst != var:
            continue
        if program.block_containing(update.pc) is not branch_block:
            continue
        if update.pc >= branch.pc:
            continue
        step = update.imm or 0
        if update.opcode == "subi":
            step = -step
        if step == 0:
            continue
        inits = [i for i in df.ud[d].get(var, ()) if i != d]
        if len(inits) != 1:
            continue
        init = df.instruction(inits[0])
        if init.opcode != "li":
            continue
        v = (init.imm or 0) + step
        bound = bound_iv.lo
        # Count how long the first branch outcome repeats; a constant
        # run length makes the branch trivially predictable.
        first = _holds(branch.opcode, *((v, bound) if var_pos == 0 else (bound, v)))
        count = 0
        while True:
            a, b = (v, bound) if var_pos == 0 else (bound, v)
            if _holds(branch.opcode, a, b) != first:
                return count
            count += 1
            if count > _TRIP_COUNT_CAP:
                return None
            v += step
    return None


def analyze_chains(
    program: Program,
    config: TeaConfig | None = None,
    budgets: ChainBudgets | None = None,
) -> ProgramChains:
    """Build and classify the static chain of every reachable
    conditional branch."""
    cfg_tea = config or TeaConfig()
    budgets = budgets or ChainBudgets()
    df = analyze_dataflow(program)
    cfg = df.cfg
    instrs = program.instructions
    reachable_pcs = {
        pc for start in cfg.reachable for pc in cfg.blocks[start].pcs()
    }
    envs_by_branch = _branch_environments(cfg)

    chains: dict[int, StaticChain] = {}
    loop_cache: dict[int, int | None] = {}
    for branch_i, branch in enumerate(instrs):
        if not (branch.is_conditional and branch.pc in reachable_pcs):
            continue
        branch_pc = branch.pc

        # Backward closure over register + memory def-use from the
        # branch; every producer of a member is a member, so the
        # producer -> consumer edges fall out of the same pass.
        member_set = {branch_i}
        work = [branch_i]
        consumers: dict[int, set[int]] = {}
        through_memory = False
        while work:
            i = work.pop()
            producers = [d for defs in df.ud[i].values() for d in defs]
            stores = df.mem_ud.get(i, ())
            if stores:
                through_memory = True
                producers.extend(stores)
            for producer in producers:
                consumers.setdefault(producer, set()).add(i)
                if producer not in member_set:
                    member_set.add(producer)
                    work.append(producer)
        members = sorted(member_set)
        edges = {p: sorted(c) for p, c in sorted(consumers.items())}

        pcs = frozenset(instrs[i].pc for i in members)
        masks: dict[int, int] = {}
        has_indirect = False
        for pc in pcs:
            block = program.block_containing(pc)
            assert block is not None
            start = block.start_pc
            offset = (pc - start) // INSTRUCTION_BYTES
            masks[start] = masks.get(start, 0) | (1 << offset)
            if start in cfg.indirect_blocks or start in cfg.indirect_targets:
                has_indirect = True

        ones = {i: 1 for i in members}
        load_w = {i: (1 if instrs[i].is_load else 0) for i in members}
        lat_w = {
            i: CLASS_LATENCY[instrs[i].uop_class]
            + (budgets.load_latency if instrs[i].is_load else 0)
            for i in members
        }
        depth_by_node, comp, sccs = _condensed_longest_paths(members, edges, ones)
        load_by_node, _, _ = _condensed_longest_paths(members, edges, load_w)
        lat_by_node, _, _ = _condensed_longest_paths(members, edges, lat_w)
        depth = depth_by_node[branch_i]
        load_depth = load_by_node[branch_i]
        latency = lat_by_node[branch_i]

        induction: set[int] = set()
        for scc in sccs:
            if all(
                instrs[i].opcode in ("addi", "subi", "add", "sub", "mov")
                for i in scc
            ) and (len(scc) > 1 or scc[0] in edges.get(scc[0], [])):
                for i in scc:
                    r = reg_def(instrs[i])
                    if r is not None:
                        induction.add(r)

        # Live-ins: uses whose reaching definitions are not all inside
        # the slice (including the synthetic zero-initialized entry
        # state, which has no instruction index at all).
        live_in: set[int] = set()
        written: set[int] = set()
        mem_live: list[MemLoc] = []
        undefined = set(df.maybe_undefined)
        for i in members:
            ins = instrs[i]
            r_def = reg_def(ins)
            if r_def is not None:
                written.add(r_def)
            for r in reg_uses(ins):
                defs = df.ud[i].get(r, ())
                if (
                    not defs
                    or any(d not in member_set for d in defs)
                    or (i, r) in undefined
                ):
                    live_in.add(r)
            if ins.is_load:
                stores = df.mem_ud.get(i, ())
                if not stores or any(s not in member_set for s in stores):
                    loc = mem_loc(ins)
                    assert loc is not None
                    mem_live.append(loc)

        envs = envs_by_branch.get(branch_pc)
        one_sided = False
        trip_count: int | None = None
        if envs is not None:
            a = ZERO if branch.srcs[0] == REG_ZERO else envs[branch.srcs[0]]
            b = ZERO if branch.srcs[1] == REG_ZERO else envs[branch.srcs[1]]
            one_sided = _compare(branch.opcode, a, b) is not None
            if not one_sided:
                trip_count = _trip_count(df, branch, envs)

        block = program.block_containing(branch_pc)
        assert block is not None
        start = block.start_pc
        if start not in loop_cache:
            loop_cache[start] = _shortest_cycle_instrs(cfg, start)
        loop_length = loop_cache[start]
        timely: bool | None = None
        lead_estimate: int | None = None
        if loop_length is not None:
            available = cfg_tea.frontend_delay + -(
                -loop_length // cfg_tea.fetch_width
            )
            lead_estimate = available - latency
            timely = lead_estimate > 0

        if has_indirect:
            classification, reason = (
                CLASS_UNCHAINABLE,
                "slice crosses indirect control flow",
            )
        elif one_sided:
            classification, reason = (
                CLASS_TRIVIAL,
                "range analysis proves the branch one-sided",
            )
        elif trip_count is not None:
            classification, reason = (
                CLASS_TRIVIAL,
                f"counted loop exit (trip count {trip_count})",
            )
        elif len(members) > budgets.max_uops:
            classification, reason = (
                CLASS_UNCHAINABLE,
                f"slice size {len(members)} exceeds budget {budgets.max_uops}",
            )
        elif load_depth > budgets.max_load_depth:
            classification, reason = (
                CLASS_UNCHAINABLE,
                f"load chain depth {load_depth} exceeds budget "
                f"{budgets.max_load_depth}",
            )
        elif depth > budgets.max_depth:
            classification, reason = (
                CLASS_UNCHAINABLE,
                f"dataflow depth {depth} exceeds budget {budgets.max_depth}",
            )
        else:
            classification, reason = CLASS_CHAINABLE, "slice closes within budgets"

        pc_edges = {
            instrs[p].pc: tuple(instrs[c].pc for c in cs)
            for p, cs in edges.items()
        }
        chains[branch_pc] = StaticChain(
            branch_pc=branch_pc,
            line=branch.line,
            pcs=pcs,
            masks=masks,
            edges=pc_edges,
            live_in_regs=frozenset(live_in),
            written_regs=frozenset(written),
            mem_live_ins=tuple(mem_live),
            depth=depth,
            load_depth=load_depth,
            latency=latency,
            induction_regs=frozenset(induction),
            has_indirect=has_indirect,
            through_memory=through_memory,
            one_sided=one_sided,
            trip_count=trip_count,
            loop_length=loop_length,
            timely=timely,
            lead_estimate=lead_estimate,
            classification=classification,
            reason=reason,
        )
    return ProgramChains(
        program=program,
        cfg=cfg,
        dataflow=df,
        budgets=budgets,
        chains=chains,
    )


# ----------------------------------------------------------------------
# Runtime soundness oracle
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ChainUnsound:
    """One runtime chain that escaped its static bound."""

    branch_pc: int
    #: ``uop_not_in_slice`` | ``live_in_uncovered`` | ``depth_exceeded``
    kind: str
    detail: dict[str, Any] = field(compare=False)

    def as_dict(self) -> dict[str, Any]:
        return {"pc": self.branch_pc, "kind": self.kind, **self.detail}


def check_chain(
    chain: StaticChain,
    entries: list[FillEntry],
    marked: list[bool],
) -> list[ChainUnsound]:
    """Check one attributed dynamic chain against its static chain.

    ``marked`` flags the Fill Buffer entries the walk attributed to
    ``chain.branch_pc`` (entries are in retirement order, oldest
    first).  Three independent soundness obligations:

    * every marked PC lies inside the static slice;
    * every dynamically live-in register (read before any older marked
      entry produced it) is a static live-in *or* produced by the
      slice — the Fill Buffer window may truncate the chain's prefix;
    * the dynamic dataflow depth over distinct marked PCs stays within
      the static SCC-condensed bound.
    """
    findings: list[ChainUnsound] = []
    marked_pcs: set[int] = set()
    produced: set[int] = set()
    dyn_live: set[int] = set()
    for entry, flag in zip(entries, marked):
        if not flag:
            continue
        marked_pcs.add(entry.pc)
        for r in entry.srcs:
            if r != REG_ZERO and r not in produced:
                dyn_live.add(r)
        if entry.dst is not None:
            produced.add(entry.dst)

    extra = marked_pcs - chain.pcs
    if extra:
        findings.append(
            ChainUnsound(
                branch_pc=chain.branch_pc,
                kind="uop_not_in_slice",
                detail={"pcs": sorted(extra)},
            )
        )
    uncovered = dyn_live - chain.live_in_regs - chain.written_regs
    if uncovered:
        findings.append(
            ChainUnsound(
                branch_pc=chain.branch_pc,
                kind="live_in_uncovered",
                detail={"regs": sorted(uncovered)},
            )
        )
    inside = sorted(marked_pcs & chain.pcs)
    if inside:
        sub_edges = {
            p: [c for c in consumers if c in marked_pcs]
            for p, consumers in chain.edges.items()
            if p in marked_pcs
        }
        dist, _, _ = _condensed_longest_paths(
            inside, sub_edges, {pc: 1 for pc in inside}
        )
        dyn_depth = max(dist.values())
        if dyn_depth > chain.depth:
            findings.append(
                ChainUnsound(
                    branch_pc=chain.branch_pc,
                    kind="depth_exceeded",
                    detail={"dynamic": dyn_depth, "static": chain.depth},
                )
            )
    return findings


def verify_walks(
    chains: ProgramChains,
    walks: Iterable[list[FillEntry]],
    config: TeaConfig,
    bus: EventBus | None = None,
) -> dict[str, Any]:
    """Replay every walk (its Fill Buffer entries) per initiating
    branch and verify soundness.

    Walks initiated by branches without a static chain (indirect
    branches — ``ret``/``jr`` are H2P-eligible but not conditional)
    are counted as skipped, not unsound.  Each checked branch gets a
    record with its attributed walks, findings and recall (the share
    of its static chain's PCs those walks marked).
    """
    findings: list[ChainUnsound] = []
    checked: dict[int, int] = {}
    marked_by_pc: dict[int, set[int]] = {}
    skipped_no_slice = 0
    walk_count = 0
    for entries in walks:
        walk_count += 1
        initiators = {e.pc for e in entries if e.is_h2p_branch}
        for pc in sorted(initiators):
            chain = chains.chain_at(pc)
            if chain is None:
                skipped_no_slice += 1
                continue
            replay = backward_dataflow_walk(entries, config, initiator_pc=pc)
            if not any(replay.marked):
                continue
            checked[pc] = checked.get(pc, 0) + 1
            marked_by_pc.setdefault(pc, set()).update(
                e.pc for e, flag in zip(entries, replay.marked) if flag
            )
            for finding in check_chain(chain, entries, replay.marked):
                findings.append(finding)
                if bus is not None:
                    bus.emit("chain_unsound", pc=pc, **{
                        k: v for k, v in finding.as_dict().items() if k != "pc"
                    })
    branches: list[dict[str, Any]] = []
    for pc in sorted(checked):
        chain_pcs = chains.chains[pc].pcs
        record: dict[str, Any] = {
            "pc": pc,
            "walks": checked[pc],
            "unsound": sum(1 for f in findings if f.branch_pc == pc),
            "recall": len(marked_by_pc[pc] & chain_pcs) / len(chain_pcs),
        }
        branches.append(record)
        if bus is not None:
            bus.emit("chain_oracle", **record)
    return {
        "findings": [f.as_dict() for f in findings],
        "unsound_total": len(findings),
        "branches_checked": len(checked),
        "walks_checked": sum(checked.values()),
        "walks_captured": walk_count,
        "skipped_no_slice": skipped_no_slice,
        "branches": branches,
    }


# ----------------------------------------------------------------------
# Timeliness reconciliation + CLI/CI driver
# ----------------------------------------------------------------------

def reconcile_timeliness(
    chains: ProgramChains,
    leads_by_pc: dict[int, list[int]],
    min_samples: int = 10,
) -> dict[str, Any]:
    """Compare static timely/untimely verdicts with measured leads.

    A branch is *measured timely* when at least half of its observed
    lead times are positive (the ``tea_report`` convention: positive
    lead = resolved before the main branch's fetch).  Only branches
    with a static verdict (loop branches) and ``min_samples`` measured
    resolutions participate.
    """
    rows: list[dict[str, Any]] = []
    agree = 0
    for pc, leads in sorted(leads_by_pc.items()):
        chain = chains.chain_at(pc)
        if chain is None or chain.timely is None or len(leads) < min_samples:
            continue
        timely_frac = sum(1 for lead in leads if lead > 0) / len(leads)
        measured = timely_frac >= 0.5
        matches = measured == chain.timely
        agree += matches
        rows.append(
            {
                "pc": pc,
                "samples": len(leads),
                "measured_timely": measured,
                "measured_fraction": timely_frac,
                "static_timely": chain.timely,
                "lead_estimate": chain.lead_estimate,
                "agree": matches,
            }
        )
    return {
        "branches": rows,
        "compared": len(rows),
        "agreement": (agree / len(rows)) if rows else None,
    }


def build_chain_report(
    chains: ProgramChains, workload: str | None = None
) -> dict[str, Any]:
    """JSON-safe static report (``repro chains``)."""
    return {
        "workload": workload,
        "counts": chains.counts(),
        "conditional_branches": len(chains.chains),
        "allow_mask": list(chains.allow_mask()),
        "budgets": {
            "max_uops": chains.budgets.max_uops,
            "max_depth": chains.budgets.max_depth,
            "max_load_depth": chains.budgets.max_load_depth,
            "load_latency": chains.budgets.load_latency,
        },
        "branches": [
            chain.as_dict() for _, chain in sorted(chains.chains.items())
        ],
    }


def run_chain_oracle(
    workload: str,
    scale: str = "tiny",
    mode: str = "tea",
    use_mask: bool = False,
) -> dict[str, Any]:
    """Run one workload under a TEA mode and verify every chain.

    Returns the static report extended with the runtime soundness
    verdicts and the timeliness reconciliation.  With ``use_mask`` the
    run itself consults the static allow mask (chainable branches
    only).  Harness imports are function-level: the analysis layer sits
    below the harness and only this entry point drives a simulation.
    """
    from dataclasses import replace

    from ..harness.runner import make_config, run_workload
    from ..obs import Observation
    from ..workloads import make_workload

    config = make_config(mode)
    if config.tea is None:
        raise ValueError(f"mode {mode!r} has no TEA thread to observe")
    bundle = make_workload(workload, scale)
    chains = analyze_chains(bundle.program, config=config.tea)
    if use_mask:
        config = replace(
            config, tea=replace(config.tea, branch_mask=chains.allow_mask())
        )
    observation = Observation(record_events=False)
    walks: list[list[FillEntry]] = []
    leads_by_pc: dict[int, list[int]] = {}

    def on_walk_done(event: Event) -> None:
        walks.append(event.data["entries"])

    def on_resolved(event: Event) -> None:
        lead = event.data.get("lead")
        if lead is not None:
            leads_by_pc.setdefault(event.pc, []).append(lead)

    observation.bus.subscribe(on_walk_done, ("walk_done",))
    observation.bus.subscribe(on_resolved, ("branch_resolved",))
    result = run_workload(
        bundle, mode, scale, observe=observation,
        config=config if use_mask else None,
    )
    report = build_chain_report(chains, workload=bundle.name)
    report["mode"] = mode
    report["scale"] = scale
    report["masked"] = use_mask
    report["ipc"] = result.stats.ipc
    report["soundness"] = verify_walks(
        chains, walks, config.tea, observation.bus
    )
    report["timeliness"] = reconcile_timeliness(chains, leads_by_pc)
    return report


def render_chain_report(report: dict[str, Any]) -> str:
    """Human-readable table for ``repro chains``."""
    counts = report["counts"]
    lines = [
        f"static chains: {report.get('workload', '?')}"
        + (
            f" under {report['mode']} ({report.get('scale', '?')} scale)"
            if "mode" in report
            else ""
        ),
        f"{'branch':>10s} {'line':>5s} {'size':>5s} {'depth':>6s} "
        f"{'loads':>6s} {'lat':>4s} {'loop':>5s} {'timely':>7s}  class",
    ]
    for rec in report["branches"]:
        timely = "-" if rec["timely"] is None else ("yes" if rec["timely"] else "no")
        lines.append(
            f"{rec['pc']:>#10x} {str(rec['line'] or '-'):>5s} "
            f"{rec['size']:>5d} {rec['depth']:>6d} {rec['load_depth']:>6d} "
            f"{rec['latency']:>4d} {str(rec['loop_length'] or '-'):>5s} "
            f"{timely:>7s}  {rec['classification']} ({rec['reason']})"
        )
    lines.append(
        f"{report['conditional_branches']} conditional branches: "
        f"{counts[CLASS_TRIVIAL]} trivially-predictable, "
        f"{counts[CLASS_CHAINABLE]} chainable, "
        f"{counts[CLASS_UNCHAINABLE]} unchainable"
    )
    soundness = report.get("soundness")
    if soundness is not None:
        lines.append(
            f"soundness: {soundness['unsound_total']} unsound finding(s) over "
            f"{soundness['walks_checked']} attributed walks "
            f"({soundness['branches_checked']} branches, "
            f"{soundness['skipped_no_slice']} indirect initiators skipped)"
        )
        recalls = [rec["recall"] for rec in soundness["branches"]]
        if recalls:
            mean = sum(recalls) / len(recalls)
            lines.append(
                f"recall: attributed walks marked {mean:.2f} of a checked "
                f"chain's PCs on average"
            )
        for finding in soundness["findings"]:
            lines.append(f"  UNSOUND {finding['pc']:#x}: {finding['kind']}")
    timeliness = report.get("timeliness")
    if timeliness is not None and timeliness["compared"]:
        lines.append(
            f"timeliness: static vs measured agreement "
            f"{timeliness['agreement']:.2f} over {timeliness['compared']} "
            f"branches with >=10 resolutions"
        )
    return "\n".join(lines)
