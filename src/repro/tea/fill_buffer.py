"""Fill Buffer and Backward Dataflow Walk (paper §III-A, §IV-C).

The Fill Buffer samples retired uops in program order.  When full, a
Backward Dataflow Walk runs from the youngest entry toward the oldest,
maintaining a *Source List* — a register bit-vector plus a small
bounded buffer of memory word addresses — and marking every uop that
produces a value the marked set consumes:

* An H2P branch (or, with the masks feature, a uop that was fetched by
  the TEA thread — the paper's §III-C re-seeding) *initiates*: it is
  marked and its sources join the Source List.
* A uop that writes a register/memory word in the Source List is
  marked; its destination leaves the list and its sources join it.
  Marked loads add their word address (memory tracing feature); marked
  stores remove theirs.

The walk is pure: it returns the marked flags and the index where it
stopped, letting the controller model the ~500-cycle walk duration and
apply Block Cache updates at walk completion.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..memory.memory_image import align_word
from .config import TeaConfig


@dataclass(frozen=True, slots=True)
class FillEntry:
    """One retired uop as recorded in the Fill Buffer (16B in paper)."""

    pc: int
    dst: int | None
    srcs: tuple[int, ...]
    is_load: bool
    is_store: bool
    mem_addr: int | None
    is_h2p_branch: bool
    chain_seed: bool      # was fetched by the TEA thread (bit-mask hit)
    bb_start: int
    bb_offset: int        # instruction index within the basic block


class _MemSourceBuffer:
    """Bounded FIFO set of word addresses (the 16-entry mem buffer)."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._words: OrderedDict[int, bool] = OrderedDict()
        self.overflows = 0

    def add(self, addr: int) -> None:
        word = align_word(addr)
        if word in self._words:
            self._words.move_to_end(word)
            return
        if len(self._words) >= self.capacity:
            self._words.popitem(last=False)
            self.overflows += 1
        self._words[word] = True

    def discard(self, addr: int) -> None:
        self._words.pop(align_word(addr), None)

    def __contains__(self, addr: int) -> bool:
        return align_word(addr) in self._words

    def __len__(self) -> int:
        return len(self._words)


@dataclass
class WalkResult:
    """Outcome of one Backward Dataflow Walk."""

    marked: list[bool]
    stop_index: int       # oldest index examined (inclusive)
    initiations: int
    marked_count: int


def backward_dataflow_walk(
    entries: list[FillEntry],
    config: TeaConfig,
    initiator_pc: int | None = None,
) -> WalkResult:
    """Run the Backward Dataflow Walk over a full Fill Buffer.

    With ``initiator_pc`` set, *only* H2P entries at that PC initiate
    (and §III-C chain-seed re-seeding is disabled): the walk computes
    the dependence chain attributable to that single branch.  This is
    the replay mode the chain oracle (``repro chains --oracle``,
    :func:`repro.analysis.chains.verify_walks`) uses to judge each
    branch's walks against its static chain; the default ``None`` is
    the production walk, bit-for-bit unchanged.
    """
    n = len(entries)
    marked = [False] * n
    reg_sources = 0
    mem_sources = _MemSourceBuffer(config.mem_source_entries)
    seen_h2p: set[int] = set()
    initiations = 0
    stop_index = 0

    def add_sources(entry: FillEntry) -> None:
        nonlocal reg_sources
        if entry.dst is not None:
            reg_sources &= ~(1 << entry.dst)
        for reg in entry.srcs:
            reg_sources |= 1 << reg
        if entry.is_load and config.trace_memory and entry.mem_addr is not None:
            mem_sources.add(entry.mem_addr)
        if entry.is_store and config.trace_memory and entry.mem_addr is not None:
            mem_sources.discard(entry.mem_addr)

    index = n - 1
    while index >= 0:
        entry = entries[index]
        stop_index = index
        is_initiator_site = entry.is_h2p_branch and (
            initiator_pc is None or entry.pc == initiator_pc
        )
        if is_initiator_site and config.only_loops:
            if entry.pc in seen_h2p:
                # "only loops": chains span at most one iteration —
                # stop at the previous instance of an H2P branch.
                break
            seen_h2p.add(entry.pc)
        if initiator_pc is None:
            initiate = entry.is_h2p_branch or (config.use_masks and entry.chain_seed)
        else:
            initiate = is_initiator_site
        if initiate:
            marked[index] = True
            initiations += 1
            add_sources(entry)
            index -= 1
            continue
        writes_reg = entry.dst is not None and (reg_sources >> entry.dst) & 1
        writes_mem = (
            entry.is_store
            and config.trace_memory
            and entry.mem_addr is not None
            and entry.mem_addr in mem_sources
        )
        if writes_reg or writes_mem:
            marked[index] = True
            add_sources(entry)
        index -= 1

    marked_count = sum(marked)
    return WalkResult(marked, stop_index, initiations, marked_count)


class FillBuffer:
    """Retired-uop sampling buffer feeding the walk."""

    def __init__(self, config: TeaConfig | None = None):
        self.config = config or TeaConfig()
        self.entries: list[FillEntry] = []
        self.walks_performed = 0

    def __len__(self) -> int:
        return len(self.entries)

    def full(self) -> bool:
        return len(self.entries) >= self.config.fill_buffer_size

    def insert(self, entry: FillEntry) -> None:
        self.entries.append(entry)

    def run_walk(self) -> tuple[list[FillEntry], WalkResult]:
        """Walk the (full) buffer; returns entries + result and clears."""
        entries = self.entries
        result = backward_dataflow_walk(entries, self.config)
        self.entries = []
        self.walks_performed += 1
        return entries, result
