"""Branch Target Buffer.

4k-entry set-associative tag array (paper Table I).  In a decoupled
frontend the BTB's job is to tell the predictor *that* a branch exists
at a PC before decode; our model walks the actual program image, so the
BTB instead gates taken predictions: a conditional or indirect branch
that misses the BTB is forced to a not-taken (fallthrough) prediction
and the resulting misprediction trains the BTB at resolution.  Direct
unconditional jumps/calls are decode-resolvable and are not gated.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


@dataclass(frozen=True)
class BtbConfig:
    entries: int = 4096
    ways: int = 4


class Btb:
    """Set-associative branch target buffer (presence + target)."""

    def __init__(self, config: BtbConfig | None = None):
        self.config = config or BtbConfig()
        self.num_sets = self.config.entries // self.config.ways
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("BTB set count must be a power of two")
        self._sets: list[OrderedDict[int, int]] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        self.hits = 0
        self.misses = 0

    def _locate(self, pc: int) -> tuple[OrderedDict[int, int], int]:
        word = pc >> 2
        return self._sets[word & (self.num_sets - 1)], word

    def lookup(self, pc: int) -> int | None:
        """Return the cached target for the branch at ``pc`` (or None)."""
        word = pc >> 2
        cset = self._sets[word & (self.num_sets - 1)]
        target = cset.get(word)
        if target is None:
            self.misses += 1
            return None
        cset.move_to_end(word)
        self.hits += 1
        return target

    def install(self, pc: int, target: int) -> None:
        """Record a branch and its most recent taken target."""
        cset, tag = self._locate(pc)
        if tag in cset:
            cset[tag] = target
            cset.move_to_end(tag)
            return
        if len(cset) >= self.config.ways:
            cset.popitem(last=False)
        cset[tag] = target
