"""Return Address Stack with O(1) checkpointing.

The RAS is speculatively updated by the decoupled predictor, so every
predicted branch needs a recoverable snapshot.  We implement the stack
as a persistent (immutable, structurally shared) linked list: a
snapshot is just the current node reference, and restoring after a
misprediction flush is a single assignment — mirroring how real designs
checkpoint the RAS top pointer.

Depth is bounded; pushes past the bound drop the oldest entry (the
persistent list is simply truncated lazily by ignoring depth overflow,
which matches wrap-around behaviour closely enough for prediction).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class _Node:
    address: int
    below: "_Node | None"
    depth: int


class ReturnAddressStack:
    """Speculative RAS with persistent-snapshot recovery."""

    def __init__(self, max_depth: int = 32):
        self.max_depth = max_depth
        #: The top node.  Nodes are immutable, so this reference is a
        #: complete snapshot of the stack.
        self.top: _Node | None = None
        self.pushes = 0
        self.pops = 0
        self.underflows = 0

    def push(self, return_address: int) -> None:
        depth = (self.top.depth + 1) if self.top else 1
        self.top = _Node(return_address, self.top, depth)
        self.pushes += 1
        if depth > self.max_depth:
            # Drop the bottom entry: rebuild without the oldest node.
            nodes = []
            node = self.top
            while node is not None:
                nodes.append(node.address)
                node = node.below
            rebuilt: _Node | None = None
            for i, addr in enumerate(reversed(nodes[:-1]), start=1):
                rebuilt = _Node(addr, rebuilt, i)
            self.top = rebuilt

    def pop(self) -> int | None:
        """Pop the predicted return address (None on underflow)."""
        self.pops += 1
        if self.top is None:
            self.underflows += 1
            return None
        address = self.top.address
        self.top = self.top.below
        return address

    def peek(self) -> int | None:
        return self.top.address if self.top else None

    @property
    def depth(self) -> int:
        return self.top.depth if self.top else 0

    def snapshot(self) -> "_Node | None":
        return self.top

    def restore(self, snap: "_Node | None") -> None:
        self.top = snap
