"""Speculative global branch history shared by TAGE, SC, and ITTAGE.

The decoupled branch predictor updates this history *speculatively* as
it predicts down the (possibly wrong) path.  Each predicted branch
snapshots the history into its in-flight branch queue entry; a
misprediction flush restores the snapshot and re-applies the correct
outcome — this is the paper's "fix the branch predictor history" step.

Geometric-history predictors need the global history *folded* down to
table-index width: fold ``(length, width)`` is
:func:`fold_history` ``(ghr, length, width)``, the XOR of the
``width``-bit chunks of the newest ``length`` history bits.  Refolding
a 256-bit history per prediction would dominate the simulator, so —
like the hardware — the folds are kept *incrementally* (Seznec's
circular-shift folding): a push rotates each fold left by one, XORs in
the new bit at position 0 and XORs out the bit leaving the window at
position ``length % width``.  That update keeps each fold equal to
:func:`fold_history` of the current GHR, so it is the same function,
not merely an equivalent hash.

All folds live in one integer, :attr:`HistoryState.folds`: fold ``k``
(the ``k``-th :meth:`~HistoryState.register_fold`) occupies lane ``k``,
bits ``[k * LANE_BITS, (k + 1) * LANE_BITS)``, with its value in the
low ``width`` bits and a guard bit at ``width``.  One push updates
every lane with a constant number of big-int operations (see
:meth:`HistoryState.push_conditional`), a recovery snapshot is three
ints, and consumers can read their lanes — or compute over many lanes
at once, as TAGE does — straight from the packed word.
"""

from __future__ import annotations

MAX_HISTORY_BITS = 512
PATH_HISTORY_BITS = 32

#: Bits per fold lane: a fold of width ``w`` needs ``w`` value bits
#: plus the guard bit its rotation shifts into, so widths up to
#: ``LANE_BITS - 1`` fit.  Sixteen makes a lane an unsigned short, so
#: a run of lanes unpacks with one :mod:`struct` call.
LANE_BITS = 16

_GHR_MASK = (1 << MAX_HISTORY_BITS) - 1
_PATH_MASK = (1 << PATH_HISTORY_BITS) - 1
_LANE_MASK = (1 << LANE_BITS) - 1

#: GHR positions per outgoing-bit gather table (2**7 entries each).
_GATHER_POSITIONS = 7


class HistoryState:
    """Global direction history + path history + packed folds."""

    __slots__ = (
        "ghr", "path", "folds", "_specs",
        "_lsbs", "_value_mask", "_wraps", "_out_bits", "_gathers",
    )

    def __init__(self, ghr: int = 0, path: int = 0):
        self.ghr = ghr
        self.path = path
        #: Packed folds, one lane per registered ``(length, width)``.
        self.folds = 0
        self._specs: list[tuple[int, int]] = []  # (length, width) by lane
        self._derive()

    # -- fold registry ---------------------------------------------------
    def register_fold(self, length: int, width: int) -> int:
        """Register a folded history ``(length, width)``; returns its lane.

        Must be called before any history is pushed (predictor
        construction time).  A fold may look no further back than the
        GHR holds, and its width must leave room for the lane's guard
        bit.
        """
        if self.ghr:
            raise ValueError("register_fold() requires pristine history")
        if length <= 0 or width <= 0:
            raise ValueError("fold length and width must be positive")
        if length > MAX_HISTORY_BITS:
            raise ValueError(
                f"fold length {length} exceeds the {MAX_HISTORY_BITS}-bit "
                "global history"
            )
        if width >= LANE_BITS:
            raise ValueError(
                f"fold width {width} does not fit a {LANE_BITS}-bit lane "
                f"(max {LANE_BITS - 1})"
            )
        self._specs.append((length, width))
        self._derive()
        return len(self._specs) - 1

    def _derive(self) -> None:
        """Rebuild the push constants from the registered specs."""
        lsbs = value_mask = 0
        guards: dict[int, int] = {}
        out_bits: dict[int, int] = {}
        for lane, (length, width) in enumerate(self._specs):
            base = lane * LANE_BITS
            lsbs |= 1 << base
            value_mask |= ((1 << width) - 1) << base
            guards[width] = guards.get(width, 0) | (1 << (base + width))
            # The GHR bit about to leave this window (bit length-1),
            # and where it sits in the fold after the rotation.
            out_bits[length - 1] = out_bits.get(length - 1, 0) | (
                1 << (base + length % width)
            )
        self._lsbs = lsbs
        self._value_mask = value_mask
        self._wraps = tuple((mask, width) for width, mask in guards.items())
        self._out_bits = out_bits
        self._gathers: tuple[tuple[int, dict[int, int]], ...] | None = None

    def _build_gathers(self) -> tuple[tuple[int, dict[int, int]], ...]:
        """Tables from GHR bits to the outgoing-bit XOR term.

        The distinct ``length - 1`` positions are split into groups of
        :data:`_GATHER_POSITIONS`; each group maps ``ghr & group_mask``
        to the XOR of the lane bits its set positions leave, so a push
        gathers every outgoing bit with one lookup per group.  Built on
        the first push, once every predictor has registered.
        """
        positions = sorted(self._out_bits)
        gathers = []
        for start in range(0, len(positions), _GATHER_POSITIONS):
            mask = 0
            table = {0: 0}
            for position in positions[start:start + _GATHER_POSITIONS]:
                bit = 1 << position
                lanes = self._out_bits[position]
                table.update({key | bit: term ^ lanes for key, term in table.items()})
                mask |= bit
            gathers.append((mask, table))
        self._gathers = tuple(gathers)
        return self._gathers

    def fold(self, index: int) -> int:
        """Current value of a registered fold (lane ``index``)."""
        return (self.folds >> (index * LANE_BITS)) & _LANE_MASK

    # -- speculative update ---------------------------------------------
    def push_conditional(self, taken: bool) -> None:
        """Shift a conditional branch outcome into the GHR.

        Every lane at once: shift the word left one bit (each fold's top
        bit lands in its guard), XOR out the leaving GHR bits, XOR the
        new bit into bit 0 of every lane, then XOR each guard back to
        bit 0 of its lane (one shift per distinct width) and clear it.
        """
        ghr = self.ghr
        gathers = self._gathers
        if gathers is None:
            gathers = self._build_gathers()
        folds = self.folds << 1
        for mask, table in gathers:
            folds ^= table[ghr & mask]
        if taken:
            # XOR, not OR: a window of length % width == 0 leaves its
            # outgoing bit on bit 0 too.
            folds ^= self._lsbs
            self.ghr = ((ghr << 1) | 1) & _GHR_MASK
        else:
            self.ghr = (ghr << 1) & _GHR_MASK
        for guards, width in self._wraps:
            folds ^= (folds & guards) >> width
        self.folds = folds & self._value_mask

    def push_target(self, pc: int, target: int) -> None:
        """Record a taken control transfer (incl. unconditional and
        indirect branches) in path and direction history."""
        bits = ((pc >> 2) ^ (target >> 2)) & 0x7
        self.path = ((self.path << 3) | bits) & _PATH_MASK
        self.push_conditional(True)

    # -- warm start --------------------------------------------------------
    def warm_replay(self, ghr: int, path: int) -> None:
        """Seed a registered-but-pristine history from raw GHR/path bits.

        Each lane is set to :func:`fold_history` of ``ghr`` — exactly
        what the original push sequence left there, since a fold is a
        pure function of the GHR.  Used by sampled simulation to
        restore checkpointed warmup history into a freshly built
        frontend.
        """
        if self.ghr:
            raise ValueError("warm_replay() requires pristine history")
        ghr &= _GHR_MASK
        folds = 0
        for lane, (length, width) in enumerate(self._specs):
            folds |= fold_history(ghr, length, width) << (lane * LANE_BITS)
        self.ghr = ghr
        self.path = path & _PATH_MASK
        self.folds = folds

    # -- recovery ----------------------------------------------------------
    def snapshot(self) -> tuple[int, int, int]:
        """``(ghr, path, folds)`` — immutable ints, so no copy is made."""
        return (self.ghr, self.path, self.folds)

    def restore(self, snap: tuple[int, int, int]) -> None:
        self.ghr, self.path, self.folds = snap


def fold_history(history: int, length: int, width: int) -> int:
    """Fold the low ``length`` bits of ``history`` into ``width`` bits.

    Chunked XOR: bit ``i`` of the window lands on bit ``i % width``.
    The reference definition of every fold :class:`HistoryState`
    keeps, and the direct fold used for the short *path* history.
    """
    if length <= 0:
        return 0
    h = history & ((1 << length) - 1)
    mask = (1 << width) - 1
    folded = 0
    while h:
        folded ^= h & mask
        h >>= width
    return folded
