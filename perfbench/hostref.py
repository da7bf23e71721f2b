"""Host-speed reference: a short pure-Python loop timed during the run.

The benchmark host is shared, and its speed drifts between a fast and a
slow state that last tens of seconds: the reference below ran 1.0x to
4.0x its nominal time within single runs, and identical simulator work
was measured at 0.83 s to 1.43 s.  Process CPU time tracks wall time
within 2 %, so the slowdown is not descheduling but a slower CPU, and
only a timed reference can see it.

The reference imitates the simulator's host profile rather than raw
arithmetic: it allocates small slotted objects, pushes them through a
deque, and reads a dict scoreboard and a 64K-entry table at scattered
indices.  :class:`HostClock` turns raw seconds into seconds at the
reference's nominal speed, dividing by the reference's slowdown raised
to ``SENSITIVITY``.  Over 18 runs (six seeds of each workload) on a
2-CPU host, normalizing cut the coefficient of variation of ``wall_s``,
``op_p50_s`` and ``op_p90_s`` across seeds from 4.2-12.2 % raw to
1.6-3.8 %.  With each slice taken alone and an exponent of 0.75 it was
1.9-3.4 %, but normalized times still rose with the run's median
slowdown (log-log slope +0.13 on ``figure`` and +0.20 on ``sampled``
``wall_s``; +0.10 to +0.17 over a further 29 runs); the running median
and 0.85 bring those slopes to -0.07, -0.03 and +0.12 on the 18 runs.

Slices are taken every ``SLICE_INTERVAL_S`` by an interval timer while
the program runs, so host speed is sampled inside long ops as well as
between them; a slice interrupts the program between two bytecodes and
touches none of its state.

Nothing here imports the program under test, so a change to the
program cannot move the reference.
"""

from __future__ import annotations

import contextlib
import random
import signal
import statistics
import time
from collections import deque

#: Iterations per reference slice (about 20 ms on an unloaded host).
SLICE_ITERATIONS = 12_000

#: Reference slice time on the development host in its fast state
#: (seconds).  Only the scale of normalized times depends on it.
NOMINAL_SLICE_S = 0.0141

#: Simulator slowdown per unit of reference slowdown (log-log slope).
SENSITIVITY = 0.85

#: Each slice counts as the median of itself and this many neighbours
#: on either side, which damps the noise of single 14 ms slices.
SMOOTHING = 2

#: Wall time between two reference slices (seconds).
SLICE_INTERVAL_S = 0.5

_TABLE_BITS = 16


class _Uop:
    __slots__ = ("seq", "src", "dst", "ready")

    def __init__(self, seq: int, src: int, dst: int) -> None:
        self.seq = seq
        self.src = src
        self.dst = dst
        self.ready = 0


class _Reference:
    def __init__(self) -> None:
        rng = random.Random(3)
        size = 1 << _TABLE_BITS
        self.table = [rng.randrange(size) for _ in range(size)]

    def run(self) -> float:
        """Time one slice; returns seconds."""
        table = self.table
        mask = len(table) - 1
        rng = random.Random(5)
        pick = rng.randrange
        rob: deque[_Uop] = deque()
        board: dict[int, int] = {}
        regs = [0] * 64
        start = time.perf_counter()
        for seq in range(SLICE_ITERATIONS):
            uop = _Uop(seq, pick(64), pick(64))
            src, dst = uop.src, uop.dst
            uop.ready = board.get(src, 0) + (table[(seq * 2654435761) & mask] & 3)
            board[dst] = uop.ready
            rob.append(uop)
            if len(rob) > 192:
                old = rob.popleft()
                regs[old.dst] = old.ready
        elapsed = time.perf_counter() - start
        if regs[0] < 0:  # consume the result
            raise AssertionError("unreachable")
        return elapsed


class HostClock:
    """A clock that runs at the reference host's nominal speed.

    Inside :meth:`sampling`, an interval timer times one reference slice
    every ``SLICE_INTERVAL_S``; :meth:`mark` takes one where a short
    pause is harmless and no timer runs (between traced units).  The run
    is cut into segments bounded by two slices.  Raw seconds inside a
    segment count as ``raw / factor`` with ``factor = (slice /
    NOMINAL_SLICE_S) ** SENSITIVITY``, the slice being the mean of the
    two bounding slices, each smoothed as a running median over
    ``2 * SMOOTHING + 1`` slices.  Time spent in slices is excluded.
    :meth:`close` takes the final slice; :meth:`normalize` then converts
    any raw ``perf_counter`` interval that began after :meth:`start`.
    """

    def __init__(self) -> None:
        self._ref = _Reference()
        self._ref.run()  # warm the allocator and the table
        # (slice start, slice end, slice seconds) in time order.
        self.slices: list[tuple[float, float, float]] = []
        self._last = 0.0
        self._busy = False

    def start(self) -> None:
        self._slice()

    def mark(self) -> None:
        if time.perf_counter() - self._last >= SLICE_INTERVAL_S:
            self._slice()

    def close(self) -> None:
        self._slice()

    @contextlib.contextmanager
    def sampling(self):
        """Take a slice every ``SLICE_INTERVAL_S`` while the block runs."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self._slice())
        signal.setitimer(signal.ITIMER_REAL, SLICE_INTERVAL_S, SLICE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _slice(self) -> None:
        if self._busy:  # a timer tick during a slice
            return
        self._busy = True
        try:
            begin = time.perf_counter()
            seconds = self._ref.run()
            self._last = time.perf_counter()
            self.slices.append((begin, self._last, seconds))
        finally:
            self._busy = False

    def slowdowns(self) -> list[float]:
        """Each slice's time over the nominal slice time."""
        return [s / NOMINAL_SLICE_S for _, _, s in self.slices]

    def normalize(self, begin: float, end: float) -> float:
        """Nominal-speed seconds in the raw interval ``[begin, end]``."""
        total = 0.0
        slices = self.slices
        times = [s for _, _, s in slices]
        smoothed = [
            statistics.median(times[max(0, i - SMOOTHING):i + SMOOTHING + 1])
            for i in range(len(times))
        ]
        for (_, seg_begin, _), (seg_end, _, _), left, right in zip(
            slices, slices[1:], smoothed, smoothed[1:]
        ):
            lo, hi = max(begin, seg_begin), min(end, seg_end)
            if hi > lo:
                factor = ((left + right) / 2 / NOMINAL_SLICE_S) ** SENSITIVITY
                total += (hi - lo) / factor
        return total
