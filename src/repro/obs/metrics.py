"""Metrics registry: namespaced counters, gauges, fixed-bucket histograms.

The registry is the aggregation layer the exporters read.  The hot-path
counter block stays :class:`~repro.core.stats.SimStats` (plain dataclass
int fields — increments must stay cheap); at snapshot time its raw and
derived values are *published into* the registry under the ``sim.``
namespace (see :meth:`SimStats.publish_to`), so the registry sits on
top of ``SimStats`` rather than replacing it.

Histograms use fixed upper-bound bucket edges with Prometheus-style
``le`` semantics: bucket ``i`` counts observations ``v`` with
``edges[i-1] < v <= edges[i]``; one final overflow bucket catches
``v > edges[-1]``.
"""

from __future__ import annotations

from bisect import bisect_left


class Counter:
    """A monotonically increasing named counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A named point-in-time value (set, not accumulated)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: int | float = 0

    def set(self, value: int | float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram with ``le`` upper-bound edges."""

    __slots__ = ("name", "edges", "counts", "total", "sum", "min", "max")

    def __init__(self, name: str, edges: tuple[int | float, ...]):
        if not edges:
            raise ValueError(f"histogram {name!r} needs at least one edge")
        if list(edges) != sorted(edges):
            raise ValueError(f"histogram {name!r} edges must be ascending")
        self.name = name
        self.edges = tuple(edges)
        self.counts = [0] * (len(self.edges) + 1)  # +1 overflow bucket
        self.total = 0
        self.sum = 0
        self.min: int | float | None = None
        self.max: int | float | None = None

    def bucket_index(self, value: int | float) -> int:
        """Index of the bucket that would count ``value``."""
        return bisect_left(self.edges, value)

    def observe(self, value: int | float) -> None:
        self.counts[self.bucket_index(value)] += 1
        self.total += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def merge(self, other: dict) -> None:
        """Add another histogram's :meth:`as_dict` into this one,
        bucket by bucket; the edges must be identical."""
        if list(other["edges"]) != list(self.edges):
            raise ValueError(f"histogram {self.name!r}: cannot merge "
                             f"edges {other['edges']}")
        self.counts = [a + b for a, b in zip(self.counts, other["counts"])]
        self.total += other["count"]
        self.sum += other["sum"]
        if other["count"]:
            low, high = other["min"], other["max"]
            self.min = low if self.min is None else min(self.min, low)
            self.max = high if self.max is None else max(self.max, high)

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def quantile(self, q: float) -> float | None:
        """Estimate the ``q``-quantile from the bucket counts.

        Linear interpolation within the containing bucket (Prometheus
        ``histogram_quantile`` style), clamped to the observed
        ``[min, max]`` range; the overflow bucket reports ``max``.
        Returns ``None`` for an empty histogram.
        """
        if not self.total:
            return None
        if q <= 0.0:
            return float(self.min)
        if q >= 1.0:
            return float(self.max)
        rank = q * self.total
        cumulative = 0
        for i, count in enumerate(self.counts):
            if not count:
                continue
            below = cumulative
            cumulative += count
            if cumulative >= rank:
                if i >= len(self.edges):
                    return float(self.max)
                upper = self.edges[i]
                lower = self.edges[i - 1] if i else min(self.min, upper)
                estimate = lower + (upper - lower) * (rank - below) / count
                return float(max(self.min, min(self.max, estimate)))
        return float(self.max)  # pragma: no cover - rank <= total always

    def percentiles(self) -> dict[str, float | None]:
        """The standard p50/p95/p99 summary quantiles."""
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def as_dict(self) -> dict:
        out = {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": self.total,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }
        out.update(self.percentiles())
        return out

    def flat_items(self) -> list[tuple[str, int | float | None]]:
        """``(suffix, value)`` pairs for the flat snapshot format."""
        items: list[tuple[str, int | float | None]] = [
            ("count", self.total),
            ("sum", self.sum),
            ("mean", self.mean),
            ("min", self.min),
            ("max", self.max),
        ]
        items.extend(self.percentiles().items())
        for edge, count in zip(self.edges, self.counts):
            items.append((f"le_{edge}", count))
        items.append(("le_inf", self.counts[-1]))
        return items


class MetricsRegistry:
    """Create-or-get registry of counters, gauges, and histograms.

    Names are dotted namespaces (``events.early_flush``,
    ``tea.chain_length``, ``sim.ipc``); a name is bound to exactly one
    metric kind for the registry's lifetime.
    """

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def _check_free(self, name: str, kind: dict) -> None:
        for registered in (self._counters, self._gauges, self._histograms):
            if registered is not kind and name in registered:
                raise ValueError(f"metric {name!r} already registered as "
                                 f"a different kind")

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            self._check_free(name, self._counters)
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            self._check_free(name, self._gauges)
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(
        self, name: str, edges: tuple[int | float, ...] | None = None
    ) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            if edges is None:
                raise KeyError(f"histogram {name!r} not registered and no "
                               f"edges given")
            self._check_free(name, self._histograms)
            metric = self._histograms[name] = Histogram(name, edges)
        return metric

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Structured snapshot: counters/gauges flat, histograms nested."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.as_dict() for n, h in sorted(self._histograms.items())
            },
        }

    def flat_snapshot(self) -> dict:
        """One-level ``{dotted.name: scalar}`` dict, diff-friendly.

        This is the format ``benchmarks/`` and trajectory tooling diff:
        histogram buckets are flattened to ``<name>.le_<edge>`` keys.
        """
        flat: dict[str, int | float | None] = {}
        for name, counter in self._counters.items():
            flat[name] = counter.value
        for name, gauge in self._gauges.items():
            flat[name] = gauge.value
        for name, hist in self._histograms.items():
            for suffix, value in hist.flat_items():
                flat[f"{name}.{suffix}"] = value
        return dict(sorted(flat.items()))
