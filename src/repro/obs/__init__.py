"""Observability: event bus, metrics, per-branch attribution, export.

See :mod:`repro.obs.hub` for the one-object entry point
(:class:`Observation`) and ``HACKING.md`` for the event taxonomy.
"""

from .attribution import AttributionTable, BranchAttribution
from .events import EVENT_TYPES, FIREHOSE_TYPES, Event, EventBus
from .export import (
    events_to_chrome_trace,
    events_to_jsonl,
    read_events_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_events_jsonl,
    write_metrics_snapshot,
)
from .hub import DEFAULT_HISTOGRAMS, Observation
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .profiler import PipelineProfiler
from .tea_report import build_tea_report, render_tea_report

__all__ = [
    "AttributionTable",
    "BranchAttribution",
    "EVENT_TYPES",
    "FIREHOSE_TYPES",
    "Event",
    "EventBus",
    "events_to_chrome_trace",
    "events_to_jsonl",
    "read_events_jsonl",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_events_jsonl",
    "write_metrics_snapshot",
    "DEFAULT_HISTOGRAMS",
    "Observation",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PipelineProfiler",
    "build_tea_report",
    "render_tea_report",
]
