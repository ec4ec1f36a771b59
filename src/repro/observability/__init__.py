"""Unified observability: tracing and metrics for every layer.

The reproduction's hot paths — supervised flow execution, parallel batch
evaluation, alignment/online training, the batched serving stack — all
report into this one subsystem:

- :mod:`repro.observability.trace` — :class:`Tracer` producing nested
  spans (``span_id`` / ``parent_id``, wall time, attributes, ok/error
  status) with thread-local context propagation, an injectable monotonic
  clock, and zero overhead while disabled (the default).
- :mod:`repro.observability.exporters` — where finished spans go: an
  in-memory ring buffer, a JSONL file with atomic line appends, or
  nothing.
- :mod:`repro.observability.metrics` — labelled ``Counter`` / ``Gauge`` /
  ``Histogram`` families in a process-wide :class:`MetricsRegistry`, with
  a Prometheus-text renderer and a JSON snapshot.
- :mod:`repro.observability.report` — turn a JSONL trace back into a
  human-readable report (``repro obs report``).

Instrumentation is deterministic by construction: spans and metrics never
consume RNG, so every seeded result is bit-identical with tracing on or
off.  See ``docs/observability.md`` for the span model and metric name
tables.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from repro.observability.exporters import (
    InMemoryExporter,
    JsonlExporter,
    NoopExporter,
    TraceFile,
    load_trace,
)
from repro.observability.metrics import (
    BoundCounter,
    BoundGauge,
    BoundHistogram,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    new_lock,
    set_registry,
)
from repro.observability.report import (
    aggregate_spans,
    render_batch,
    render_distributed,
    render_supervision,
    render_trace_report,
)
from repro.observability.trace import (
    NOOP_SPAN,
    Span,
    SpanRecord,
    Tracer,
    get_tracer,
    set_tracer,
)

__all__ = [
    "NOOP_SPAN",
    "BoundCounter",
    "BoundGauge",
    "BoundHistogram",
    "Counter",
    "Gauge",
    "Histogram",
    "InMemoryExporter",
    "JsonlExporter",
    "MetricsRegistry",
    "NoopExporter",
    "Span",
    "SpanRecord",
    "TraceFile",
    "Tracer",
    "aggregate_spans",
    "get_registry",
    "get_tracer",
    "load_trace",
    "new_lock",
    "render_batch",
    "render_distributed",
    "render_supervision",
    "render_trace_report",
    "set_registry",
    "set_tracer",
    "tracing",
]


@contextmanager
def tracing(path: Optional[str] = None, registry=None):
    """Enable tracing for a block; ``None`` path makes it a no-op.

    Installs a JSONL-backed :class:`Tracer` as the process-wide tracer,
    restores the previous tracer on exit, and appends the registry's
    metrics snapshot as the trace's final ``kind="metrics"`` line — which
    is exactly what ``repro obs report`` and the ``--trace`` CLI flags
    consume.  Yields the active tracer (``None`` when disabled).
    """
    if not path:
        yield None
        return
    exporter = JsonlExporter(path)
    tracer = Tracer(exporter=exporter)
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
        try:
            reg = registry if registry is not None else get_registry()
            exporter.export_metrics(reg.snapshot())
        finally:
            exporter.close()
