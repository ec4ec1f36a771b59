"""Offline trace analysis: turn a JSONL trace into a readable report.

Backs the ``repro obs report`` CLI subcommand: aggregate spans by name
(count, total/mean/max wall time), render the slowest span trees, and dump
the metrics snapshot the trace carries.  Everything operates on the parsed
:class:`~repro.observability.exporters.TraceFile`, so it also serves as a
programmatic API for tests and notebooks.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.observability.exporters import TraceFile
from repro.observability.trace import SpanRecord


def aggregate_spans(spans: List[SpanRecord]) -> List[Dict[str, object]]:
    """Per-name rollup, sorted by total duration descending."""
    rollup: Dict[str, Dict[str, object]] = {}
    for span in spans:
        row = rollup.setdefault(span.name, {
            "name": span.name, "count": 0, "errors": 0,
            "total_s": 0.0, "max_s": 0.0,
        })
        row["count"] += 1
        row["errors"] += 1 if span.status == "error" else 0
        row["total_s"] += span.duration_s
        row["max_s"] = max(row["max_s"], span.duration_s)
    rows = sorted(rollup.values(), key=lambda r: -r["total_s"])
    for row in rows:
        row["mean_s"] = row["total_s"] / row["count"]
    return rows


def render_span_table(spans: List[SpanRecord], top: int = 12) -> str:
    rows = aggregate_spans(spans)[:top]
    lines = [
        f"{'span':<28} {'count':>7} {'errors':>7} "
        f"{'total ms':>10} {'mean ms':>10} {'max ms':>10}"
    ]
    lines.append("-" * len(lines[0]))
    for row in rows:
        lines.append(
            f"{row['name']:<28} {row['count']:>7} {row['errors']:>7} "
            f"{row['total_s'] * 1e3:>10.2f} {row['mean_s'] * 1e3:>10.2f} "
            f"{row['max_s'] * 1e3:>10.2f}"
        )
    return "\n".join(lines)


def render_span_tree(trace: TraceFile, root: SpanRecord,
                     max_depth: int = 6) -> str:
    """One root span and its descendants, indented, durations in ms."""
    lines: List[str] = []

    def visit(span: SpanRecord, depth: int) -> None:
        marker = "!" if span.status == "error" else " "
        lines.append(
            f"{'  ' * depth}{marker}{span.name} "
            f"[{span.duration_s * 1e3:.2f} ms]"
            + (f"  ({span.error})" if span.error else "")
        )
        if depth < max_depth:
            for child in sorted(trace.children_of(span),
                                key=lambda s: s.start_s):
                visit(child, depth + 1)

    visit(root, 0)
    return "\n".join(lines)


def _render_section(metrics: Dict[str, object],
                    table: Sequence[Tuple[str, str]]) -> str:
    """One metric-table section: every labelled value of the ``table``
    families — (name, human label) pairs in display order — found in a
    trace's metrics snapshot, or ``""`` when none of them is there."""
    lines: List[str] = []
    for name, label in table:
        family = metrics.get(name)
        if not family:
            continue
        for labels, value in sorted(family.get("values", {}).items()):
            shown = labels if labels != "{}" else ""
            lines.append(f"{label + shown:<32} {value:g}")
    return "\n".join(lines)


# Worker-pool supervision families, rendered as their own report section
# so a chaotic run's recovery story is readable without grepping the full
# metrics snapshot.  (name, human label) in display order.
SUPERVISION_METRICS = (
    ("flow_workers_live", "live workers"),
    ("flow_worker_restarts_total", "worker restarts"),
    ("flow_jobs_redispatched_total", "jobs re-dispatched"),
    ("flow_poison_jobs_total", "poison jobs quarantined"),
    ("flow_pool_degraded_total", "pool degradations to serial"),
)


def render_supervision(metrics: Dict[str, object]) -> str:
    """The worker-pool supervision counters of a trace's metrics snapshot,
    or ``""`` when the run never touched the supervised pool."""
    return _render_section(metrics, SUPERVISION_METRICS)


# Batch-simulator families, rendered as their own section: how many
# stacked evaluations ran, how many jobs they grouped, the widest stack
# seen, and how many lanes copied a twin's placement.  (name, human
# label) in display order.
BATCH_METRICS = (
    ("flow_batch_calls_total", "stacked evaluations"),
    ("flow_batch_jobs_total", "jobs in stacked evaluations"),
    ("flow_batch_width", "widest stacked call"),
    ("flow_batch_placement_twins_total", "placement twins"),
)


def render_batch(metrics: Dict[str, object]) -> str:
    """The batch-simulator counters of a trace's metrics snapshot, or
    ``""`` when the run never used stacked evaluation."""
    return _render_section(metrics, BATCH_METRICS)


# Actor/learner distributed-online families, rendered as their own
# section: membership health, experience-stream accounting, staleness.
# (name, human label) in display order.
DISTRIBUTED_METRICS = (
    ("online_actors_live", "live actors"),
    ("online_actor_restarts_total", "actor restarts"),
    ("online_experience_records_total", "experience records received"),
    ("online_experience_queue_depth", "experience queue depth"),
    ("online_experience_reissued_total", "proposals re-issued"),
    ("online_experience_dropped_total", "stale records dropped"),
    ("online_weight_broadcasts_total", "weight broadcasts"),
    ("online_policy_lag", "last consumed policy lag"),
    ("online_pool_degraded_total", "pool degradations to in-process"),
)


def render_distributed(metrics: Dict[str, object]) -> str:
    """The actor/learner counters of a trace's metrics snapshot, or
    ``""`` when the run never used the distributed online loop."""
    return _render_section(metrics, DISTRIBUTED_METRICS)


# Serving-cluster families, rendered as their own section: routing
# spread, admission/shedding, tiered-cache effectiveness, replica
# membership health, rollout accounting.  (name, human label) in
# display order.
CLUSTER_METRICS = (
    ("serving_replicas_live", "live replicas"),
    ("serving_cluster_requests_total", "requests routed"),
    ("serving_cluster_shed_total", "arrivals shed"),
    ("serving_cluster_l2_hits_total", "shared L2 hits"),
    ("serving_cluster_l2_misses_total", "shared L2 misses"),
    ("serving_cluster_replica_restarts_total", "replica restarts"),
    ("serving_cluster_redispatched_total", "requests re-dispatched"),
    ("serving_cluster_canary_requests_total", "canary requests"),
    ("serving_cluster_shadow_mirrors_total", "shadow mirrors"),
    ("serving_cluster_shadow_mismatch_total", "shadow mismatches"),
    ("serving_cluster_degraded_total", "degradations to in-gateway"),
    ("serving_cluster_outstanding", "outstanding at snapshot"),
)


def render_cluster(metrics: Dict[str, object]) -> str:
    """The serving-cluster counters of a trace's metrics snapshot, or
    ``""`` when the run never served through a cluster."""
    return _render_section(metrics, CLUSTER_METRICS)


# The metric-table sections of a report: (title, renderer) in display
# order, each shown only when the run touched its families.
_METRIC_SECTIONS = (
    ("worker supervision", render_supervision),
    ("batch simulator", render_batch),
    ("online actor/learner", render_distributed),
    ("serving cluster", render_cluster),
)


def render_metrics(metrics: Dict[str, object]) -> str:
    """The metrics snapshot of a trace, one line per labelled value."""
    lines: List[str] = []
    for name in sorted(metrics):
        family = metrics[name]
        kind = family.get("kind", "?")
        for labels, value in sorted(family.get("values", {}).items()):
            shown = labels if labels != "{}" else ""
            if isinstance(value, dict):  # histogram summary
                lines.append(
                    f"{name}{shown} count={value['count']} "
                    f"mean={value['mean']:.6g} p50={value['p50']:.6g} "
                    f"p95={value['p95']:.6g} max={value['max']:.6g}"
                )
            else:
                lines.append(f"{name}{shown} = {value}  ({kind})")
    return "\n".join(lines)


def render_trace_report(trace: TraceFile, top: int = 12,
                        trees: int = 3) -> str:
    """The full ``repro obs report`` payload for one parsed trace."""
    sections = [
        f"=== spans: {len(trace.spans)} total, "
        f"{len(trace.roots())} roots ===",
        render_span_table(trace.spans, top=top),
    ]
    slowest = sorted(trace.roots(), key=lambda s: -s.duration_s)[:trees]
    if slowest:
        sections.append("\n=== slowest span trees ===")
        for root in slowest:
            sections.append(render_span_tree(trace, root))
    if trace.metrics:
        for title, render in _METRIC_SECTIONS:
            section = render(trace.metrics)
            if section:
                sections.append(f"\n=== {title} ===")
                sections.append(section)
        sections.append("\n=== metrics snapshot ===")
        sections.append(render_metrics(trace.metrics))
    return "\n".join(sections)
