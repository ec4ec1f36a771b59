"""The metrics registry: labelled counters, gauges and histograms.

One process-wide :class:`MetricsRegistry` (swappable for tests) holds every
metric family by name.  Families are created get-or-create —
``registry.counter("flow_runs_total")`` returns the same object everywhere
— and each family keys its values by label set, so two serving instances or
seventeen designs share one family with distinct label children.

Rendering comes in two shapes: :meth:`MetricsRegistry.render_prometheus`
emits the Prometheus text exposition format (histograms as summaries with
``quantile`` labels plus ``_sum`` / ``_count``), and
:meth:`MetricsRegistry.snapshot` returns a plain nested dict for JSON
serialization (the ``kind="metrics"`` line of a JSONL trace).

Everything is guarded by per-family locks created through :func:`new_lock`
— the same primitive :class:`~repro.runtime.cache.QoRCache` and
:class:`~repro.serving.cache.ResultCache` use to keep their hit/miss
counters coherent under concurrent access.

The unlabelled fast path stays API-compatible with the original serving
metrics: ``Counter("c").inc(); Counter("c").value`` and
``Histogram("h", max_samples=4).observe(...); .summary()`` behave exactly
as ``repro.serving.metrics`` historically did.
"""

from __future__ import annotations

import re
import threading
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

LabelKey = Tuple[Tuple[str, str], ...]


def new_lock() -> threading.RLock:
    """The registry's lock primitive (reentrant), shared project-wide so
    every concurrent counter in the codebase is guarded the same way."""
    return threading.RLock()


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _label_key(labels: Dict[str, object]) -> LabelKey:
    for key in labels:
        if not _LABEL_RE.match(key):
            raise ValueError(f"invalid label name {key!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_labels(key: LabelKey, extra: str = "") -> str:
    parts = [f'{k}="{v}"' for k, v in key]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return f"{float(value):.10g}"


class Counter:
    """A monotonically increasing counter family."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _check_name(name)
        self.help = help
        self._lock = new_lock()
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount=1, **labels) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name} cannot decrease by {amount}"
            )
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    @property
    def value(self):
        """The unlabelled child's value (0 if never incremented)."""
        with self._lock:
            return self._values.get((), 0)

    def value_of(self, **labels):
        with self._lock:
            return self._values.get(_label_key(labels), 0)

    def bind(self, **labels) -> "BoundCounter":
        return BoundCounter(self, labels)

    def values(self) -> Dict[LabelKey, float]:
        with self._lock:
            return dict(self._values)

    def aggregate(self, match: Optional[Callable[[Dict[str, str]], bool]]
                  = None) -> float:
        """Sum over the label children selected by ``match(labels)`` —
        every child counted exactly once (all children when ``None``)."""
        with self._lock:
            return sum(
                value for key, value in self._values.items()
                if match is None or match(dict(key))
            )


class Gauge:
    """A set-to-current-value family (queue depths, losses, occupancy)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _check_name(name)
        self.help = help
        self._lock = new_lock()
        self._values: Dict[LabelKey, float] = {}

    def set(self, value, **labels) -> None:
        with self._lock:
            self._values[_label_key(labels)] = value

    def inc(self, amount=1, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def dec(self, amount=1, **labels) -> None:
        self.inc(-amount, **labels)

    @property
    def value(self):
        with self._lock:
            return self._values.get((), 0)

    def value_of(self, **labels):
        with self._lock:
            return self._values.get(_label_key(labels), 0)

    def bind(self, **labels) -> "BoundGauge":
        return BoundGauge(self, labels)

    def values(self) -> Dict[LabelKey, float]:
        with self._lock:
            return dict(self._values)


class _HistogramState:
    """Per-label-child running aggregates + a recent-sample reservoir."""

    __slots__ = ("samples", "count", "sum", "min", "max")

    def __init__(self, max_samples: int) -> None:
        self.samples: deque = deque(maxlen=max_samples)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.samples.append(value)
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def percentile(self, q: float) -> float:
        if not self.samples:
            return 0.0
        return float(np.percentile(np.fromiter(self.samples, dtype=float), q))

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.sum / self.count if self.count else 0.0,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
        }


class Histogram:
    """A distribution family: exact lifetime aggregates (count / sum / min
    / max) plus percentiles over the ``max_samples`` most recent
    observations — the sliding window a dashboard wants."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 max_samples: int = 8192) -> None:
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self.name = _check_name(name)
        self.help = help
        self.max_samples = max_samples
        self._lock = new_lock()
        self._states: Dict[LabelKey, _HistogramState] = {}

    def _state(self, key: LabelKey) -> _HistogramState:
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = _HistogramState(self.max_samples)
        return state

    def observe(self, value, **labels) -> None:
        with self._lock:
            self._state(_label_key(labels)).observe(float(value))

    @property
    def count(self) -> int:
        with self._lock:
            state = self._states.get(())
            return state.count if state else 0

    @property
    def mean(self) -> float:
        with self._lock:
            state = self._states.get(())
            return (state.sum / state.count) if state and state.count else 0.0

    def percentile(self, q: float, **labels) -> float:
        with self._lock:
            state = self._states.get(_label_key(labels))
            return state.percentile(q) if state else 0.0

    def summary(self, **labels) -> Dict[str, float]:
        with self._lock:
            state = self._states.get(_label_key(labels))
            return state.summary() if state else _HistogramState(1).summary()

    def bind(self, **labels) -> "BoundHistogram":
        return BoundHistogram(self, labels)

    def summaries(self) -> Dict[LabelKey, Dict[str, float]]:
        with self._lock:
            return {key: state.summary()
                    for key, state in self._states.items()}

    def label_keys(self) -> List[LabelKey]:
        """The label key of every child, with no summary computed."""
        with self._lock:
            return list(self._states)


class BoundCounter:
    """A counter family bound to one fixed label set."""

    __slots__ = ("_metric", "_labels")

    def __init__(self, metric: Counter, labels: Dict[str, object]) -> None:
        self._metric = metric
        self._labels = dict(labels)

    def inc(self, amount=1) -> None:
        self._metric.inc(amount, **self._labels)

    @property
    def value(self):
        return self._metric.value_of(**self._labels)


class BoundGauge:
    __slots__ = ("_metric", "_labels")

    def __init__(self, metric: Gauge, labels: Dict[str, object]) -> None:
        self._metric = metric
        self._labels = dict(labels)

    def set(self, value) -> None:
        self._metric.set(value, **self._labels)

    def inc(self, amount=1) -> None:
        self._metric.inc(amount, **self._labels)

    def dec(self, amount=1) -> None:
        self._metric.dec(amount, **self._labels)

    @property
    def value(self):
        return self._metric.value_of(**self._labels)


class BoundHistogram:
    __slots__ = ("_metric", "_labels")

    def __init__(self, metric: Histogram, labels: Dict[str, object]) -> None:
        self._metric = metric
        self._labels = dict(labels)

    def observe(self, value) -> None:
        self._metric.observe(value, **self._labels)

    def percentile(self, q: float) -> float:
        return self._metric.percentile(q, **self._labels)

    def summary(self) -> Dict[str, float]:
        return self._metric.summary(**self._labels)

    @property
    def count(self) -> int:
        return self._metric.summary(**self._labels)["count"]

    @property
    def mean(self) -> float:
        return self._metric.summary(**self._labels)["mean"]


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Get-or-create home for every metric family in the process."""

    def __init__(self) -> None:
        self._lock = new_lock()
        self._metrics: Dict[str, object] = {}

    # ------------------------------------------------------------------
    def _get_or_create(self, kind: str, name: str, help: str, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if existing.kind != kind:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, cannot re-register as {kind}"
                    )
                return existing
            metric = _KINDS[kind](name, help, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create("counter", name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create("gauge", name, help)

    def histogram(self, name: str, help: str = "",
                  max_samples: int = 8192) -> Histogram:
        return self._get_or_create(
            "histogram", name, help, max_samples=max_samples
        )

    def get(self, name: str):
        """The registered family, or ``None``."""
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Plain-dict view of every family: JSON-ready, detached."""
        out: Dict[str, object] = {}
        with self._lock:
            families = list(self._metrics.values())
        for metric in families:
            if metric.kind == "histogram":
                values = {
                    _render_labels(key) or "{}": summary
                    for key, summary in metric.summaries().items()
                }
            else:
                values = {
                    _render_labels(key) or "{}": value
                    for key, value in metric.values().items()
                }
            out[metric.name] = {
                "kind": metric.kind,
                "help": metric.help,
                "values": values,
            }
        return out

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (histograms as summaries)."""
        lines: List[str] = []
        with self._lock:
            families = sorted(self._metrics.values(), key=lambda m: m.name)
        for metric in families:
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            if metric.kind == "histogram":
                lines.append(f"# TYPE {metric.name} summary")
                for key, summary in sorted(metric.summaries().items()):
                    for quantile, stat in (("0.5", "p50"), ("0.95", "p95"),
                                           ("0.99", "p99")):
                        value = summary[stat]
                        labels = _render_labels(
                            key, f'quantile="{quantile}"'
                        )
                        lines.append(
                            f"{metric.name}{labels} {_format_value(value)}"
                        )
                    plain = _render_labels(key)
                    lines.append(
                        f"{metric.name}_sum{plain} "
                        f"{_format_value(summary['mean'] * summary['count'])}"
                    )
                    lines.append(
                        f"{metric.name}_count{plain} "
                        f"{_format_value(summary['count'])}"
                    )
            else:
                lines.append(f"# TYPE {metric.name} {metric.kind}")
                for key, value in sorted(metric.values().items()):
                    labels = _render_labels(key)
                    lines.append(
                        f"{metric.name}{labels} {_format_value(value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# The process-wide default registry.
# ----------------------------------------------------------------------
_GLOBAL_LOCK = threading.Lock()
_global_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry every instrumented layer uses."""
    return _global_registry


def set_registry(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Swap the default registry (``None`` installs a fresh empty one);
    returns the previous registry for restoration."""
    global _global_registry
    with _GLOBAL_LOCK:
        previous = _global_registry
        _global_registry = (
            registry if registry is not None else MetricsRegistry()
        )
    return previous
