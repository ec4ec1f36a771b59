"""Parameter sweeps: run the flow across a knob grid and collect QoR.

The conventional pre-ML tuning workflow ("sweep a limited set of key flow
parameters", Section II) — and a handy analysis tool: one call maps any
subset of flow knobs onto their QoR response, serially or with caching.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.cts.tree import CtsParams
from repro.errors import FlowError
from repro.flow.parameters import FlowParameters, OptParams, TradeoffWeights
from repro.netlist.profiles import DesignProfile
from repro.placement.placer import PlacerParams
from repro.routing.groute import RouteParams

_SECTION_TYPES = {
    "placer": PlacerParams,
    "cts": CtsParams,
    "route": RouteParams,
    "opt": OptParams,
    "tradeoff": TradeoffWeights,
}


def set_knob(params: FlowParameters, knob: str, value: float) -> FlowParameters:
    """Return a copy of ``params`` with one ``section.field`` knob replaced."""
    import dataclasses

    try:
        section_name, field_name = knob.split(".", 1)
        section_type = _SECTION_TYPES[section_name]
    except (ValueError, KeyError):
        raise FlowError(f"unknown knob {knob!r} (use section.field)") from None
    section = getattr(params, section_name)
    if field_name not in {f.name for f in dataclasses.fields(section_type)}:
        raise FlowError(f"section {section_name!r} has no field {field_name!r}")
    # Integer-typed fields must stay integers.
    current = getattr(section, field_name)
    if isinstance(current, int) and not isinstance(current, bool):
        value = int(round(value))
    replaced = dataclasses.replace(section, **{field_name: value})
    return dataclasses.replace(params, **{section_name: replaced})


@dataclass
class SweepResult:
    """One grid: knob values per axis and the QoR at every grid point."""

    knobs: List[str]
    grid: List[Tuple[float, ...]]
    qors: List[Dict[str, float]]

    def column(self, metric: str) -> List[float]:
        return [qor[metric] for qor in self.qors]

    def best(self, metric: str, minimize: bool = True) -> Tuple[Tuple[float, ...], Dict[str, float]]:
        values = self.column(metric)
        index = min(range(len(values)), key=lambda i: values[i]) if minimize \
            else max(range(len(values)), key=lambda i: values[i])
        return self.grid[index], self.qors[index]

    def render(self, metrics: Sequence[str] = ("tns_ns", "power_mw")) -> str:
        header = " ".join(f"{k:>26}" for k in self.knobs) + "  " + \
            " ".join(f"{m:>12}" for m in metrics)
        lines = [header, "-" * len(header)]
        for point, qor in zip(self.grid, self.qors):
            row = " ".join(f"{v:>26.4g}" for v in point) + "  " + \
                " ".join(f"{qor[m]:>12.4f}" for m in metrics)
            lines.append(row)
        return "\n".join(lines)


def sweep(
    design: Union[str, DesignProfile],
    axes: Dict[str, Sequence[float]],
    base: FlowParameters = FlowParameters(),
    seed: int = 0,
    runtime: Optional["RuntimeConfig"] = None,
) -> SweepResult:
    """Full-factorial sweep of ``axes`` (knob -> values) on one design.

    The grid is evaluated as one
    :class:`~repro.runtime.session.FlowSession` batch configured by
    ``runtime`` (workers, QoR cache, retry policy, trace toggle); the
    result is identical at any worker count.  The config's ``seed`` is
    overridden by ``seed`` so grid-point identity always follows the
    sweep seed.
    """
    from repro.observability import get_tracer
    from repro.runtime.parallel import FlowJob
    from repro.runtime.session import FlowSession, RuntimeConfig

    runtime = (runtime or RuntimeConfig()).replace(seed=seed)

    if not axes:
        raise FlowError("sweep needs at least one axis")
    knobs = list(axes)
    grid = list(itertools.product(*(axes[k] for k in knobs)))
    points: List[FlowParameters] = []
    for point in grid:
        params = base
        for knob, value in zip(knobs, point):
            params = set_knob(params, knob, value)
        points.append(params)
    tracer = get_tracer()
    design_name = getattr(design, "name", design)
    with tracer.span(
        "sweep.run",
        design=design_name,
        knobs=",".join(knobs),
        points=len(points),
        workers=runtime.workers,
    ):
        with FlowSession(runtime) as session:
            results = session.evaluate_strict(
                [FlowJob(design, p, seed) for p in points]
            )
        return SweepResult(
            knobs=knobs, grid=grid, qors=[dict(r.qor) for r in results]
        )
