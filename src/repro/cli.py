"""Command-line interface: drive the flow, dataset, alignment and
recommendation from a shell.

Subcommands:

- ``run-flow``   — run one P&R iteration on a design, optionally with
  recipes, and print the flow summary / timing report / insight report.
- ``list``       — list designs, recipes, or insights.
- ``build-dataset`` — build (or extend the cache of) the offline archive.
- ``align``      — offline-align a model on an archive and save it.
- ``recommend``  — zero-shot top-K recipe sets for a design from a saved
  model, optionally evaluating each with real flow runs.
- ``evaluate``   — the paper's Table IV protocol for a saved model:
  zero-shot recommendations for each design, evaluated with real flow
  runs and scored against the design's known archive (Win%).
- ``online``     — online fine-tuning of a model on one design, serial or
  distributed over an actor/learner pool (``--actors``, ``--mode``), with
  crash-safe checkpointing (``--checkpoint`` / ``--resume``).
- ``serve``      — load a saved model into the batched
  :class:`~repro.serving.service.RecommendationService` and drive it with
  synthetic traffic, printing throughput / latency / cache statistics.
- ``sweep``      — full-factorial flow-parameter sweep on one design.
- ``obs``        — observability: render a recorded ``--trace`` JSONL file
  as a span table, trees, and the metrics snapshot.

Every flow-running subcommand (``build-dataset``, ``sweep``,
``evaluate``, ``recommend --evaluate``) evaluates through one
:class:`~repro.runtime.session.FlowSession` configured by its
``--flow-workers``/``--workers`` and ``--qor-cache`` flags; ``align`` and
``serve`` add ``--trace PATH`` alongside them: the run then records
nested spans and a final metrics snapshot to ``PATH`` as JSON lines,
which ``repro obs report PATH`` renders.

Examples::

    python -m repro.cli run-flow D17 --recipes cong_spread_wide,cts_tight_skew
    python -m repro.cli build-dataset --out archive.pkl --designs D4,D6,D10
    python -m repro.cli align --dataset archive.pkl --out model.npz --holdout D4
    python -m repro.cli recommend --model model.npz --dataset archive.pkl \
        --design D4 --k 5 --evaluate
    python -m repro.cli evaluate --model model.npz --dataset archive.pkl \
        --designs D4,D6 --flow-workers 4 --qor-cache .qor-cache
    python -m repro.cli serve --model model.npz --dataset archive.pkl \
        --requests 128 --max-batch-size 16 --trace serve.jsonl
    python -m repro.cli sweep D4 --axis placer.density_target=0.6,0.7,0.8
    python -m repro.cli obs report serve.jsonl
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

from repro.core.alignment import AlignmentConfig
from repro.core.dataset import OfflineDataset, build_offline_dataset
from repro.core.recommender import InsightAlign
from repro.flow.parameters import FlowParameters
from repro.flow.report import render_flow_summary, render_timing_report
from repro.flow.runner import run_flow, _fresh_netlist
from repro.insights.extractor import InsightExtractor
from repro.insights.schema import insight_schema
from repro.netlist.profiles import design_profiles, get_profile
from repro.observability import tracing
from repro.recipes.apply import apply_recipe_set
from repro.recipes.catalog import default_catalog
from repro.runtime.parallel import DEFAULT_BATCH_SIZE


def _add_supervision_flags(parser: argparse.ArgumentParser) -> None:
    """Worker-pool supervision knobs shared by flow-running subcommands."""
    group = parser.add_argument_group("worker supervision")
    group.add_argument("--watchdog-s", type=float, default=0.0,
                       help="wall-clock budget per dispatched job; a "
                            "worker holding one longer is killed and "
                            "replaced (0 = no watchdog)")
    group.add_argument("--max-respawns", type=int, default=8,
                       help="worker deaths absorbed (with respawn) before "
                            "the pool degrades to serial execution")
    group.add_argument("--poison-retries", type=int, default=1,
                       help="re-dispatches of a job that killed its "
                            "worker before it is quarantined as poison")
    group.add_argument("--batch-size", type=int,
                       default=DEFAULT_BATCH_SIZE,
                       help="most jobs per stacked (array-vectorized) flow "
                            "evaluation; compatible jobs — same design and "
                            "netlist seed — run as lanes of one stack, "
                            "with bit-identical results (default "
                            f"{DEFAULT_BATCH_SIZE}; 1 = one job per flow "
                            "call; chaos and the watchdog run jobs one at "
                            "a time)")


def _add_chaos_flags(parser: argparse.ArgumentParser) -> None:
    """Seeded fault-injection knobs shared by flow-running subcommands."""
    chaos = parser.add_argument_group(
        "chaos rehearsal (seeded fault injection; disables the QoR cache)"
    )
    chaos.add_argument("--chaos-rate", type=float, default=0.0,
                       help="probability that any flow invocation "
                            "misbehaves (0 = chaos off)")
    chaos.add_argument("--chaos-kinds", default="worker_kill",
                       help="comma-separated FaultKind values to draw "
                            "from (e.g. worker_kill,worker_stall,crash)")
    chaos.add_argument("--chaos-seed", type=int, default=0,
                       help="seed of the deterministic fault schedule")
    chaos.add_argument("--chaos-stall-s", type=float, default=30.0,
                       help="real wall-clock sleep of a worker_stall "
                            "fault")


def _runtime_from_args(args, **overrides):
    """The RuntimeConfig shared by every flow-running subcommand."""
    from repro.runtime.session import RuntimeConfig

    settings = dict(
        workers=getattr(args, "flow_workers", None)
        or getattr(args, "workers", 1),
        qor_cache_path=getattr(args, "qor_cache", "") or None,
        watchdog_s=getattr(args, "watchdog_s", 0.0) or None,
        max_respawns=getattr(args, "max_respawns", 8),
        poison_retries=getattr(args, "poison_retries", 1),
        batch_size=getattr(args, "batch_size", DEFAULT_BATCH_SIZE),
    )
    settings.update(overrides)
    return RuntimeConfig(**settings)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="InsightAlign reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run-flow", help="run one P&R iteration")
    p_run.add_argument("design", help="design name (D1..D17)")
    p_run.add_argument("--recipes", default="",
                       help="comma-separated recipe names to load")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--timing", action="store_true",
                       help="print the worst-path timing report")
    p_run.add_argument("--insights", action="store_true",
                       help="print the extracted insight report")
    p_run.add_argument("--heatmap", action="store_true",
                       help="render placement density/congestion heatmaps")

    p_stats = sub.add_parser("stats", help="structural netlist statistics")
    p_stats.add_argument("design", help="design name (D1..D17)")
    p_stats.add_argument("--seed", type=int, default=0)

    p_list = sub.add_parser("list", help="list designs / recipes / insights")
    p_list.add_argument("what", choices=["designs", "recipes", "insights"])

    p_ds = sub.add_parser("build-dataset", help="build the offline archive")
    p_ds.add_argument("--out", required=True, help="output .pkl path")
    p_ds.add_argument("--designs", default="",
                      help="comma-separated subset (default: all 17)")
    p_ds.add_argument("--sets-per-design", type=int, default=176)
    p_ds.add_argument("--seed", type=int, default=0)
    p_ds.add_argument("--flow-workers", type=int, default=1,
                      help="process-pool workers for flow evaluation "
                           "(1 = sequential, the default)")
    p_ds.add_argument("--qor-cache", default="",
                      help="persistent QoR result cache directory; repeated "
                           "(design, recipe set, seed) evaluations are free")
    p_ds.add_argument("--trace", default="",
                      help="record spans + metrics to this JSONL file")
    _add_supervision_flags(p_ds)

    p_align = sub.add_parser("align", help="offline alignment (Algorithm 1)")
    p_align.add_argument("--dataset", required=True)
    p_align.add_argument("--out", required=True, help="output model .npz")
    p_align.add_argument("--holdout", default="",
                         help="comma-separated designs to exclude")
    p_align.add_argument("--epochs", type=int, default=14)
    p_align.add_argument("--pairs-per-design", type=int, default=160)
    p_align.add_argument("--lam", type=float, default=2.0)
    p_align.add_argument("--seed", type=int, default=0)
    p_align.add_argument("--checkpoint", default="",
                         help="crash-safe checkpoint path (written atomically"
                              " every --checkpoint-every epochs)")
    p_align.add_argument("--checkpoint-every", type=int, default=1,
                         help="epochs between checkpoints (default 1)")
    p_align.add_argument("--resume", default="",
                         help="resume training from a checkpoint file; "
                              "continues bit-identically with the same seed")
    p_align.add_argument("--trace", default="",
                         help="record spans + metrics to this JSONL file")

    p_serve = sub.add_parser(
        "serve",
        help="drive the batched recommendation service under synthetic load",
    )
    p_serve.add_argument("--model", required=True, help="saved model .npz")
    p_serve.add_argument("--dataset", required=True,
                         help="archive .pkl providing insight vectors")
    p_serve.add_argument("--designs", default="",
                         help="comma-separated designs to query (default: all)")
    p_serve.add_argument("--requests", type=int, default=64,
                         help="total requests to submit")
    p_serve.add_argument("--k", type=int, default=5)
    p_serve.add_argument("--max-batch-size", type=int, default=8)
    p_serve.add_argument("--max-wait-ms", type=float, default=2.0,
                         help="micro-batching latency bound")
    p_serve.add_argument("--queue-depth", type=int, default=64,
                         help="admission-control queue limit")
    p_serve.add_argument("--deadline-ms", type=float, default=0.0,
                         help="per-request deadline (0 = none)")
    p_serve.add_argument("--jitter", type=float, default=0.02,
                         help="gaussian noise added to insights so the load "
                              "is not one cacheable vector per design")
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--trace", default="",
                         help="record spans + metrics to this JSONL file")
    p_serve.add_argument("--replicas", type=int, default=0,
                         help="serve through a multi-replica cluster with "
                              "this many replicas (0 = single service)")
    p_serve.add_argument("--routing", default="least-loaded",
                         choices=("least-loaded", "consistent-hash",
                                  "round-robin"),
                         help="cluster routing policy")
    p_serve.add_argument("--backend", default="process",
                         choices=("process", "inline"),
                         help="replica backend: child processes (parallel "
                              "decode) or in-process (deterministic)")
    p_serve.add_argument("--shed-watermark", type=int, default=256,
                         help="cluster admission watermark: arrivals beyond "
                              "this many in-flight requests are shed with a "
                              "typed OverloadedError")
    p_serve.add_argument("--concurrency", type=int, default=32,
                         help="cluster mode: requests kept in flight")
    p_serve.add_argument("--canary", default="",
                         help="saved model .npz to register as the canary "
                              "version and route --canary-fraction of "
                              "traffic to")
    p_serve.add_argument("--canary-fraction", type=float, default=0.1,
                         help="deterministic fraction of traffic assigned "
                              "to the canary version")
    p_serve.add_argument("--shadow", action="store_true",
                         help="mirror the canary fraction to the canary and "
                              "count mismatches instead of serving from it")

    p_sweep = sub.add_parser(
        "sweep", help="full-factorial flow-parameter sweep on one design"
    )
    p_sweep.add_argument("design", help="design name (D1..D17)")
    p_sweep.add_argument("--axis", action="append", default=[],
                         metavar="KNOB=V1,V2,...", type=_parse_axis,
                         help="one sweep axis, e.g. "
                              "placer.density_target=0.6,0.7,0.8 "
                              "(repeatable; the grid is the cross product)")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="process-pool workers (1 = serial)")
    p_sweep.add_argument("--qor-cache", default="",
                         help="persistent QoR result cache directory")
    p_sweep.add_argument("--metrics", default="tns_ns,power_mw",
                         help="comma-separated QoR columns to print")
    p_sweep.add_argument("--trace", default="",
                         help="record spans + metrics to this JSONL file")
    _add_supervision_flags(p_sweep)

    p_obs = sub.add_parser(
        "obs", help="observability: inspect recorded traces"
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_report = obs_sub.add_parser(
        "report", help="render a --trace JSONL file"
    )
    p_report.add_argument("trace_file", help="JSONL file written by --trace")
    p_report.add_argument("--top", type=int, default=12,
                          help="span-aggregate rows to show")
    p_report.add_argument("--trees", type=int, default=3,
                          help="root span trees to show")

    p_rec = sub.add_parser("recommend", help="zero-shot recommendation")
    p_rec.add_argument("--model", required=True, help="saved model .npz")
    p_rec.add_argument("--dataset", required=True,
                       help="archive .pkl providing the insight vector")
    p_rec.add_argument("--design", required=True)
    p_rec.add_argument("--k", type=int, default=5)
    p_rec.add_argument("--evaluate", action="store_true",
                       help="run the flow on each recommendation")
    p_rec.add_argument("--seed", type=int, default=0)
    p_rec.add_argument("--flow-workers", type=int, default=1,
                       help="process-pool workers for --evaluate runs")
    p_rec.add_argument("--qor-cache", default="",
                       help="persistent QoR result cache directory")
    p_rec.add_argument("--trace", default="",
                       help="record spans + metrics to this JSONL file")

    p_eval = sub.add_parser(
        "evaluate",
        help="Table IV: zero-shot evaluate a saved model against archives",
    )
    p_eval.add_argument("--model", required=True, help="saved model .npz")
    p_eval.add_argument("--dataset", required=True,
                        help="archive .pkl with datapoints + insights")
    p_eval.add_argument("--designs", default="",
                        help="comma-separated subset (default: all in the "
                             "archive)")
    p_eval.add_argument("--beam-width", type=int, default=5,
                        help="recommendations evaluated per design (K)")
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--flow-workers", type=int, default=1,
                        help="process-pool workers for flow evaluation "
                             "(1 = sequential, the default)")
    p_eval.add_argument("--qor-cache", default="",
                        help="persistent QoR result cache directory; "
                             "repeated evaluations are free")
    p_eval.add_argument("--trace", default="",
                        help="record spans + metrics to this JSONL file")
    _add_supervision_flags(p_eval)
    _add_chaos_flags(p_eval)

    p_online = sub.add_parser(
        "online",
        help="online fine-tuning on one design, optionally distributed "
             "over an actor/learner pool",
    )
    p_online.add_argument("design", help="design name (D1..D17)")
    p_online.add_argument("--dataset", required=True,
                          help="archive .pkl with datapoints + insights")
    p_online.add_argument("--model", default="",
                          help="saved aligned model .npz to start from "
                               "(default: fresh weights)")
    p_online.add_argument("--iterations", type=int, default=10)
    p_online.add_argument("--k", type=int, default=5,
                          help="recipe sets proposed per iteration")
    p_online.add_argument("--seed", type=int, default=0)
    p_online.add_argument("--checkpoint", default="",
                          help="crash-safe loop checkpoint path (written "
                               "atomically every --checkpoint-every "
                               "iterations)")
    p_online.add_argument("--checkpoint-every", type=int, default=1)
    p_online.add_argument("--resume", default="",
                          help="resume from a checkpoint file; continues "
                               "bit-identically with the same seed")
    p_online.add_argument("--flow-workers", type=int, default=1,
                          help="in-process session workers (ignored when "
                               "--actors > 1: actors evaluate one job "
                               "each)")
    p_online.add_argument("--qor-cache", default="",
                          help="persistent QoR result cache directory")
    p_online.add_argument("--trace", default="",
                          help="record spans + metrics to this JSONL file")
    _add_supervision_flags(p_online)
    dist = p_online.add_argument_group("actor/learner execution")
    dist.add_argument("--actors", type=int, default=1,
                      help="actor processes evaluating proposals (1 with "
                           "--mode sync and no --kill-rate runs the "
                           "serial in-process loop)")
    dist.add_argument("--mode", choices=["sync", "async"], default="sync",
                      help="sync: bit-identical to the serial loop; "
                           "async: bounded-staleness experience stream")
    dist.add_argument("--max-policy-lag", type=int, default=1,
                      help="async: oldest policy version whose experience "
                           "still updates the model")
    dist.add_argument("--max-actor-respawns", type=int, default=8,
                      help="actor deaths absorbed (with respawn) before "
                           "the loop degrades to in-process execution")
    dist.add_argument("--kill-rate", type=float, default=0.0,
                      help="chaos rehearsal: per-task probability that an "
                           "actor process dies instead of serving")
    dist.add_argument("--kill-seed", type=int, default=0,
                      help="seed of the actor chaos-kill schedule")
    _add_chaos_flags(p_online)
    return parser


def _split(csv: str) -> List[str]:
    return [item.strip() for item in csv.split(",") if item.strip()]


def _parse_axis(spec: str) -> Tuple[str, List[float]]:
    """Parse one ``--axis KNOB=V1,V2,...`` occurrence."""
    knob, sep, raw = spec.partition("=")
    values: List[float] = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            values.append(float(item))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"axis value {item!r} in {spec!r} is not a number"
            ) from None
    if not sep or not knob.strip() or not values:
        raise argparse.ArgumentTypeError(
            f"expected KNOB=V1,V2,... (e.g. placer.density_target=0.6,0.7), "
            f"got {spec!r}"
        )
    return knob.strip(), values


def cmd_run_flow(args) -> int:
    catalog = default_catalog()
    names = _split(args.recipes)
    if names:
        bits = catalog.subset_from_names(names)
        params = apply_recipe_set(bits, catalog)
    else:
        params = FlowParameters()
    result = run_flow(args.design, params, seed=args.seed)
    print(render_flow_summary(result))
    if args.timing and result.timing is not None:
        netlist = _fresh_netlist(get_profile(args.design), args.seed)
        # Report against the final timing numbers; the worst path listing
        # uses the pristine netlist's structure for cell lookups.
        print(render_timing_report(netlist, result.timing))
    if args.insights:
        vector = InsightExtractor().extract(result, get_profile(args.design))
        print("\n".join(vector.describe()))
    if args.heatmap:
        _print_heatmaps(args.design, params, args.seed)
    return 0


def _print_heatmaps(design: str, params: FlowParameters, seed: int) -> None:
    """Re-run placement on a fresh copy and render its spatial fields."""
    import numpy as np

    from repro.placement.congestion import rudy_map_fast
    from repro.placement.placer import (
        _boxes_fast,
        _build_connectivity,
        _routing_supply_per_bin,
        place,
    )
    from repro.viz import ascii_heatmap

    netlist = _fresh_netlist(get_profile(design), seed)
    placement = place(netlist, params.placer, seed=seed)
    grid = placement.grid
    cells = [c for c in netlist.cells.values() if not c.is_clock_cell]
    xs = np.array([c.position[0] for c in cells])
    ys = np.array([c.position[1] for c in cells])
    areas = np.array([c.area_um2 for c in cells])
    density = grid.density_map(xs, ys, areas, blockage_penalty=False)
    print(ascii_heatmap(density, title=f"\n{design}: placement density"))

    index_of = {c.name: i for i, c in enumerate(cells)}
    pin_cell, pin_net, net_sizes, _, _ = _build_connectivity(
        netlist, index_of, params.placer
    )
    steiner = 1.0 + 0.18 * np.log2(np.maximum(2, net_sizes) / 2.0)
    positions = np.column_stack([xs, ys])
    boxes, lengths = _boxes_fast(positions, pin_cell, pin_net,
                                 len(net_sizes), steiner)
    supply = _routing_supply_per_bin(netlist, grid)
    congestion = rudy_map_fast(grid, boxes, lengths, supply)
    print(ascii_heatmap(congestion, title=f"{design}: routing congestion (RUDY)"))


def cmd_stats(args) -> int:
    from repro.netlist.stats import compute_stats

    netlist = _fresh_netlist(get_profile(args.design), args.seed)
    print(compute_stats(netlist).render())
    return 0


def cmd_list(args) -> int:
    if args.what == "designs":
        print(f"{'name':<6} {'node':<6} {'gates':>6}  category")
        for profile in design_profiles():
            print(f"{profile.name:<6} {profile.node:<6} "
                  f"{profile.sim_gate_count:>6}  {profile.category}")
    elif args.what == "recipes":
        print(f"{'#':>3} {'name':<26} {'category':<26} description")
        for index, recipe in enumerate(default_catalog()):
            print(f"{index:>3} {recipe.name:<26} "
                  f"{recipe.category.value:<26} {recipe.description}")
    else:
        print(f"{'key':<28} {'category':<10} {'kind':<8} description")
        for field in insight_schema():
            print(f"{field.key:<28} {field.category:<10} "
                  f"{field.kind.value:<8} {field.description}")
    return 0


def cmd_build_dataset(args) -> int:
    designs = _split(args.designs) or None
    dataset = build_offline_dataset(
        designs=designs,
        sets_per_design=args.sets_per_design,
        seed=args.seed,
        cache_path=args.out,
        verbose=True,
        runtime=_runtime_from_args(args),
    )
    print(f"wrote {len(dataset)} datapoints over "
          f"{len(dataset.designs())} designs to {args.out}")
    return 0


def cmd_align(args) -> int:
    dataset = OfflineDataset.load(args.dataset)
    config = AlignmentConfig(
        lam=args.lam, epochs=args.epochs,
        pairs_per_design=args.pairs_per_design, seed=args.seed,
        checkpoint_path=args.checkpoint or None,
        checkpoint_every=args.checkpoint_every,
        resume_from=args.resume or None,
    )
    ia = InsightAlign.align_offline(
        dataset, holdout=_split(args.holdout), config=config, verbose=True
    )
    ia.save(args.out)
    print(f"saved aligned model to {args.out}")
    return 0


def cmd_serve(args) -> int:
    """Load a model into the serving stack and push synthetic traffic."""
    import time

    import numpy as np

    from repro.errors import QueueFullError
    from repro.serving import RecommendationService, ServingConfig

    ia = InsightAlign.load(args.model)
    dataset = OfflineDataset.load(args.dataset)
    designs = _split(args.designs) or dataset.designs()
    insights = {d: dataset.insight_for(d) for d in designs}

    config = ServingConfig(
        max_batch_size=args.max_batch_size,
        max_wait_s=args.max_wait_ms / 1e3,
        max_queue_depth=args.queue_depth,
        default_deadline_s=(args.deadline_ms / 1e3) or None,
    )
    rng = np.random.default_rng(args.seed)
    if args.replicas:
        return _serve_cluster(args, ia, config, designs, insights, rng)
    service = RecommendationService(ia, config)

    tickets = []
    started = time.monotonic()
    for index in range(args.requests):
        design = designs[index % len(designs)]
        insight = insights[design] + args.jitter * rng.normal(
            size=insights[design].shape
        )
        while True:
            try:
                tickets.append(service.submit(insight, k=args.k))
                break
            except QueueFullError:
                # Backpressure: drain a batch, then resubmit.
                service.poll(force=True)
    service.run_until_idle()
    elapsed = time.monotonic() - started

    stats = service.stats()
    requests = stats["requests"]
    served = requests["completed"]
    print(f"served {served}/{args.requests} requests in {elapsed:.3f}s "
          f"({served / elapsed:.1f} req/s) | expired {requests['expired']} "
          f"| batches {stats['batches']}")
    latency = stats["latency_s"]
    occupancy = stats["batch_occupancy"]
    print(f"latency  p50 {latency['p50'] * 1e3:7.2f} ms   "
          f"p99 {latency['p99'] * 1e3:7.2f} ms   "
          f"max {latency['max'] * 1e3:7.2f} ms")
    print(f"batching mean occupancy {occupancy['mean']:.2f}  "
          f"cache hit rate {stats['cache']['hit_rate']:.2f}  "
          f"model {stats['model_version']}")
    return 0


def _serve_cluster(args, ia, config, designs, insights, rng) -> int:
    """The ``serve --replicas N`` path: traffic through a ServingCluster."""
    import time

    from repro.serving import ClusterConfig, ServingCluster

    cluster_config = ClusterConfig(
        replicas=args.replicas,
        routing=args.routing,
        backend=args.backend,
        shed_watermark=args.shed_watermark,
    )
    workload = []
    for index in range(args.requests):
        design = designs[index % len(designs)]
        workload.append(
            insights[design]
            + args.jitter * rng.normal(size=insights[design].shape)
        )
    with ServingCluster(ia, cluster_config, config) as cluster:
        if args.canary:
            cluster.register_model("canary", args.canary)
            cluster.set_canary(
                "canary", fraction=args.canary_fraction, shadow=args.shadow
            )
        started = time.monotonic()
        results = cluster.serve_all(
            workload, k=args.k,
            concurrency=min(args.concurrency, args.shed_watermark),
            deadline_s=(args.deadline_ms / 1e3) or None,
        )
        elapsed = time.monotonic() - started
        stats = cluster.stats()
    served = sum(1 for r in results if r is not None)
    print(f"cluster served {served}/{args.requests} requests in "
          f"{elapsed:.3f}s ({served / elapsed:.1f} req/s) | "
          f"{stats['replicas']} x {stats['backend']} replicas, "
          f"{stats['routing']} routing")
    admission = stats["admission"]
    print(f"admission shed {admission['shed']} "
          f"(rate {admission['shed_rate']:.3f}, "
          f"watermark {admission['shed_watermark']}) | "
          f"L2 hit rate {stats['l2']['hit_rate']:.2f} | "
          f"L1 hits {stats['l1_hits']}")
    routed = "  ".join(
        f"{replica}={int(count)}"
        for replica, count in sorted(stats["routed"].items())
    )
    print(f"routed   {routed} | restarts {stats['restarts']} "
          f"redispatched {stats['redispatched']}")
    if args.canary:
        canary = stats["canary"]
        mode = "shadow" if canary["shadow"] else "canary"
        print(f"{mode}   version={canary['version']} "
              f"fraction={canary['fraction']:.2f} "
              f"requests={int(canary['requests'])} "
              f"mirrors={canary['mirrors']} "
              f"mismatches={canary['mismatches']}")
    return 0


def cmd_sweep(args) -> int:
    """Full-factorial knob sweep; prints the QoR grid and the best point."""
    from repro.flow.sweep import sweep

    if not args.axis:
        print("sweep needs at least one --axis KNOB=V1,V2,...",
              file=sys.stderr)
        return 2
    axes = {knob: values for knob, values in args.axis}
    result = sweep(
        args.design,
        axes,
        seed=args.seed,
        runtime=_runtime_from_args(args),
    )
    metrics = _split(args.metrics)
    print(result.render(metrics=metrics))
    best_point, best_qor = result.best(metrics[0])
    settings = ", ".join(
        f"{knob}={value:g}" for knob, value in zip(result.knobs, best_point)
    )
    print(f"best {metrics[0]}: {best_qor[metrics[0]]:.4f} at {settings}")
    return 0


def cmd_obs(args) -> int:
    """Render a recorded trace file (spans, trees, metrics snapshot)."""
    from repro.observability import load_trace, render_trace_report

    trace = load_trace(args.trace_file)
    print(render_trace_report(trace, top=args.top, trees=args.trees))
    return 0


def cmd_recommend(args) -> int:
    from repro.runtime.parallel import FlowJob
    from repro.runtime.session import FlowSession

    ia = InsightAlign.load(args.model)
    dataset = OfflineDataset.load(args.dataset)
    insight = dataset.insight_for(args.design)
    recommendations = ia.recommend(insight, k=args.k)
    catalog = default_catalog()
    normalizer = dataset.normalizer_for(args.design, ia.intention)
    known_best = dataset.scores_for(args.design, ia.intention).max()
    results = None
    if args.evaluate:
        # All K evaluations as one supervised session batch.
        runtime = _runtime_from_args(args, seed=args.seed)
        with FlowSession(runtime) as session:
            results = session.evaluate_strict([
                FlowJob(
                    args.design,
                    apply_recipe_set(list(rec.recipe_set), catalog),
                    args.seed,
                )
                for rec in recommendations
            ])
    print(f"top-{args.k} recipe sets for {args.design} "
          f"(best known score {known_best:+.3f}):")
    for rank, rec in enumerate(recommendations, start=1):
        names = ", ".join(rec.recipe_names) or "(default flow)"
        line = f"#{rank} logP {rec.log_prob:8.2f}  {names}"
        if results is not None:
            result = results[rank - 1]
            score = normalizer.score(result.qor, ia.intention)
            line += (f"\n    -> score {score:+.3f}  "
                     f"power {result.qor['power_mw']:.4f} mW  "
                     f"TNS {result.qor['tns_ns']:.4f} ns")
        print(line)
    return 0


def _chaos_plan_from_args(args):
    """A :class:`FaultPlan` built from the ``--chaos-*`` flags, or ``None``
    when chaos is off (``--chaos-rate 0``)."""
    rate = getattr(args, "chaos_rate", 0.0)
    if not rate:
        return None
    from repro.runtime.faults import FaultKind
    from repro.runtime.parallel import FaultPlan

    kinds = tuple(
        FaultKind(token.strip())
        for token in args.chaos_kinds.split(",") if token.strip()
    )
    return FaultPlan(
        rate=rate,
        kinds=kinds or None,
        seed=args.chaos_seed,
        stall_s=args.chaos_stall_s,
    )


def _print_supervision_stats(stats: dict) -> None:
    print(
        "supervision: "
        f"restarts={stats.get('worker_restarts', 0)} "
        f"redispatched={stats.get('jobs_redispatched', 0)} "
        f"poison={stats.get('poison_jobs', 0)} "
        f"degraded={stats.get('degraded', False)}"
    )


def cmd_evaluate(args) -> int:
    """Table IV for a saved model: zero-shot rows against the archive."""
    from repro.core.crossval import evaluate_design
    from repro.runtime.session import FlowSession

    ia = InsightAlign.load(args.model)
    dataset = OfflineDataset.load(args.dataset)
    designs = _split(args.designs) or dataset.designs()
    plan = _chaos_plan_from_args(args)
    runtime = _runtime_from_args(args, seed=args.seed, fault_plan=plan)
    print(f"{'design':<8} {'known best':>12} {'recommended':>12} "
          f"{'win%':>7}")
    win_pcts = []
    with FlowSession(runtime) as session:
        for design in designs:
            row = evaluate_design(
                ia.model, dataset, design, ia.intention,
                beam_width=args.beam_width, seed=args.seed, session=session,
            )
            win_pcts.append(row.win_pct)
            print(f"{design:<8} {row.best_known_score:>12.3f} "
                  f"{row.rec_score:>12.3f} {row.win_pct:>6.1f}%")
        if plan is not None or runtime.workers > 1:
            _print_supervision_stats(session.stats())
    mean = sum(win_pcts) / len(win_pcts)
    print(f"mean win% over {len(designs)} design(s): {mean:.1f}%")
    return 0


def cmd_online(args) -> int:
    """Online fine-tuning on one design, serial or actor/learner."""
    from repro.core.online import OnlineConfig, OnlineFineTuner

    dataset = OfflineDataset.load(args.dataset)
    if args.model:
        model = InsightAlign.load(args.model).model
    else:
        from repro.core.model import InsightAlignModel

        model = InsightAlignModel(seed=args.seed)
    plan = _chaos_plan_from_args(args)
    runtime = _runtime_from_args(args, seed=args.seed, fault_plan=plan)
    distributed = None
    if args.actors > 1 or args.mode != "sync" or args.kill_rate > 0:
        from repro.distributed import DistributedConfig

        distributed = DistributedConfig(
            actors=args.actors,
            mode=args.mode,
            max_policy_lag=args.max_policy_lag,
            max_actor_respawns=args.max_actor_respawns,
            kill_rate=args.kill_rate,
            kill_seed=args.kill_seed,
        )
    config = OnlineConfig(
        iterations=args.iterations,
        k=args.k,
        seed=args.seed,
        checkpoint_path=args.checkpoint or None,
        checkpoint_every=args.checkpoint_every,
        resume_from=args.resume or None,
        runtime=runtime,
        distributed=distributed,
    )
    if distributed is not None:
        from repro.distributed import fine_tuner_for

        tuner = fine_tuner_for(config)
    else:
        tuner = OnlineFineTuner(config)
    with tuner:
        result = tuner.run(model, dataset, args.design, verbose=True)
    final = result.records[-1]
    print(
        f"online: {args.design} iterations={len(result.records)} "
        f"best={final.best_score_so_far:.3f} "
        f"avg-top5={final.avg_top5_so_far:.3f} "
        f"failures={len(result.failures)}"
    )
    if distributed is not None:
        stats = tuner.actor_stats()
        print(
            "actors: "
            f"mode={stats['mode']} live={stats['actors_live']} "
            f"spawned={stats['spawned']} restarts={stats['restarts']} "
            f"records={stats['records_total']} "
            f"reissued={stats['reissued']} "
            f"dropped={stats['dropped_stale']} "
            f"degraded={stats['degraded']}"
        )
    return 0


_COMMANDS = {
    "run-flow": cmd_run_flow,
    "list": cmd_list,
    "stats": cmd_stats,
    "build-dataset": cmd_build_dataset,
    "align": cmd_align,
    "recommend": cmd_recommend,
    "evaluate": cmd_evaluate,
    "online": cmd_online,
    "serve": cmd_serve,
    "sweep": cmd_sweep,
    "obs": cmd_obs,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # ``--trace PATH`` (where the subcommand has one) turns on JSONL span
    # recording for the whole command; ``tracing(None)`` is a no-op.
    with tracing(getattr(args, "trace", "") or None):
        return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
