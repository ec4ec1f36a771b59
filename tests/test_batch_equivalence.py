"""Stacked (batch) flow simulator vs the scalar reference: bit-identical.

The batch kernels are required to reproduce the scalar ``run_flow`` down
to the last bit — QoR dicts compared as ordered item lists, trajectory
snapshots stage by stage, and whole ``FlowResult`` objects by pickle
bytes.  Both engines are also held to the committed golden pins in
``tests/golden/flow_pins.json``, so the guarantee outlives the live
scalar reference.  Stacking is the ``FlowSession`` default; the scalar
engine is reached only explicitly, as ``flow_fn=run_flow``.  The
session-level tests assert the ``batch_size`` knob grows no observable
behavior: stacked evaluation at workers 1, 2 and 4 returns the same
bytes as the scalar path, QoR cache hits are identical, and per-job
policies (fault plans, deadlines, custom flow callables, injected
executors) run job by job with outcomes identical to ``batch_size=1``.

The golden pins are regenerated from the scalar engine with::

    PYTHONPATH=src python tests/test_batch_equivalence.py

Regenerate them only for an intentional change of the flow's physics.
"""

import functools
import itertools
import json
import math
import pickle
from pathlib import Path

import numpy as np
import pytest

from conftest import tiny_profile
from repro.errors import CorruptQoR, RuntimeConfigError
from repro.flow.batch_runner import run_flow_batch
from repro.flow.parameters import (
    CtsParams,
    FlowParameters,
    OptParams,
    PlacerParams,
    RouteParams,
    TradeoffWeights,
)
from repro.flow.runner import (
    clear_netlist_cache,
    design_template,
    netlist_cache_info,
    run_flow,
    set_netlist_cache_limit,
)
from repro.netlist.profiles import design_profiles
from repro.observability import (
    InMemoryExporter,
    MetricsRegistry,
    Tracer,
    set_registry,
    set_tracer,
)
from repro.placement.batch import _placer_slots, place_batch
from repro.recipes.apply import apply_recipe_set
from repro.recipes.catalog import default_catalog
from repro.runtime import (
    FaultKind,
    FaultPlan,
    FlowExecutor,
    FlowJob,
    FlowSession,
    RuntimeConfig,
)

RECIPES = {
    "default": FlowParameters(),
    "timing": FlowParameters(
        placer=PlacerParams(effort=1.2, timing_net_weight=2.0),
        opt=OptParams(setup_passes=4, useful_skew_gain=0.4, hold_effort=0.6),
        tradeoff=TradeoffWeights(timing=2.0, power=0.5),
    ),
    "power": FlowParameters(
        opt=OptParams(leakage_recovery=1.2, vt_swap_bias=0.8,
                      clock_gating_efficiency=0.6, hold_effort=0.3),
        tradeoff=TradeoffWeights(timing=0.6, power=2.0),
        route=RouteParams(effort=0.7, layer_promotion=0.15),
        cts=CtsParams(max_cluster_size=6, buffer_drive=8),
    ),
}
RECIPE_NAMES = tuple(RECIPES)

GOLDEN_PINS = Path(__file__).parent / "golden" / "flow_pins.json"
PIN_REL = 1e-9
# (design, recipe, seed) of every pinned run: exactly the runs of
# test_width3_all_profiles and of the seed-2 test_other_widths cases.
PIN_CASES = tuple(
    (profile.name, name, 1)
    for profile in design_profiles() for name in RECIPE_NAMES
) + tuple(
    (design, name, 2) for design in ("D6", "D10") for name in RECIPE_NAMES
)


def assert_results_identical(ref, got, tag=""):
    """Scalar vs batch FlowResult: ordered-item and pickle-byte equality."""
    assert ref.design == got.design, tag
    assert list(ref.qor.items()) == list(got.qor.items()), tag
    assert len(ref.snapshots) == len(got.snapshots), tag
    for want, have in zip(ref.snapshots, got.snapshots):
        assert want.stage == have.stage, tag
        assert list(want.metrics.items()) == list(have.metrics.items()), (
            f"{tag}: {want.stage}"
        )
    assert pickle.dumps(ref, 5) == pickle.dumps(got, 5), (
        f"{tag}: pickle bytes differ"
    )


def pin_of(result):
    """The pinned view of a result: QoR, then each stage's snapshot."""
    pin = {"qor": dict(result.qor)}
    for snap in result.snapshots:
        pin[snap.stage.value] = dict(snap.metrics)
    return pin


def _assert_metrics_pinned(got, want, tag):
    assert list(got) == list(want), tag
    for name, pinned in want.items():
        value = got[name]
        if float(pinned).is_integer():  # counts compare exactly
            assert value == pinned, (tag, name, value, pinned)
        else:
            assert math.isclose(value, pinned, rel_tol=PIN_REL), (
                tag, name, value, pinned
            )


@functools.lru_cache(maxsize=None)
def _pins():
    return json.loads(GOLDEN_PINS.read_text())


def assert_matches_pin(result, design, recipe, seed):
    """One result against its committed golden pin."""
    key = f"{design}/{recipe}/{seed}"
    want, got = _pins()[key], pin_of(result)
    assert list(got) == list(want), key
    for section, pinned in want.items():
        _assert_metrics_pinned(got[section], pinned, f"{key} {section}")


def write_pins():
    """Regenerate ``GOLDEN_PINS`` from the scalar engine."""
    pins = {
        f"{design}/{name}/{seed}": pin_of(
            run_flow(design, RECIPES[name], seed=seed)
        )
        for design, name, seed in PIN_CASES
    }
    GOLDEN_PINS.parent.mkdir(exist_ok=True)
    GOLDEN_PINS.write_text(json.dumps(pins, indent=1) + "\n")
    return len(pins)


def transported(result):
    """Pickle bytes after one pickle round trip — what a pool worker's
    result pipe does to every result — so in-process and pool results
    compare byte for byte."""
    return pickle.dumps(pickle.loads(pickle.dumps(result, 5)), 5)


def tiny_jobs():
    """Every recipe on the fast unit-test profile: one (profile, seed)
    bucket of three jobs."""
    return [(tiny_profile(), RECIPES[n], 0) for n in RECIPE_NAMES]


def assert_same_outcomes(got, want):
    """Per-job outcomes match: results by pickle bytes, failures by
    error type, message and attempt count."""
    assert len(got) == len(want)
    for have, expected in zip(got, want):
        assert have.ok == expected.ok
        if expected.ok:
            assert pickle.dumps(have.result, 5) == \
                pickle.dumps(expected.result, 5)
        else:
            assert type(have.error) is type(expected.error)
            assert str(have.error) == str(expected.error)
            assert len(have.attempts) == len(expected.attempts)


# ----------------------------------------------------------------------
# Kernel level: run_flow_batch vs run_flow, no session involved.
# ----------------------------------------------------------------------
class TestKernelEquivalence:
    @pytest.mark.parametrize(
        "design", [p.name for p in design_profiles()]
    )
    def test_width3_all_profiles(self, design):
        """Every shipped profile, one width-3 mixed-recipe stack."""
        triples = [(design, RECIPES[name], 1) for name in RECIPE_NAMES]
        refs = [run_flow(d, p, seed=s) for d, p, s in triples]
        gots = run_flow_batch(triples)
        for name, ref, got in zip(RECIPE_NAMES, refs, gots):
            assert_results_identical(ref, got, f"{design}/{name}")
            assert_matches_pin(ref, design, name, 1)
            assert_matches_pin(got, design, name, 1)

    @pytest.mark.parametrize("width", (1, 8))
    @pytest.mark.parametrize("design", ("D6", "D10"))
    def test_other_widths(self, design, width):
        triples = [
            (design, RECIPES[RECIPE_NAMES[i % len(RECIPE_NAMES)]], 2)
            for i in range(width)
        ]
        refs = [run_flow(d, p, seed=s) for d, p, s in triples]
        gots = run_flow_batch(triples)
        assert len(gots) == width
        for i, (ref, got) in enumerate(zip(refs, gots)):
            assert_results_identical(ref, got, f"{design}/w{width}[{i}]")
            name = RECIPE_NAMES[i % len(RECIPE_NAMES)]
            assert_matches_pin(ref, design, name, 2)
            assert_matches_pin(got, design, name, 2)

    def test_mixed_profile_batch_reassembles_in_submission_order(self):
        triples = [
            ("D11", RECIPES["timing"], 0),
            ("D16", RECIPES["default"], 0),
            ("D11", RECIPES["power"], 0),
            ("D16", RECIPES["timing"], 0),
            ("D11", RECIPES["default"], 3),
        ]
        refs = [run_flow(d, p, seed=s) for d, p, s in triples]
        gots = run_flow_batch(triples)
        for i, (ref, got) in enumerate(zip(refs, gots)):
            assert_results_identical(ref, got, f"mixed[{i}]")

    def test_stats_accounting(self):
        stats = {}
        run_flow_batch(
            [("D10", RECIPES[name], 1) for name in RECIPE_NAMES],
            stats=stats,
        )
        assert stats["jobs"] == 3
        assert stats["calls"] == 1
        assert stats["max_width"] == 3


# ----------------------------------------------------------------------
# Hold-fix divergence: a lane whose buffers splice leaves the shared design.
# ----------------------------------------------------------------------
def _recipe_params(*names):
    """FlowParameters of the catalog recipe set holding ``names``."""
    catalog = default_catalog()
    bits = [0] * len(catalog)
    for name in names:
        bits[catalog.index_of(name)] = 1
    return apply_recipe_set(bits, catalog)


# D13 at netlist seed 1: both useful-skew singletons splice 3 hold
# buffers, so their lanes are recompiled as width-1 designs mid-stack.
DIVERGING_STACK = (
    ("cts_useful_skew",), ("cts_useful_skew_max",), (), ("cts_tight_skew",),
)
DIVERGING_HOLD_FIXES = (3.0, 3.0, 0.0, 0.0)


def _template_bytes(template):
    """Every array of a template's design and pristine lane, as bytes."""
    arrays = {}
    for owner, prefix in ((template.design, "design"),
                          (template.design.table, "table"),
                          (template.lane, "lane")):
        for key, value in vars(owner).items():
            if isinstance(value, np.ndarray):
                arrays[f"{prefix}.{key}"] = value.tobytes()
    for k, level in enumerate(template.design.levels):
        for key, value in level.items():
            arrays[f"level{k}.{key}"] = value.tobytes()
    return arrays


class TestDivergedLanes:
    def test_diverging_stack_matches_scalar(self):
        jobs = [("D13", _recipe_params(*names), 1) for names in DIVERGING_STACK]
        template = design_template("D13", 1)
        before = _template_bytes(template)
        gots = run_flow_batch(jobs)
        for i, ((design, params, seed), got) in enumerate(zip(jobs, gots)):
            ref = run_flow(design, params, seed=seed)
            assert_results_identical(ref, got, f"diverging[{i}]")
        assert tuple(got.qor["hold_fix_count"] for got in gots) == \
            DIVERGING_HOLD_FIXES
        assert design_template("D13", 1) is template
        assert _template_bytes(template) == before

    def test_template_arrays_are_read_only(self):
        lane = design_template(tiny_profile(), 0).lane
        with pytest.raises(ValueError):
            lane.wire_delay[0] = 1.0
        with pytest.raises(ValueError):
            lane.variant[0] = 0


class TestDesignTemplateCache:
    def test_stacks_share_one_compiled_design(self, monkeypatch):
        import repro.netlist.compiled as compiled

        clear_netlist_cache()
        compiles = []
        original = compiled.CompiledDesign.__init__

        def counting(self, netlist):
            compiles.append(netlist.name)
            original(self, netlist)

        monkeypatch.setattr(compiled.CompiledDesign, "__init__", counting)
        jobs = [(tiny_profile(), RECIPES[n], 0) for n in RECIPE_NAMES]
        first = run_flow_batch(jobs)
        template = design_template(tiny_profile(), 0)
        second = run_flow_batch(jobs)
        assert len(compiles) == 1
        assert design_template(tiny_profile(), 0) is template
        assert [pickle.dumps(r, 5) for r in first] == \
            [pickle.dumps(r, 5) for r in second]

        clear_netlist_cache()
        assert design_template(tiny_profile(), 0) is not template
        assert len(compiles) == 2

    def test_template_evicted_with_its_netlist(self):
        previous = set_netlist_cache_limit(32)
        try:
            clear_netlist_cache()
            old = design_template(tiny_profile(name="E0"), 0)
            set_netlist_cache_limit(1)
            design_template(tiny_profile(name="E1"), 0)  # evicts E0
            assert netlist_cache_info()["size"] == 1
            assert design_template(tiny_profile(name="E0"), 0) is not old
        finally:
            set_netlist_cache_limit(previous)
            clear_netlist_cache()


# ----------------------------------------------------------------------
# Placement twins: lanes with bit-identical PlacerParams place once.
# ----------------------------------------------------------------------
PLACER_A = PlacerParams(effort=1.1, spread_strength=1.3)
# [A, B, A', C, A'']: the A-lanes share PlacerParams but differ in
# CTS, routing and optimization; C turns annealing and clustering off.
TWIN_STACK = (
    FlowParameters(placer=PLACER_A),
    FlowParameters(placer=PlacerParams(effort=0.8, timing_net_weight=2.0)),
    FlowParameters(
        placer=PLACER_A,
        cts=CtsParams(max_cluster_size=6, buffer_drive=8),
        opt=OptParams(vt_swap_bias=0.8),
    ),
    FlowParameters(
        placer=PlacerParams(perturbation=0.0, cluster_attraction=0.0)
    ),
    FlowParameters(
        placer=PLACER_A,
        route=RouteParams(effort=0.7, layer_promotion=0.15),
        opt=OptParams(setup_passes=4),
    ),
)
A_LANES = (0, 2, 4)


class TestPlacementTwins:
    @pytest.fixture
    def placed(self):
        """``place_batch`` on the twin stack: lanes, results, stats."""
        template = design_template(tiny_profile(), 0)
        lanes = template.lanes(len(TWIN_STACK))
        stats = {}
        results = place_batch(
            template.design, lanes, [p.placer for p in TWIN_STACK], seed=0,
            stats=stats,
        )
        return lanes, results, stats

    def test_twin_stack_matches_scalar(self):
        jobs = [(tiny_profile(), params, 0) for params in TWIN_STACK]
        stats = {}
        gots = run_flow_batch(jobs, stats=stats)
        assert stats["placement_twins"] == 2
        for i, ((design, params, seed), got) in enumerate(zip(jobs, gots)):
            ref = run_flow(design, params, seed=seed)
            assert_results_identical(ref, got, f"twin stack[{i}]")

    def test_twins_share_no_lane_arrays(self, placed):
        """Twin lanes hold equal values in private arrays: no array is
        shared with a twin or with the template, and a write into one
        lane leaves its twins as they were."""
        lanes, _, stats = placed
        assert stats["placement_twins"] == 2
        fields = ("position", "variant", "wire_length", "wire_cap",
                  "wire_delay", "intrinsic", "cap_ext")
        pristine = design_template(tiny_profile(), 0).lane
        for a, b in itertools.combinations(A_LANES, 2):
            for field in fields:
                mine, theirs = getattr(lanes[a], field), getattr(lanes[b], field)
                assert not np.shares_memory(mine, theirs), field
                assert mine.tobytes() == theirs.tobytes(), field
        for lane in lanes:
            for field in ("variant", "wire_length", "wire_cap", "wire_delay"):
                assert not np.shares_memory(
                    getattr(lane, field), getattr(pristine, field)
                ), field
        first, *twins = [lanes[i] for i in A_LANES]
        before = [twin.wire_delay.tobytes() for twin in twins]
        first.wire_delay[:] = -1.0
        first.position[:] = -1.0
        assert [twin.wire_delay.tobytes() for twin in twins] == before
        assert all((twin.position >= 0.0).all() for twin in twins)

    def test_twin_results_are_independent(self, placed):
        _, results, _ = placed
        first, *others = [results[i] for i in A_LANES]
        assert all(other is not first for other in others)
        before = [pickle.dumps(other, 5) for other in others]
        assert all(pickle.dumps(first, 5) == b for b in before)
        first.congestion_checkpoints["early"]["peak"] = -1.0
        first.congestion_checkpoints["extra"] = {}
        first.congestion_levels["final"] = "mutated"
        first.final_congestion["peak"] = -1.0
        assert [pickle.dumps(other, 5) for other in others] == before

    def test_all_twin_stack_places_one_lane(self):
        """16 lanes with one placer setting: 15 copy the placement, and
        every lane still equals its scalar run."""
        jobs = [
            (tiny_profile(),
             FlowParameters(placer=PLACER_A,
                            opt=OptParams(vt_swap_bias=1.0 + 0.02 * i)),
             0)
            for i in range(16)
        ]
        stats = {}
        gots = run_flow_batch(jobs, stats=stats)
        assert stats["placement_twins"] == 15
        for i, ((design, params, seed), got) in enumerate(zip(jobs, gots)):
            ref = run_flow(design, params, seed=seed)
            assert_results_identical(ref, got, f"all-twin[{i}]")

    def test_twins_key_on_field_bits(self):
        """``0.0`` and ``-0.0`` compare equal but never merge."""
        params = [
            PlacerParams(perturbation=0.0),
            PlacerParams(perturbation=-0.0),
            PlacerParams(perturbation=0.0),
            PlacerParams(effort=2.0),
        ]
        distinct, slots = _placer_slots(params)
        assert len(distinct) == 3
        assert distinct[0] == PlacerParams(effort=2.0)  # longest budget first
        assert slots[0] == slots[2] != slots[1]

    @pytest.mark.parametrize("workers,twins", ((1, 3), (2, 1)))
    def test_session_reports_twins(self, workers, twins):
        """A 5-lane stack with 2 distinct placer settings has 3 twins at
        workers=1; at workers=2 it runs as stacks [A, A, B] and [A, B],
        which hold 1."""
        other = PlacerParams(effort=0.8)
        jobs = [
            (tiny_profile(),
             FlowParameters(placer=placer,
                            opt=OptParams(vt_swap_bias=0.9 + 0.05 * i)),
             0)
            for i, placer in enumerate(
                (PLACER_A, PLACER_A, other, PLACER_A, other)
            )
        ]
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            with FlowSession(RuntimeConfig(workers=workers)) as session:
                assert all(o.ok for o in session.evaluate(jobs))
                stats = session.stats()
        finally:
            set_registry(previous)
        assert stats["batch_placement_twins"] == twins
        assert registry.counter(
            "flow_batch_placement_twins_total"
        ).value == twins

    def test_report_row(self):
        from repro.observability import render_batch

        text = render_batch({
            "flow_batch_placement_twins_total": {
                "kind": "counter", "values": {"{}": 3}
            },
        })
        assert "placement twins" in text


# ----------------------------------------------------------------------
# Session level: stacking is the FlowSession default.
# ----------------------------------------------------------------------
class TestSessionBatchEquivalence:
    @staticmethod
    def _jobs():
        profile = tiny_profile()
        return [
            (profile, RECIPES[name], seed)
            for seed in (0, 1)
            for name in RECIPE_NAMES
        ]

    @pytest.fixture(scope="class")
    def reference(self):
        """The scalar engine's bytes, named explicitly."""
        return [
            pickle.dumps(run_flow(d, p, seed=s), 5) for d, p, s in self._jobs()
        ]

    @pytest.mark.parametrize("workers", (1, 4))
    @pytest.mark.parametrize("cached", (False, True))
    def test_bit_identical(self, reference, tmp_path, workers, cached):
        config = RuntimeConfig(
            workers=workers,
            batch_size=8,
            qor_cache_path=(
                str(tmp_path / f"qor-{workers}") if cached else None
            ),
        )
        with FlowSession(config) as session:
            got = session.evaluate(self._jobs())
            stats = session.stats()
        if workers == 1:
            # In-process transport: the very same bytes as the scalar
            # reference.
            assert [pickle.dumps(o.result, 5) for o in got] == reference
        else:
            # Pool transport round-trips results through pickle, which
            # re-lays out the memo exactly as the scalar pool path does;
            # compare against the scalar engine at the same worker count.
            with FlowSession(
                RuntimeConfig(workers=workers), flow_fn=run_flow
            ) as scalar:
                want = scalar.evaluate(self._jobs())
            assert [pickle.dumps(o.result, 5) for o in got] == [
                pickle.dumps(o.result, 5) for o in want
            ]
        assert stats["batch_size"] == 8
        assert stats["batch_calls"] == 2          # one stack per seed
        if workers == 1:
            assert stats["batch_grouped_jobs"] == 6
            assert stats["batch_max_width"] == 3
        else:
            # ceil(6 jobs / 4 workers) = 2: each seed's three jobs run as
            # a 2-lane stack plus a lone job, spread over the pool.
            assert stats["batch_grouped_jobs"] == 4
            assert stats["batch_max_width"] == 2

    def test_pool_splits_bucket_across_workers(self):
        """One 5-job bucket at workers=2 runs as stacks of 3 and 2 (one
        per worker), with the bytes of the single 5-lane stack that
        workers=1 runs."""
        jobs = [
            (tiny_profile(), FlowParameters(opt=OptParams(vt_swap_bias=b)), 0)
            for b in (0.8, 0.9, 1.0, 1.1, 1.2)
        ]
        got, stats = {}, {}
        for workers in (1, 2):
            with FlowSession(RuntimeConfig(workers=workers)) as session:
                got[workers] = session.evaluate(jobs)
                stats[workers] = session.stats()
        assert stats[1]["batch_calls"] == 1
        assert stats[1]["batch_max_width"] == 5
        assert stats[2]["batch_calls"] == 2
        assert stats[2]["batch_grouped_jobs"] == 5
        assert stats[2]["batch_max_width"] == 3
        assert [transported(o.result) for o in got[2]] == \
            [transported(o.result) for o in got[1]]

    def test_pool_keeps_full_width_when_buckets_fill_it(self):
        """Width comes from the whole pending batch, not from each bucket:
        two 32-job buckets already give four workers four full stacks, so
        no stack is cut below batch_size (a per-bucket rule would cut
        each bucket into stacks of ceil(32 / 4) = 8)."""
        jobs = [
            (index, FlowJob(design, RECIPES[RECIPE_NAMES[0]], 0))
            for index, design in enumerate(["D6"] * 32 + ["D10"] * 32)
        ]
        with FlowSession(RuntimeConfig(workers=4, batch_size=16)) as executor:
            tasks = executor._plan_tasks(jobs)
        assert [len(job) for _, job in tasks] == [16] * 4

    def test_cache_hit_parity(self, tmp_path):
        jobs = self._jobs()
        sessions = {
            1: FlowSession(RuntimeConfig(
                qor_cache_path=str(tmp_path / "scalar")
            ), flow_fn=run_flow),
            8: FlowSession(RuntimeConfig(
                batch_size=8, qor_cache_path=str(tmp_path / "batch")
            )),
        }
        try:
            first = {
                k: s.evaluate(jobs) for k, s in sessions.items()
            }
            assert [pickle.dumps(o.result, 5) for o in first[1]] == \
                [pickle.dumps(o.result, 5) for o in first[8]]
            for session in sessions.values():
                before = session.cache.hits
                again = session.evaluate(jobs)
                assert session.cache.hits - before == len(jobs)
                assert all(o.cached for o in again)
            # A batch-warmed cache serves a scalar session and vice versa:
            # the keys and stored results are identical.
            crossed = FlowSession(RuntimeConfig(
                qor_cache_path=str(tmp_path / "batch")
            ), flow_fn=run_flow)
            try:
                assert all(o.cached for o in crossed.evaluate(jobs))
            finally:
                crossed.close()
        finally:
            for session in sessions.values():
                session.close()

    def test_fault_plan_forces_scalar_path(self):
        """A fault plan disables stacking entirely: fault-injected jobs
        always run one by one, with outcomes identical to a batch_size=1
        session."""
        plan = FaultPlan(
            rate=0.6, kinds=(FaultKind.CRASH,), seed=17
        )
        profile = tiny_profile()
        jobs = [
            (profile, FlowParameters(opt=OptParams(vt_swap_bias=b)), 0)
            for b in (0.9, 1.0, 1.1, 1.2)
        ]
        outcomes = {}
        for batch_size in (1, 4):
            executor = FlowSession(RuntimeConfig(
                workers=1, fault_plan=plan, seed=17,
                batch_size=batch_size,
            ))
            try:
                outcomes[batch_size] = executor.evaluate(jobs)
                assert executor.batch_calls == 0
            finally:
                executor.close()
        assert_same_outcomes(outcomes[4], outcomes[1])

    def test_group_failure_falls_back_to_scalar_errors(self):
        """A stacked evaluation that fails mid-flight re-runs its members
        one by one through the per-job supervision path, reproducing each
        member's typed error exactly."""
        jobs = [(tiny_profile(), RECIPES[n], 0) for n in RECIPE_NAMES]
        reports = {}
        for batch_size in (1, 8):
            config = RuntimeConfig(batch_size=batch_size, min_snapshots=99)
            with FlowSession(config) as session:
                reports[batch_size] = session.evaluate(jobs)
        for got, want in zip(reports[8], reports[1]):
            assert not want.ok and not got.ok
            assert type(got.error) is CorruptQoR
            assert type(got.error) is type(want.error)
            assert str(got.error) == str(want.error)
            assert len(got.attempts) == len(want.attempts)


# ----------------------------------------------------------------------
# Knob validation: batch_size is a width cap, never a contradiction.
# ----------------------------------------------------------------------
class TestKnobRejection:
    """Invalid widths are typed errors.  Per-job policies once rejected
    alongside ``batch_size > 1`` now construct and run every job on its
    own, with outcomes identical to ``batch_size=1``."""

    @staticmethod
    def _outcomes(config, **session_kwargs):
        with FlowSession(config, **session_kwargs) as session:
            outcomes = session.evaluate(tiny_jobs())
            assert session.stats().get("batch_calls", 0) == 0
        return outcomes

    @pytest.mark.parametrize("bad", (0, -1, 2.5, True, "8"))
    def test_invalid_batch_size(self, bad):
        with pytest.raises(RuntimeConfigError):
            RuntimeConfig(batch_size=bad)

    def test_fault_plan_contradicts_batch(self):
        plan = FaultPlan(rate=0.5, kinds=(FaultKind.CRASH,), seed=3)
        got = self._outcomes(RuntimeConfig(batch_size=2, fault_plan=plan))
        want = self._outcomes(RuntimeConfig(batch_size=1, fault_plan=plan))
        assert any(len(o.attempts) > 1 for o in want)  # faults did fire
        assert_same_outcomes(got, want)

    def test_deadline_contradicts_batch(self):
        got = self._outcomes(RuntimeConfig(batch_size=2, deadline_s=600.0))
        want = self._outcomes(RuntimeConfig(batch_size=1, deadline_s=600.0))
        assert_same_outcomes(got, want)

    def test_watchdog_runs_jobs_alone(self):
        got = self._outcomes(RuntimeConfig(batch_size=2, watchdog_s=600.0))
        want = self._outcomes(RuntimeConfig(batch_size=1, watchdog_s=600.0))
        assert_same_outcomes(got, want)

    def test_custom_flow_fn_contradicts_batch(self):
        from test_parallel_executor import toy_flow

        got = self._outcomes(RuntimeConfig(batch_size=2), flow_fn=toy_flow)
        want = self._outcomes(RuntimeConfig(batch_size=1), flow_fn=toy_flow)
        assert_same_outcomes(got, want)

    def test_injected_executor_contradicts_batch(self):
        got = self._outcomes(
            RuntimeConfig(batch_size=2), executor=FlowExecutor()
        )
        want = self._outcomes(
            RuntimeConfig(batch_size=1), executor=FlowExecutor()
        )
        assert_same_outcomes(got, want)

    def test_executor_layer_rejects_flow_fn(self):
        from test_parallel_executor import toy_flow

        reports = {}
        for batch_size in (1, 2):
            with FlowSession(RuntimeConfig(
                batch_size=batch_size
            ), flow_fn=toy_flow) as executor:
                reports[batch_size] = executor.evaluate(tiny_jobs())
                assert executor.batch_calls == 0
        assert_same_outcomes(reports[2], reports[1])


# ----------------------------------------------------------------------
# CLI: --batch-size rides the shared runtime flag builder.
# ----------------------------------------------------------------------
class TestCliBatchFlag:
    @pytest.mark.parametrize("argv", (
        ["build-dataset", "--out", "x.pkl", "--batch-size", "8"],
        ["sweep", "D6", "--axis", "opt.vt_swap_bias=0.9,1.1",
         "--batch-size", "8"],
        ["evaluate", "--dataset", "d.pkl", "--model", "m.npz",
         "--batch-size", "8"],
        ["online", "D6", "--dataset", "d.pkl", "--batch-size", "8"],
    ))
    def test_flag_parses_and_maps(self, argv):
        from repro.cli import _runtime_from_args, build_parser

        args = build_parser().parse_args(argv)
        assert args.batch_size == 8
        assert _runtime_from_args(args).batch_size == 8

    def test_contradiction_is_typed(self):
        """Chaos with --batch-size > 1 constructs and runs job by job,
        exactly as --batch-size 1 does."""
        from repro.cli import _runtime_from_args, build_parser

        plan = FaultPlan(rate=0.5, kinds=(FaultKind.CRASH,), seed=3)
        outcomes = {}
        for width in ("4", "1"):
            args = build_parser().parse_args(
                ["evaluate", "--dataset", "d.pkl", "--model", "m.npz",
                 "--batch-size", width, "--chaos-rate", "0.5"]
            )
            config = _runtime_from_args(args, fault_plan=plan)
            assert config.batch_size == int(width)
            with FlowSession(config) as session:
                outcomes[width] = session.evaluate(tiny_jobs())
        assert_same_outcomes(outcomes["4"], outcomes["1"])


# ----------------------------------------------------------------------
# Observability: the batch simulator report section.
# ----------------------------------------------------------------------
class TestBatchReportSection:
    METRICS = {
        "flow_batch_calls_total": {
            "kind": "counter", "values": {"{}": 4}
        },
        "flow_batch_jobs_total": {
            "kind": "counter", "values": {"{}": 12}
        },
        "flow_batch_width": {
            "kind": "gauge", "values": {"{}": 3}
        },
    }

    def test_render_batch(self):
        from repro.observability import render_batch

        text = render_batch(self.METRICS)
        assert "stacked evaluations" in text
        assert "jobs in stacked evaluations" in text
        assert "widest stacked call" in text
        assert render_batch({}) == ""

    def test_session_stats_surface(self):
        with FlowSession(RuntimeConfig(batch_size=4)) as session:
            session.evaluate(
                [(tiny_profile(), RECIPES[n], 0) for n in RECIPE_NAMES]
            )
            stats = session.stats()
        assert stats["batch_calls"] == 1
        assert stats["batch_grouped_jobs"] == 3
        assert stats["batch_max_width"] == 3
        assert 0.0 <= stats["batch_padding_waste"] < 1.0

    @pytest.mark.parametrize("batch_size", (1, 16))
    def test_traced_session_counts_every_flow(self, batch_size):
        """Stacked or not, each of K jobs is one ``flow_runs_total`` and
        one ``flow_attempts_total``, and every flow span hangs under
        ``flow.batch`` (a stack as one ``flow.stack`` span)."""
        jobs = tiny_jobs()
        exporter = InMemoryExporter()
        registry = MetricsRegistry()
        previous_tracer = set_tracer(Tracer(exporter=exporter))
        previous_registry = set_registry(registry)
        try:
            with FlowSession(RuntimeConfig(batch_size=batch_size)) as s:
                assert all(o.ok for o in s.evaluate(jobs))
        finally:
            set_tracer(previous_tracer)
            set_registry(previous_registry)
        assert registry.counter("flow_runs_total").value_of(status="ok") \
            == len(jobs)
        assert registry.counter("flow_attempts_total").value == len(jobs)
        records = exporter.records()
        by_id = {record.span_id: record for record in records}
        (batch,) = [r for r in records if r.name == "flow.batch"]
        flow_spans = [r for r in records if r.name != "flow.batch"]
        assert flow_spans
        for record in flow_spans:
            parent = by_id[record.parent_id]
            while parent.span_id != batch.span_id:
                parent = by_id[parent.parent_id]
        stacks = [r for r in records if r.name == "flow.stack"]
        if batch_size == 1:
            assert not stacks
        else:
            (stack,) = stacks
            assert stack.parent_id == batch.span_id
            assert stack.attributes == {
                "design": str(jobs[0][0]), "seed": 0, "width": len(jobs),
            }


if __name__ == "__main__":
    print(f"wrote {write_pins()} pins to {GOLDEN_PINS}")
