"""Cross-module property tests (hypothesis): physical and algorithmic
invariants that must hold for *any* valid input, not just the fixtures."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.model import InsightAlignModel
from repro.core.policy import sequence_log_prob_value, step_log_probs
from repro.cts.tree import CtsParams, synthesize_clock_tree
from repro.insights.schema import INSIGHT_DIMS
from repro.netlist.generator import generate_netlist
from repro.placement.batch import _StackIndex, _unit_gradient
from repro.placement.congestion import rudy_map_fast
from repro.placement.grid import PlacementGrid
from repro.placement.placer import PlacerParams, _boxes_fast, place
from repro.routing.groute import _diffuse
from repro.timing.constraints import default_constraints
from repro.timing.sta import run_sta
from repro.utils.rng import derive_rng

from conftest import tiny_profile


class TestRoutingDiffusionInvariants:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        move_fraction=st.floats(0.1, 0.8),
    )
    def test_diffusion_conserves_demand(self, seed, move_fraction):
        rng = derive_rng(seed, "diffuse")
        demand = rng.uniform(0, 10, size=(8, 8))
        capacity = rng.uniform(2, 6, size=(8, 8))
        total_before = demand.sum()
        _diffuse(demand, capacity, move_fraction)
        assert demand.sum() == pytest.approx(total_before, rel=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_diffusion_never_increases_total_overflow(self, seed):
        rng = derive_rng(seed, "diffuse2")
        demand = rng.uniform(0, 10, size=(8, 8))
        capacity = rng.uniform(2, 6, size=(8, 8))
        overflow_before = np.maximum(0.0, demand - capacity).sum()
        _diffuse(demand, capacity, 0.45)
        overflow_after = np.maximum(0.0, demand - capacity).sum()
        assert overflow_after <= overflow_before + 1e-9


class TestStaPhysicalInvariants:
    @pytest.fixture(scope="class")
    def design(self):
        profile = tiny_profile("TPI", sim_gate_count=220, clock_tightness=1.1)
        netlist = generate_netlist(profile, seed=31)
        place(netlist, PlacerParams(), seed=31)
        tree = synthesize_clock_tree(netlist, CtsParams(), seed=31)
        return netlist, tree

    def test_slower_wires_never_help_setup(self, design):
        netlist, tree = design
        constraints = default_constraints(netlist)
        base = run_sta(netlist, constraints, tree)
        saved = {n.name: n.wire_delay_ps for n in netlist.nets.values()}
        try:
            for net in netlist.nets.values():
                net.wire_delay_ps *= 3.0
            slowed = run_sta(netlist, constraints, tree)
            assert slowed.wns_ps <= base.wns_ps + 1e-9
            assert slowed.tns_ps >= base.tns_ps - 1e-9
        finally:
            for net in netlist.nets.values():
                net.wire_delay_ps = saved[net.name]

    def test_uncertainty_hurts_both_checks(self, design):
        import dataclasses

        netlist, tree = design
        base_constraints = default_constraints(netlist)
        guarded = dataclasses.replace(
            base_constraints,
            clock_uncertainty_ps=base_constraints.clock_uncertainty_ps + 20.0,
        )
        base = run_sta(netlist, base_constraints, tree)
        hard = run_sta(netlist, guarded, tree)
        assert hard.wns_ps <= base.wns_ps + 1e-9
        assert hard.hold_wns_ps <= base.hold_wns_ps + 1e-9
        # Register endpoints shift by exactly the added uncertainty (primary
        # outputs are checked against an ideal capture and don't).
        for endpoint, slack in base.endpoint_slack_ps.items():
            if endpoint.startswith("PO:"):
                continue
            assert hard.endpoint_slack_ps[endpoint] == pytest.approx(
                slack - 20.0, abs=1e-6
            )
            assert hard.endpoint_hold_slack_ps[endpoint] == pytest.approx(
                base.endpoint_hold_slack_ps[endpoint] - 20.0, abs=1e-6
            )


class TestPolicyInvariants:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 50))
    def test_step_probs_causal(self, seed):
        """log P(r_t | r_<t) must not depend on decisions after t."""
        model = InsightAlignModel(n_recipes=10, dim=16, seed=3)
        rng = derive_rng(seed, "causal")
        insight = rng.normal(size=(INSIGHT_DIMS,))
        decisions = rng.integers(0, 2, size=10)
        steps = step_log_probs(model, insight, decisions)
        mutated = decisions.copy()
        mutated[7:] = 1 - mutated[7:]
        mutated_steps = step_log_probs(model, insight, mutated)
        np.testing.assert_allclose(steps[:7], mutated_steps[:7], atol=1e-10)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 50))
    def test_log_probs_are_log_probabilities(self, seed):
        model = InsightAlignModel(n_recipes=10, dim=16, seed=3)
        rng = derive_rng(seed, "probs")
        insight = rng.normal(size=(INSIGHT_DIMS,))
        decisions = rng.integers(0, 2, size=10)
        value = sequence_log_prob_value(model, insight, decisions)
        assert value < 0.0
        assert np.isfinite(value)


class TestGridInvariants:
    @settings(max_examples=15, deadline=None)
    @given(
        width=st.floats(20.0, 200.0),
        bins=st.integers(4, 20),
        seed=st.integers(0, 100),
    )
    def test_density_total_area_conserved(self, width, bins, seed):
        grid = PlacementGrid.for_die(width, width, [], target_bins=bins)
        rng = derive_rng(seed, "grid")
        xs = rng.uniform(0, width, 60)
        ys = rng.uniform(0, width, 60)
        areas = rng.uniform(0.5, 3.0, 60)
        density = grid.density_map(xs, ys, areas, blockage_penalty=False)
        assert (density * grid.bin_area_um2).sum() == pytest.approx(
            areas.sum(), rel=1e-9
        )


def _mixed(rng, shape):
    """Mixed magnitudes and signs, with exact 0.0 and -0.0 sprinkled in."""
    values = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-12, 9, shape)
    zeros = rng.random(shape) < 0.1
    values[zeros] = rng.choice([0.0, -0.0], zeros.sum())
    return values


def _coords(rng, shape):
    """Points around a 100 x 80 die, off-die and signed zeros included."""
    coords = rng.uniform(-10.0, 110.0, shape)
    zeros = rng.random(shape) < 0.1
    coords[zeros] = rng.choice([0.0, -0.0], zeros.sum())
    return coords


@st.composite
def _stacks(draw):
    """A random pin list over a few nets, lanes of positions and values."""
    lanes = draw(st.integers(1, 6))
    cells = draw(st.integers(2, 30))
    sizes = draw(st.lists(st.integers(2, 6), min_size=1, max_size=30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pins = sum(sizes)
    design = SimpleNamespace(
        p_names=[f"c{i}" for i in range(cells)],
        p_net_sizes=np.array(sizes, dtype=np.int64),
        # Repeated cells, within and across nets, are allowed.
        pin_cell=rng.integers(0, cells, pins),
        pin_net=np.repeat(np.arange(len(sizes)), sizes),
        p_area=10.0 ** rng.uniform(-3, 3, cells),
    )
    positions = _coords(rng, (lanes, cells, 2))
    values = _mixed(rng, (lanes, pins, 2))
    return design, positions, values, draw(st.integers(4, 9))


@st.composite
def _box_stacks(draw):
    """Lanes of many net boxes over few bins, with mixed-magnitude lengths."""
    lanes = draw(st.integers(1, 4))
    nets = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = _coords(rng, (lanes, nets, 2))
    hi = lo + rng.uniform(0.0, 60.0, (lanes, nets, 2))
    lengths = _mixed(rng, (lanes, nets))
    return lo, hi, lengths, draw(st.integers(4, 9))


class TestStackedScatterInvariants:
    """The stacked placer's slot-offset scatters reproduce the scalar
    per-lane ``ufunc.at`` scatters byte for byte."""

    @staticmethod
    def _index(design, lanes, bins):
        grid = PlacementGrid.for_die(
            100.0, 80.0, [(10.0, 5.0, 30.0, 40.0)], target_bins=bins
        )
        return grid, _StackIndex(design, grid, lanes, 50.0)

    @settings(max_examples=60, deadline=None)
    @given(case=_box_stacks())
    def test_rudy_equals_scalar(self, case):
        """The four corner scatters keep the scalar per-bin term order."""
        lo, hi, lengths, bins = case
        empty = np.zeros(0, dtype=np.int64)
        design = SimpleNamespace(
            p_names=[], p_net_sizes=empty, pin_cell=empty, pin_net=empty,
            p_area=np.zeros(0),
        )
        grid, ix = self._index(design, len(lengths), bins)
        rudy = ix.rudy(lo, hi, lengths)
        for lane in range(len(lengths)):
            boxes = np.column_stack([
                lo[lane, :, 0], lo[lane, :, 1], hi[lane, :, 0], hi[lane, :, 1]
            ])
            want = rudy_map_fast(grid, boxes, lengths[lane], 50.0)
            assert rudy[lane].tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(case=_stacks())
    def test_bincount_equals_per_lane_add_at(self, case):
        design, positions, values, bins = case
        lanes = len(values)
        _, ix = self._index(design, lanes, bins)
        nets = ix.to_nets(lanes, values.ravel())
        cells = ix.to_cells(lanes, values.ravel())
        for lane in range(lanes):
            want = np.zeros((len(design.p_net_sizes), 2))
            np.add.at(want, design.pin_net, values[lane])
            assert nets[lane].tobytes() == want.tobytes()
            want = np.zeros((len(design.p_names), 2))
            np.add.at(want, design.pin_cell, values[lane])
            assert cells[lane].tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(case=_stacks())
    def test_boxes_density_rudy_equal_scalar(self, case):
        design, positions, _, bins = case
        lanes = len(positions)
        grid, ix = self._index(design, lanes, bins)
        lo, hi, lengths = ix.boxes(lanes, ix.pin_xy(positions))
        rudy = ix.rudy(lo, hi, lengths)
        density = grid.density_of(ix.used_area(positions))
        for lane in range(lanes):
            boxes, want = _boxes_fast(
                positions[lane], design.pin_cell, design.pin_net,
                len(design.p_net_sizes), ix.steiner,
            )
            got = np.column_stack([
                lo[lane, :, 0], lo[lane, :, 1], hi[lane, :, 0], hi[lane, :, 1]
            ])
            assert got.tobytes() == boxes.tobytes()
            assert lengths[lane].tobytes() == want.tobytes()
            assert rudy[lane].tobytes() == \
                rudy_map_fast(grid, boxes, want, 50.0).tobytes()
            xs, ys = positions[lane, :, 0], positions[lane, :, 1]
            assert density[lane].tobytes() == \
                grid.density_map(xs, ys, design.p_area).tobytes()


    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(2, 17), st.integers(2, 17)),
        seed=st.integers(0, 2**16),
    )
    def test_unit_gradient_equals_np_gradient(self, shape, seed):
        """The spreading field's sliced gradient is ``np.gradient``'s bits,
        signed zeros included."""
        rng = np.random.default_rng(seed)
        field = rng.normal(size=shape) * rng.integers(0, 2, size=shape)
        field[rng.random(shape) < 0.2] = -0.0
        gy, gx = np.gradient(field, axis=(1, 2))
        assert _unit_gradient(field, 1).tobytes() == gy.tobytes()
        assert _unit_gradient(field, 2).tobytes() == gx.tobytes()


class TestCtsInvariants:
    @settings(max_examples=6, deadline=None)
    @given(cluster=st.integers(4, 32), drive=st.sampled_from([2, 4, 8]))
    def test_cts_covers_all_sinks(self, cluster, drive):
        profile = tiny_profile("TCI", sim_gate_count=180, register_ratio=0.3)
        netlist = generate_netlist(profile, seed=5)
        place(netlist, PlacerParams(), seed=5)
        tree = synthesize_clock_tree(
            netlist,
            CtsParams(max_cluster_size=cluster, buffer_drive=drive),
            seed=5,
        )
        assert set(tree.latency_ps) == {
            c.name for c in netlist.sequential_cells()
        }
        assert min(tree.latency_ps.values()) > 0.0
