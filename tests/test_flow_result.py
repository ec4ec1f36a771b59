"""Tests for FlowResult/StageSnapshot containers and the stages enum."""

import ast
import pathlib

import pytest

from conftest import tiny_profile

from repro.flow.batch_runner import run_flow_batch
from repro.flow.parameters import FlowParameters, OptParams
from repro.flow.result import FlowResult, StageSnapshot
from repro.flow.runner import REQUIRED_QOR_KEYS, run_flow
from repro.flow.stages import FlowStage

SRC_ROOT = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


class TestStages:
    def test_ordered_pipeline(self):
        order = FlowStage.ordered()
        assert order[0] is FlowStage.PLACEMENT
        assert order[-1] is FlowStage.SIGNOFF
        assert len(order) == 5

    def test_values_are_stable_identifiers(self):
        assert FlowStage.CTS.value == "cts"
        assert FlowStage.OPTIMIZATION.value == "optimization"


class TestSnapshot:
    def test_get_with_default(self):
        snap = StageSnapshot(FlowStage.CTS, {"skew": 3.0})
        assert snap.get("skew") == 3.0
        assert snap.get("missing", -1.0) == -1.0

    def test_result_accessors(self):
        result = FlowResult(
            design="Dx",
            qor={"tns_ns": 5.0, "power_mw": 2.0},
            snapshots=[StageSnapshot(FlowStage.PLACEMENT, {"hpwl_um": 1.0})],
        )
        assert result.tns_ns == 5.0
        assert result.power_mw == 2.0
        assert result.snapshot(FlowStage.PLACEMENT).get("hpwl_um") == 1.0
        with pytest.raises(KeyError):
            result.snapshot(FlowStage.SIGNOFF)


class TestRealFlowSnapshots:
    def test_placement_congestion_trajectory_keys(self, flow_result):
        snap = flow_result.snapshot(FlowStage.PLACEMENT)
        for key in ("congestion_early", "congestion_mid", "congestion_late"):
            assert key in snap.metrics

    def test_signoff_consistency_with_qor(self, flow_result):
        signoff = flow_result.snapshot(FlowStage.SIGNOFF)
        assert signoff.get("drc_count") == flow_result.qor["drc_count"]
        assert signoff.get("tns_ps") >= 0.0

    def test_optimization_accounting(self, flow_result):
        opt = flow_result.snapshot(FlowStage.OPTIMIZATION)
        assert opt.get("post_opt_tns_ps") <= opt.get("pre_opt_tns_ps") + 1e-9
        assert opt.get("tns_improvement_ps") == pytest.approx(
            opt.get("pre_opt_tns_ps") - opt.get("post_opt_tns_ps")
        )

    def test_power_fractions_consistent(self, flow_result):
        signoff = flow_result.snapshot(FlowStage.SIGNOFF)
        total = signoff.get("power_mw_raw")
        assert signoff.get("dynamic_mw_raw") <= total + 1e-12
        assert 0.0 <= signoff.get("leakage_fraction") <= 1.0


class TestOneBuilder:
    """Both flow engines emit their results through the builders in
    ``repro.flow.runner``, so the two can never drift apart."""

    BUILDERS = frozenset({
        "_placement_snapshot", "_cts_snapshot", "_routing_snapshot",
        "_optimization_snapshot", "_signoff_result",
    })

    def test_both_engines_emit_qor_and_stages_in_order(self):
        profile = tiny_profile()
        stack = [
            (profile, FlowParameters(
                opt=OptParams(vt_swap_bias=1.0 + 0.1 * lane)
            ), 2)
            for lane in range(3)
        ]
        results = [run_flow(*stack[0])] + run_flow_batch(stack)
        for result in results:
            assert list(result.qor) == list(REQUIRED_QOR_KEYS)
            assert [snap.stage for snap in result.snapshots] == list(
                FlowStage.ordered()
            )

    @staticmethod
    def _snapshot_calls(tree):
        """``(enclosing function, line)`` of every ``StageSnapshot(...)``."""
        found = []

        def visit(node, owner):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(child, child.name)
                    continue
                if (isinstance(child, ast.Call)
                        and isinstance(child.func, ast.Name)
                        and child.func.id == "StageSnapshot"):
                    found.append((owner, child.lineno))
                visit(child, owner)

        visit(tree, None)
        return found

    def test_stage_snapshots_built_only_by_runner_builders(self):
        offenders = []
        for path in sorted(SRC_ROOT.rglob("*.py")):
            calls = self._snapshot_calls(ast.parse(path.read_text()))
            for owner, line in calls:
                if not (path.name == "runner.py" and path.parent.name == "flow"
                        and owner in self.BUILDERS):
                    offenders.append(f"{path}:{line}: in {owner}")
        assert not offenders, "\n".join(offenders)
