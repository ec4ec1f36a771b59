"""The examples call the library with keywords the library still takes.

No test runs the example scripts (they build real archives), so an
example that drifts from the API would only fail in a reader's hands.
This parses every ``examples/*.py`` and binds the arguments of each call
to the flow-consuming entry points against the callee's signature.
"""

import ast
import inspect
import pathlib

import pytest

from repro.baselines.common import ParallelFlowObjective
from repro.core.dataset import build_offline_dataset
from repro.core.online import OnlineConfig
from repro.flow.sweep import sweep

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)

CALLEES = {
    "build_offline_dataset": build_offline_dataset,
    "sweep": sweep,
    "OnlineConfig": OnlineConfig,
    "ParallelFlowObjective": ParallelFlowObjective,
}


def _calls(tree):
    """``(callee name, call node)`` for every call to a watched name."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if name in CALLEES:
            yield name, node


def test_examples_exist():
    assert EXAMPLES, "no examples found"


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_calls_bind_to_signatures(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for name, call in _calls(tree):
        if any(isinstance(arg, ast.Starred) for arg in call.args):
            continue
        keywords = {
            keyword.arg: None for keyword in call.keywords
            if keyword.arg is not None
        }
        signature = inspect.signature(CALLEES[name])
        try:
            signature.bind_partial(*[None] * len(call.args), **keywords)
        except TypeError as err:
            pytest.fail(f"{path.name}:{call.lineno}: {name}(...): {err}")
