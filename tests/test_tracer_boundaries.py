"""The benchmark tracer rebinds package functions by name: every name it
lists must exist, or only the traced benchmark runs would notice."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _constant(name):
    """The literal value of a module-level assignment in bench/tracer.py,
    read without importing the benchmark."""
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACER}")


BOUNDARIES = _constant("BOUNDARIES")


@pytest.mark.parametrize("module, attr, span", BOUNDARIES)
def test_boundary_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(f"goodpairs.{module}"), attr))


def test_rules_are_boundaries():
    assert set(_constant("RULES")) <= {attr for _, attr, _ in BOUNDARIES}
