"""Every function the benchmark's tracer wraps must still exist.

``perfbench/tracer.py`` records a traced function that the package no
longer has as absent and skips it, so a rename there would silently drop
a layer from the per-layer metrics.  This reads the tracer's ``TRACED``
list as data, without importing the tracer, and looks each pair up the
way the tracer does: as a callable attribute of the loaded submodule.
"""

import ast
import sys
from pathlib import Path

import pytest

import dtiling

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_pairs():
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {TRACER}")


def test_traced_list_is_nonempty():
    assert len(traced_pairs()) >= 20


@pytest.mark.parametrize("module_name, fn_name", traced_pairs())
def test_traced_function_present(module_name, fn_name):
    module = sys.modules.get(f"{dtiling.__name__}.{module_name}")
    assert module is not None, f"dtiling.{module_name} is not loaded by 'import dtiling'"
    assert callable(getattr(module, fn_name, None)), f"dtiling.{module_name}.{fn_name} is missing"
