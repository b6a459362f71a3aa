"""Every public function of ``dtiling.exact`` has a caller.

A public function is reached when its name is used in a package module
other than ``__init__.py``, in the acceptance suite, or in the
benchmark tracer's ``TRACED`` list, read as data.  A name that only
``__init__`` re-exports and tests call is a wrapper no solve runs.
"""

import ast
import io
import types
from pathlib import Path

import pytest

import dtiling
import dtiling.exact

from test_trace_sites import traced_pairs

ROOT = Path(__file__).resolve().parents[1]


def names_used(path):
    """The names a source file uses: loaded names, attributes and
    imported names."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


SOURCES = [p for p in (ROOT / "src" / "dtiling").glob("*.py") if p.name != "__init__.py"]
REACHED = set().union(*(names_used(p) for p in SOURCES + [ROOT / "tests" / "test_acceptance.py"])) | {
    fn for module, fn in traced_pairs() if module == "exact"
}


PUBLIC = sorted(
    name
    for name, value in vars(dtiling.exact).items()
    if not name.startswith("_")
    and isinstance(value, types.FunctionType)
    and value.__module__ == dtiling.exact.__name__
)


def test_exact_has_public_functions():
    assert "perfect_tiling_exact" in PUBLIC and "max_D_free_set" in PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_public_exact_function_is_reached(name):
    assert name in REACHED, f"dtiling.exact.{name} is called by no module, acceptance test or traced layer"


def test_star_import_binds_no_submodule():
    # __all__ was every name in dir(), so ``from dtiling import *`` rebound
    # a caller's ``io`` to ``dtiling.io``.
    assert not [name for name in dtiling.__all__ if isinstance(getattr(dtiling, name), types.ModuleType)]
    assert {"solve_driver", "Hypergraph3", "SearchBudget"} <= set(dtiling.__all__)
    namespace = {}
    exec("import io\nfrom dtiling import *", namespace)
    assert namespace["io"] is io and "exact" not in namespace and "solve_driver" in namespace
