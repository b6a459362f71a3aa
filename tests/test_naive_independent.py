"""The brute-force oracles in ``tests/naive.py`` must not import the
package they check, or a shared bug could hide in both."""

import ast
from pathlib import Path

NAIVE = Path(__file__).with_name("naive.py")


def _dynamic_import(func: ast.expr) -> bool:
    """``__import__(...)`` or ``importlib.import_module(...)``."""
    return getattr(func, "id", None) == "__import__" or getattr(func, "attr", None) == "import_module"


def imported_modules(tree: ast.AST) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Call) and _dynamic_import(node.func):
            names += [arg.value for arg in node.args[:1] if isinstance(arg, ast.Constant)]
    return names


def test_naive_imports_no_dtiling():
    imports = imported_modules(ast.parse(NAIVE.read_text()))
    assert imports, "no imports found: the parser is not reading naive.py"
    offending = [m for m in imports if m.split(".")[0] == "dtiling" or m.startswith(".")]
    assert offending == []


def test_detector_sees_each_import_form():
    for source in (
        "import dtiling",
        "import dtiling.exact as e",
        "from dtiling import build",
        "from dtiling.core import build",
        "def f():\n    from dtiling import exact",
        "__import__('dtiling')",
        "import importlib\nimportlib.import_module('dtiling.exact')",
    ):
        assert any(m.startswith("dtiling") for m in imported_modules(ast.parse(source))), source
