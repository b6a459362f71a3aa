"""Library checks must survive ``python -O``, which strips ``assert``."""

import ast
from pathlib import Path

import pytest

import dtiling

SOURCES = sorted(Path(dtiling.__file__).parent.glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 9


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} uses assert at lines {lines}; raise explicitly instead"
