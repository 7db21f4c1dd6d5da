"""lieconf has no runtime dependencies: every absolute import in the package,
lazy ones inside functions included, names a standard-library module."""

import ast
import sys
from pathlib import Path

import pytest

import lieconf

SOURCES = sorted(Path(lieconf.__file__).parent.glob("*.py"))


def test_the_package_sources_are_found():
    assert Path(lieconf.__file__).name in {p.name for p in SOURCES} and len(SOURCES) > 1


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_absolute_import_is_stdlib(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    assert [n for n in names if n.split(".")[0] not in sys.stdlib_module_names] == []
