"""The package depends on numpy alone: every module under ``src/polarmuon``
imports only the standard library, numpy and the package itself."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "polarmuon"
ALLOWED = frozenset(sys.stdlib_module_names) | {"numpy", "polarmuon"}


def _foreign_imports(source: str) -> set:
    """Top-level names of the absolute imports in ``source`` that are not
    in ``ALLOWED``; a relative import is the package's own."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots - ALLOWED


def test_guard_flags_a_foreign_import():
    source = (
        "import math, numpy.linalg\nimport scipy.linalg\nfrom mpmath import mp\n"
        "from . import matcore\nfrom polarmuon.errors import ConfigError\n"
    )
    assert _foreign_imports(source) == {"scipy", "mpmath"}


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: str(p.relative_to(PACKAGE))
)
def test_module_imports_only_stdlib_and_numpy(path):
    assert _foreign_imports(path.read_text(encoding="utf-8")) == set()
