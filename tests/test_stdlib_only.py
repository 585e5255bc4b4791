"""The package imports nothing outside the standard library and itself."""

import ast
import pathlib
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "symorbits"


def _foreign_imports(path):
    """(line, module) of every absolute import of a non-stdlib module."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        out.extend(
            (node.lineno, name) for name in names
            if name.split(".")[0] not in sys.stdlib_module_names
        )
    return out


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_stdlib_and_relative(path):
    assert _foreign_imports(path) == []


def test_checker_flags_a_foreign_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nfrom . import fields\nimport numpy.linalg\nfrom sympy import S\n")
    assert _foreign_imports(module) == [(3, "numpy.linalg"), (4, "sympy")]
