"""The package's sources: no BLAS entry point and no libm hypot, whose
results depend on the host, and no private name imported across modules."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "clgmd"
MODULES = sorted(SRC.glob("*.py"))
# numpy's BLAS-backed calls pick a kernel, and so a summation order, by
# CPU; hypot's algorithm has changed between CPython releases.
HOST_DEPENDENT = {"dot", "linalg", "matmul", "inner", "vdot", "tensordot", "einsum", "hypot"}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_blas_entry_point_or_hypot(path):
    found = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Attribute) and node.attr in HOST_DEPENDENT:
            found.append(f"{node.lineno}: .{node.attr}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{node.lineno}: @")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = {part for alias in node.names for part in alias.name.split(".")}
            found += [f"{node.lineno}: import {name}" for name in names & HOST_DEPENDENT]
    assert found == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_is_imported_across_modules(path):
    private = [
        f"{node.lineno}: {alias.name}"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
