"""The package imports nothing beyond the standard library, numpy and scipy."""

import ast
import sys
from pathlib import Path

import coastwatch

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "coastwatch"}
MODULES = sorted(Path(coastwatch.__file__).parent.glob("*.py"))


def _imported_roots(tree: ast.Module) -> set[str]:
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_runtime_imports_are_stdlib_numpy_or_scipy():
    assert {p.stem for p in MODULES} >= {"_container", "cli", "raster", "sensor"}
    foreign = {
        path.name: sorted(_imported_roots(ast.parse(path.read_text())) - ALLOWED)
        for path in MODULES
    }
    assert {name: roots for name, roots in foreign.items() if roots} == {}
