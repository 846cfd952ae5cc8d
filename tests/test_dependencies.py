"""The package imports nothing beyond the standard library and numpy; scipy
is only the tests' reference. No module reads a private name of another."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import coastwatch
from coastwatch import cli

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "coastwatch"}
MODULES = sorted(Path(coastwatch.__file__).parent.glob("*.py"))


def _imported_roots(tree: ast.Module) -> set[str]:
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_runtime_imports_are_stdlib_or_numpy():
    assert {p.stem for p in MODULES} >= {"_container", "cli", "raster", "sensor"}
    foreign = {
        path.name: sorted(_imported_roots(ast.parse(path.read_text())) - ALLOWED)
        for path in MODULES
    }
    assert {name: roots for name, roots in foreign.items() if roots} == {}


def _private_sibling_names(tree: ast.Module) -> list[str]:
    """``module._name`` reads and ``from .module import _name`` imports of
    the package's own modules, as ``module._name:line``; the ``_container``
    module itself, the framing every file format shares, may be imported."""
    siblings = {p.stem for p in MODULES}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and node.attr.startswith("_")):
            found.append(f"{node.value.id}.{node.attr}:{node.lineno}")
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            found += [f"{node.module or ''}.{alias.name}:{node.lineno}"
                      for alias in node.names if alias.name.startswith("_")
                      and not (node.module is None and alias.name == "_container")]
    return found


def test_no_module_reads_a_private_name_of_another():
    private = {path.name: _private_sibling_names(ast.parse(path.read_text()))
               for path in MODULES}
    assert {name: found for name, found in private.items() if found} == {}


# ``import scipy`` raises ImportError once its sys.modules entry is None
WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from coastwatch import cli
sys.exit(cli.main(sys.argv[1:]))
"""


def test_simulate_runs_without_scipy(tmp_path):
    # 600 x 520 px: four chips, neither side a multiple of the row block,
    # blurred, noised and shifted by fractions of a pixel
    doc = {"width": 520, "height": 600, "noise_std": 0.002,
           "degrade": {"snr": 100, "mtf": 0.3,
                       "misalign_m": [[0, 0], [2, -1], [-1.5, 2.25], [3, 0],
                                      [0, -2.5], [1.3, 0.7], [-2, -2]]}}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    argv = ["simulate", "--spec", str(spec), "--seed", "5", "--out"]
    env = {**os.environ, "PYTHONPATH": str(Path(coastwatch.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, *argv,
                          str(tmp_path / "alone")],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert cli.main([*argv, str(tmp_path / "here")]) == 0
    here, alone = ({p.relative_to(tmp_path / d): p.read_bytes()
                    for p in (tmp_path / d).rglob("*") if p.is_file()}
                   for d in ("here", "alone"))
    assert sum(p.parent.name == "chips" for p in here) == 4
    assert alone == here  # the scene, the chips and truth.json, byte for byte
