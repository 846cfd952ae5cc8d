"""Every package name the benchmark uses still exists, and its counters count.

``perfbench/spans.Tracer.install`` skips a ``module.function`` name the
package no longer has, and that function's per-layer metrics then read 0;
the first test fails instead. The second fails when a deletion removes any
other name a perfbench script reads, which would otherwise break the
benchmark only when it runs. The third traces one tiny unit of each
workload: a counter swallows the ``AttributeError`` of an attribute that
went missing, so its span would carry no counts and its metrics read 0.
"""

import ast
import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_is_a_coastwatch_function(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        targets = importlib.import_module("layers").TARGETS
    finally:
        # perfbench's modules are scripts, not a package: keep their generic
        # names out of the other tests' imports
        for name in ("layers", "spans"):
            sys.modules.pop(name, None)
    assert len(targets) == 33
    missing = []
    for name in targets:
        module, function = name.split(".")
        found = getattr(importlib.import_module(f"coastwatch.{module}"), function, None)
        if not callable(found):
            missing.append(name)
    assert missing == []


MODULES = ("alerting", "cli", "convnet", "dataset", "mlp", "quantbench", "raster",
           "sensor")


def test_every_name_perfbench_uses_still_exists():
    used = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in MODULES):
                used.add((f"coastwatch.{node.value.id}", node.attr))
            elif (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "coastwatch"):
                used.update((node.module, alias.name) for alias in node.names)
    assert len(used) > 50
    for module in MODULES:  # binds each module on the package, as it runs
        importlib.import_module(f"coastwatch.{module}")
    missing = [f"{module}.{name}" for module, name in sorted(used)
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_every_counted_span_carries_counts(monkeypatch, tmp_path):
    """One tiny-dims unit of each workload, traced as the benchmark's
    self-test traces it (``selftest.check_workloads``): each span of a
    ``TARGETS`` entry with a counter carries counts."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        selftest = importlib.import_module("selftest")
        targets, workloads = selftest.TARGETS, selftest.WORKLOADS
        uncounted, counted = [], set()
        for name, cls in workloads.items():
            wl = cls(tmp_path, dims=selftest.TINY_DIMS)
            wl.size = 512
            for attr, value in (("train_samples", 300), ("n_stations", 300),
                                ("epochs", 1), ("random_patches", 1)):
                if hasattr(wl, attr):
                    setattr(wl, attr, value)
            tracer = selftest.Tracer()
            tracer.install(targets)
            try:
                unit = wl.setup(0, 1)
                tracer.op = 0
                with tracer.span("op"):
                    wl.traced_op(unit, tracer)
            finally:
                tracer.uninstall()
            for span in tracer.spans:
                if targets.get(span.name) is not None:
                    counted.add(span.name)
                    if not span.counts:
                        uncounted.append(f"{name}: {span.name}")
    finally:
        for name in ("selftest", "workloads", "stations", "layers", "spans"):
            sys.modules.pop(name, None)
    assert "convnet.infer_raster" in counted and len(counted) > 8
    assert uncounted == []
