"""Every function the benchmark's traced run wraps still exists.

``perfbench/spans.Tracer.install`` skips a ``module.function`` name the
package no longer has, and that function's per-layer metrics then read 0;
this test fails instead.
"""

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
