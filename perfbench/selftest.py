"""Tiny-size self-test: fails fast when the benchmark itself is broken.

Checks that BENCHMARK.json declares exactly the metrics this code emits,
that the station generator's expected counts are what coastwatch reports,
that each workload's checks pass on a small scene and a small network, and
that the checks do catch a broken output.
"""

from __future__ import annotations

import json
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np

import stations
from coastwatch import alerting, dataset, raster, sensor
from layers import TARGETS, layer_metrics
from spans import Tracer
from workloads import WORKLOADS, scene_doc

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TINY_DIMS = (7, 16, 8, 1)
FILLED_BY_RUN = {"trace.op_s_p50", "trace.untraced_op_s_p50", "trace.overhead_frac"}


class SelfTestError(Exception):
    pass


def require(ok: bool, what: str) -> None:
    if not ok:
        raise SelfTestError(what)


def check_declaration(end_to_end, per_layer) -> None:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    require([w["name"] for w in bench["workloads"]] == list(WORKLOADS),
            "workloads differ")
    declared = [(m["name"], m["unit"], m["better"], m["bound"])
                for m in bench["end_to_end"]]
    require(declared == [tuple(m) for m in end_to_end], "end_to_end differs")
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    require(declared == [m[:3] for m in per_layer], "per_layer differs")
    names = [m[0] for m in (*end_to_end, *per_layer)]
    require(len(names) == len(set(names)), "metric names repeat")
    for name, unit, better, *_ in (*end_to_end, *per_layer):
        require(bool(NAME.match(name) and UNIT.match(unit)), name)
        require(better in ("lower", "higher"), name)


def check_generator(work: Path) -> None:
    spec = sensor.SceneSpec.from_json(scene_doc(512))
    scene, truth = sensor.generate_synthetic_scene(spec, 3)
    st = stations.generate(spec, truth, 3, 300)
    require(st.rows == stations.generate(spec, truth, 3, 300).rows,
            "generator is not deterministic")
    exp = st.expected
    ingest = dataset.ingest_records(st.write_csv(work / "insitu.csv"))
    require(len(ingest.rejected) == exp.rejected == stations.N_INVALID,
            "rejected rows")
    require(ingest.duplicates_removed == exp.duplicates == stations.N_DUPLICATES,
            "duplicates")
    surface = dataset.select_surface(ingest.records)
    require(len(surface) == exp.surface, "surface records")
    result = dataset.match(surface, raster.tile_scene(scene, spec.georef()).patches)
    require(len(result.samples) == exp.matched, "matched records")
    require(len(result.unmatched) == exp.surface - exp.matched == stations.N_OFF,
            "unmatched records")


def check_workloads(work: Path, per_layer) -> None:
    for name, cls in WORKLOADS.items():
        wl = cls(work, dims=TINY_DIMS)
        wl.size = 512
        for attr, value in (("train_samples", 300), ("n_stations", 300),
                            ("epochs", 1), ("random_patches", 1)):
            if hasattr(wl, attr):
                setattr(wl, attr, value)
        tracer = Tracer()
        tracer.install(TARGETS)
        unit = wl.setup(0, 1)
        tracer.op = 0
        with tracer.span("op"):
            traced = wl.traced_op(unit, tracer)
        tracer.uninstall()
        outcome = wl.check(unit, wl.op(unit), traced)
        require(not outcome.failed, f"{name}: {outcome.checks}")
        metrics = layer_metrics(tracer)
        from_spans = {m[0] for m in per_layer
                      if not m[0].startswith(("acc.", "ops."))} - FILLED_BY_RUN
        require(from_spans == set(metrics),
                f"{name}: span metrics differ: {from_spans ^ set(metrics)}")
        require(metrics["trace.uncovered_frac"] < 0.5, f"{name}: trace coverage")


def check_checks() -> None:
    from workloads import alerts_round_trip, mosaic_matches
    index = raster.TileIndex(512, 512, ((0, 0), (0, 256), (256, 0), (256, 256)))
    cells = [np.full((25, 25), k % 2, dtype=np.uint8) for k in range(4)]
    good = raster.mosaic(cells, index).data[0]
    require(mosaic_matches(good, cells, index), "mosaic check rejects a good mosaic")
    bad = good.copy()
    bad[30, 3] ^= 1
    require(not mosaic_matches(bad, cells, index), "mosaic check misses a flipped cell")
    msg = alerting.AlertMessage(
        "s", 44.0, 9.0, sensor.SceneSpec().date, sensor.TURBIDITY, "p", 3,
        0.1, 0, 11.0, 12.0, 11.5, "t")
    line = alerting.serialize_alert(msg)
    require(alerts_round_trip([line], [msg]), "alert check rejects a good alert")
    require(not alerts_round_trip([line.replace(b'"exceed_count":3',
                                               b'"exceed_count":4')], [msg]),
            "alert check misses a changed field")


def main(end_to_end, per_layer) -> int:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=out))
    try:
        check_declaration(end_to_end, per_layer)
        check_checks()
        check_generator(work)
        check_workloads(work, per_layer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("self-test passed")
    return 0
