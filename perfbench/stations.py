"""Seeded in-situ station generator for the benchmark.

No coastwatch command produces an in-situ CSV, so the benchmark makes one.
Stations sit on pixel centres of the patch-aligned part of a synthetic
scene and report the value of ``SceneTruth.fields`` at their pixel. Known
numbers of defective rows are mixed in, so the counts that
``dataset.ingest_records``, ``select_surface`` and ``match`` report can be
checked exactly:

* invalid rows, rejected at ingest (bad value, date or coordinates);
* exact duplicates of valid rows, removed at ingest;
* deeper readings of valid stations, dropped by ``select_surface``;
* stations outside the scene footprint, left unmatched by ``match``.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from coastwatch import dataset, sensor
from coastwatch.raster import PATCH_SIZE

SURFACE_DEPTH_M = 0.5
DEEP_DEPTH_M = 3.0
PH_EVERY = 4          # every PH_EVERY-th station also reports pH
N_INVALID = 40
N_DUPLICATES = 30
N_DEEP = 50
N_OFF = 25


@dataclass(frozen=True)
class Expected:
    """Counts the coastwatch ingest and match steps must report."""

    rejected: int
    duplicates: int
    surface: int
    matched: int
    matched_turbidity: int


@dataclass
class Stations:
    rows: list[dict]          # every CSV row, defects included
    expected: Expected

    def write_csv(self, path: Path) -> Path:
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=dataset.CSV_COLUMNS)
            writer.writeheader()
            writer.writerows(self.rows)
        return path


def _row(station: str, date: dt.date, depth: float, parameter: str,
         value: float, lat: float, lon: float) -> dict:
    return {
        "station_id": station, "municipality": "bench",
        "location_name": station, "distance_from_coast_m": "250",
        "date": date.isoformat(), "depth_m": f"{depth:g}",
        "parameter": parameter, "value": repr(float(value)),
        "lat": repr(float(lat)), "lon": repr(float(lon)),
    }


def generate(
    spec: sensor.SceneSpec,
    truth: sensor.SceneTruth,
    seed: int,
    n_stations: int,
) -> Stations:
    """Stations for the scene ``spec`` whose ground truth is ``truth``.

    Every station reports turbidity; every ``PH_EVERY``-th also reports pH.
    Row order is shuffled; the same arguments give the same rows.
    """
    rng = np.random.default_rng(seed)
    georef = spec.georef()
    rows_px = spec.height // PATCH_SIZE * PATCH_SIZE
    cols_px = spec.width // PATCH_SIZE * PATCH_SIZE
    if n_stations > rows_px * cols_px:
        raise ValueError("more stations than pixels in the tiled area")
    pixels = rng.choice(rows_px * cols_px, size=n_stations, replace=False)

    def latlon(r: float, c: float) -> tuple[float, float]:
        north_m = (spec.height / 2.0 - (r + 0.5)) * spec.gsd
        east_m = ((c + 0.5) - spec.width / 2.0) * spec.gsd
        return georef.offset_latlon(north_m, east_m)

    valid = []
    for i, pix in enumerate(pixels):
        r, c = divmod(int(pix), cols_px)
        lat, lon = latlon(r, c)
        sid = f"st{i:05d}"
        valid.append(_row(sid, spec.date, SURFACE_DEPTH_M, sensor.TURBIDITY,
                          truth.fields[sensor.TURBIDITY][r, c], lat, lon))
        if i % PH_EVERY == 0:
            valid.append(_row(sid, spec.date, SURFACE_DEPTH_M, sensor.PH,
                              truth.fields[sensor.PH][r, c], lat, lon))

    # stations about 5-10 km east of the scene: valid rows no patch contains
    off = []
    for i in range(N_OFF):
        lat, lon = latlon(rng.uniform(0, spec.height),
                          spec.width + rng.uniform(1000, 2000))
        off.append(_row(f"off{i:04d}", spec.date, SURFACE_DEPTH_M,
                        sensor.TURBIDITY, rng.uniform(1.0, 30.0), lat, lon))

    picks = rng.choice(len(valid), size=N_DUPLICATES + N_DEEP, replace=False)
    duplicates = [dict(valid[j]) for j in picks[:N_DUPLICATES]]
    deep = []
    for j in picks[N_DUPLICATES:]:
        row = dict(valid[j], depth_m=f"{DEEP_DEPTH_M:g}")
        row["value"] = repr(float(row["value"]) * 1.1)
        deep.append(row)

    defects = (
        ("value", "-1.0"),          # negative turbidity or pH
        ("value", "not-a-number"),
        ("date", "2024-13-45"),
        ("lat", "123.0"),
    )
    invalid = []
    for i in range(N_INVALID):
        key, bad = defects[i % len(defects)]
        invalid.append(dict(valid[int(rng.integers(len(valid)))],
                            station_id=f"bad{i:04d}", **{key: bad}))

    rows = valid + off + duplicates + deep + invalid
    rows = [rows[k] for k in rng.permutation(len(rows))]

    expected = Expected(
        rejected=N_INVALID,
        duplicates=N_DUPLICATES,
        surface=len(valid) + N_OFF,
        matched=len(valid),
        matched_turbidity=n_stations,
    )
    return Stations(rows=rows, expected=expected)
