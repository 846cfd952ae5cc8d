"""Training-corpus construction: in-situ ingestion, spatio-temporal matching
of station measurements to patches, splitting and feature normalization.

The in-situ CSV schema (one measurement per row, ISO-8601 dates, decimal
degrees):

    station_id, municipality, location_name, distance_from_coast_m,
    date, depth_m, parameter, value, lat, lon

``parameter`` is one of ``turbidity_NTU`` or ``pH``. Matching pairs a
surface record with the patch whose center is nearest, provided the record
falls inside the patch footprint (608 m half-extent per axis) and the
acquisition date is within ``MATCH_TOLERANCE_DAYS`` (3 days).
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import _container
from .errors import SchemaError
from .raster import (PATCH_SIZE, WINDOW, BandStack, GeoRef, Patch,
                     meters_per_degree, window_average)
from .sensor import PARAMETERS, PH, TURBIDITY, SceneTruth

# the station match's temporal window: +-3 days around the acquisition
MATCH_TOLERANCE_DAYS = 3

CSV_COLUMNS = (
    "station_id", "municipality", "location_name", "distance_from_coast_m",
    "date", "depth_m", "parameter", "value", "lat", "lon",
)


@dataclass(frozen=True)
class InSituRecord:
    """One station measurement of a water-quality parameter."""

    station_id: str
    municipality: str
    location_name: str
    distance_from_coast: float
    date: dt.date
    depth: float
    parameter: str
    value: float
    lat: float
    lon: float

    def __post_init__(self):
        if self.parameter not in PARAMETERS:
            raise ValueError(f"unknown parameter {self.parameter!r}")
        if not np.isfinite(self.value):
            raise ValueError("value must be finite")
        if self.parameter == TURBIDITY and self.value < 0:
            raise ValueError("turbidity must be >= 0")
        if self.parameter == PH and not 0.0 <= self.value <= 14.0:
            raise ValueError("pH must be in [0, 14]")
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        if not -90 <= self.lat <= 90 or not -180 <= self.lon <= 180:
            raise ValueError("lat/lon out of range")


@dataclass
class Sample:
    """One training sample: averaged band features and a single target."""

    features: np.ndarray          # (7,) float64, window-averaged reflectances
    target: float
    parameter: str
    patch_id: str
    window: tuple[int, int]       # (row, col) in the 25x25 window grid
    station_id: str
    date: dt.date

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64).reshape(7)
        if not np.isfinite(self.features).all() or not np.isfinite(self.target):
            raise ValueError("sample features/target must be finite")


# test and validation shares of the matched samples; train takes the rest
# (0.55 before rounding)
TEST_FRACTION = 0.20
VAL_FRACTION = 0.25


@dataclass(frozen=True)
class SplitSpec:
    """The shuffle seed of a split; the shares are the module constants."""

    seed: int = 0


@dataclass
class IngestResult:
    records: list[InSituRecord]
    rejected: list[tuple[int, str]]   # (1-based data row number, reason)
    duplicates_removed: int


def ingest_records(csv_source: str | Path) -> IngestResult:
    """Parse the in-situ CSV; invalid rows are rejected with diagnostics.

    Duplicate (station, date, depth, parameter) rows are removed keeping the
    first occurrence, and the count is reported.
    """
    path = Path(csv_source)
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in CSV_COLUMNS if c not in header]
        if missing:
            raise SchemaError(f"{path}: missing mandatory columns {missing}")
        records: list[InSituRecord] = []
        rejected: list[tuple[int, str]] = []
        seen: set[tuple] = set()
        duplicates = 0
        for idx, row in enumerate(reader, start=1):
            try:
                rec = InSituRecord(
                    station_id=row["station_id"].strip(),
                    municipality=row["municipality"].strip(),
                    location_name=row["location_name"].strip(),
                    distance_from_coast=float(row["distance_from_coast_m"]),
                    date=dt.date.fromisoformat(row["date"].strip()),
                    depth=float(row["depth_m"]),
                    parameter=row["parameter"].strip(),
                    value=float(row["value"]),
                    lat=float(row["lat"]),
                    lon=float(row["lon"]),
                )
            except (ValueError, KeyError) as exc:
                rejected.append((idx, str(exc)))
                continue
            key = (rec.station_id, rec.date, rec.depth, rec.parameter)
            if key in seen:
                duplicates += 1
                continue
            seen.add(key)
            records.append(rec)
    return IngestResult(records, rejected, duplicates)


def select_surface(records: list[InSituRecord]) -> list[InSituRecord]:
    """Keep, per (station, date, parameter), the record of minimum depth.

    Ties are broken by first occurrence; output preserves the input order of
    the winners.
    """
    best: dict[tuple, int] = {}
    for i, rec in enumerate(records):
        key = (rec.station_id, rec.date, rec.parameter)
        if key not in best or rec.depth < records[best[key]].depth:
            best[key] = i
    return [records[i] for i in sorted(best.values())]


@dataclass
class MatchResult:
    samples: list[Sample]
    unmatched: list[tuple[InSituRecord, str]]


def locate_window(georef: GeoRef, gsd: float, lat: float,
                  lon: float) -> tuple[int, int] | None:
    """Window (row, col) of the patch at ``georef`` whose pixels are ``gsd``
    metres that contains ``(lat, lon)``; None when the point falls outside
    the patch footprint.

    Points landing in the 6 px margin never covered by a full averaging
    window are assigned the nearest edge window.
    """
    north_m, east_m = georef.latlon_offset_m(lat, lon)
    half = PATCH_SIZE / 2 * gsd
    if abs(north_m) > half or abs(east_m) > half:
        return None
    row_px = PATCH_SIZE / 2 - north_m / gsd
    col_px = PATCH_SIZE / 2 + east_m / gsd
    grid = (PATCH_SIZE - WINDOW) // WINDOW + 1
    row = min(max(int(row_px // WINDOW), 0), grid - 1)
    col = min(max(int(col_px // WINDOW), 0), grid - 1)
    return row, col


def match(
    records: list[InSituRecord],
    patch_catalog: list[Patch],
) -> MatchResult:
    """Join surface records to patches in space and time.

    A record matches the catalog patch whose center is nearest (and whose
    footprint contains the record), with acquisition date within
    ``MATCH_TOLERANCE_DAYS``. Distance ties are broken by nearest acquisition
    date, then by catalog order. Unmatched records are reported, not fatal.
    Output does not depend on record ordering beyond per-record results.
    """
    # One pass per catalog patch over all records, with the float formulas
    # of GeoRef.latlon_offset_m. A patch replaces a record's best match only
    # on a strictly smaller (dist, |days|), so full ties keep catalog order.
    lat = np.array([rec.lat for rec in records], dtype=np.float64)
    lon = np.array([rec.lon for rec in records], dtype=np.float64)
    ordinal = np.array([rec.date.toordinal() for rec in records], dtype=np.int64)
    best_dist = np.full(len(records), np.inf)
    best_days = np.zeros(len(records), dtype=np.int64)
    best_idx = np.full(len(records), -1, dtype=np.int64)
    for idx, patch in enumerate(patch_catalog):
        georef = patch.georef
        days = np.abs(georef.acquisition_date.toordinal() - ordinal)
        m_lat, m_lon = meters_per_degree(georef.center_lat)
        north = np.abs((lat - georef.center_lat) * m_lat)
        east = np.abs((lon - georef.center_lon) * m_lon)
        half = patch.raster.width / 2 * patch.raster.gsd
        dist = np.maximum(north, east)
        better = ((days <= MATCH_TOLERANCE_DAYS) & (north <= half) & (east <= half)
                  & ((dist < best_dist)
                     | ((dist == best_dist) & (days < best_days))))
        best_dist[better] = dist[better]
        best_days[better] = days[better]
        best_idx[better] = idx

    features_cache: dict[int, np.ndarray] = {}
    samples: list[Sample] = []
    unmatched: list[tuple[InSituRecord, str]] = []
    for rec, idx in zip(records, best_idx.tolist()):
        if idx < 0:
            unmatched.append((rec, "no patch within footprint and tolerance"))
            continue
        patch = patch_catalog[idx]
        window = locate_window(patch.georef, patch.raster.gsd, rec.lat, rec.lon)
        if idx not in features_cache:
            features_cache[idx] = window_average(patch.raster, WINDOW).data
        wr, wc = window
        samples.append(
            Sample(
                features=features_cache[idx][:, wr, wc],
                target=rec.value,
                parameter=rec.parameter,
                patch_id=patch.patch_id,
                window=(wr, wc),
                station_id=rec.station_id,
                date=patch.georef.acquisition_date,
            )
        )
    return MatchResult(samples, unmatched)


@dataclass
class SplitResult:
    train: list[Sample]
    test: list[Sample]
    val: list[Sample]


def split(samples: list[Sample], spec: SplitSpec) -> SplitResult:
    """Deterministic shuffled split; the test and validation sizes are
    ``TEST_FRACTION`` and ``VAL_FRACTION`` of the samples, rounded, and
    train takes the remainder. The three lists partition the
    input exactly."""
    n = len(samples)
    n_test = int(round(n * TEST_FRACTION))
    n_val = int(round(n * VAL_FRACTION))
    n_train = n - n_test - n_val
    perm = np.random.default_rng(spec.seed).permutation(n)
    train = [samples[i] for i in perm[:n_train]]
    test = [samples[i] for i in perm[n_train : n_train + n_test]]
    val = [samples[i] for i in perm[n_train + n_test :]]
    return SplitResult(train, test, val)


@dataclass
class NormStats:
    """Standardization statistics computed on the train split only."""

    feature_mean: np.ndarray   # (7,)
    feature_std: np.ndarray    # (7,)
    target_mean: float
    target_std: float

    def to_json(self) -> dict:
        return {
            "feature_mean": self.feature_mean.tolist(),
            "feature_std": self.feature_std.tolist(),
            "target_mean": self.target_mean,
            "target_std": self.target_std,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "NormStats":
        return cls(
            feature_mean=np.asarray(doc["feature_mean"], dtype=np.float64),
            feature_std=np.asarray(doc["feature_std"], dtype=np.float64),
            target_mean=float(doc["target_mean"]),
            target_std=float(doc["target_std"]),
        )

    def normalize_target(self, t):
        return (t - self.target_mean) / self.target_std

    def denormalize_target(self, t):
        return t * self.target_std + self.target_mean


def normalize(
    samples: list[Sample], stats: NormStats | None = None
) -> tuple[list[Sample], NormStats]:
    """Standardize features and target to zero mean / unit std.

    Statistics are computed from ``samples`` when ``stats`` is None (do this
    on the train split) and reused verbatim otherwise (val/test). Constant
    features get std 1 so normalization stays invertible.
    """
    if not samples:
        raise ValueError("cannot normalize an empty sample list")
    X, y = as_arrays(samples)
    if stats is None:
        f_std = X.std(axis=0)
        t_std = float(y.std())
        stats = NormStats(
            feature_mean=X.mean(axis=0),
            feature_std=np.where(f_std < 1e-12, 1.0, f_std),
            target_mean=float(y.mean()),
            target_std=t_std if t_std >= 1e-12 else 1.0,
        )
    out = []
    for s in samples:
        out.append(
            replace(
                s,
                features=(s.features - stats.feature_mean) / stats.feature_std,
                target=float(stats.normalize_target(s.target)),
            )
        )
    return out, stats


def as_arrays(samples: list[Sample]) -> tuple[np.ndarray, np.ndarray]:
    X = np.stack([s.features for s in samples]).astype(np.float64)
    y = np.asarray([s.target for s in samples], dtype=np.float64)
    return X, y


def samples_from_scene(
    scene: BandStack,
    truth: SceneTruth,
    parameter: str,
    date: dt.date = dt.date(2024, 6, 15),
    scene_id: str = "synthetic",
) -> list[Sample]:
    """Build samples directly from a synthetic scene and its ground truth.

    Features are the scene-level 10x10-window band averages and targets the
    matching window means of the requested field; used for acceptance-scale
    corpora where no in-situ archive exists.
    """
    feats = window_average(scene, WINDOW).data
    grid = truth.window_grids[parameter]
    samples = []
    for r in range(grid.shape[0]):
        for c in range(grid.shape[1]):
            samples.append(
                Sample(
                    features=feats[:, r, c],
                    target=float(grid[r, c]),
                    parameter=parameter,
                    patch_id=scene_id,
                    window=(r, c),
                    station_id=scene_id,
                    date=date,
                )
            )
    return samples


# ---------------------------------------------------------------------------
# SMP1 sample store, in the ``_container`` framing. The manifest holds the
# record count, the patch and station string tables, provenance and the
# optional normalization stats; the payload is ``count`` packed 88-byte
# little-endian records: 7 x f64 features, f64 target, u8 parameter code,
# u32 patch index, u16 window row and column, u32 station index, i32 date
# ordinal, 7 pad bytes.
# ---------------------------------------------------------------------------

_SMP1_MAGIC = b"SMP1"
_SMP1_RECORD = np.dtype({
    "names": ["features", "target", "parameter", "patch", "window", "station",
              "date"],
    "formats": [("<f8", (7,)), "<f8", "u1", "<u4", ("<u2", (2,)), "<u4", "<i4"],
    "itemsize": 88,
})
_PARAM_NAMES = (TURBIDITY, PH)   # indexed by the record's parameter code
_PARAM_CODES = {name: code for code, name in enumerate(_PARAM_NAMES)}


def save_samples(
    path: str | Path,
    samples: list[Sample],
    stats: NormStats | None = None,
    provenance: dict | None = None,
) -> Path:
    path = Path(path)
    patch_ids = sorted({s.patch_id for s in samples})
    station_ids = sorted({s.station_id for s in samples})
    p_idx = {p: i for i, p in enumerate(patch_ids)}
    s_idx = {s: i for i, s in enumerate(station_ids)}
    manifest = {
        "count": len(samples),
        "patch_ids": patch_ids,
        "station_ids": station_ids,
        "normalization": stats.to_json() if stats else None,
        "provenance": provenance or {},
    }
    records = np.zeros(len(samples), _SMP1_RECORD)  # zeroed pad bytes
    records[...] = [
        (s.features, s.target, _PARAM_CODES[s.parameter], p_idx[s.patch_id],
         s.window, s_idx[s.station_id], s.date.toordinal())
        for s in samples
    ]
    with open(path, "wb") as fh:
        _container.write(fh, _SMP1_MAGIC, manifest, [records], _SMP1_RECORD)
    return path


def load_samples(path: str | Path) -> tuple[list[Sample], NormStats | None, dict]:
    manifest, (records,) = _container.load(
        path, _SMP1_MAGIC, lambda m: ([(m["count"],)], _SMP1_RECORD))
    # a missing manifest list, an index past its end, an unknown parameter
    # code or a non-finite value raises FormatError naming the file
    with _container.parsing(path):
        patch_ids = manifest["patch_ids"]
        station_ids = manifest["station_ids"]
        columns = (records[name].tolist() for name in
                   ("target", "parameter", "patch", "window", "station", "date"))
        samples = [
            Sample(features=features, target=target, parameter=_PARAM_NAMES[pcode],
                   patch_id=patch_ids[pidx], window=tuple(window),
                   station_id=station_ids[sidx], date=dt.date.fromordinal(ordinal))
            for features, target, pcode, pidx, window, sidx, ordinal
            in zip(records["features"], *columns)
        ]
        stats_doc = manifest.get("normalization")
        stats = NormStats.from_json(stats_doc) if stats_doc else None
    return samples, stats, manifest
