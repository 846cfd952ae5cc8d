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

Samples are held as columns. ``match``, ``samples_from_scene``,
``load_samples`` and ``split`` return a ``SampleTable``: a read-only
sequence whose ``features`` ``(n, N_BANDS)`` and ``target`` ``(n,)`` are
float64 arrays, beside the identifying columns (parameter, patch id,
window, station id, date). A ``Sample`` is built, with its own constructor,
only when a row is read by an integer index; a slice of a table is a table.
``split`` is where a plain list of ``Sample`` enters: it gathers the list
into columns with ``as_table``, and everything past it (``normalize``,
``save_samples``, ``mlp.train`` and ``mlp.evaluate``) takes and reads tables.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import _container
from .errors import SchemaError, read_document
from .raster import GRID, N_BANDS, PATCH_SIZE, WINDOW, BandStack, Patch, window_average
from .sensor import PARAMETERS, PH, TURBIDITY, SceneTruth, check_parameter

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
        check_parameter(self.parameter)
        if not all(map(math.isfinite,
                       (self.value, self.depth, self.distance_from_coast))):
            raise ValueError("value, depth and distance from coast must be finite")
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

    features: np.ndarray          # (N_BANDS,) float64, window-averaged reflectances
    target: float
    parameter: str
    patch_id: str
    # (row, col) of the 10x10 window in the raster the features average:
    # the patch's GRID x GRID grid for a matched record, the whole scene's
    # grid for ``samples_from_scene``
    window: tuple[int, int]
    station_id: str
    date: dt.date

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64).reshape(N_BANDS)
        if not np.isfinite(self.features).all() or not math.isfinite(self.target):
            raise ValueError("sample features/target must be finite")


def _column(shape: tuple[int, ...], dtype):
    """A ``SampleTable`` column: one row of ``shape`` per sample, of ``dtype``."""
    return field(metadata={"shape": shape, "dtype": dtype})


@dataclass(frozen=True, eq=False)
class SampleTable(Sequence):
    """A read-only sequence of samples held as columns; row i is sample i.

    Reading row i builds its ``Sample`` with the normal constructor (the
    features a copy of the row); a slice is the table of its rows, as
    ``take`` of the same positions is.
    The columns are read-only arrays; the identifying ones hold Python
    objects. Non-finite features or targets raise ``ValueError``, as
    ``Sample`` does.
    """

    features: np.ndarray = _column((N_BANDS,), np.float64)   # C order
    target: np.ndarray = _column((), np.float64)
    parameter: np.ndarray = _column((), object)               # str
    patch_id: np.ndarray = _column((), object)                # str
    window: np.ndarray = _column((2,), np.int64)              # see ``Sample.window``
    station_id: np.ndarray = _column((), object)              # str
    date: np.ndarray = _column((), object)                    # datetime.date

    def __post_init__(self):
        n = len(self.target)
        for f in fields(self):
            shape = (n, *f.metadata["shape"])
            # a view, so the caller's array keeps its own flags
            column = np.ascontiguousarray(getattr(self, f.name),
                                          dtype=f.metadata["dtype"]).view()
            if column.shape != shape:
                raise ValueError(f"{f.name} column of shape {column.shape}, "
                                 f"expected {shape}")
            column.flags.writeable = False
            object.__setattr__(self, f.name, column)
        if not (np.isfinite(self.features).all() and np.isfinite(self.target).all()):
            raise ValueError("sample features/target must be finite")

    def __len__(self) -> int:
        return len(self.target)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.take(i)
        # any integer, negative ones too; IndexError past the end
        i = range(len(self))[i]
        row, col = self.window[i].tolist()
        return Sample(features=self.features[i].copy(), target=float(self.target[i]),
                      parameter=self.parameter[i], patch_id=self.patch_id[i],
                      window=(row, col), station_id=self.station_id[i],
                      date=self.date[i])

    def take(self, index) -> SampleTable:
        """The table of the rows ``index`` selects: positions, a slice or a
        boolean mask."""
        return SampleTable(**{f.name: getattr(self, f.name)[index]
                              for f in fields(self)})


def as_table(samples: Sequence[Sample]) -> SampleTable:
    """``samples`` as a table: a table as it is, any other sequence of
    ``Sample`` gathered column by column."""
    if isinstance(samples, SampleTable):
        return samples
    return SampleTable(
        features=np.array([s.features for s in samples],
                          dtype=np.float64).reshape(-1, N_BANDS),
        target=[s.target for s in samples],
        parameter=[s.parameter for s in samples],
        patch_id=[s.patch_id for s in samples],
        window=np.array([s.window for s in samples], dtype=np.int64).reshape(-1, 2),
        station_id=[s.station_id for s in samples],
        date=[s.date for s in samples],
    )


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
    first occurrence, and the count is reported. The file is read as UTF-8;
    one that is not is a ``SchemaError`` naming it.
    """
    path = Path(csv_source)
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc})") from None
    with io.StringIO(text, newline="") as fh:
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
            # DictReader pads a short row with None and keys a long row's rest None
            fields = len(header) - [*row.values()].count(None) + len(row.get(None, ()))
            if fields != len(header):
                rejected.append((idx, f"{fields} fields, the header has {len(header)}"))
                continue
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
    samples: SampleTable
    unmatched: list[tuple[InSituRecord, str]]


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

    A matched record's sample is the window (row, col) of its patch that
    holds it; a record in the 6 px margin no full averaging window covers
    takes the nearest edge window.
    """
    # One pass per catalog patch over all records, each offset from
    # GeoRef.latlon_offset_m on the arrays. A patch replaces a record's best
    # match only on a strictly smaller (dist, |days|), so full ties keep
    # catalog order.
    lat = np.array([rec.lat for rec in records], dtype=np.float64)
    lon = np.array([rec.lon for rec in records], dtype=np.float64)
    ordinal = np.array([rec.date.toordinal() for rec in records], dtype=np.int64)
    best_dist = np.full(len(records), np.inf)
    best_days = np.zeros(len(records), dtype=np.int64)
    best_idx = np.full(len(records), -1, dtype=np.int64)
    # the winner's (south, east) offset of each record from its centre, in px
    best_px = np.zeros((len(records), 2))
    for idx, patch in enumerate(patch_catalog):
        georef, gsd = patch.georef, patch.raster.gsd
        days = np.abs(georef.acquisition_date.toordinal() - ordinal)
        north, east = georef.latlon_offset_m(lat, lon)
        dist = np.maximum(np.abs(north), np.abs(east))
        better = ((days <= MATCH_TOLERANCE_DAYS) & (dist <= PATCH_SIZE / 2 * gsd)
                  & ((dist < best_dist)
                     | ((dist == best_dist) & (days < best_days))))
        best_dist[better] = dist[better]
        best_days[better] = days[better]
        best_idx[better] = idx
        best_px[better] = np.stack([-north[better], east[better]], axis=1) / gsd

    unmatched = [(rec, "no patch within footprint and tolerance")
                 for rec, idx in zip(records, best_idx.tolist()) if idx < 0]
    matched = best_idx[best_idx >= 0]
    hits = [(rec, patch_catalog[idx])
            for rec, idx in zip(records, best_idx.tolist()) if idx >= 0]
    # the window each record's pixel falls in; the margin clips to the edge
    windows = np.clip((PATCH_SIZE / 2 + best_px[best_idx >= 0]) // WINDOW,
                      0, GRID - 1).astype(np.int64)
    # one window-mean pass per matched patch, its rows gathered from it
    features = np.empty((len(hits), N_BANDS))
    for idx in np.unique(matched):
        mine = np.flatnonzero(matched == idx)
        means = window_average(patch_catalog[idx].raster.data)
        features[mine] = means[:, windows[mine, 0], windows[mine, 1]].T
    samples = SampleTable(
        features=features,
        target=[rec.value for rec, _ in hits],
        parameter=[rec.parameter for rec, _ in hits],
        patch_id=[p.patch_id for _, p in hits],
        window=windows,
        station_id=[rec.station_id for rec, _ in hits],
        date=[p.georef.acquisition_date for _, p in hits],
    )
    return MatchResult(samples, unmatched)


@dataclass
class SplitResult:
    train: SampleTable
    test: SampleTable
    val: SampleTable


def split(samples: Sequence[Sample], spec: SplitSpec) -> SplitResult:
    """Deterministic shuffled split; the test and validation sizes are
    ``TEST_FRACTION`` and ``VAL_FRACTION`` of the samples, rounded, and
    train takes the remainder. ``samples`` is a table or any sequence of
    ``Sample``; the three parts are tables that partition its rows exactly."""
    table = as_table(samples)
    n = len(table)
    n_test = int(round(n * TEST_FRACTION))
    n_val = int(round(n * VAL_FRACTION))
    n_train = n - n_test - n_val
    perm = np.random.default_rng(spec.seed).permutation(n)
    parts = np.split(perm, [n_train, n_train + n_test])
    return SplitResult(*map(table.take, parts))


# a standard deviation below this is no variation: normalize divides by 1
CONSTANT_STD = 1e-12


# The JSON kind of each key of a ``NormStats`` document.
_NORM_KINDS = {"feature_mean": "a list of numbers", "feature_std": "a list of numbers",
               "target_mean": "a number", "target_std": "a number"}


@dataclass
class NormStats:
    """Standardization statistics computed on the train split only: a finite
    mean and a finite std > 0 per band and for the target."""

    feature_mean: np.ndarray   # (N_BANDS,)
    feature_std: np.ndarray    # (N_BANDS,)
    target_mean: float
    target_std: float

    def __post_init__(self):
        self.feature_mean = np.asarray(self.feature_mean, dtype=np.float64)
        self.feature_std = np.asarray(self.feature_std, dtype=np.float64)
        for name in ("feature_mean", "feature_std"):
            shape = getattr(self, name).shape
            if shape != (N_BANDS,):
                raise ValueError(f"normalization {name} must hold {N_BANDS} values, "
                                 f"one per band, got shape {shape}")
        if not (np.isfinite(self.feature_mean).all() and math.isfinite(self.target_mean)):
            raise ValueError("normalization means must be finite")
        if not (np.isfinite(self.feature_std).all() and (self.feature_std > 0).all()
                and math.isfinite(self.target_std) and self.target_std > 0):
            raise ValueError("normalization stds must be finite and > 0")

    def to_json(self) -> dict:
        return {
            "feature_mean": self.feature_mean.tolist(),
            "feature_std": self.feature_std.tolist(),
            "target_mean": self.target_mean,
            "target_std": self.target_std,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "NormStats":
        return cls(**read_document(doc, "normalization", _NORM_KINDS,
                                   required=_NORM_KINDS))

    def normalize_target(self, t):
        return (t - self.target_mean) / self.target_std

    def denormalize_target(self, t):
        return t * self.target_std + self.target_mean


def normalize(
    samples: SampleTable, stats: NormStats | None = None
) -> tuple[SampleTable, NormStats]:
    """Standardize features and target to zero mean / unit std.

    Statistics are computed from ``samples`` when ``stats`` is None (do this
    on the train split) and reused verbatim otherwise (val/test). Constant
    features get std 1 so normalization stays invertible. The result is
    the table ``samples`` with ``(X - mean) / std`` and
    ``(y - t_mean) / t_std`` over the whole columns, element for element
    what each sample's own formula gives.
    """
    if not samples:
        raise ValueError("cannot normalize an empty table")
    X, y = samples.features, samples.target
    if stats is None:
        f_std = X.std(axis=0)
        t_std = float(y.std())
        stats = NormStats(
            feature_mean=X.mean(axis=0),
            feature_std=np.where(f_std < CONSTANT_STD, 1.0, f_std),
            target_mean=float(y.mean()),
            target_std=t_std if t_std >= CONSTANT_STD else 1.0,
        )
    out = replace(samples, features=(X - stats.feature_mean) / stats.feature_std,
                  target=stats.normalize_target(y))
    return out, stats


def samples_from_scene(
    scene: BandStack,
    truth: SceneTruth,
    parameter: str,
    date: dt.date = dt.date(2024, 6, 15),
    scene_id: str = "synthetic",
) -> SampleTable:
    """Build samples directly from a synthetic scene and its ground truth.

    Features are the scene-level 10x10-window band averages and targets the
    matching window means of the requested field, one row per window in
    row-major order; used for acceptance-scale corpora where no in-situ
    archive exists. No ``Sample`` is built until a row is read. A
    ``parameter`` outside ``sensor.PARAMETERS`` raises ``SchemaError``.
    """
    check_parameter(parameter)
    feats = window_average(scene.data)
    grid = truth.window_grids[parameter]
    n = grid.size
    return SampleTable(
        features=feats.reshape(N_BANDS, n).T,
        target=grid.astype(np.float64).ravel(),
        parameter=np.full(n, parameter, dtype=object),
        patch_id=np.full(n, scene_id, dtype=object),
        window=np.indices(grid.shape).reshape(2, n).T,
        station_id=np.full(n, scene_id, dtype=object),
        date=np.full(n, date, dtype=object),
    )


# ---------------------------------------------------------------------------
# SMP1 sample store, in the ``_container`` framing. The manifest holds the
# record count, the patch and station string tables, provenance and the
# optional normalization stats; the payload is ``count`` packed 88-byte
# little-endian records: 7 x f64 features, f64 target, u8 parameter code (an
# index into ``sensor.PARAMETERS``), u32 patch index, u16 window row and
# column, u32 station index, i32 date ordinal, 7 pad bytes.
# ---------------------------------------------------------------------------

_SMP1_MAGIC = b"SMP1"
_SMP1_RECORD = np.dtype({
    "names": ["features", "target", "parameter", "patch", "window", "station",
              "date"],
    "formats": [("<f8", (7,)), "<f8", "u1", "<u4", ("<u2", (2,)), "<u4", "<i4"],
    "itemsize": 88,
})
_PARAM_CODES = {name: code for code, name in enumerate(PARAMETERS)}
# The JSON kind of each SMP1 manifest key ``load_samples`` reads; a null
# normalization is a store without stats.
_SMP1_KINDS = {"count": "an integer", "patch_ids": "a list of strings",
               "station_ids": "a list of strings", "normalization": None}


def _codes(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of ``column`` and each row's index into them."""
    values, index = np.unique(column, return_inverse=True)
    return values, index.reshape(-1)


def save_samples(
    path: str | Path,
    samples: SampleTable,
    stats: NormStats | None = None,
    provenance: dict | None = None,
) -> Path:
    path = Path(path)
    patch_ids, patch = _codes(samples.patch_id)
    station_ids, station = _codes(samples.station_id)
    params, param = _codes(samples.parameter)
    dates, date = _codes(samples.date)
    manifest = {
        "count": len(samples),
        "patch_ids": patch_ids.tolist(),
        "station_ids": station_ids.tolist(),
        "normalization": stats.to_json() if stats else None,
        "provenance": provenance or {},
    }
    records = np.zeros(len(samples), _SMP1_RECORD)  # zeroed pad bytes
    records["features"] = samples.features
    records["target"] = samples.target
    records["parameter"] = np.array([_PARAM_CODES[p] for p in params], np.uint8)[param]
    records["patch"] = patch
    records["window"] = samples.window
    records["station"] = station
    records["date"] = np.array([d.toordinal() for d in dates], np.int64)[date]
    if not np.array_equal(records["window"], samples.window):
        raise ValueError("a window index is outside SMP1's u16 range")
    with open(path, "wb") as fh:
        _container.write(fh, _SMP1_MAGIC, manifest, [records], _SMP1_RECORD)
    return path


def load_samples(path: str | Path) -> tuple[SampleTable, NormStats | None, dict]:
    manifest, (records,) = _container.load(
        path, _SMP1_MAGIC, _SMP1_KINDS, lambda m: ([(m["count"],)], _SMP1_RECORD))
    # an index past the end of a manifest list, an unknown parameter code, a
    # date ordinal out of range or a non-finite value raises FormatError
    # naming the file
    with _container.parsing(path):
        ordinals, date = _codes(records["date"])
        patch_ids = np.array(manifest["patch_ids"], dtype=object)
        station_ids = np.array(manifest["station_ids"], dtype=object)
        samples = SampleTable(
            features=records["features"],
            target=records["target"],
            parameter=np.array(PARAMETERS, dtype=object)[records["parameter"]],
            patch_id=patch_ids[records["patch"]],
            window=records["window"],
            station_id=station_ids[records["station"]],
            date=np.array([dt.date.fromordinal(int(o)) for o in ordinals],
                          dtype=object)[date],
        )
        stats_doc = manifest["normalization"]
        stats = None if stats_doc is None else NormStats.from_json(stats_doc)
    return samples, stats, manifest
