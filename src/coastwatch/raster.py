"""Raster containers, windowed averaging, scene tiling and mosaicking.

Conventions used across the whole package:

* arrays are band-planar, shape ``(bands, height, width)``, C order;
* row 0 is the northern edge, column 0 the western edge;
* a GeoRef is a centre and a date; the pitch is the raster's
  (``BandStack.gsd``, and ``TileIndex.gsd`` for a tiled scene);
* a patch is 256x256 px (a 1216 m square at the 4.75 m/px product pitch);
* the inference front end averages non-overlapping 10x10 windows, so one
  256 px patch maps onto a 25x25 grid and the last 6 rows/columns of the
  patch are never averaged (dropped by design).

Each of these facts has one owner here: ``PATCH_SIZE``, ``WINDOW``,
``PRODUCT_GSD``, the band count ``N_BANDS`` (the length of ``MS_BAND_IDS``)
and the map grid ``GRID`` (``PATCH_SIZE // WINDOW`` cells per side). A
raster's own size is its array's: ``BandStack.width``, ``height`` and
``bands`` read ``data.shape``.

Containers are treated as immutable after construction: operations return
new objects and never mutate their inputs, so everything here is safe to
share across threads.

Tiling copies nothing: each patch of :func:`tile_scene` is a read-only view
into its scene's array. A live patch therefore keeps the whole scene buffer
alive, and it shows any later write to the scene; copy a patch's data
(``patch.raster.data.copy()``) to detach it. A PAT1 file is one
``_container`` file: its manifest carries the georef and band ids, the
reader fills the returned array straight from the file and the writer
takes the bands as they come, converting a block of rows at a time,
without staging the file's bytes.

Window means are plain arrays: :func:`window_average` takes a
band-planar raster or a 2-D plane and returns its float64 means, and
:func:`window_fraction` is its 2-D case for a mask. They copy nothing
either: the blocks are reduced where they lie with a float64 accumulator,
in numpy's own reduction order, so a float32 patch or a bool mask is never
converted whole to float64.
"""

from __future__ import annotations

import datetime as dt
import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import _container
from .errors import DimensionError, InconsistencyError, NonFiniteError, read_document

PATCH_SIZE = 256        # px per patch side; 1216 m at 4.75 m/px
WINDOW = 10             # averaging window of the inference front end
PRODUCT_GSD = 4.75      # m/px of the simulated multispectral product
MS_BAND_IDS = ("MS1", "MS2", "MS3", "MS4", "MS5", "MS6", "MS7")
N_BANDS = len(MS_BAND_IDS)  # bands of a patch, a scene and a sample
GRID = PATCH_SIZE // WINDOW  # map cells per patch side
REFLECTANCE_MAX = 1.2   # ToA overshoot tolerated before a value is flagged

_EARTH_RADIUS_M = 6_371_000.0
_PAT1_MAGIC = b"PAT1"
_PAT1_DTYPES = {"f32": np.dtype("<f4"), "u8": np.dtype("u1")}
# The JSON kind of each PAT1 manifest key ``read_pat1`` reads, and of each
# key of a georef document.
_PAT1_KINDS = {"width": "an integer", "height": "an integer", "bands": "an integer",
               "gsd": "a number", "dtype": "a string", "band_ids": "a list of strings"}
_GEOREF_KINDS = {"center_lat": "a number", "center_lon": "a number",
                 "acquisition_date": "a date"}


def meters_per_degree(lat: float) -> tuple[float, float]:
    """(meters per degree latitude, meters per degree longitude) at ``lat``.

    Spherical-Earth approximation; adequate for the sub-kilometre offsets
    handled here (center-point georeferencing only, no map projections).
    """
    m_per_deg = math.pi * _EARTH_RADIUS_M / 180.0
    return m_per_deg, m_per_deg * math.cos(math.radians(lat))


@dataclass(frozen=True)
class GeoRef:
    """Center-point georeference of a raster: where and when, not the pitch,
    which is the raster's own ``gsd``."""

    center_lat: float
    center_lon: float
    acquisition_date: dt.date

    def __post_init__(self):
        if not -90.0 <= self.center_lat <= 90.0:
            raise ValueError(f"latitude {self.center_lat} outside [-90, 90]")
        if not -180.0 <= self.center_lon <= 180.0:
            raise ValueError(f"longitude {self.center_lon} outside [-180, 180]")

    def offset_latlon(self, north_m: float, east_m: float) -> tuple[float, float]:
        """Lat/lon of a point displaced from the center by metres."""
        m_lat, m_lon = meters_per_degree(self.center_lat)
        return self.center_lat + north_m / m_lat, self.center_lon + east_m / m_lon

    def latlon_offset_m(self, lat: float, lon: float) -> tuple[float, float]:
        """(north_m, east_m) displacement of ``(lat, lon)`` from the center."""
        m_lat, m_lon = meters_per_degree(self.center_lat)
        return (lat - self.center_lat) * m_lat, (lon - self.center_lon) * m_lon

    def to_json(self) -> dict:
        return {
            "center_lat": self.center_lat,
            "center_lon": self.center_lon,
            "acquisition_date": self.acquisition_date.isoformat(),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "GeoRef":
        return cls(**read_document(doc, "georef", _GEOREF_KINDS, required=_GEOREF_KINDS))


@dataclass
class BandStack:
    """Dense multi-band raster with a uniform ground sampling distance.

    ``data`` is band-planar ``(bands, height, width)``, every dimension at
    least 1, and the raster's size is read off it. ``band_ids`` names each
    plane in canonical ascending-band order; left out, it is ``MS_BAND_IDS``
    for an ``N_BANDS``-band raster and ``B0``, ``B1``, ... otherwise.
    """

    data: np.ndarray
    gsd: float
    band_ids: tuple[str, ...] | None = None

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.data.ndim != 3 or 0 in self.data.shape:
            raise DimensionError(f"expected a (bands, height, width) array with "
                                 f"every dimension >= 1, got shape {self.data.shape}")
        if not self.gsd > 0:
            raise ValueError("gsd must be positive")
        if self.band_ids is None:
            self.band_ids = MS_BAND_IDS if self.bands == N_BANDS else tuple(
                f"B{i}" for i in range(self.bands))
        self.band_ids = tuple(self.band_ids)
        if len(self.band_ids) != self.bands:
            raise InconsistencyError(
                f"{len(self.band_ids)} band ids for {self.bands} bands"
            )
        if len(set(self.band_ids)) != self.bands:
            raise InconsistencyError("band ids must be distinct")

    @property
    def bands(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @classmethod
    def from_array(
        cls,
        data: np.ndarray,
        gsd: float,
        band_ids: tuple[str, ...] | None = None,
    ) -> "BandStack":
        """A raster of ``data``; a 2-D array is one band."""
        data = np.asarray(data)
        return cls(data[None] if data.ndim == 2 else data, gsd, band_ids)


@dataclass
class Patch:
    """One ``PATCH_SIZE`` px, ``N_BANDS``-band reflectance chip, the unit of
    inference.

    Reflectances are expected in [0, 1.2]; out-of-range values do not make
    construction fail but their count is kept in ``flagged_values`` so
    callers can report them. Non-finite values are rejected outright
    with ``NonFiniteError``.
    """

    raster: BandStack
    georef: GeoRef
    patch_id: str = ""
    flagged_values: int = field(init=False, default=0)

    def __post_init__(self):
        r = self.raster
        if r.width != PATCH_SIZE or r.height != PATCH_SIZE:
            raise DimensionError(
                f"patch must be {PATCH_SIZE}x{PATCH_SIZE}, got {r.width}x{r.height}"
            )
        if r.bands != N_BANDS:
            raise DimensionError(f"patch must have {N_BANDS} bands, got {r.bands}")
        # band by band, so the masks are one band's, not the chip's
        counts = [count_flagged(band) for band in r.data]
        if None in counts:
            raise NonFiniteError(f"patch {self.patch_id!r} contains non-finite values")
        self.flagged_values = sum(counts)


def count_flagged(values: np.ndarray) -> int | None:
    """How many reflectance ``values`` lie outside [0, ``REFLECTANCE_MAX``],
    the values a ``Patch`` flags, or None when one is not finite.

    min and max propagate NaN and reach any infinity, so two reductions
    check finiteness and, on in-range values, skip the count."""
    lo, hi = values.min(), values.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        return None
    if lo < 0.0 or hi > REFLECTANCE_MAX:
        return int(np.count_nonzero((values < 0.0) | (values > REFLECTANCE_MAX)))
    return 0


@dataclass(frozen=True)
class TileIndex:
    """Row-major placement record produced by :func:`tile_scene`.

    ``placements`` holds ``(patch_row_origin, patch_col_origin)`` pixel
    origins into the source scene, stride ``patch_size``, zero overlap: they
    are the cells of the scene's patch grid (the ``tiles_down`` x
    ``tiles_across`` patches anchored at the north-west corner), each once,
    in any order. ``gsd`` is the scene's pitch.
    """

    scene_width: int
    scene_height: int
    placements: tuple[tuple[int, int], ...]
    gsd: float = PRODUCT_GSD
    patch_size: ClassVar[int] = PATCH_SIZE  # the one size a Patch takes

    def __post_init__(self):
        if not self.gsd > 0:
            raise DimensionError(f"gsd must be positive, got {self.gsd}")
        ps = self.patch_size
        grid = [(r0, c0) for r0 in range(0, self.tiles_down * ps, ps)
                for c0 in range(0, self.tiles_across * ps, ps)]
        if sorted(self.placements) != grid:
            raise InconsistencyError(
                f"placements {[list(p) for p in self.placements]} are no "
                f"permutation of the {len(grid)} cells of the {ps} px grid "
                f"over the {self.scene_width}x{self.scene_height} scene")

    @property
    def tiles_down(self) -> int:
        return self.scene_height // self.patch_size

    @property
    def tiles_across(self) -> int:
        return self.scene_width // self.patch_size


@dataclass
class TileResult:
    patches: list[Patch]
    index: TileIndex

    @property
    def margin_rows(self) -> int:
        """Scene rows south of the last patch row, left untiled."""
        return self.index.scene_height % self.index.patch_size

    @property
    def margin_cols(self) -> int:
        """Scene columns east of the last patch column, left untiled."""
        return self.index.scene_width % self.index.patch_size


def window_average(data: np.ndarray, window: int = WINDOW) -> np.ndarray:
    """float64 means over the non-overlapping window x window blocks of the
    last two axes of an array, such as a (bands, height, width) raster or a
    (height, width) plane; the leading axes are kept.

    Output size per axis is ``floor((size - window) / window) + 1``; trailing
    rows/columns not covered by a full window are dropped (for a 256 px patch
    and window 10 that is the last 6 rows and columns).

    Accumulation is in float64, with no copy of the array: the cropped
    blocks are reduced where they lie by ``np.add.reduce`` with a float64
    accumulator, which casts a float32 or bool array a small buffer at a
    time, in numpy's own reduction order, then divided once. The means are
    therefore bit-identical to copying the array to float64 and taking
    ``mean`` over each block.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    *bands, h, w = data.shape
    if w < window or h < window:
        raise DimensionError(f"window {window} larger than raster {w}x{h}")
    out_h, out_w = h // window, w // window
    blocks = data[..., : out_h * window, : out_w * window].reshape(
        *bands, out_h, window, out_w, window)
    means = np.add.reduce(blocks, axis=(-3, -1), dtype=np.float64)
    means /= window * window
    return means


def window_fraction(mask: np.ndarray, window: int = WINDOW) -> np.ndarray:
    """Fraction of true pixels per non-overlapping window of a 2-D mask: its
    :func:`window_average`, without a float64 copy."""
    if mask.ndim != 2:
        raise DimensionError(f"expected a 2-D mask, got {mask.ndim}-D")
    return window_average(mask, window)


def tile_scene(
    scene: BandStack,
    scene_georef: GeoRef | None = None,
    patch_id_prefix: str = "patch",
) -> TileResult:
    """Cut an ``N_BANDS``-band scene into non-overlapping ``PATCH_SIZE``
    (256) px patches, the one size a ``Patch`` takes, on the grid of
    :func:`patch_grid`.

    Patches cover the maximal patch-aligned sub-scene anchored at the
    north-west corner; leftover margins (< 256 px) are excluded and
    reported in the result.

    Each patch's data is a read-only view into ``scene.data``, not a copy:
    writing to a patch raises ``ValueError``, a live patch keeps the scene
    buffer alive and reflects later writes to the scene. Copy a patch's data
    to detach it.
    """
    if scene.bands != N_BANDS:
        raise DimensionError(f"scene must have {N_BANDS} bands, got {scene.bands}")
    if scene.width < PATCH_SIZE or scene.height < PATCH_SIZE:
        raise DimensionError(
            f"scene {scene.width}x{scene.height} smaller than one "
            f"{PATCH_SIZE} px patch"
        )
    placements = []
    patches = []
    for patch_id, (r0, c0), georef in patch_grid(scene.height, scene.width, scene.gsd,
                                                 scene_georef, patch_id_prefix):
        placements.append((r0, c0))
        chip = scene.data[:, r0 : r0 + PATCH_SIZE, c0 : c0 + PATCH_SIZE]
        chip.flags.writeable = False
        patches.append(Patch(BandStack.from_array(chip, scene.gsd, scene.band_ids),
                             georef, patch_id))
    index = TileIndex(
        scene_width=scene.width,
        scene_height=scene.height,
        placements=tuple(placements),
        gsd=scene.gsd,
    )
    return TileResult(patches, index)


def patch_grid(
    height: int,
    width: int,
    gsd: float,
    scene_georef: GeoRef | None = None,
    patch_id_prefix: str = "patch",
) -> Iterator[tuple[str, tuple[int, int], GeoRef]]:
    """The ``PATCH_SIZE`` px patches of a (height, width) scene at ``gsd``,
    row-major from the north-west corner: each one's id
    (``{patch_id_prefix}_{row:03d}_{col:03d}``), its (row, col) pixel origin
    and its georef.

    Patch georefs are derived from the scene center when ``scene_georef``
    is given, otherwise from a placeholder at (0, 0) acquired 1970-01-01. A
    patch centre past a pole or the antimeridian raises ``DimensionError``
    naming the patch, when iteration reaches it.
    """
    if scene_georef is None:
        scene_georef = GeoRef(0.0, 0.0, dt.date(1970, 1, 1))
    for i in range(height // PATCH_SIZE):
        for j in range(width // PATCH_SIZE):
            r0, c0 = i * PATCH_SIZE, j * PATCH_SIZE
            # patch center offset from the scene center, in metres
            north_m = (height / 2.0 - (r0 + PATCH_SIZE / 2.0)) * gsd
            east_m = ((c0 + PATCH_SIZE / 2.0) - width / 2.0) * gsd
            lat, lon = scene_georef.offset_latlon(north_m, east_m)
            patch_id = f"{patch_id_prefix}_{i:03d}_{j:03d}"
            try:
                georef = GeoRef(lat, lon, scene_georef.acquisition_date)
            except ValueError as exc:
                raise DimensionError(f"patch {patch_id!r} centre {exc}: the scene "
                                     "crosses a pole or the antimeridian") from None
            yield patch_id, (r0, c0), georef


def mosaic(
    grids: list[np.ndarray],
    index: TileIndex,
    band_ids: tuple[str, ...] | None = None,
) -> BandStack:
    """Reassemble per-patch grids into one single-band scene-level raster.

    One square 2-D grid per placement, all of one shape. Grid cell (i, j) of
    patch k lands exactly at the scene cell implied by placement k;
    placement copies only, so the mosaic reproduces per-patch values bit for
    bit.
    """
    if len(grids) != len(index.placements):
        raise InconsistencyError(
            f"{len(grids)} grids for {len(index.placements)} placements"
        )
    arrays = [np.asarray(g) for g in grids]
    shapes = {a.shape for a in arrays}
    if len(shapes) != 1:
        raise InconsistencyError(f"grids disagree on shape: {sorted(shapes)}")
    (shape,) = shapes
    if len(shape) != 2 or shape[0] != shape[1]:
        raise DimensionError(f"per-patch grids must be square 2-D, got {shape}")
    cells = shape[0]

    out = np.zeros((cells * index.tiles_down, cells * index.tiles_across),
                   dtype=arrays[0].dtype)
    for grid, (r0, c0) in zip(arrays, index.placements):
        gr = r0 // index.patch_size * cells
        gc = c0 // index.patch_size * cells
        out[gr : gr + cells, gc : gc + cells] = grid
    # each mosaic cell covers patch_size / cells scene pixels
    return BandStack.from_array(
        out, gsd=index.gsd * index.patch_size / cells, band_ids=band_ids
    )


def random_patches(n: int, seed: int) -> Iterable[Patch]:
    """``n`` uniform-random reflectance patches in [0, 1], seeded: a stress
    input far outside a model's training range (the package's own checks
    read ``convnet.check_patches``).

    Each sits at (0, 0) at the product gsd, acquired on 2024-06-15. The
    patches are drawn one at a time as they are iterated, so a check that
    lets each go holds one; ``len`` gives ``n``, and ``list(...)`` keeps them
    all for a caller that indexes or reuses them. Every iteration draws the
    same patches from ``seed`` again.
    """
    return _RandomPatches(n, seed, lambda rng: rng.random((N_BANDS, PATCH_SIZE,
                                                           PATCH_SIZE)))


def window_patches(n: int, seed: int, low, high) -> Iterable[Patch]:
    """``n`` seeded patches that are constant on every window, band b of
    each window uniform in [``low[b]``, ``high[b]``) (two float arrays of
    shape ``(N_BANDS, 1, 1)``); a side holds ``ceil(PATCH_SIZE / WINDOW)``
    windows, the last cut by the patch edge and averaged by no map cell.
    Drawn, placed and iterated as ``random_patches``'."""
    cell = np.arange(PATCH_SIZE) // WINDOW   # pixel -> its window along a side
    shape = (N_BANDS, cell[-1] + 1, cell[-1] + 1)
    return _RandomPatches(n, seed, lambda rng: rng.uniform(low, high, shape)[
        :, cell[:, None], cell])


class _RandomPatches:
    """The seeded patches of :func:`random_patches` and
    :func:`window_patches`: ``n`` of them, each drawn by ``draw`` from one
    ``default_rng(seed)`` stream when iteration reaches it. A sized
    iterable, not a generator, so that a check's patch count can be read
    with ``len`` before it runs (the traced benchmark counts patches so)."""

    def __init__(self, n: int, seed: int, draw):
        self._n, self._seed, self._draw = n, seed, draw

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[Patch]:
        rng = np.random.default_rng(self._seed)
        georef = GeoRef(0.0, 0.0, dt.date(2024, 6, 15))
        for i in range(self._n):
            # no name holds the data, so a patch the caller dropped is freed
            # before the next is drawn
            yield Patch(BandStack.from_array(self._draw(rng), PRODUCT_GSD, MS_BAND_IDS),
                        georef, patch_id=f"random_{i:04d}")


# ---------------------------------------------------------------------------
# PAT1 raster file, in the ``_container`` framing. The manifest holds width,
# height, bands, gsd, dtype ("f32" little-endian or "u8"), band_ids and,
# when given, georef and extra; the payload is the band-planar data.
# ---------------------------------------------------------------------------


def write_pat1(
    path: str | Path,
    stack: BandStack,
    georef: GeoRef | None = None,
    extra: dict | None = None,
) -> Path:
    """Write a BandStack as one PAT1 file: ``write_pat1_bands`` of its
    planes."""
    return write_pat1_bands(path, stack.data, stack.gsd, stack.band_ids, georef, extra)


def write_pat1_bands(
    path: str | Path,
    bands: Iterable[np.ndarray],
    gsd: float,
    band_ids: tuple[str, ...],
    georef: GeoRef | None = None,
    extra: dict | None = None,
) -> Path:
    """Write a raster as one PAT1 file from the (height, width) planes
    ``bands`` yields, one per id of ``band_ids`` in order, each written as
    it comes: a caller may make a plane once the one before is written.

    The first plane gives the raster's size and storage: u8 data is stored
    as u8, anything else as f32, converted a block of rows at a time.
    """
    path = Path(path)
    bands = iter(bands)
    first = next(bands)
    dtype = "u8" if first.dtype == np.uint8 else "f32"
    height, width = first.shape
    manifest = {"width": width, "height": height, "bands": len(band_ids),
                "gsd": float(gsd), "dtype": dtype, "band_ids": list(band_ids)}
    if georef is not None:
        manifest["georef"] = georef.to_json()
    if extra:
        manifest["extra"] = extra
    with open(path, "wb") as fh:
        _container.write(fh, _PAT1_MAGIC, manifest, itertools.chain([first], bands),
                         _PAT1_DTYPES[dtype])
    return path


def _pat1_layout(manifest: dict) -> tuple[list[tuple[int, ...]], np.dtype]:
    dtype = manifest["dtype"]
    if dtype not in _PAT1_DTYPES:
        raise ValueError(f"unknown dtype {dtype!r}")
    shape = (manifest["bands"], manifest["height"], manifest["width"])
    return [shape], _PAT1_DTYPES[dtype]


def read_pat1(path: str | Path) -> tuple[BandStack, dict]:
    """Read a PAT1 file; returns the stack and its manifest.

    The data is read straight from the file into the returned (writable)
    array.
    """
    manifest, (data,) = _container.load(path, _PAT1_MAGIC, _PAT1_KINDS, _pat1_layout)
    with _container.parsing(path):
        stack = BandStack(data, manifest["gsd"], manifest["band_ids"])
    return stack, manifest


def sidecar_georef(sidecar: dict) -> GeoRef | None:
    """The georef a PAT1 manifest records, or None when it records none."""
    return GeoRef.from_json(sidecar["georef"]) if "georef" in sidecar else None
