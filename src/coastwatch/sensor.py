"""Desk-scale simulator for the satellite multispectral product chain.

Takes an L1C-style top-of-atmosphere reflectance scene and emulates the
product pipeline on its seven multispectral bands: reflectance to radiance,
spatial resampling to the 4.75 m product pitch, band-to-band misalignment,
SNR/MTF degradation, back to reflectance, and chipping into 256 px patches.
A synthetic-scene generator replaces external data access: it produces
reflectance scenes whose turbidity/pH fields are known analytic functions,
so downstream accuracy can be gated quantitatively.

The chain is one per-band step sequence, ``_simulate_band``: band b's
reflectance to radiance (``_to_radiance``, in float64, so a band of any
dtype is widened before it is scaled) into a float64 plane its caller
gives up, which may be the band's own; resampling (only at another pitch,
into a product-pitch plane); then ``_misalign``, ``_degrade`` and
``_to_reflectance`` in place. ``_degrade`` reads one generator across the
bands in their order. :func:`simulate_l1c` runs the sequence into one
float64 (bands, h, w) buffer whose read-only views are the chips, and
leaves its scene as it was; ``cli simulate`` runs it on each scene band in
the band's own plane as ``_SceneSource`` makes it. ``_SceneSource`` makes
the bands of :func:`generate_synthetic_scene` one at a time, into planes
its caller gives: the scene's own for :func:`generate_synthetic_scene`,
one reused plane for ``cli simulate``. Randomness is owned per call
through an explicit seed.

:func:`resample`, ``_misalign``, ``_degrade`` and ``_SceneSource`` stream
each band in blocks of ``_ROW_BLOCK`` rows, top to bottom, so their
temporaries stay cache-sized: beside its planes, a step holds a few row
blocks. Resampling and misalignment share one bilinear row-block step
(``_interp_block``). Misalignment and blur read each block's source rows
from a slab (``_slabs``): the block's original rows and a halo above and
below (rows past the band's edge repeat its edge row), the rows above kept
from before the previous block overwrote them. The blur sums shifted slices
in scipy's order (``_convolve_lines``).
``_to_radiance`` multiplies a band straight into its plane, and
``_to_reflectance`` is one in-place division; neither needs scratch.
Streaming changes no bit: every pixel sees the same operations in the same
order as on whole planes and whole scenes, and the random draws keep their
band-major, row-major order in each stream.
``_SceneSource`` draws its pixel noise in one worker thread while the
calling thread evaluates the contaminant fields and mixes the bands; the
generator is the worker's alone once it starts.
"""

from __future__ import annotations

import datetime as dt
import math
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, SchemaError, read_document
from .raster import (
    MS_BAND_IDS,
    N_BANDS,
    PRODUCT_GSD,
    WINDOW,
    BandStack,
    GeoRef,
    TileResult,
    meters_per_degree,
    tile_scene,
    window_average,
)

TURBIDITY = "turbidity_NTU"
PH = "pH"
# in the order of SMP1's parameter codes: a record's code is its index here
PARAMETERS = (TURBIDITY, PH)


def check_parameter(name: str) -> None:
    """Refuse a contaminant name outside ``PARAMETERS`` (``SchemaError``)."""
    if name not in PARAMETERS:
        raise SchemaError(f"unknown parameter {name!r}")


# Nominal exo-atmospheric solar irradiance at the band centers, W m-2 um-1,
# the irradiances of every radiometric conversion. All are positive, so with
# a zenith in [0, 90) and a distance in [0.98, 1.02] AU the conversion is
# invertible for every valid SolarContext.
DEFAULT_ESUN = (1950.0, 1820.0, 1510.0, 1410.0, 1300.0, 1170.0, 960.0)

# Rows of one band a streamed step works on at a time. A (32, 2048) float64
# block is 512 KiB, so the three or four blocks a step touches at once stay
# in a 2 MiB L2 cache; 16 and 64 rows measured no faster.
_ROW_BLOCK = 32


def _row_blocks(height: int):
    """Slices of ``_ROW_BLOCK`` rows covering ``range(height)`` in order."""
    for start in range(0, height, _ROW_BLOCK):
        yield slice(start, min(start + _ROW_BLOCK, height))


def _block_buffer(height: int, width: int) -> np.ndarray:
    """Scratch for one row block of a (height, width) plane; a shorter last
    block uses its first rows, which stay C-contiguous."""
    return np.empty((min(_ROW_BLOCK, height), width))


def _slabs(band: np.ndarray, above: int, below: int):
    """Per row block of a (height, width) ``band``, top to bottom: the
    block's rows, a slab of the band's original rows from ``above`` rows
    over the block to ``below`` rows under it, and the band row ``top`` the
    slab starts at: slab row j is original row clip(top + j, 0, height - 1).

    The caller may overwrite the block in ``band`` before it asks for the
    next slab: the rows a later block reads above its own are carried over
    from the slab before. The slab is one reused buffer, valid until the
    next is asked for.
    """
    height, width = band.shape
    slab = np.empty((min(_ROW_BLOCK, height) + above + below, width))
    slab[:above] = band[0]
    for rows in _row_blocks(height):
        n = rows.stop - rows.start
        bottom = min(rows.stop + below, height)
        source = slab[:n + above + below]
        source[above:above + bottom - rows.start] = band[rows.start:bottom]
        source[above + bottom - rows.start:] = band[-1]
        yield rows, source, rows.start - above
        # the original rows the next block reads above its own
        slab[:above] = source[n:n + above]


# The JSON kind of each key of a ``solar`` document.
_SOLAR_KINDS = {"zenith": "a number", "distance_au": "a number"}


@dataclass(frozen=True)
class SolarContext:
    """Solar metadata required for the reflectance/radiance conversions."""

    earth_sun_distance: float = 1.0   # astronomical units
    solar_zenith: float = 0.0         # degrees

    def __post_init__(self):
        if not 0.98 <= self.earth_sun_distance <= 1.02:
            raise SchemaError("earth-sun distance outside [0.98, 1.02] AU")
        if not 0.0 <= self.solar_zenith < 90.0:
            raise SchemaError("solar zenith must be in [0, 90) degrees")

    @classmethod
    def from_json(cls, doc: dict) -> "SolarContext":
        doc = read_document(doc, "solar", _SOLAR_KINDS)
        return cls(solar_zenith=doc.get("zenith", 0.0),
                   earth_sun_distance=doc.get("distance_au", 1.0))

    @property
    def cos_zenith(self) -> float:
        return math.cos(math.radians(self.solar_zenith))


@dataclass
class MaskSet:
    """Cloud, cloud-shadow and cirrus masks sharing the scene dimensions."""

    cloud: np.ndarray
    cloud_shadow: np.ndarray
    cirrus: np.ndarray

    def __post_init__(self):
        self.cloud = np.asarray(self.cloud, dtype=bool)
        self.cloud_shadow = np.asarray(self.cloud_shadow, dtype=bool)
        self.cirrus = np.asarray(self.cirrus, dtype=bool)
        if not (self.cloud.shape == self.cloud_shadow.shape == self.cirrus.shape):
            raise DimensionError("mask rasters must share dimensions")


MISALIGN_BOUND_M = 10.0  # L1C band-to-band registration requirement

# The JSON kind of each key of a ``degrade`` document.
_DEGRADE_KINDS = {"snr": 'a number, "inf" or null, or a list of those',
                  "mtf": "a number", "misalign_m": "a list of number lists or null"}


@dataclass(frozen=True)
class DegradeConfig:
    """Signal degradation knobs: SNR, MTF at Nyquist, per-band shifts.

    ``snr_per_band`` (``math.inf``: no noise) and ``misalignment_per_band``
    ((east_m, south_m) shifts, each of magnitude <= 10 m as required at L1C
    level) hold one entry per band; ``mtf_at_nyquist`` 1.0 means no blur.
    """

    snr_per_band: tuple[float, ...] = (math.inf,) * N_BANDS
    mtf_at_nyquist: float = 1.0
    misalignment_per_band: tuple[tuple[float, float], ...] = ((0.0, 0.0),) * N_BANDS

    def __post_init__(self):
        for name, entries in (("snr", self.snr_per_band),
                              ("misalignment", self.misalignment_per_band)):
            if len(entries) != N_BANDS:
                raise SchemaError(f"{name} must hold {N_BANDS} entries, one per "
                                  f"band, got {len(entries)}")
        if any(not s > 0 for s in self.snr_per_band):
            raise SchemaError("snr must be positive (use inf for noiseless)")
        if not 0.0 < self.mtf_at_nyquist <= 1.0:
            raise SchemaError("mtf_at_nyquist must be in (0, 1]")
        if any(len(shift) != 2 for shift in self.misalignment_per_band):
            raise SchemaError("each misalignment must be an (east_m, south_m) pair")
        for dx, dy in self.misalignment_per_band:
            if not math.hypot(dx, dy) <= MISALIGN_BOUND_M:
                raise SchemaError(
                    f"misalignment ({dx}, {dy}) m is not within the "
                    f"{MISALIGN_BOUND_M} m registration bound"
                )

    @classmethod
    def from_json(cls, doc: dict) -> "DegradeConfig":
        doc = read_document(doc, "degrade", _DEGRADE_KINDS)
        # one snr for every band, or a list of one per band
        snr = doc.get("snr", math.inf)
        return cls(snr_per_band=snr if isinstance(snr, tuple) else (snr,) * N_BANDS,
                   mtf_at_nyquist=doc.get("mtf", 1.0),
                   misalignment_per_band=doc.get("misalign_m") or ((0.0, 0.0),) * N_BANDS)


# ---------------------------------------------------------------------------
# Radiometry
# ---------------------------------------------------------------------------


def _radiometric_scale(ctx: SolarContext, band: int) -> float:
    """esun_b * cos(theta_s) / (pi d^2): radiance per unit reflectance."""
    return (DEFAULT_ESUN[band] * ctx.cos_zenith
            / (math.pi * ctx.earth_sun_distance**2))


def _to_radiance(source: np.ndarray, b: int, ctx: SolarContext,
                 out: np.ndarray | None = None) -> None:
    """Radiance L = rho * esun_b * cos(theta_s) / (pi d^2) of band ``b``'s
    reflectance plane ``source``, of any dtype, into the float64 plane
    ``out``, by default ``source`` itself: one multiplication in float64,
    so a float32 or integer band is widened before it is scaled.
    ``_to_reflectance`` divides by the same scale, so the conversion is
    invertible for any valid context."""
    np.multiply(source, _radiometric_scale(ctx, b),
                out=source if out is None else out, dtype=np.float64)


def _to_reflectance(band: np.ndarray, b: int, ctx: SolarContext) -> None:
    """Band ``b``'s radiance to reflectance in place on a float64 plane."""
    band /= _radiometric_scale(ctx, b)


# ---------------------------------------------------------------------------
# Geometry: resampling and band-to-band misalignment
# ---------------------------------------------------------------------------


def _interp_weights(coords: np.ndarray, n: int):
    """Linear interpolation at fractional ``coords`` over ``n`` samples,
    clamping outside samples to the edge value (replicate extension): the
    lower and upper sample index of each coordinate and the upper weight."""
    pos = np.clip(coords, 0.0, n - 1.0)
    i0 = np.floor(pos).astype(np.intp)
    i0 = np.minimum(i0, n - 2) if n > 1 else np.zeros_like(i0)
    return i0, np.minimum(i0 + 1, n - 1), pos - i0


def _interp_block(out, source, rows, cols, scratch) -> None:
    """Row block ``out`` of the bilinear interpolation of a float64 plane
    ``source``: rows r0/r1 weighted by 1 - f and f, then columns c0/c1 the
    same way, with ``rows`` and ``cols`` the ``_interp_weights`` of the
    block's rows and of the columns. ``scratch`` is two row blocks of the
    source's width and one of ``out``'s, which may be the second."""
    (r0, r1, fy), (c0, c1, fx) = rows, cols
    a, u, v = (buffer[:len(out)] for buffer in scratch)
    np.take(source, r0, axis=0, out=a, mode="clip")
    np.take(source, r1, axis=0, out=u, mode="clip")
    a *= 1.0 - fy[:, None]
    u *= fy[:, None]
    a += u  # the block's rows, interpolated along the rows
    np.take(a, c0, axis=1, out=out, mode="clip")
    np.take(a, c1, axis=1, out=v, mode="clip")
    out *= 1.0 - fx
    v *= fx
    out += v


def resampled_shape(height: int, width: int, gsd: float,
                    target_gsd: float) -> tuple[int, int]:
    """The (height, width) ``resample`` gives a raster of ``gsd`` at
    ``target_gsd``: the grid nodes that fit in the raster's node extent."""
    ratio = target_gsd / gsd
    return tuple(int(math.floor((n - 1) / ratio)) + 1 for n in (height, width))


def resample(raster: BandStack, target_gsd: float) -> BandStack:
    """Bilinear resampling onto a grid of pitch ``target_gsd``.

    Sample points are grid nodes: source node i sits at ``i * gsd`` metres,
    and the output covers the same node extent, so resampling to the native
    gsd is the identity and corner samples are always preserved. Each band
    is read, widened to float64 if need be, into the output a row block at
    a time (``_resample_into``).
    """
    if target_gsd <= 0:
        raise ValueError("target gsd must be positive")
    if raster.width < 2 or raster.height < 2:
        raise DimensionError("raster too small to resample (degenerate extent)")
    if target_gsd == raster.gsd:
        return BandStack.from_array(raster.data.copy(), raster.gsd, raster.band_ids)
    data = np.empty((raster.bands, *resampled_shape(raster.height, raster.width,
                                                    raster.gsd, target_gsd)))
    for band, out in zip(raster.data, data):
        # np.take cannot cast into a float64 out
        _resample_into(band.astype(np.float64, copy=False), raster.gsd,
                       target_gsd, out)
    return BandStack.from_array(data, target_gsd, raster.band_ids)


def _resample_into(band: np.ndarray, gsd: float, target_gsd: float,
                   out: np.ndarray) -> None:
    """:func:`resample` of one float64 plane at ``gsd`` into the float64
    plane ``out`` of its ``resampled_shape`` at ``target_gsd``, a row block
    at a time."""
    ratio = target_gsd / gsd
    (height, width), (out_h, out_w) = band.shape, out.shape
    rows = _interp_weights(np.arange(out_h) * ratio, height)
    cols = _interp_weights(np.arange(out_w) * ratio, width)
    scratch = [_block_buffer(out_h, w) for w in (width, width, out_w)]
    for block in _row_blocks(out_h):
        _interp_block(out[block], band, [w[block] for w in rows], cols, scratch)


def _misalign(band: np.ndarray, b: int, gsd: float, cfg: DegradeConfig) -> None:
    """Shift band ``b``, a float64 plane at ``gsd``, in place by its
    (east_m, south_m) offset via bilinear resampling.

    Integer-pixel offsets reduce to exact shifts with replicate edge fill.
    The shifted band is written back a row block at a time
    (``_interp_block``) from a slab of its original rows (``_slabs``) whose
    halo spans the block's source rows. A shift within ``MISALIGN_BOUND_M``
    at the product pitch reads at most three rows past the block either
    side.
    """
    east_m, south_m = cfg.misalignment_per_band[b]
    dx = east_m / gsd   # columns
    dy = south_m / gsd  # rows
    if dx == 0.0 and dy == 0.0:
        return
    height, width = band.shape
    upper = _block_buffer(height, width)
    scratch = (_block_buffer(height, width), upper, upper)
    # content moves by (+dy, +dx): sample the source at x - d
    r0, r1, fy = _interp_weights(np.arange(height) - dy, height)
    cols = _interp_weights(np.arange(width) - dx, width)
    # the farthest any row reads above and below itself
    above = max(int((np.arange(height) - r0).max()), 0)
    below = max(int((r1 - np.arange(height)).max()), 0)
    for rows, source, top in _slabs(band, above, below):
        _interp_block(band[rows], source, (r0[rows] - top, r1[rows] - top, fy[rows]),
                      cols, scratch)


# ---------------------------------------------------------------------------
# SNR / MTF degradation
# ---------------------------------------------------------------------------


def mtf_blur_sigma_px(mtf_at_nyquist: float) -> float:
    """Std-dev (pixels) of the Gaussian whose transfer function equals
    ``mtf_at_nyquist`` at the Nyquist frequency.

    H(f) = exp(-2 pi^2 sigma^2 f^2); solving H(0.5) = m gives
    sigma = sqrt(-2 ln m) / pi.
    """
    if mtf_at_nyquist >= 1.0:
        return 0.0
    return math.sqrt(-2.0 * math.log(mtf_at_nyquist)) / math.pi


def gaussian_kernel(sigma_px: float) -> np.ndarray:
    """Discrete unit-sum Gaussian kernel, half-width 4 sigma."""
    radius = max(1, int(math.ceil(4.0 * sigma_px)))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma_px) ** 2)
    return k / k.sum()


def _convolve_lines(out, lines, kernel, scratch) -> None:
    """Each ``out[i]`` is ``lines[i:i + len(kernel)]`` convolved with an odd
    symmetric ``kernel``, summed as scipy's convolve1d does: the centre tap,
    then (lines[i+r-k] + lines[i+r+k]) * kernel[r-k] added for k = r .. 1."""
    r, n = len(kernel) // 2, len(out)
    np.multiply(lines[r:r + n], kernel[r], out=out)
    for k in range(r, 0, -1):
        np.add(lines[r - k:r - k + n], lines[r + k:r + k + n], out=scratch)
        scratch *= kernel[r - k]
        out += scratch


def _degrade(band: np.ndarray, b: int, cfg: DegradeConfig,
             rng: np.random.Generator) -> None:
    """MTF blur then Gaussian noise at sigma = mean / SNR, in place on band
    ``b``, a float64 plane, drawing the noise from ``rng``, the one
    generator the chain reads across the bands in their order.

    The blur kernel is a unit-sum separable Gaussian parameterized by the
    configured MTF at Nyquist, applied with replicate edges; identity when
    mtf_at_nyquist is 1. Each row block is blurred along the columns from a
    slab with a kernel-radius halo (``_slabs``) into a block padded by the
    radius, edge columns repeated, then along the rows into the band: the
    bits of scipy's ``convolve1d(mode="nearest")`` on each axis. The noise
    sigma is the blurred band's whole-plane mean over the SNR, and the noise
    is drawn a row block at a time; it is skipped, and ``rng`` not read,
    for infinite SNR.
    """
    height, width = band.shape
    block = _block_buffer(height, width)
    sigma_px = mtf_blur_sigma_px(cfg.mtf_at_nyquist)
    if sigma_px > 0.0:
        kernel = gaussian_kernel(sigma_px)
        r = len(kernel) // 2
        padded = np.empty((len(block), r + width + r))
        for rows, source, _ in _slabs(band, r, r):
            scratch = block[:rows.stop - rows.start]  # the noise's block
            blurred = padded[:len(scratch)]
            _convolve_lines(blurred[:, r:-r], source, kernel, scratch)
            blurred[:, :r] = blurred[:, r:r + 1]  # edge columns repeated
            blurred[:, -r:] = blurred[:, -r - 1:-r]
            # along the rows: the lines of the transposed views
            _convolve_lines(band[rows].T, blurred.T, kernel, scratch.T)
    snr = cfg.snr_per_band[b]
    if math.isinf(snr):
        return
    sigma = abs(float(band.mean())) / snr
    if sigma > 0.0:
        for rows in _row_blocks(height):
            out = band[rows]
            noise = block[:len(out)]
            rng.standard_normal(out=noise)
            noise *= sigma
            out += noise


# ---------------------------------------------------------------------------
# Full product chain
# ---------------------------------------------------------------------------


def simulate_l1c(
    scene: BandStack,
    ctx: SolarContext,
    cfg: DegradeConfig,
    seed: int,
    scene_georef: GeoRef | None = None,
) -> TileResult:
    """Run the product chain and chip the result into 256 px patches.

    reflectance -> radiance -> resample to 4.75 m -> band misalignment ->
    SNR/MTF degradation -> reflectance -> chips, band by band
    (``_simulate_band``), into one fresh float64 buffer of the product's
    (bands, h, w) shape; the chips are read-only views into it. ``scene``,
    of any dtype, is not modified.

    At the product pitch each band is made in its buffer plane, so the
    call holds the buffer and a few row blocks at its peak. At another
    pitch each band's radiance is made in one float64 plane of the scene's
    size, which is resampled into the buffer: the buffer, that one plane
    and a few row blocks.
    """
    if scene.bands != N_BANDS:
        raise DimensionError(f"scene must have {N_BANDS} multispectral bands, "
                             f"got {scene.bands}")
    buffer = np.empty((N_BANDS, *resampled_shape(scene.height, scene.width,
                                                 scene.gsd, PRODUCT_GSD)))
    radiance = (None if scene.gsd == PRODUCT_GSD
                else np.empty((scene.height, scene.width)))
    rng = np.random.default_rng(seed)
    for b, (source, out) in enumerate(zip(scene.data, buffer)):
        _simulate_band(source, b, scene.gsd, ctx, cfg, rng,
                       out if radiance is None else radiance, out)
    return tile_scene(BandStack.from_array(buffer, PRODUCT_GSD, scene.band_ids),
                      scene_georef, patch_id_prefix="chip")


def _simulate_band(source: np.ndarray, b: int, gsd: float, ctx: SolarContext,
                   cfg: DegradeConfig, rng: np.random.Generator,
                   radiance: np.ndarray, out: np.ndarray) -> None:
    """Band ``b`` of the product chain from its reflectance plane
    ``source`` (any dtype) at ``gsd``: ``_to_radiance`` into the float64
    plane ``radiance``, which may be ``source`` itself; resampling into the
    float64 product-pitch plane ``out`` (only at another pitch: at the
    product pitch ``out`` is ``radiance``); then ``_misalign``, ``_degrade``
    (reading ``rng``) and ``_to_reflectance`` in place on ``out``."""
    _to_radiance(source, b, ctx, out=radiance)
    if gsd != PRODUCT_GSD:
        _resample_into(radiance, gsd, PRODUCT_GSD, out)
    _misalign(out, b, PRODUCT_GSD, cfg)
    _degrade(out, b, cfg, rng)
    _to_reflectance(out, b, ctx)


# ---------------------------------------------------------------------------
# Synthetic scenes with analytic ground truth
# ---------------------------------------------------------------------------


# The JSON kind of each key of a ``simulate`` document; the three objects are
# read by their own readers.
_SPEC_KINDS = {
    "width": "an integer", "height": "an integer", "gsd": "a number",
    "turbidity_range": "a list of numbers", "ph_range": "a list of numbers",
    "noise_std": "a number", "blobs": "an integer", "ramp": "a boolean",
    "center_lat": "a number", "center_lon": "a number", "date": "a date",
    "mixing": None, "solar": None, "degrade": None,
}
# The JSON kind of each key of a spec's ``mixing``, which must hold both.
_MIXING_KINDS = {"offsets": "a list of numbers", "matrix": "a list of number lists"}


@dataclass
class SceneSpec:
    """Description of a synthetic reflectance scene.

    Reflectances are an affine mixing of the normalized contaminant fields
    plus optional i.i.d. Gaussian pixel noise:

        rho_b = offset_b + M[b, 0] * turb01 + M[b, 1] * ph01 + noise

    The mixing (7 offsets and a 7x2 matrix, drawn at random when not given)
    must be invertible (rank 2) so a regressor can in principle recover the
    fields exactly from the seven bands.
    """

    width: int = 512
    height: int = 512
    gsd: float = PRODUCT_GSD
    turbidity_range: tuple[float, float] = (0.5, 40.0)
    ph_range: tuple[float, float] = (6.5, 8.8)
    noise_std: float = 0.0
    blobs: int = 4
    ramp: bool = True
    mixing_offsets: tuple[float, ...] | None = None
    mixing_matrix: tuple[tuple[float, float], ...] | None = None
    center_lat: float = 44.1
    center_lon: float = 9.8
    date: dt.date = dt.date(2024, 6, 15)

    def __post_init__(self):
        def require(ok: bool, rule: str) -> None:
            if not ok:
                raise SchemaError(f"scene spec: {rule}")

        require(self.width >= 1 and self.height >= 1, "width and height must be >= 1")
        require(self.gsd > 0, "gsd must be > 0")
        require(-90 <= self.center_lat <= 90, "center_lat must be in [-90, 90]")
        require(-180 <= self.center_lon <= 180, "center_lon must be in [-180, 180]")
        # a footprint on the globe tiles into patches whose centres are on it
        m_lat, m_lon = meters_per_degree(self.center_lat)
        require(abs(self.center_lat) + self.height / 2 * self.gsd / m_lat <= 90
                and abs(self.center_lon) + self.width / 2 * self.gsd / m_lon <= 180,
                f"the {self.width}x{self.height} px footprint at {self.gsd:g} m "
                "must not cross a pole or the antimeridian")
        require(self.noise_std >= 0 and self.blobs >= 0, "noise_std, blobs must be >= 0")
        # the contaminant bounds are those InSituRecord accepts
        require(len(self.turbidity_range) == len(self.ph_range) == 2,
                "turbidity_range and ph_range must be [lo, hi] pairs")
        (t_lo, t_hi), (p_lo, p_hi) = self.turbidity_range, self.ph_range
        require(0 <= t_lo < t_hi, "turbidity_range must have 0 <= lo < hi")
        require(0 <= p_lo < p_hi <= 14, "ph_range must have 0 <= lo < hi <= 14")
        offsets, matrix = self.mixing_offsets, self.mixing_matrix
        if offsets is None and matrix is None:
            return
        require(offsets is not None and matrix is not None
                and len(offsets) == len(matrix) == N_BANDS
                and all(len(row) == 2 for row in matrix),
                f"mixing must be {N_BANDS} offsets and a {N_BANDS}x2 matrix, or neither")
        require(all(map(math.isfinite, [*offsets, *(x for row in matrix for x in row)])),
                "mixing offsets and matrix must be finite")
        sv = np.linalg.svd(np.asarray(matrix, dtype=np.float64), compute_uv=False)
        require(sv[-1] > 1e-9 * sv[0], "mixing matrix must have rank 2")

    def georef(self) -> GeoRef:
        return GeoRef(self.center_lat, self.center_lon, self.date)

    @classmethod
    def from_json(cls, doc: dict) -> "SceneSpec":
        """The spec from a ``simulate`` document: the keys of ``_SPEC_KINDS``,
        where ``mixing`` holds both ``offsets`` and ``matrix`` and ``solar``
        and ``degrade`` are the documents :meth:`SolarContext.from_json` and
        :meth:`DegradeConfig.from_json` read. Any other key, and a value of
        the wrong JSON kind, is a ``SchemaError``."""
        kwargs = read_document(doc, "scene spec", _SPEC_KINDS)
        kwargs.pop("solar", None)
        kwargs.pop("degrade", None)
        if "mixing" in kwargs:
            mixing = read_document(kwargs.pop("mixing"), "scene spec mixing",
                                   _MIXING_KINDS, required=("offsets", "matrix"))
            kwargs["mixing_offsets"], kwargs["mixing_matrix"] = (
                mixing["offsets"], mixing["matrix"])
        return cls(**kwargs)


@dataclass
class SceneTruth:
    """Ground truth accompanying a synthetic scene."""

    fields: dict[str, np.ndarray]         # full-resolution physical fields
    window_grids: dict[str, np.ndarray]   # 10x10-window means of the fields
    mixing_offsets: np.ndarray            # (N_BANDS,)
    mixing_matrix: np.ndarray             # (N_BANDS, 2), columns: turb01, ph01
    noise_std: float
    noise_floor: dict[str, float]         # best achievable RMSE per parameter


def _field_draws(spec: SceneSpec, rng: np.random.Generator):
    """The random parameters of one :func:`_smooth_field`, in the order the
    stream gives them: the ramp slopes, then each blob's centre, width and
    amplitude."""
    ramp = tuple(rng.uniform(-1.0, 1.0, size=2)) if spec.ramp else None
    blobs = []
    for _ in range(spec.blobs):
        cy, cx = rng.uniform(0.1, 0.9, size=2)
        s = rng.uniform(0.05, 0.25)
        amp = rng.uniform(0.5, 1.5)
        blobs.append((cy, cx, s, amp))
    return ramp, blobs


def _smooth_field(spec: SceneSpec, ramp, blobs, f: np.ndarray) -> None:
    """Analytic scalar field in [0, 1] from :func:`_field_draws` into the
    float64 (height, width) plane ``f``: optional linear ramp plus Gaussian
    blobs, min-max normalized (constant 0.5 if degenerate).

    The field is summed a row block at a time, each blob's ``exp``
    evaluated into one block-sized buffer."""
    h, w = spec.height, spec.width
    yy = (np.arange(h, dtype=np.float64) / max(h - 1, 1))[:, None]
    xx = (np.arange(w, dtype=np.float64) / max(w - 1, 1))[None, :]
    if ramp is not None:
        ramp_x, ramp_y = ramp[0] * xx, ramp[1] * yy
    blobs = [((yy - cy) ** 2, (xx - cx) ** 2, 2 * s**2, amp)
             for cy, cx, s, amp in blobs]
    f.fill(0.0)
    buffer = _block_buffer(h, w)
    for rows in _row_blocks(h):
        out = f[rows]
        term = buffer[:len(out)]
        if ramp is not None:
            np.add(ramp_x, ramp_y[rows], out=term)
            out += term
        # amp * exp(-(dy^2 + dx^2) / (2 s^2))
        for dy2, dx2, two_s2, amp in blobs:
            np.add(dy2[rows], dx2, out=term)
            np.negative(term, out=term)
            term /= two_s2
            np.exp(term, out=term)
            term *= amp
            out += term
    lo, hi = f.min(), f.max()
    if hi - lo < 1e-12:
        f.fill(0.5)
        return
    f -= lo
    f /= hi - lo


def _draw_noise(band: np.ndarray, rng: np.random.Generator, std: float) -> None:
    """Overwrite a (h, w) band with Gaussian noise of ``std``, a row block at
    a time in row-major order."""
    for rows in _row_blocks(band.shape[0]):
        out = band[rows]
        rng.standard_normal(out=out)
        out *= std


def _default_mixing(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Random well-conditioned affine mixing keeping reflectances in [0, 1]."""
    offsets = rng.uniform(0.08, 0.25, size=N_BANDS)
    for _ in range(100):
        m = rng.uniform(-0.15, 0.15, size=(N_BANDS, 2))
        if np.linalg.svd(m, compute_uv=False)[-1] >= 0.05:
            return offsets, m
    raise RuntimeError("could not draw a well-conditioned mixing matrix")


class _SceneSource:
    """The bands of ``generate_synthetic_scene(spec, seed)``, bit for bit,
    one at a time.

    Every random parameter is drawn on construction, in the stream's order:
    the turbidity field's, the pH field's, then the mixing when the spec
    gives none. The pixel noise follows in the stream, band-major and then
    row-major, drawn by :meth:`bands`.
    """

    def __init__(self, spec: SceneSpec, seed: int):
        self.spec = spec
        self.rng = np.random.default_rng(seed)
        self.field_draws = (_field_draws(spec, self.rng), _field_draws(spec, self.rng))
        if spec.mixing_matrix is not None:
            self.mix = np.asarray(spec.mixing_matrix, dtype=np.float64)
            self.offsets = np.asarray(spec.mixing_offsets, dtype=np.float64)
        else:
            self.offsets, self.mix = _default_mixing(self.rng)

    def noise_floor(self) -> dict[str, float]:
        """The best linear estimator's RMSE of each field from the
        ``N_BANDS`` noisy window averages: variance = sigma_avg^2 *
        [(M^T M)^-1]_kk, scaled by the field's range."""
        spec = self.spec
        (t_lo, t_hi), (p_lo, p_hi) = spec.turbidity_range, spec.ph_range
        sigma_avg = spec.noise_std / WINDOW
        gram_inv = np.linalg.inv(self.mix.T @ self.mix)
        return {
            TURBIDITY: float((t_hi - t_lo) * sigma_avg * math.sqrt(gram_inv[0, 0])),
            PH: float((p_hi - p_lo) * sigma_avg * math.sqrt(gram_inv[1, 1])),
        }

    def bands(self, planes, fields=None) -> Iterator[np.ndarray]:
        """Band b of the scene, for b in band order, made in the float64
        (height, width) plane ``planes[b % len(planes)]``.

        A band's plane may be made again once the next band is asked for,
        so the caller may work on each band in place until then. The two
        normalized field planes (turbidity, pH) are evaluated into
        ``fields`` when given, else into two planes of the source's own,
        let go once the last band is mixed.

        One worker thread draws the noise into the planes in band order, a
        row block at a time: first into every plane, while this thread
        evaluates the two fields, then into each plane as its band is let
        go. Each band's mix, (offset + m0 * turb01) + m1 * ph01, is added
        onto its noise a row block at a time; addition commutes, so the
        bits are those of the mix plus the noise.
        """
        spec, n = self.spec, len(planes)
        shape = (spec.height, spec.width)
        turb01, ph01 = fields if fields is not None else (np.empty(shape), np.empty(shape))
        buffers = [_block_buffer(*shape) for _ in range(2)]
        with ThreadPoolExecutor(max_workers=1) as worker:
            # one worker runs the draws in the order submitted
            def draw(b):
                return worker.submit(_draw_noise, planes[b % n], self.rng, spec.noise_std)

            noise = ([draw(b) for b in range(min(n, N_BANDS))]
                     if spec.noise_std > 0.0 else None)
            _smooth_field(spec, *self.field_draws[0], turb01)
            _smooth_field(spec, *self.field_draws[1], ph01)
            for b in range(N_BANDS):
                band = planes[b % n]
                if noise is not None:
                    # band b - 1 was let go: its plane takes band b - 1 + n
                    if b and b - 1 + n < N_BANDS:
                        noise.append(draw(b - 1 + n))
                    noise[b].result()
                for rows in _row_blocks(spec.height):
                    out = band[rows]
                    mixed, term = (buffer[:len(out)] for buffer in buffers)
                    np.multiply(self.mix[b, 0], turb01[rows], out=mixed)
                    mixed += self.offsets[b]
                    np.multiply(self.mix[b, 1], ph01[rows], out=term)
                    mixed += term
                    if noise is None:
                        np.copyto(out, mixed)
                    else:
                        out += mixed
                if b == N_BANDS - 1:
                    turb01 = ph01 = None  # the last band is mixed
                yield band


def generate_synthetic_scene(
    spec: SceneSpec, seed: int
) -> tuple[BandStack, SceneTruth]:
    """Reflectance scene with analytically known turbidity and pH fields.

    Because the band mixing is affine and window averaging is linear, the
    window-averaged reflectances are an exact affine function of the
    window-averaged fields; with zero noise a regressor can therefore reach
    (near) zero error against the returned window grids. With pixel noise
    s, window-averaged features carry noise s / window, and the returned
    ``noise_floor`` is the RMSE of the best linear estimator under that
    noise, per parameter.

    The bands are ``_SceneSource``'s, made in the scene's own planes, so the
    worker thread draws every band's noise while this thread evaluates the
    two fields and mixes the bands before. Beside the scene the call holds
    the two field planes, normalized and then scaled in place into the two
    truth fields, and a few row blocks.
    """
    source = _SceneSource(spec, seed)
    data = np.empty((N_BANDS, spec.height, spec.width))
    turb01, ph01 = np.empty(data.shape[1:]), np.empty(data.shape[1:])
    for _ in source.bands(data, (turb01, ph01)):
        pass
    scene = BandStack.from_array(data, spec.gsd, MS_BAND_IDS)

    t_lo, t_hi = spec.turbidity_range
    p_lo, p_hi = spec.ph_range
    # each normalized plane becomes its truth field in place, so the truth
    # holds no plane beyond the two: f * (hi - lo) + lo is lo + (hi - lo) * f
    # bit for bit
    turb01 *= t_hi - t_lo
    turb01 += t_lo
    ph01 *= p_hi - p_lo
    ph01 += p_lo
    fields = {TURBIDITY: turb01, PH: ph01}
    truth = SceneTruth(
        fields=fields,
        window_grids={name: window_average(f) for name, f in fields.items()},
        mixing_offsets=source.offsets,
        mixing_matrix=source.mix,
        noise_std=spec.noise_std,
        noise_floor=source.noise_floor(),
    )
    return scene, truth
