"""Desk-scale simulator for the satellite multispectral product chain.

Takes an L1C-style top-of-atmosphere reflectance scene and emulates the
product pipeline on its seven multispectral bands: reflectance to radiance,
spatial resampling to the 4.75 m product pitch, band-to-band misalignment,
SNR/MTF degradation, back to reflectance, and chipping into 256 px patches.
A synthetic-scene generator replaces external data access: it produces
reflectance scenes whose turbidity/pH fields are known analytic functions,
so downstream accuracy can be gated quantitatively.

The chain has one entry, ``_simulate_into``: it converts the scene to
radiance (``_to_radiance``, in float64, so any scene dtype is widened
before it is scaled) into a float64 (bands, h, w) buffer its caller gives
up, which may be the scene's own, then resamples (only at another pitch,
into a new raster) and runs the later steps in place band by band:
``_misalign``, ``_degrade`` and ``_to_reflectance``. The chips are
read-only views into that buffer. :func:`simulate_l1c` gives it a fresh
buffer, so its scene is left as it was; ``cli simulate``, which does not
read its scene again, gives the scene's own buffer.
:func:`generate_synthetic_scene` owns one scene-sized buffer and scales its
two field planes into the truth fields in place. Randomness is owned per
call through an explicit seed.

:func:`resample`, ``_misalign``, ``_degrade`` and
:func:`generate_synthetic_scene` stream each band in blocks of
``_ROW_BLOCK`` rows, band by band and top to bottom, so their temporaries
stay cache-sized: beside the buffer, a step holds a few row blocks.
Resampling and misalignment share one bilinear row-block step
(``_interp_block``). Misalignment and blur read each block's source rows
from a slab (``_slabs``): the block's original rows and a halo above and
below (rows past the band's edge repeat its edge row), the rows above kept
from before the previous block overwrote them. The blur sums shifted slices
in scipy's order (``_convolve_lines``).
``_to_radiance`` multiplies each band straight into its buffer band, and
``_to_reflectance`` is one in-place division per band; neither needs
scratch. Streaming changes no bit: every pixel sees the same
operations in the same order as on whole planes, and the random draws keep
their band-major, row-major order in the stream.
:func:`generate_synthetic_scene` draws its pixel noise in one worker
thread while the calling thread evaluates the contaminant fields; the
generator is the worker's alone once it starts.
"""

from __future__ import annotations

import datetime as dt
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, SchemaError, is_json_kind, read_document
from .raster import (
    MS_BAND_IDS,
    N_BANDS,
    PRODUCT_GSD,
    WINDOW,
    BandStack,
    GeoRef,
    TileResult,
    tile_scene,
    window_average,
)

TURBIDITY = "turbidity_NTU"
PH = "pH"
# in the order of SMP1's parameter codes: a record's code is its index here
PARAMETERS = (TURBIDITY, PH)

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

# The JSON kind of each key of a ``degrade`` document; ``_snr_per_band`` reads snr.
_DEGRADE_KINDS = {"snr": None, "mtf": "a number",
                  "misalign_m": "a list of number lists or null"}


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
        return cls(snr_per_band=_snr_per_band(doc.get("snr")),
                   mtf_at_nyquist=doc.get("mtf", 1.0),
                   misalignment_per_band=doc.get("misalign_m") or ((0.0, 0.0),) * N_BANDS)


def _snr_per_band(snr) -> tuple[float, ...]:
    """The SNRs of a degrade document's ``snr``: one entry for every band or
    a list of one per band, each a number, or "inf" or null for no noise."""
    entries = [math.inf if value is None or value == "inf" else value
               for value in (snr if isinstance(snr, list) else [snr] * N_BANDS)]
    if not is_json_kind(entries, "a list of numbers"):
        raise SchemaError('degrade snr must be a number, "inf" or null, or a list of '
                          f'those, got {snr!r}')
    return tuple(map(float, entries))


# ---------------------------------------------------------------------------
# Radiometry
# ---------------------------------------------------------------------------


def _radiometric_scale(ctx: SolarContext, band: int) -> float:
    """esun_b * cos(theta_s) / (pi d^2): radiance per unit reflectance."""
    return (DEFAULT_ESUN[band] * ctx.cos_zenith
            / (math.pi * ctx.earth_sun_distance**2))


def _to_radiance(source: np.ndarray, ctx: SolarContext,
                 out: np.ndarray | None = None) -> None:
    """Radiance L = rho * esun_b * cos(theta_s) / (pi d^2) of a (bands, h, w)
    reflectance ``source`` of any dtype into the float64 ``out``, by default
    ``source`` itself: one multiplication per band, in float64, so a float32
    or integer band is widened before it is scaled. ``_to_reflectance``
    divides by the same scale, so the conversion is invertible for any
    valid context."""
    out = source if out is None else out
    for b in range(len(source)):
        np.multiply(source[b], _radiometric_scale(ctx, b), out=out[b],
                    dtype=np.float64)


def _to_reflectance(data: np.ndarray, ctx: SolarContext) -> None:
    """Radiance to reflectance in place on a float64 (bands, h, w) buffer."""
    for b in range(data.shape[0]):
        data[b] /= _radiometric_scale(ctx, b)


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
    a time.
    """
    if target_gsd <= 0:
        raise ValueError("target gsd must be positive")
    if raster.width < 2 or raster.height < 2:
        raise DimensionError("raster too small to resample (degenerate extent)")
    if target_gsd == raster.gsd:
        return BandStack.from_array(raster.data.copy(), raster.gsd, raster.band_ids)
    ratio = target_gsd / raster.gsd
    out_h, out_w = resampled_shape(raster.height, raster.width, raster.gsd, target_gsd)
    rows = _interp_weights(np.arange(out_h) * ratio, raster.height)
    cols = _interp_weights(np.arange(out_w) * ratio, raster.width)
    data = np.empty((raster.bands, out_h, out_w))
    scratch = [_block_buffer(out_h, w) for w in (raster.width, raster.width, out_w)]
    for b in range(raster.bands):
        # np.take cannot cast into a float64 out
        band = raster.data[b].astype(np.float64, copy=False)
        for block in _row_blocks(out_h):
            _interp_block(data[b, block], band, [w[block] for w in rows], cols,
                          scratch)
    return BandStack.from_array(data, target_gsd, raster.band_ids)


def _misalign(data: np.ndarray, gsd: float, cfg: DegradeConfig) -> None:
    """Shift each band of a float64 (bands, h, w) buffer in place by its
    (east_m, south_m) offset via bilinear resampling.

    Integer-pixel offsets reduce to exact shifts with replicate edge fill.
    A shifted band is written back a row block at a time (``_interp_block``)
    from a slab of its original rows (``_slabs``) whose halo spans the
    block's source rows. A shift within ``MISALIGN_BOUND_M`` at the product
    pitch reads at most three rows past the block either side.
    """
    bands, height, width = data.shape
    upper = _block_buffer(height, width)
    scratch = (_block_buffer(height, width), upper, upper)
    for b in range(bands):
        east_m, south_m = cfg.misalignment_per_band[b]
        dx = east_m / gsd   # columns
        dy = south_m / gsd  # rows
        if dx == 0.0 and dy == 0.0:
            continue
        # content moves by (+dy, +dx): sample the source at x - d
        r0, r1, fy = _interp_weights(np.arange(height) - dy, height)
        cols = _interp_weights(np.arange(width) - dx, width)
        # the farthest any row reads above and below itself
        above = max(int((np.arange(height) - r0).max()), 0)
        below = max(int((r1 - np.arange(height)).max()), 0)
        for rows, source, top in _slabs(data[b], above, below):
            _interp_block(data[b, rows], source,
                          (r0[rows] - top, r1[rows] - top, fy[rows]),
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


def _degrade(data: np.ndarray, cfg: DegradeConfig, seed: int) -> None:
    """MTF blur then Gaussian noise at sigma = mean / SNR, in place band by
    band on a float64 (bands, h, w) buffer.

    The blur kernel is a unit-sum separable Gaussian parameterized by the
    configured MTF at Nyquist, applied with replicate edges; identity when
    mtf_at_nyquist is 1. Each row block is blurred along the columns from a
    slab with a kernel-radius halo (``_slabs``) into a block padded by the
    radius, edge columns repeated, then along the rows into the buffer: the
    bits of scipy's ``convolve1d(mode="nearest")`` on each axis. The noise
    sigma is the blurred band's whole-plane mean over the SNR, and the noise
    is drawn a row block at a time; it is skipped for infinite SNR.
    Deterministic for a fixed seed.
    """
    bands, height, width = data.shape
    rng = np.random.default_rng(seed)
    block = _block_buffer(height, width)
    sigma_px = mtf_blur_sigma_px(cfg.mtf_at_nyquist)
    if sigma_px > 0.0:
        kernel = gaussian_kernel(sigma_px)
        r = len(kernel) // 2
        padded = np.empty((len(block), r + width + r))
    for b in range(bands):
        band = data[b]
        if sigma_px > 0.0:
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
            continue
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
    SNR/MTF degradation -> reflectance -> chips. The chain
    (``_simulate_into``) runs in one fresh float64 buffer of the scene's
    shape, and the chips are read-only views into it. ``scene``, of any
    dtype, is not modified.

    Each band is converted, resampled, shifted, blurred and noised in turn,
    all but the conversion a row block at a time. The call's heap peak is
    the buffer plus a few row blocks, and for a scene at another pitch the
    radiance at that pitch, which ``resample`` reads.
    """
    if scene.bands != N_BANDS:
        raise DimensionError(f"scene must have {N_BANDS} multispectral bands, "
                             f"got {scene.bands}")
    return _simulate_into(scene, np.empty(scene.data.shape), ctx, cfg, seed,
                          scene_georef)


def _simulate_into(
    scene: BandStack,
    buffer: np.ndarray,
    ctx: SolarContext,
    cfg: DegradeConfig,
    seed: int,
    scene_georef: GeoRef | None,
) -> TileResult:
    """:func:`simulate_l1c`'s chain in the float64 ``buffer`` of the scene's
    shape, which may be ``scene.data`` itself: ``_to_radiance`` from the
    scene into the buffer, resample (only if the pitch is not the
    product's), ``_misalign``, ``_degrade``, ``_to_reflectance`` and
    ``tile_scene``. The caller gives the buffer up: at the product pitch
    the chips are views into it."""
    _to_radiance(scene.data, ctx, out=buffer)
    radiance = BandStack.from_array(buffer, scene.gsd, scene.band_ids)
    if radiance.gsd != PRODUCT_GSD:
        radiance = resample(radiance, PRODUCT_GSD)
    _misalign(radiance.data, radiance.gsd, cfg)
    _degrade(radiance.data, cfg, seed)
    _to_reflectance(radiance.data, ctx)
    return tile_scene(radiance, scene_georef, patch_id_prefix="chip")


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


def _smooth_field(spec: SceneSpec, ramp, blobs) -> np.ndarray:
    """Analytic scalar field in [0, 1] from :func:`_field_draws`: optional
    linear ramp plus Gaussian blobs, min-max normalized (constant 0.5 if
    degenerate).

    The field is summed a row block at a time, each blob's ``exp``
    evaluated into one block-sized buffer."""
    h, w = spec.height, spec.width
    yy = (np.arange(h, dtype=np.float64) / max(h - 1, 1))[:, None]
    xx = (np.arange(w, dtype=np.float64) / max(w - 1, 1))[None, :]
    if ramp is not None:
        ramp_x, ramp_y = ramp[0] * xx, ramp[1] * yy
    blobs = [((yy - cy) ** 2, (xx - cx) ** 2, 2 * s**2, amp)
             for cy, cx, s, amp in blobs]
    f = np.zeros((h, w))
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
        return f
    f -= lo
    f /= hi - lo
    return f


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

    Every random parameter is drawn first; the noise, which takes most of
    the time and needs nothing but the generator, is then drawn into the
    scene by one worker thread, band by band and a row block at a time
    (band-major, then row-major in the stream), while this thread
    evaluates the two fields. Each band's mix, (offset + m0 * turb01) +
    m1 * ph01, is then added onto its noise a row block at a time; addition
    commutes, so the bits are those of the mix plus the noise. Beside the
    scene the call holds two field planes, normalized and then scaled in
    place into the two truth fields, and a few row blocks.
    """
    rng = np.random.default_rng(seed)
    turb_draws = _field_draws(spec, rng)
    ph_draws = _field_draws(spec, rng)
    if spec.mixing_matrix is not None:
        mix = np.asarray(spec.mixing_matrix, dtype=np.float64)
        offsets = np.asarray(spec.mixing_offsets, dtype=np.float64)
    else:
        offsets, mix = _default_mixing(rng)

    data = np.empty((N_BANDS, spec.height, spec.width))
    buffers = [_block_buffer(spec.height, spec.width) for _ in range(2)]
    with ThreadPoolExecutor(max_workers=1) as worker:
        # one worker runs the bands in the order submitted
        noise = ([worker.submit(_draw_noise, band, rng, spec.noise_std)
                  for band in data] if spec.noise_std > 0.0 else None)
        turb01 = _smooth_field(spec, *turb_draws)
        ph01 = _smooth_field(spec, *ph_draws)
        for b, band in enumerate(data):
            if noise is not None:
                noise[b].result()
            for rows in _row_blocks(spec.height):
                out = band[rows]
                mixed, term = (buffer[:len(out)] for buffer in buffers)
                np.multiply(mix[b, 0], turb01[rows], out=mixed)
                mixed += offsets[b]
                np.multiply(mix[b, 1], ph01[rows], out=term)
                mixed += term
                if noise is None:
                    np.copyto(out, mixed)
                else:
                    out += mixed
    scene = BandStack.from_array(data, spec.gsd, MS_BAND_IDS)

    t_lo, t_hi = spec.turbidity_range
    p_lo, p_hi = spec.ph_range
    # each normalized plane becomes its truth field in place: f * (hi - lo)
    # + lo is lo + (hi - lo) * f bit for bit. Fresh field arrays hold two
    # planes more at the peak but leave glibc's allocator less to keep
    # resident: over cli_chain (seed 1, 4 runs each, 2-core x86-64) they
    # read op_heap_peak_mb 88.7 MB and peak_rss_mb 167.2 MB, this form 73.0
    # and 183.0 MB. The heap peak is what the chain asks for on any
    # allocator, so it is the one kept low.
    turb01 *= t_hi - t_lo
    turb01 += t_lo
    ph01 *= p_hi - p_lo
    ph01 += p_lo
    fields = {TURBIDITY: turb01, PH: ph01}
    truth = SceneTruth(
        fields=fields,
        window_grids={name: window_average(f) for name, f in fields.items()},
        mixing_offsets=offsets,
        mixing_matrix=mix,
        noise_std=spec.noise_std,
        noise_floor={},
    )

    # Best linear estimator of each field from the N_BANDS noisy window averages:
    # variance = sigma_avg^2 * [(M^T M)^-1]_kk scaled by the field range.
    sigma_avg = spec.noise_std / WINDOW
    gram_inv = np.linalg.inv(mix.T @ mix)
    truth.noise_floor = {
        TURBIDITY: float((t_hi - t_lo) * sigma_avg * math.sqrt(gram_inv[0, 0])),
        PH: float((p_hi - p_lo) * sigma_avg * math.sqrt(gram_inv[1, 1])),
    }
    return scene, truth
