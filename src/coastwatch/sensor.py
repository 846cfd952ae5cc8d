"""Desk-scale simulator for the satellite multispectral product chain.

Takes an L1C-style top-of-atmosphere reflectance scene and emulates the
product pipeline: reflectance to radiance, panchromatic synthesis, spatial
resampling to the 4.75 m product pitch, band-to-band misalignment, SNR/MTF
degradation, back to reflectance, and chipping into 256 px patches with
masks carried alongside. A synthetic-scene generator replaces external data
access: it produces reflectance scenes whose turbidity/pH fields are known
analytic functions, so downstream accuracy can be gated quantitatively.

The public steps are pure over immutable rasters: each returns a new
raster and never mutates its input. Each step has one implementation, a
private helper that updates a float64 buffer in place band by band; the
public function is a copy plus that helper. :func:`simulate_l1c` and
:func:`generate_synthetic_scene` own one scene-sized working buffer and run
the helpers in it, so the chain never holds a second copy of the scene, and
the chips and PAN chips are read-only views into those buffers. Randomness
is owned per call through an explicit seed.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import convolve1d

from .errors import DimensionError, SchemaError, SingularContextError, check_document
from .raster import (
    MS_BAND_IDS,
    PRODUCT_GSD,
    WINDOW,
    BandStack,
    GeoRef,
    TileResult,
    tile_scene,
    window_average,
    window_fraction,
)

TURBIDITY = "turbidity_NTU"
PH = "pH"
PARAMETERS = (TURBIDITY, PH)

# Nominal VIS/NIR band table of the MultiScape100 payload: FWHM bandwidth and
# half-power range in nm, plus the panchromatic half-power cut-on/cut-off.
BAND_FWHM_NM = (65.0, 35.0, 30.0, 15.0, 15.0, 20.0, 115.0)
BAND_RANGE_NM = (
    (457.5, 522.5), (542.5, 577.5), (650.0, 680.0), (697.5, 712.5),
    (732.5, 747.5), (773.0, 793.0), (784.5, 899.5),
)
PAN_CUT_NM = (500.0, 750.0)

# Nominal exo-atmospheric solar irradiance at the band centers, W m-2 um-1.
# Used only as a default context; the radiance conversion is exactly
# invertible for any positive values.
DEFAULT_ESUN = (1950.0, 1820.0, 1510.0, 1410.0, 1300.0, 1170.0, 960.0)


@contextlib.contextmanager
def _schema(what: str):
    """Turn a missing key or a value of the wrong kind or range raised inside
    the block into a ``SchemaError`` naming the document part ``what``."""
    try:
        yield
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise SchemaError(f"{what}: {exc}") from None


def default_pan_weights() -> np.ndarray:
    """Bandwidth-proportional weights over bands inside the PAN cut range.

    A band contributes iff its half-power range lies fully inside the
    panchromatic cut-on/cut-off; weights are proportional to FWHM and
    normalized to sum to 1.
    """
    lo, hi = PAN_CUT_NM
    w = np.array(
        [fwhm if lo <= a and b <= hi else 0.0
         for fwhm, (a, b) in zip(BAND_FWHM_NM, BAND_RANGE_NM)]
    )
    return w / w.sum()


@dataclass(frozen=True)
class SolarContext:
    """Solar metadata required for the reflectance/radiance conversions."""

    esun_per_band: tuple[float, ...] = DEFAULT_ESUN
    earth_sun_distance: float = 1.0   # astronomical units
    solar_zenith: float = 0.0         # degrees

    def __post_init__(self):
        if any(e <= 0 for e in self.esun_per_band):
            raise SchemaError("esun must be positive for every band")
        if not 0.98 <= self.earth_sun_distance <= 1.02:
            raise SchemaError("earth-sun distance outside [0.98, 1.02] AU")
        if not 0.0 <= self.solar_zenith < 90.0:
            raise SchemaError("solar zenith must be in [0, 90) degrees")

    @classmethod
    def from_json(cls, doc: dict) -> "SolarContext":
        check_document(doc, "solar", ("zenith", "distance_au"))
        with _schema("solar"):
            return cls(solar_zenith=float(doc.get("zenith", 0.0)),
                       earth_sun_distance=float(doc.get("distance_au", 1.0)))

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

    @classmethod
    def clear(cls, height: int, width: int) -> "MaskSet":
        z = np.zeros((height, width), dtype=bool)
        return cls(z.copy(), z.copy(), z.copy())


MISALIGN_BOUND_M = 10.0  # L1C band-to-band registration requirement


@dataclass(frozen=True)
class DegradeConfig:
    """Signal degradation knobs: SNR, MTF at Nyquist, per-band shifts.

    ``snr_per_band`` entries may be ``math.inf`` (no noise); ``mtf_at_nyquist``
    1.0 means no blur. ``misalignment_per_band`` holds (east_m, south_m)
    shifts, each of magnitude <= 10 m as required at L1C level.
    """

    snr_per_band: tuple[float, ...] = (math.inf,) * 7
    mtf_at_nyquist: float = 1.0
    misalignment_per_band: tuple[tuple[float, float], ...] = ((0.0, 0.0),) * 7

    def __post_init__(self):
        if any(s <= 0 for s in self.snr_per_band):
            raise SchemaError("snr must be positive (use inf for noiseless)")
        if not 0.0 < self.mtf_at_nyquist <= 1.0:
            raise SchemaError("mtf_at_nyquist must be in (0, 1]")
        for dx, dy in self.misalignment_per_band:
            if math.hypot(dx, dy) > MISALIGN_BOUND_M:
                raise SchemaError(
                    f"misalignment ({dx}, {dy}) m exceeds the "
                    f"{MISALIGN_BOUND_M} m registration bound"
                )

    @classmethod
    def from_json(cls, doc: dict) -> "DegradeConfig":
        check_document(doc, "degrade", ("snr", "mtf", "misalign_m"))
        with _schema("degrade"):
            snr = doc.get("snr")
            if snr is None or snr == "inf":
                snr_t = (math.inf,) * 7
            elif isinstance(snr, (int, float)):
                snr_t = (float(snr),) * 7
            else:
                snr_t = tuple(math.inf if s in (None, "inf") else float(s)
                              for s in snr)
            mis = doc.get("misalign_m") or ((0.0, 0.0),) * 7
            return cls(snr_per_band=snr_t, mtf_at_nyquist=float(doc.get("mtf", 1.0)),
                       misalignment_per_band=tuple(
                           (float(dx), float(dy)) for dx, dy in mis))


# ---------------------------------------------------------------------------
# Radiometry
# ---------------------------------------------------------------------------


def _radiometric_scale(ctx: SolarContext, band: int) -> float:
    """esun_b * cos(theta_s) / (pi d^2): radiance per unit reflectance."""
    esun = ctx.esun_per_band[band]
    scale = esun * ctx.cos_zenith / (math.pi * ctx.earth_sun_distance**2)
    if scale <= 0.0 or not math.isfinite(scale):
        raise SingularContextError(
            f"non-invertible solar context for band {band}: scale={scale}"
        )
    return scale


def reflectance_to_radiance(rho, ctx: SolarContext, band: int):
    """ToA radiance from reflectance: L = rho * esun_b * cos(theta_s) / (pi d^2).

    Works element-wise on scalars or arrays; exactly invertible by
    :func:`radiance_to_reflectance` for any valid context.
    """
    return rho * _radiometric_scale(ctx, band)


def radiance_to_reflectance(L, ctx: SolarContext, band: int):
    """Exact inverse of :func:`reflectance_to_radiance`."""
    return L / _radiometric_scale(ctx, band)


def scene_to_radiance(scene: BandStack, ctx: SolarContext) -> BandStack:
    if len(ctx.esun_per_band) < scene.bands:
        raise DimensionError("solar context has fewer esun entries than bands")
    out = np.empty_like(scene.data, dtype=np.float64)
    for b in range(scene.bands):
        out[b] = reflectance_to_radiance(scene.data[b], ctx, b)
    return BandStack.from_array(out, scene.gsd, scene.band_ids)


def _to_reflectance(data: np.ndarray, ctx: SolarContext) -> None:
    """Radiance to reflectance in place on a float64 (bands, h, w) buffer."""
    for b in range(data.shape[0]):
        data[b] /= _radiometric_scale(ctx, b)


def scene_to_reflectance(scene: BandStack, ctx: SolarContext) -> BandStack:
    """Float64 reflectance from a radiance raster, band by band."""
    data = scene.data.astype(np.float64)
    _to_reflectance(data, ctx)
    return BandStack.from_array(data, scene.gsd, scene.band_ids)


def synthesize_pan(scene: BandStack, weights=None) -> BandStack:
    """Panchromatic band as a per-pixel linear combination of the MS bands."""
    if weights is None:
        weights = default_pan_weights()
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (scene.bands,):
        raise DimensionError(
            f"{weights.size} weights for {scene.bands} bands"
        )
    if abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError(f"pan weights must sum to 1, got {weights.sum()}")
    pan = np.tensordot(weights, np.asarray(scene.data, dtype=np.float64), axes=1)
    return BandStack.from_array(pan[None], scene.gsd, ("PAN",))


# ---------------------------------------------------------------------------
# Geometry: resampling and band-to-band misalignment
# ---------------------------------------------------------------------------


def _interp_axis(data: np.ndarray, coords: np.ndarray, axis: int) -> np.ndarray:
    """Linear interpolation of ``data`` at fractional ``coords`` along ``axis``,
    clamping outside samples to the edge value (replicate extension)."""
    n = data.shape[axis]
    pos = np.clip(coords, 0.0, n - 1.0)
    i0 = np.floor(pos).astype(np.intp)
    i0 = np.minimum(i0, n - 2) if n > 1 else np.zeros_like(i0)
    frac = pos - i0
    a = np.take(data, i0, axis=axis)
    b = np.take(data, np.minimum(i0 + 1, n - 1), axis=axis)
    shape = [1] * data.ndim
    shape[axis] = frac.size
    f = frac.reshape(shape)
    a *= 1.0 - f
    b *= f
    a += b
    return a


def resample(raster: BandStack, target_gsd: float) -> BandStack:
    """Bilinear resampling onto a grid of pitch ``target_gsd``.

    Sample points are grid nodes: source node i sits at ``i * gsd`` metres,
    and the output covers the same node extent, so resampling to the native
    gsd is the identity and corner samples are always preserved.
    """
    if target_gsd <= 0:
        raise ValueError("target gsd must be positive")
    if raster.width < 2 or raster.height < 2:
        raise DimensionError("raster too small to resample (degenerate extent)")
    if target_gsd == raster.gsd:
        return BandStack.from_array(raster.data.copy(), raster.gsd, raster.band_ids)
    ratio = target_gsd / raster.gsd
    out_h = int(math.floor((raster.height - 1) / ratio)) + 1
    out_w = int(math.floor((raster.width - 1) / ratio)) + 1
    rows = np.arange(out_h) * ratio
    cols = np.arange(out_w) * ratio
    data = raster.data.astype(np.float64)
    data = _interp_axis(data, rows, axis=1)
    data = _interp_axis(data, cols, axis=2)
    return BandStack.from_array(data, target_gsd, raster.band_ids)


def resample_mask(mask: np.ndarray, source_gsd: float, target_gsd: float) -> np.ndarray:
    """Nearest-neighbour counterpart of :func:`resample` for boolean masks."""
    mask = np.asarray(mask, dtype=bool)
    if target_gsd == source_gsd:
        return mask.copy()
    ratio = target_gsd / source_gsd
    out_h = int(math.floor((mask.shape[0] - 1) / ratio)) + 1
    out_w = int(math.floor((mask.shape[1] - 1) / ratio)) + 1
    rows = np.clip(np.rint(np.arange(out_h) * ratio).astype(np.intp), 0, mask.shape[0] - 1)
    cols = np.clip(np.rint(np.arange(out_w) * ratio).astype(np.intp), 0, mask.shape[1] - 1)
    return mask[np.ix_(rows, cols)]


@dataclass
class MisalignReport:
    applied_m: tuple[tuple[float, float], ...]
    per_band_magnitude_m: tuple[float, ...]
    rms_m: float


def _misalign(data: np.ndarray, gsd: float, cfg: DegradeConfig) -> None:
    """Shift each band of a float64 (bands, h, w) buffer in place."""
    bands, height, width = data.shape
    if len(cfg.misalignment_per_band) < bands:
        raise DimensionError("misalignment config has fewer entries than bands")
    for b in range(bands):
        east_m, south_m = cfg.misalignment_per_band[b]
        dx = east_m / gsd   # columns
        dy = south_m / gsd  # rows
        if dx == 0.0 and dy == 0.0:
            continue
        # content moves by (+dy, +dx): sample the source at x - d
        shifted = _interp_axis(data[b], np.arange(height) - dy, axis=0)
        data[b] = _interp_axis(shifted, np.arange(width) - dx, axis=1)


def apply_misalignment(
    scene: BandStack, cfg: DegradeConfig
) -> tuple[BandStack, MisalignReport]:
    """Shift each band by its (east_m, south_m) offset via bilinear resampling.

    Integer-pixel offsets reduce to exact shifts with replicate edge fill.
    The report records the applied offsets and their RMS magnitude, which by
    construction stays within the configured registration bound.
    """
    data = scene.data.astype(np.float64)
    _misalign(data, scene.gsd, cfg)
    mags = [math.hypot(*cfg.misalignment_per_band[b]) for b in range(scene.bands)]
    report = MisalignReport(
        applied_m=tuple(cfg.misalignment_per_band[: scene.bands]),
        per_band_magnitude_m=tuple(mags),
        rms_m=float(np.sqrt(np.mean(np.square(mags)))),
    )
    return BandStack.from_array(data, scene.gsd, scene.band_ids), report


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


def _degrade(data: np.ndarray, cfg: DegradeConfig, seed: int) -> None:
    """Blur then add noise in place, band by band, on a float64 buffer."""
    bands = data.shape[0]
    if len(cfg.snr_per_band) < bands:
        raise DimensionError("snr config has fewer entries than bands")
    rng = np.random.default_rng(seed)
    sigma_px = mtf_blur_sigma_px(cfg.mtf_at_nyquist)
    if sigma_px > 0.0:
        kernel = gaussian_kernel(sigma_px)
        plane = np.empty_like(data[0])
    for b in range(bands):
        if sigma_px > 0.0:
            convolve1d(data[b], kernel, axis=0, output=plane, mode="nearest")
            convolve1d(plane, kernel, axis=1, output=data[b], mode="nearest")
        snr = cfg.snr_per_band[b]
        if math.isinf(snr):
            continue
        sigma = abs(float(data[b].mean())) / snr
        if sigma > 0.0:
            data[b] += rng.normal(0.0, sigma, size=data[b].shape)


def degrade(scene: BandStack, cfg: DegradeConfig, seed: int) -> BandStack:
    """Apply MTF blur then per-band Gaussian noise at sigma = mean / SNR.

    The blur kernel is a unit-sum separable Gaussian parameterized by the
    configured MTF at Nyquist, applied with replicate edges; identity when
    mtf_at_nyquist is 1. Noise is skipped for infinite SNR. Deterministic
    for a fixed seed.
    """
    data = scene.data.astype(np.float64)
    _degrade(data, cfg, seed)
    return BandStack.from_array(data, scene.gsd, scene.band_ids)


# ---------------------------------------------------------------------------
# Full product chain
# ---------------------------------------------------------------------------


@dataclass
class SimulatedProduct:
    """Output of :func:`simulate_l1c`: reflectance chips plus carried extras."""

    tiles: TileResult
    pan_chips: list[BandStack]
    mask_chips: list[MaskSet]
    cloud_window_fraction: list[np.ndarray]

    @property
    def patches(self):
        return self.tiles.patches


def simulate_l1c(
    scene: BandStack,
    ctx: SolarContext,
    cfg: DegradeConfig,
    seed: int,
    masks: MaskSet | None = None,
    scene_georef: GeoRef | None = None,
    min_coverage: float | None = None,
) -> SimulatedProduct:
    """Run the product chain and chip the result into 256 px patches.

    reflectance -> radiance -> PAN synthesis -> resample to 4.75 m ->
    band misalignment -> SNR/MTF degradation -> reflectance -> chips.
    The panchromatic band is synthesized from the resampled radiances and
    carried alongside, never entering the 7-band patches; geometric and
    radiometric degradation is applied to the multispectral bands only.
    Masks (if any) are nearest-neighbour resampled and chipped alongside;
    ``min_coverage``, when set, drops chips whose cloud-free fraction is
    below the threshold.

    The radiance raster is this call's one float64 working buffer:
    misalignment, degradation and the reflectance conversion run in it in
    place, and the chips and PAN chips are read-only views into it and into
    the PAN raster. ``scene`` is not modified.
    """
    if scene.bands != 7:
        raise DimensionError(f"scene must have 7 multispectral bands, got {scene.bands}")
    if masks is not None and masks.cloud.shape != (scene.height, scene.width):
        raise DimensionError("masks do not share the scene dimensions")

    radiance = scene_to_radiance(scene, ctx)
    pan = synthesize_pan(radiance)
    if radiance.gsd != PRODUCT_GSD:
        radiance = resample(radiance, PRODUCT_GSD)
        pan = resample(pan, PRODUCT_GSD)
    _misalign(radiance.data, radiance.gsd, cfg)
    _degrade(radiance.data, cfg, seed)
    _to_reflectance(radiance.data, ctx)
    reflectance = radiance  # the same buffer, now holding reflectance

    if masks is None:
        masks = MaskSet.clear(reflectance.height, reflectance.width)
    else:
        masks = MaskSet(
            cloud=resample_mask(masks.cloud, scene.gsd, PRODUCT_GSD),
            cloud_shadow=resample_mask(masks.cloud_shadow, scene.gsd, PRODUCT_GSD),
            cirrus=resample_mask(masks.cirrus, scene.gsd, PRODUCT_GSD),
        )

    tiles = tile_scene(reflectance, scene_georef, patch_id_prefix="chip")
    pan_chips, mask_chips, cloud_fractions = [], [], []
    keep_patches, keep_placements = [], []
    ps = tiles.index.patch_size
    for patch, (r0, c0) in zip(tiles.patches, tiles.index.placements):
        cloud = masks.cloud[r0 : r0 + ps, c0 : c0 + ps]
        shadow = masks.cloud_shadow[r0 : r0 + ps, c0 : c0 + ps]
        cirrus = masks.cirrus[r0 : r0 + ps, c0 : c0 + ps]
        clear_fraction = 1.0 - float(cloud.mean())
        if min_coverage is not None and clear_fraction < min_coverage:
            continue
        keep_patches.append(patch)
        keep_placements.append((r0, c0))
        pan_chip = pan.data[:, r0 : r0 + ps, c0 : c0 + ps]
        pan_chip.flags.writeable = False
        pan_chips.append(BandStack.from_array(pan_chip, pan.gsd, ("PAN",)))
        mask_chips.append(MaskSet(cloud.copy(), shadow.copy(), cirrus.copy()))
        cloud_fractions.append(window_fraction(cloud))

    index = tiles.index
    kept = TileResult(
        patches=keep_patches,
        index=type(index)(
            scene_width=index.scene_width, scene_height=index.scene_height,
            placements=tuple(keep_placements), patch_size=index.patch_size,
            gsd=index.gsd,
        ),
    )
    return SimulatedProduct(kept, pan_chips, mask_chips, cloud_fractions)


# ---------------------------------------------------------------------------
# Synthetic scenes with analytic ground truth
# ---------------------------------------------------------------------------


@dataclass
class SceneSpec:
    """Description of a synthetic reflectance scene.

    Reflectances are an affine mixing of the normalized contaminant fields
    plus optional i.i.d. Gaussian pixel noise:

        rho_b = offset_b + M[b, 0] * turb01 + M[b, 1] * ph01 + noise

    The mixing must be invertible (full column rank) so a regressor can in
    principle recover the fields exactly from the seven bands.
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

    def georef(self) -> GeoRef:
        return GeoRef(self.center_lat, self.center_lon, self.gsd, self.date)

    @classmethod
    def from_json(cls, doc: dict) -> "SceneSpec":
        """The spec from a document that may hold more keys: ``simulate``
        reads its solar, degrade and coverage settings from the same one."""
        check_document(doc, "scene spec")
        kwargs = {}
        with _schema("scene spec"):
            for key in ("width", "height", "blobs"):
                if key in doc:
                    kwargs[key] = int(doc[key])
            for key in ("gsd", "noise_std", "center_lat", "center_lon"):
                if key in doc:
                    kwargs[key] = float(doc[key])
            for key in ("turbidity_range", "ph_range"):
                if key in doc:
                    kwargs[key] = (float(doc[key][0]), float(doc[key][1]))
            if "ramp" in doc:
                kwargs["ramp"] = bool(doc["ramp"])
            if "date" in doc:
                kwargs["date"] = dt.date.fromisoformat(doc["date"])
            mixing = doc.get("mixing")
            if mixing:
                kwargs["mixing_offsets"] = tuple(float(x) for x in mixing["offsets"])
                kwargs["mixing_matrix"] = tuple(
                    (float(a), float(b)) for a, b in mixing["matrix"]
                )
        return cls(**kwargs)


@dataclass
class SceneTruth:
    """Ground truth accompanying a synthetic scene."""

    fields: dict[str, np.ndarray]         # full-resolution physical fields
    window_grids: dict[str, np.ndarray]   # 10x10-window means of the fields
    ranges: dict[str, tuple[float, float]]
    mixing_offsets: np.ndarray            # (7,)
    mixing_matrix: np.ndarray             # (7, 2), columns: turb01, ph01
    noise_std: float
    noise_floor: dict[str, float]         # best achievable RMSE per parameter


def _smooth_field(spec: SceneSpec, rng: np.random.Generator) -> np.ndarray:
    """Analytic scalar field in [0, 1]: optional linear ramp plus Gaussian
    blobs, min-max normalized (constant 0.5 if degenerate)."""
    h, w = spec.height, spec.width
    yy = (np.arange(h, dtype=np.float64) / max(h - 1, 1))[:, None]
    xx = (np.arange(w, dtype=np.float64) / max(w - 1, 1))[None, :]
    f = np.zeros((h, w))
    if spec.ramp:
        a, b = rng.uniform(-1.0, 1.0, size=2)
        f += a * xx + b * yy
    for _ in range(spec.blobs):
        cy, cx = rng.uniform(0.1, 0.9, size=2)
        s = rng.uniform(0.05, 0.25)
        amp = rng.uniform(0.5, 1.5)
        f += amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * s**2))
    lo, hi = f.min(), f.max()
    if hi - lo < 1e-12:
        return np.full((h, w), 0.5)
    f -= lo
    f /= hi - lo
    return f


def _default_mixing(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Random well-conditioned affine mixing keeping reflectances in [0, 1]."""
    offsets = rng.uniform(0.08, 0.25, size=7)
    for _ in range(100):
        m = rng.uniform(-0.15, 0.15, size=(7, 2))
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
    """
    rng = np.random.default_rng(seed)
    turb01 = _smooth_field(spec, rng)
    ph01 = _smooth_field(spec, rng)

    if spec.mixing_matrix is not None:
        mix = np.asarray(spec.mixing_matrix, dtype=np.float64)
        offsets = np.asarray(spec.mixing_offsets, dtype=np.float64)
        if mix.shape != (7, 2) or offsets.shape != (7,):
            raise DimensionError("mixing must be a 7x2 matrix with 7 offsets")
        sv = np.linalg.svd(mix, compute_uv=False)
        if sv[-1] <= 1e-9 * sv[0]:
            raise ValueError("mixing matrix is not invertible (rank < 2)")
    else:
        offsets, mix = _default_mixing(rng)

    # one scene buffer, filled band by band: (offset + m0 * turb01) + m1 * ph01,
    # then noise drawn per band, which continues the same normal stream
    data = np.empty((7, spec.height, spec.width))
    for b, band in enumerate(data):
        np.multiply(mix[b, 0], turb01, out=band)
        band += offsets[b]
        band += mix[b, 1] * ph01
        if spec.noise_std > 0.0:
            band += rng.normal(0.0, spec.noise_std, size=band.shape)
    scene = BandStack.from_array(data, spec.gsd, MS_BAND_IDS)

    t_lo, t_hi = spec.turbidity_range
    p_lo, p_hi = spec.ph_range
    fields = {
        TURBIDITY: t_lo + (t_hi - t_lo) * turb01,
        PH: p_lo + (p_hi - p_lo) * ph01,
    }
    truth = SceneTruth(
        fields=fields,
        window_grids={name: window_average(BandStack.from_array(f, 1.0),
                                           WINDOW).data[0]
                      for name, f in fields.items()},
        ranges={TURBIDITY: (t_lo, t_hi), PH: (p_lo, p_hi)},
        mixing_offsets=offsets,
        mixing_matrix=mix,
        noise_std=spec.noise_std,
        noise_floor={},
    )

    # Best linear estimator of each field from the 7 noisy window averages:
    # variance = sigma_avg^2 * [(M^T M)^-1]_kk scaled by the field range.
    sigma_avg = spec.noise_std / WINDOW
    gram_inv = np.linalg.inv(mix.T @ mix)
    truth.noise_floor = {
        TURBIDITY: float((t_hi - t_lo) * sigma_avg * math.sqrt(gram_inv[0, 0])),
        PH: float((p_hi - p_lo) * sigma_avg * math.sqrt(gram_inv[1, 1])),
    }
    return scene, truth
