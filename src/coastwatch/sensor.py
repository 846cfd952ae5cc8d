"""Desk-scale simulator for the satellite multispectral product chain.

Takes an L1C-style top-of-atmosphere reflectance scene and emulates the
product pipeline on its seven multispectral bands: reflectance to radiance,
spatial resampling to the 4.75 m product pitch, band-to-band misalignment,
SNR/MTF degradation, back to reflectance, and chipping into 256 px patches.
A synthetic-scene generator replaces external data access: it produces
reflectance scenes whose turbidity/pH fields are known analytic functions,
so downstream accuracy can be gated quantitatively.

:func:`scene_to_radiance` and :func:`resample` return a new raster and never
mutate their input. Each later step is one private helper that updates a
float64 (bands, h, w) buffer in place band by band: ``_misalign``,
``_degrade`` and ``_to_reflectance``. :func:`simulate_l1c` and
:func:`generate_synthetic_scene` own one scene-sized working buffer and run
the steps in it, so the chain never holds a second copy of the scene, and
the chips are read-only views into that buffer. Randomness is owned per
call through an explicit seed.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import convolve1d

from .errors import DimensionError, SchemaError, check_document, is_json_kind
from .raster import (
    MS_BAND_IDS,
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
PARAMETERS = (TURBIDITY, PH)

# Nominal exo-atmospheric solar irradiance at the band centers, W m-2 um-1,
# the irradiances of every radiometric conversion. All are positive, so with
# a zenith in [0, 90) and a distance in [0.98, 1.02] AU the conversion is
# invertible for every valid SolarContext.
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
        check_document(doc, "solar", {"zenith": "a number", "distance_au": "a number"})
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
        check_document(doc, "degrade", {"snr": None, "mtf": "a number",
                                        "misalign_m": "a list of number lists or null"})
        snr = doc.get("snr")
        with _schema("degrade"):
            snr_t = tuple(map(_snr, snr)) if isinstance(snr, list) else (_snr(snr),) * 7
            mis = doc.get("misalign_m") or ((0.0, 0.0),) * 7
            return cls(snr_per_band=snr_t, mtf_at_nyquist=float(doc.get("mtf", 1.0)),
                       misalignment_per_band=tuple(
                           (float(dx), float(dy)) for dx, dy in mis))


def _snr(value) -> float:
    """One SNR entry of a degrade document: a number, or "inf" or null for
    no noise."""
    if value is None or value == "inf":
        return math.inf
    if not is_json_kind(value, "a number"):
        raise SchemaError(f'degrade snr must be a number, "inf" or null, got {value!r}')
    return float(value)


# ---------------------------------------------------------------------------
# Radiometry
# ---------------------------------------------------------------------------


def _radiometric_scale(ctx: SolarContext, band: int) -> float:
    """esun_b * cos(theta_s) / (pi d^2): radiance per unit reflectance."""
    return (DEFAULT_ESUN[band] * ctx.cos_zenith
            / (math.pi * ctx.earth_sun_distance**2))


def reflectance_to_radiance(rho, ctx: SolarContext, band: int):
    """ToA radiance from reflectance: L = rho * esun_b * cos(theta_s) / (pi d^2).

    Works element-wise on scalars or arrays; ``_to_reflectance`` divides by
    the same scale, so the conversion is invertible for any valid context.
    """
    return rho * _radiometric_scale(ctx, band)


def scene_to_radiance(scene: BandStack, ctx: SolarContext) -> BandStack:
    """Float64 radiance from a reflectance raster, band by band."""
    if len(DEFAULT_ESUN) < scene.bands:
        raise DimensionError(f"scene has {scene.bands} bands, DEFAULT_ESUN "
                             f"covers {len(DEFAULT_ESUN)}")
    out = np.empty_like(scene.data, dtype=np.float64)
    for b in range(scene.bands):
        out[b] = reflectance_to_radiance(scene.data[b], ctx, b)
    return BandStack.from_array(out, scene.gsd, scene.band_ids)


def _to_reflectance(data: np.ndarray, ctx: SolarContext) -> None:
    """Radiance to reflectance in place on a float64 (bands, h, w) buffer."""
    for b in range(data.shape[0]):
        data[b] /= _radiometric_scale(ctx, b)


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


def _misalign(data: np.ndarray, gsd: float, cfg: DegradeConfig) -> None:
    """Shift each band of a float64 (bands, h, w) buffer in place by its
    (east_m, south_m) offset via bilinear resampling.

    Integer-pixel offsets reduce to exact shifts with replicate edge fill.
    """
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
    """MTF blur then Gaussian noise at sigma = mean / SNR, in place band by
    band on a float64 (bands, h, w) buffer.

    The blur kernel is a unit-sum separable Gaussian parameterized by the
    configured MTF at Nyquist, applied with replicate edges; identity when
    mtf_at_nyquist is 1. Noise is skipped for infinite SNR. Deterministic
    for a fixed seed.
    """
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
    SNR/MTF degradation -> reflectance -> chips. The radiance raster is this
    call's one float64 working buffer: ``_misalign``, ``_degrade`` and
    ``_to_reflectance`` run in it in place, and the chips are read-only
    views into it. ``scene`` is not modified.
    """
    if scene.bands != 7:
        raise DimensionError(f"scene must have 7 multispectral bands, got {scene.bands}")
    radiance = scene_to_radiance(scene, ctx)
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
# checked where they are read.
_SPEC_KINDS = {
    "width": "an integer", "height": "an integer", "gsd": "a number",
    "turbidity_range": "a list of numbers", "ph_range": "a list of numbers",
    "noise_std": "a number", "blobs": "an integer", "ramp": "a boolean",
    "center_lat": "a number", "center_lon": "a number", "date": "a string",
    "mixing": None, "solar": None, "degrade": None,
}


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

    def __post_init__(self):
        # the contaminant bounds are those InSituRecord accepts
        (t_lo, t_hi), (p_lo, p_hi) = self.turbidity_range, self.ph_range
        for ok, rule in [
            (self.width >= 1 and self.height >= 1, "width and height must be >= 1"),
            (self.gsd > 0, "gsd must be > 0"),
            (-90 <= self.center_lat <= 90, "center_lat must be in [-90, 90]"),
            (-180 <= self.center_lon <= 180, "center_lon must be in [-180, 180]"),
            (self.noise_std >= 0 and self.blobs >= 0, "noise_std, blobs must be >= 0"),
            (0 <= t_lo < t_hi, "turbidity_range must have 0 <= lo < hi"),
            (0 <= p_lo < p_hi <= 14, "ph_range must have 0 <= lo < hi <= 14"),
        ]:
            if not ok:
                raise SchemaError(f"scene spec: {rule}")

    def georef(self) -> GeoRef:
        return GeoRef(self.center_lat, self.center_lon, self.date)

    @classmethod
    def from_json(cls, doc: dict) -> "SceneSpec":
        """The spec from a ``simulate`` document: the keys of ``_SPEC_KINDS``,
        where ``mixing`` holds ``offsets`` and ``matrix`` and ``solar`` and
        ``degrade`` are the documents :meth:`SolarContext.from_json` and
        :meth:`DegradeConfig.from_json` read. Any other key, and a value of
        the wrong JSON kind, is a ``SchemaError``."""
        check_document(doc, "scene spec", _SPEC_KINDS)
        kwargs = {key: doc[key] for key in ("width", "height", "blobs", "ramp")
                  if key in doc}
        with _schema("scene spec"):
            for key in ("gsd", "noise_std", "center_lat", "center_lon"):
                if key in doc:
                    kwargs[key] = float(doc[key])
            for key in ("turbidity_range", "ph_range"):
                if key in doc:
                    lo, hi = doc[key]
                    kwargs[key] = (float(lo), float(hi))
            if "date" in doc:
                kwargs["date"] = dt.date.fromisoformat(doc["date"])
            mixing = doc.get("mixing")
            if mixing:
                check_document(mixing, "scene spec mixing", {
                    "offsets": "a list of numbers", "matrix": "a list of number lists"})
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
