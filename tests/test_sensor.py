import contextlib
import datetime as dt
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from scipy.ndimage import convolve1d

from coastwatch import alerting, sensor
from coastwatch.convnet import ConvLayer, ConvNet
from coastwatch.errors import DimensionError, SchemaError
from coastwatch.raster import BandStack, GeoRef, tile_scene, window_average
from coastwatch.sensor import (
    PH,
    TURBIDITY,
    DegradeConfig,
    SceneSpec,
    SolarContext,
    gaussian_kernel,
    generate_synthetic_scene,
    mtf_blur_sigma_px,
    resample,
    simulate_l1c,
)

RNG = np.random.default_rng(99)


def stack(data, gsd=4.75, band_ids=None):
    return BandStack.from_array(np.asarray(data, dtype=np.float64), gsd, band_ids)


def in_copy(step, scene, *args):
    """The data ``step`` leaves when run in place on a float64 copy of
    ``scene``'s data, as ``simulate_l1c`` runs it on its working buffer."""
    data = scene.data.astype(np.float64)
    step(data, *args)
    return data


class TestRadiometry:
    def test_zero_reflectance_zero_radiance(self):
        ctx = SolarContext()
        assert (in_copy(sensor._to_radiance, stack(np.zeros((7, 1, 1))), ctx) == 0.0).all()

    def test_analytic_inversion_to_one(self):
        # rho = pi / esun_b with zenith 0 and d = 1 gives L = 1
        ctx = SolarContext(solar_zenith=0.0, earth_sun_distance=1.0)
        rho = math.pi / sensor.DEFAULT_ESUN[2]
        radiance = in_copy(sensor._to_radiance, stack(np.full((7, 1, 1), rho)), ctx)
        assert radiance[2, 0, 0] == pytest.approx(1.0)

    def test_roundtrip_random_grid(self):
        ctx = SolarContext(solar_zenith=37.0, earth_sun_distance=1.013)
        rho = RNG.uniform(0, 1.2, (7, 40, 40))
        scene = stack(rho)
        back = in_copy(sensor._to_reflectance,
                       stack(in_copy(sensor._to_radiance, scene, ctx)), ctx)
        rel = np.abs(back - rho) / np.maximum(np.abs(rho), 1e-12)
        assert rel.max() < 1e-6

    def test_singular_context_rejected_at_construction(self):
        with pytest.raises(ValueError):
            SolarContext(solar_zenith=90.0)


class TestResample:
    def test_constant_stays_constant(self):
        scene = stack(np.full((2, 20, 20), 3.3), gsd=10.0, band_ids=("a", "b"))
        out = resample(scene, 4.75)
        assert np.allclose(out.data, 3.3)
        assert out.gsd == pytest.approx(4.75)

    def test_same_gsd_identity(self):
        scene = stack(RNG.uniform(0, 1, (1, 15, 15)), gsd=10.0, band_ids=("a",))
        out = resample(scene, 10.0)
        assert np.array_equal(out.data, scene.data)

    def test_bilinear_ramp_oracle(self):
        # node-aligned 2x upsampling of a 2x2 ramp: corners preserved,
        # midpoints are arithmetic means
        ramp = stack([[[0.0, 1.0], [2.0, 3.0]]], gsd=10.0, band_ids=("a",))
        out = resample(ramp, 5.0)
        assert out.data.shape == (1, 3, 3)
        expected = np.array([[0, 0.5, 1], [1, 1.5, 2], [2, 2.5, 3]])
        assert np.allclose(out.data[0], expected)

    def test_degenerate_extent(self):
        tiny = stack(np.ones((1, 1, 5)), gsd=10.0, band_ids=("a",))
        with pytest.raises(DimensionError):
            resample(tiny, 5.0)


class TestMisalignment:
    def test_zero_offsets_identity(self):
        scene = stack(RNG.uniform(0, 1, (7, 32, 32)))
        out = in_copy(sensor._misalign, scene, scene.gsd, DegradeConfig())
        assert np.array_equal(out, scene.data)

    def test_integer_pixel_shift_exact(self):
        scene = stack(RNG.uniform(0, 1, (7, 24, 24)))
        # one pixel east on band 0 only
        cfg = DegradeConfig(
            misalignment_per_band=((4.75, 0.0),) + ((0.0, 0.0),) * 6
        )
        out = in_copy(sensor._misalign, scene, scene.gsd, cfg)
        assert np.allclose(out[0][:, 1:], scene.data[0][:, :-1])
        assert np.allclose(out[0][:, 0], scene.data[0][:, 0])  # edge fill
        assert np.array_equal(out[1], scene.data[1])

    def test_magnitude_bound_enforced(self):
        with pytest.raises(ValueError):
            DegradeConfig(misalignment_per_band=((8.0, 8.0),) + ((0, 0),) * 6)

    def test_registration_oracle_under_10m(self):
        # smooth random scene, offsets with RMS about 8 m; cross-correlation
        # registration against the unshifted scene must see less than 10 m
        rng = np.random.default_rng(7)
        from scipy.ndimage import gaussian_filter

        base = gaussian_filter(rng.normal(0, 1, (128, 128)), 3.0)
        scene = stack(np.stack([base] * 7))
        offsets = []
        for _ in range(7):
            angle = rng.uniform(0, 2 * math.pi)
            r = rng.uniform(6.5, 9.0)   # metres, RMS about 8
            offsets.append((r * math.cos(angle), r * math.sin(angle)))
        cfg = DegradeConfig(misalignment_per_band=tuple(offsets))
        shifted = in_copy(sensor._misalign, scene, scene.gsd, cfg)

        def register(ref, moved, search=4, margin=8):
            """interior SSD search with quadratic sub-pixel refinement;
            returns the content shift (south_px, east_px)"""
            h, w = ref.shape
            inner = moved[margin : h - margin, margin : w - margin]
            ssd = np.empty((2 * search + 1, 2 * search + 1))
            for i, dy in enumerate(range(-search, search + 1)):
                for j, dx in enumerate(range(-search, search + 1)):
                    block = ref[margin + dy : h - margin + dy,
                                margin + dx : w - margin + dx]
                    ssd[i, j] = np.sum((block - inner) ** 2)
            iy, ix = np.unravel_index(np.argmin(ssd), ssd.shape)

            def refine(i, axis):
                if i == 0 or i == ssd.shape[axis] - 1:
                    return 0.0
                if axis == 0:
                    cm, c0, cp = ssd[i - 1, ix], ssd[i, ix], ssd[i + 1, ix]
                else:
                    cm, c0, cp = ssd[iy, i - 1], ssd[iy, i], ssd[iy, i + 1]
                denom = cm - 2 * c0 + cp
                return 0.0 if denom == 0 else 0.5 * (cm - cp) / denom

            # the best ref offset is the negative of the content shift
            south = -((iy - search) + refine(iy, 0))
            east = -((ix - search) + refine(ix, 1))
            return south, east

        errors = []
        for b in range(7):
            south_px, east_px = register(scene.data[b], shifted[b])
            east_m, south_m = offsets[b]
            meas_east = east_px * scene.gsd
            meas_south = south_px * scene.gsd
            errors.append(math.hypot(meas_east - east_m, meas_south - south_m))
            assert math.hypot(meas_east, meas_south) < 10.0
        assert np.sqrt(np.mean(np.square(errors))) < 1.0  # oracle agreement


class TestDegrade:
    def test_identity_sentinels(self):
        scene = stack(RNG.uniform(0, 1, (7, 32, 32)))
        out = in_copy(sensor._degrade, scene, DegradeConfig(), 5)
        assert np.array_equal(out, scene.data)

    def test_noise_sigma_matches_snr(self):
        scene = stack(np.full((1, 128, 128), 5.0), band_ids=("a",))
        # a config holds one SNR per product band; the one band reads the first
        cfg = DegradeConfig(snr_per_band=(100.0,) + (math.inf,) * 6)
        out = in_copy(sensor._degrade, scene, cfg, 3)
        sigma = float((out[0] - 5.0).std())
        assert abs(sigma - 0.05) / 0.05 < 0.15  # >= 1e4 pixels

    def test_blur_kernel_unit_sum(self):
        for mtf in (0.9, 0.5, 0.2, 0.05):
            k = gaussian_kernel(mtf_blur_sigma_px(mtf))
            assert abs(k.sum() - 1.0) < 1e-9

    def test_blur_preserves_constant_mean(self):
        scene = stack(np.full((1, 64, 64), 2.5), band_ids=("a",))
        cfg = DegradeConfig(mtf_at_nyquist=0.3)
        out = in_copy(sensor._degrade, scene, cfg, 0)
        assert np.allclose(out, 2.5, rtol=1e-6)

    def test_mtf_sigma_inversion(self):
        # the kernel's transfer function at Nyquist equals the configured mtf
        for mtf in (0.7, 0.4, 0.15):
            sigma = mtf_blur_sigma_px(mtf)
            assert math.exp(-2 * math.pi**2 * sigma**2 * 0.25) == pytest.approx(mtf)

    def test_seed_bit_reproducible(self):
        scene = stack(RNG.uniform(0, 1, (7, 32, 32)))
        cfg = DegradeConfig(snr_per_band=(50.0,) * 7, mtf_at_nyquist=0.4)
        a = in_copy(sensor._degrade, scene, cfg, 11)
        b = in_copy(sensor._degrade, scene, cfg, 11)
        assert np.array_equal(a, b)
        c = in_copy(sensor._degrade, scene, cfg, 12)
        assert not np.array_equal(a, c)


class TestSimulateL1c:
    def test_neutral_chain_is_identity(self):
        spec = SceneSpec(width=256, height=256)
        scene, _ = generate_synthetic_scene(spec, 1)
        product = simulate_l1c(scene, SolarContext(), DegradeConfig(), seed=0,
                               scene_georef=spec.georef())
        assert len(product.patches) == 1
        dev = np.abs(product.patches[0].raster.data - scene.data).max()
        assert dev < 1e-5

    def test_512_scene_four_chips(self):
        spec = SceneSpec(width=512, height=512)
        scene, _ = generate_synthetic_scene(spec, 2)
        product = simulate_l1c(scene, SolarContext(), DegradeConfig(), seed=0)
        assert len(product.patches) == 4
        for p in product.patches:
            assert (p.raster.width, p.raster.height, p.raster.bands) == (256, 256, 7)
            assert p.raster.gsd == pytest.approx(4.75)


class TestSimulateL1cWorkingBuffer:
    """simulate_l1c runs the steps in one buffer; same bits, no copies."""

    CFG = DegradeConfig(
        snr_per_band=(150.0, 120.0, math.inf, 90.0, 200.0, 150.0, 60.0),
        mtf_at_nyquist=0.6,
        misalignment_per_band=((0, 0), (2, -1), (-1.5, 2.25), (3, 0),
                               (0, -2.5), (1.3, 0.7), (-2, -2)),
    )
    CTX = SolarContext(solar_zenith=35.0, earth_sun_distance=1.01)

    def product(self):
        spec = SceneSpec(width=512, height=512, noise_std=0.002)
        scene, _ = generate_synthetic_scene(spec, 17)
        before = scene.data.copy()
        product = simulate_l1c(scene, self.CTX, self.CFG, seed=23,
                               scene_georef=spec.georef())
        return spec, scene, before, product

    def test_chips_equal_the_chain_of_public_steps(self):
        spec, scene, _, product = self.product()
        data = in_copy(sensor._to_radiance, scene, self.CTX)
        sensor._misalign(data, scene.gsd, self.CFG)
        sensor._degrade(data, self.CFG, 23)
        sensor._to_reflectance(data, self.CTX)
        reference = tile_scene(BandStack.from_array(data, scene.gsd),
                               spec.georef(), patch_id_prefix="chip")
        assert product.index == reference.index
        assert len(product.patches) == len(reference.patches) == 4
        for got, want in zip(product.patches, reference.patches):
            assert got.patch_id == want.patch_id
            assert got.georef == want.georef
            assert got.flagged_values == want.flagged_values
            assert np.array_equal(got.raster.data, want.raster.data)

    def test_chips_are_read_only_views_of_one_buffer(self):
        _, scene, _, product = self.product()

        def owner(a):
            while a.base is not None:
                a = a.base
            return a

        chips = [p.raster.data for p in product.patches]
        assert len({id(owner(a)) for a in chips}) == 1
        assert owner(chips[0]).nbytes == 7 * 512 * 512 * 8
        for chip in chips:
            assert not np.shares_memory(chip, scene.data)
            assert not chip.flags.writeable

    def test_input_scene_unchanged(self):
        _, scene, before, _ = self.product()
        assert scene.data.flags.writeable
        assert np.array_equal(scene.data, before)

    def test_public_steps_leave_their_input_unchanged(self):
        scene = stack(RNG.uniform(0.05, 0.5, (7, 64, 64)))
        before = scene.data.copy()
        resample(scene, 3.0)
        assert np.array_equal(scene.data, before)

    @pytest.mark.parametrize("dtype", [np.float32, np.float16, np.int16, np.uint8])
    def test_a_narrow_scene_has_the_product_of_its_float64_cast(self, dtype):
        # the radiance widens each band before it scales it, so the chips
        # are those of the scene cast to float64, bit for bit
        rng = np.random.default_rng(5)
        if np.issubdtype(dtype, np.integer):
            data = rng.integers(0, 100, (7, 256, 256)).astype(dtype)
        else:
            data = rng.uniform(0.0, 1.0, (7, 256, 256)).astype(dtype)
        scene = BandStack.from_array(data, 4.75)
        before = data.copy()
        got = simulate_l1c(scene, self.CTX, self.CFG, seed=23)
        want = simulate_l1c(BandStack.from_array(data.astype(np.float64), 4.75),
                            self.CTX, self.CFG, seed=23)
        (got_chip,), (want_chip,) = got.patches, want.patches
        assert np.array_equal(got_chip.raster.data, want_chip.raster.data)
        assert scene.data.dtype == dtype
        assert np.array_equal(scene.data, before)


@pytest.mark.parametrize("parse, doc", [
    (SolarContext.from_json, {"zenith": True}),
    (SolarContext.from_json, {"distance_au": "1"}),
    (DegradeConfig.from_json, {"snr": True}),
    (DegradeConfig.from_json, {"snr": "100"}),
    (DegradeConfig.from_json, {"snr": [True] + [100] * 6}),
    (DegradeConfig.from_json, {"mtf": True}),
    (DegradeConfig.from_json, {"misalign_m": [[True, 0]] * 7}),
    (SceneSpec.from_json, {"mixing": {"offsets": [0.1] * 7,
                                      "matrix": [[0.1, False]] * 7}}),
])
def test_boolean_or_string_as_a_number_is_a_schema_error(parse, doc):
    with pytest.raises(SchemaError):
        parse(doc)


def test_degrade_snr_takes_inf_null_and_integers():
    assert DegradeConfig.from_json({"snr": "inf"}).snr_per_band == (math.inf,) * 7
    assert DegradeConfig.from_json({"snr": 100}).snr_per_band == (100.0,) * 7
    cfg = DegradeConfig.from_json({"snr": [None, "inf", 100, 50.5, 7, 8, 9],
                                   "mtf": 1})
    assert cfg.snr_per_band == (math.inf, math.inf, 100.0, 50.5, 7.0, 8.0, 9.0)
    assert cfg.mtf_at_nyquist == 1.0


MIXING = ((0.1, 0.2),) + ((0.2, 0.1),) * 6


@pytest.mark.parametrize("build, says", [
    (lambda: DegradeConfig(snr_per_band=(100.0,) * 3),
     "snr must hold 7 entries, one per band, got 3"),
    (lambda: DegradeConfig(misalignment_per_band=((0.0, 0.0),) * 8),
     "misalignment must hold 7 entries, one per band, got 8"),
    (lambda: DegradeConfig(misalignment_per_band=((0.0, 0.0, 1.0),) * 7),
     "each misalignment must be an"),
    (lambda: SceneSpec(turbidity_range=(1.0, 2.0, 3.0)), "must be \\[lo, hi\\] pairs"),
    (lambda: SceneSpec(ph_range=(7.0,)), "must be \\[lo, hi\\] pairs"),
    (lambda: SceneSpec(mixing_offsets=(0.1,) * 7), "7x2 matrix, or neither"),
    (lambda: SceneSpec(mixing_matrix=MIXING), "7x2 matrix, or neither"),
    (lambda: SceneSpec(mixing_offsets=(0.1,) * 6, mixing_matrix=MIXING),
     "mixing must be 7 offsets and a 7x2 matrix"),
    (lambda: SceneSpec(mixing_offsets=(0.1,) * 7, mixing_matrix=((0.1, 0.2, 0.3),) * 7),
     "mixing must be 7 offsets and a 7x2 matrix"),
    (lambda: SceneSpec(mixing_offsets=(0.1,) * 7, mixing_matrix=((0.0, 0.0),) * 7),
     "mixing matrix must have rank 2"),
    (lambda: SceneSpec.from_json({"mixing": {"matrix": [list(r) for r in MIXING]}}),
     "scene spec mixing lacks keys: offsets"),
    (lambda: SceneSpec.from_json({"mixing": {}}),
     "scene spec mixing lacks keys: offsets, matrix"),
    (lambda: SceneSpec.from_json({"date": "June"}), "scene spec date must be a date"),
], ids=["three_snrs", "eight_shifts", "three_coordinate_shift", "turbidity_triple",
        "ph_single", "offsets_only", "matrix_only", "six_offsets", "seven_by_three_matrix",
        "zero_matrix", "document_without_offsets", "empty_mixing_document",
        "document_date_not_iso"])
def test_each_rule_is_checked_where_its_value_is_built(build, says):
    with pytest.raises(SchemaError, match=says):
        build()


def test_a_spec_document_reads_as_the_spec_of_its_values():
    doc = {"width": 256, "gsd": 5, "turbidity_range": [1, 20], "date": "2024-07-01",
           "mixing": {"offsets": [0.1] * 7, "matrix": [list(r) for r in MIXING]},
           "solar": {"zenith": 10}, "degrade": {"mtf": 1}}
    spec = SceneSpec.from_json(doc)
    assert spec == SceneSpec(width=256, gsd=5.0, turbidity_range=(1.0, 20.0),
                             date=dt.date(2024, 7, 1), mixing_offsets=(0.1,) * 7,
                             mixing_matrix=MIXING)
    assert type(spec.gsd) is float and type(spec.turbidity_range[0]) is float
    # the solar and degrade parts are left to their readers, and the
    # document to them as it was
    assert doc["solar"] == {"zenith": 10} and "mixing" in doc
    assert SolarContext.from_json(doc["solar"]) == SolarContext(solar_zenith=10.0)
    assert DegradeConfig.from_json(doc["degrade"]) == DegradeConfig()


def _tiny_net() -> ConvNet:
    rng = np.random.default_rng(0)
    return ConvNet(
        [ConvLayer(rng.normal(0, 1, (8, 7)), rng.normal(0, 1, 8)),
         ConvLayer(rng.normal(0, 1, (1, 8)), rng.normal(0, 1, 1))],
        parameter=TURBIDITY,
    )


def test_run_scene_heap_peak_below_one_float32_patch():
    # tiling by view and window means reduced where they lie: a scene
    # inference holds neither a scene-sized copy nor a patch-sized one
    data = RNG.uniform(0, 0.4, (7, 1024, 1024)).astype(np.float32)
    scene = BandStack.from_array(data, 4.75)
    net = _tiny_net()
    policy = alerting.ThresholdPolicy.default_for(TURBIDITY)
    georef = GeoRef(44.0, 9.0, dt.date(2024, 6, 15))
    tracemalloc.start()
    try:
        result = alerting.run_scene(scene, net, policy, scene_georef=georef,
                                    timestamp="2024-06-15T00:00:00+00:00")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.maps) == 16
    assert peak < 7 * 256 * 256 * 4  # 1.75 MiB, one float32 patch


def _former_scene(spec: SceneSpec, seed: int) -> np.ndarray:
    """generate_synthetic_scene's reflectances as once written: mgrid fields
    and whole-scene broadcasting, noise drawn in one call."""
    rng = np.random.default_rng(seed)

    def smooth_field():
        h, w = spec.height, spec.width
        yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
        yy /= max(h - 1, 1)
        xx /= max(w - 1, 1)
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
        return (f - lo) / (hi - lo)

    turb01 = smooth_field()
    ph01 = smooth_field()
    offsets, mix = sensor._default_mixing(rng)
    data = (
        offsets[:, None, None]
        + mix[:, 0, None, None] * turb01[None]
        + mix[:, 1, None, None] * ph01[None]
    )
    if spec.noise_std > 0.0:
        data = data + rng.normal(0.0, spec.noise_std, size=data.shape)
    return data


class TestSyntheticScene:
    @pytest.mark.parametrize("width,height,noise", [
        (256, 256, 0.01), (300, 170, 0.002), (128, 128, 0.0)])
    def test_equals_the_former_broadcast_formula(self, width, height, noise):
        spec = SceneSpec(width=width, height=height, noise_std=noise)
        scene, _ = generate_synthetic_scene(spec, 31)
        assert np.array_equal(scene.data, _former_scene(spec, 31))


    def test_seed_determinism(self):
        spec = SceneSpec(width=256, height=256, noise_std=0.01)
        a, ta = generate_synthetic_scene(spec, 42)
        b, tb = generate_synthetic_scene(spec, 42)
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(ta.window_grids[TURBIDITY], tb.window_grids[TURBIDITY])
        c, _ = generate_synthetic_scene(spec, 43)
        assert not np.array_equal(a.data, c.data)

    def test_constant_field_gives_constant_reflectance(self):
        spec = SceneSpec(width=128, height=128, blobs=0, ramp=False)
        scene, truth = generate_synthetic_scene(spec, 5)
        assert np.allclose(truth.fields[TURBIDITY], truth.fields[TURBIDITY].flat[0])
        for b in range(7):
            assert np.ptp(scene.data[b]) < 1e-12

    def test_zero_noise_features_affine_in_truth(self):
        # window features must be an exact affine function of the window
        # ground truth, the property the regressor relies on
        spec = SceneSpec(width=256, height=256, noise_std=0.0)
        scene, truth = generate_synthetic_scene(spec, 8)
        feats = window_average(scene.data, 10).reshape(7, -1).T
        design = np.c_[
            truth.window_grids[TURBIDITY].reshape(-1),
            truth.window_grids[PH].reshape(-1),
            np.ones(feats.shape[0]),
        ]
        coef, *_ = np.linalg.lstsq(design, feats, rcond=None)
        assert np.abs(design @ coef - feats).max() < 1e-10

    def test_truth_grids_are_window_means(self):
        spec = SceneSpec(width=128, height=128)
        scene, truth = generate_synthetic_scene(spec, 13)
        field = truth.fields[PH]
        grid = truth.window_grids[PH]
        assert grid.shape == (12, 12)
        block = field[:10, :10].mean()
        assert grid[0, 0] == pytest.approx(block)

    def test_noise_floor_metadata(self):
        spec = SceneSpec(width=128, height=128, noise_std=0.02)
        _, truth = generate_synthetic_scene(spec, 21)
        assert truth.noise_floor[TURBIDITY] > 0
        assert truth.noise_floor[PH] > 0
        clean_spec = SceneSpec(width=128, height=128, noise_std=0.0)
        _, clean = generate_synthetic_scene(clean_spec, 21)
        assert clean.noise_floor[TURBIDITY] == 0.0

    def test_explicit_mixing_accepted(self):
        mix = tuple((0.05 * (b + 1), 0.03 * ((b % 3) - 1)) for b in range(7))
        spec = SceneSpec(width=128, height=128, mixing_offsets=(0.2,) * 7,
                         mixing_matrix=mix)
        scene, truth = generate_synthetic_scene(spec, 2)
        assert np.allclose(truth.mixing_matrix, np.asarray(mix))

    def test_rank_deficient_mixing_rejected(self):
        mix = tuple((0.05 * (b + 1), -0.03 * (b + 1)) for b in range(7))
        with pytest.raises(SchemaError, match="mixing matrix must have rank 2"):
            SceneSpec(width=128, height=128, mixing_offsets=(0.2,) * 7,
                      mixing_matrix=mix)


# ---------------------------------------------------------------------------
# The streamed steps against their whole-plane forms
# ---------------------------------------------------------------------------


def _full_plane_scene(spec: SceneSpec, seed: int):
    """generate_synthetic_scene's reflectances and truth fields as computed
    on whole planes: each blob's exp over the full field, the band mixing
    by whole-plane temporaries, each band's noise drawn in one call."""
    rng = np.random.default_rng(seed)

    def smooth_field():
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
        return (f - lo) / (hi - lo)

    turb01 = smooth_field()
    ph01 = smooth_field()
    if spec.mixing_matrix is not None:
        mix = np.asarray(spec.mixing_matrix, dtype=np.float64)
        offsets = np.asarray(spec.mixing_offsets, dtype=np.float64)
    else:
        offsets, mix = sensor._default_mixing(rng)
    data = np.empty((7, spec.height, spec.width))
    for b in range(7):
        data[b] = mix[b, 0] * turb01 + offsets[b] + mix[b, 1] * ph01
        if spec.noise_std > 0.0:
            data[b] += rng.normal(0.0, spec.noise_std, size=data[b].shape)
    (t_lo, t_hi), (p_lo, p_hi) = spec.turbidity_range, spec.ph_range
    return data, {TURBIDITY: t_lo + (t_hi - t_lo) * turb01,
                  PH: p_lo + (p_hi - p_lo) * ph01}


def _full_plane_interp_axis(data, coords, axis):
    """Linear interpolation of a whole plane along ``axis``, replicate edges."""
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
    return a * (1.0 - f) + b * f


def _full_plane_misalign(data, gsd, cfg):
    """_misalign as whole-plane passes: rows, then columns, per band."""
    bands, height, width = data.shape
    for b in range(bands):
        dx, dy = (m / gsd for m in cfg.misalignment_per_band[b])
        if dx == 0.0 and dy == 0.0:
            continue
        shifted = _full_plane_interp_axis(data[b], np.arange(height) - dy, 0)
        data[b] = _full_plane_interp_axis(shifted, np.arange(width) - dx, 1)


def _full_plane_degrade(data, cfg, seed):
    """_degrade as whole-plane passes: blur along each axis over the band,
    then the band's noise in one draw."""
    rng = np.random.default_rng(seed)
    sigma_px = mtf_blur_sigma_px(cfg.mtf_at_nyquist)
    for b in range(data.shape[0]):
        if sigma_px > 0.0:
            kernel = gaussian_kernel(sigma_px)
            plane = convolve1d(data[b], kernel, axis=0, mode="nearest")
            data[b] = convolve1d(plane, kernel, axis=1, mode="nearest")
        snr = cfg.snr_per_band[b]
        if math.isinf(snr):
            continue
        sigma = abs(float(data[b].mean())) / snr
        if sigma > 0.0:
            data[b] += rng.normal(0.0, sigma, size=data[b].shape)


# the row-block sizes each property runs under: the default, one row, a size
# that divides few heights, and one block covering the whole height or more
BLOCKS = ["default", 1, 7, "height", "height+1"]


@contextlib.contextmanager
def row_block(block, height: int):
    """``sensor._ROW_BLOCK`` set to ``block`` (resolved against ``height``)
    inside the block."""
    default = sensor._ROW_BLOCK
    sensor._ROW_BLOCK = {"default": default, "height": height,
                         "height+1": height + 1}.get(block, block)
    try:
        yield
    finally:
        sensor._ROW_BLOCK = default


# hypothesis's explain phase traces every line a failing example runs; on
# these arrays it grew past 3 GB within a minute, so a failure is reported
# shrunk but unexplained
PHASES = [Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink]

# integer pixel shifts (east, south) within the 10 m bound at 4.75 m/px
PIXEL_SHIFTS = [(0, 0), (1, 0), (0, -1), (-1, 1), (2, 0), (0, 2), (-1, -1)]


@st.composite
def degrade_configs(draw, bands: int, gsd: float):
    """Per band an integer or fractional shift, an SNR or none, and an MTF
    of 1 (no blur) or below. A config holds an entry per product band: the
    bands past ``bands`` get no shift and no noise, and no step reads them."""
    shifts = []
    for _ in range(bands):
        if draw(st.booleans()):
            dx, dy = draw(st.sampled_from(PIXEL_SHIFTS))
            shifts.append((dx * gsd, dy * gsd))
        else:
            shifts.append(draw(st.tuples(st.floats(-7.0, 7.0), st.floats(-7.0, 7.0))))
    snr = [draw(st.just(math.inf) | st.floats(5.0, 500.0)) for _ in range(bands)]
    mtf = draw(st.just(1.0) | st.floats(0.02, 0.99))
    pad = 7 - bands
    return DegradeConfig(snr_per_band=tuple(snr) + (math.inf,) * pad,
                         mtf_at_nyquist=mtf,
                         misalignment_per_band=tuple(shifts) + ((0.0, 0.0),) * pad)


@pytest.mark.parametrize("block", BLOCKS)
@settings(max_examples=15, deadline=None, derandomize=True, phases=PHASES)
@given(data=st.data())
def test_streamed_scene_equals_the_whole_plane_scene(block, data):
    spec = SceneSpec(
        width=data.draw(st.integers(10, 75), label="width"),
        height=data.draw(st.integers(10, 75), label="height"),
        noise_std=data.draw(st.just(0.0) | st.floats(1e-4, 0.05)),
        blobs=data.draw(st.integers(0, 5)), ramp=data.draw(st.booleans()))
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    with row_block(block, spec.height):
        scene, truth = generate_synthetic_scene(spec, seed)
    want, fields = _full_plane_scene(spec, seed)
    assert np.array_equal(scene.data, want)
    for name, field in fields.items():
        assert np.array_equal(truth.fields[name], field)
        assert np.array_equal(truth.window_grids[name],
                              window_average(field, 10))


@pytest.mark.parametrize("block", BLOCKS)
@settings(max_examples=15, deadline=None, derandomize=True, phases=PHASES)
@given(data=st.data())
def test_streamed_steps_equal_the_whole_plane_steps(block, data):
    bands = data.draw(st.integers(1, 7), label="bands")
    height = data.draw(st.integers(1, 60), label="height")
    width = data.draw(st.integers(1, 60), label="width")
    cfg = data.draw(degrade_configs(bands, 4.75), label="cfg")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    radiance = np.random.default_rng(seed).uniform(0.0, 300.0, (bands, height, width))
    want = radiance.copy()
    _full_plane_misalign(want, 4.75, cfg)
    _full_plane_degrade(want, cfg, seed)
    got = radiance.copy()
    with row_block(block, height):
        sensor._misalign(got, 4.75, cfg)
        sensor._degrade(got, cfg, seed)
    assert np.array_equal(got, want)


def _full_plane_resample(data, gsd, target_gsd):
    """resample as two whole-plane passes on the float64 scene: rows, then
    columns, at the output grid's nodes."""
    ratio = target_gsd / gsd
    height, width = data.shape[1:]
    rows = np.arange(int(math.floor((height - 1) / ratio)) + 1) * ratio
    cols = np.arange(int(math.floor((width - 1) / ratio)) + 1) * ratio
    along_rows = _full_plane_interp_axis(data.astype(np.float64), rows, 1)
    return _full_plane_interp_axis(along_rows, cols, 2)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("block", BLOCKS)
@settings(max_examples=15, deadline=None, derandomize=True, phases=PHASES)
@given(data=st.data())
def test_streamed_resample_equals_the_whole_plane_passes(block, dtype, data):
    bands = data.draw(st.integers(1, 3), label="bands")
    # 2 px is the smallest extent resample takes
    height = data.draw(st.just(2) | st.integers(2, 60), label="height")
    width = data.draw(st.just(2) | st.integers(2, 60), label="width")
    gsd = data.draw(st.sampled_from([4.0, 4.75, 10.0]), label="gsd")
    # up- or down-sampling, by up to 4x
    ratio = data.draw(st.floats(0.25, 0.95) | st.floats(1.05, 4.0), label="ratio")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    source = np.random.default_rng(seed).uniform(0.0, 300.0, (bands, height, width))
    scene = BandStack.from_array(source.astype(dtype), gsd)
    want = _full_plane_resample(scene.data, gsd, gsd * ratio)
    with row_block(block, want.shape[1]):
        got = resample(scene, gsd * ratio)
    assert got.data.dtype == np.float64
    assert np.array_equal(got.data, want)


@pytest.mark.parametrize("block", BLOCKS)
@settings(max_examples=3, deadline=None, derandomize=True, phases=PHASES)
@given(data=st.data())
def test_streamed_chain_equals_the_whole_plane_chain(block, data):
    spec = SceneSpec(width=data.draw(st.integers(256, 300), label="width"),
                     height=data.draw(st.integers(256, 300), label="height"),
                     noise_std=0.002)
    scene, _ = generate_synthetic_scene(spec, 5)
    cfg = data.draw(degrade_configs(7, scene.gsd), label="cfg")
    ctx = SolarContext(solar_zenith=data.draw(st.floats(0.0, 80.0), label="zenith"))
    with row_block(block, spec.height):
        product = simulate_l1c(scene, ctx, cfg, seed=9, scene_georef=spec.georef())
    want = in_copy(sensor._to_radiance, scene, ctx)
    _full_plane_misalign(want, scene.gsd, cfg)
    _full_plane_degrade(want, cfg, 9)
    sensor._to_reflectance(want, ctx)
    (chip,) = product.patches
    assert np.array_equal(chip.raster.data, want[:, :256, :256])


def test_simulate_l1c_heap_peak_is_the_buffer_and_row_blocks():
    # 600 x 520 px: neither side a multiple of the row block
    spec = SceneSpec(width=520, height=600, noise_std=0.002)
    scene, _ = generate_synthetic_scene(spec, 3)
    cfg, ctx = TestSimulateL1cWorkingBuffer.CFG, TestSimulateL1cWorkingBuffer.CTX
    tracemalloc.start()
    try:
        product = simulate_l1c(scene, ctx, cfg, seed=4, scene_georef=spec.georef())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(product.patches) == 4
    plane = 600 * 520 * 8
    # beside the buffer a step holds two row blocks and a slab or two of one
    # block plus its halo (4.5 blocks measured), so 6 blocks, under a third
    # of a plane
    margin = 6 * sensor._ROW_BLOCK * 520 * 8
    assert peak <= 7 * plane + margin


def test_generate_synthetic_scene_heap_peak_is_the_scene_two_planes_and_row_blocks():
    # 300 x 520 px, the CLI simulate test's scene: the truth fields are the
    # two normalized planes scaled in place
    spec = SceneSpec(width=300, height=520, noise_std=0.002)
    tracemalloc.start()
    try:
        scene, truth = generate_synthetic_scene(spec, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert truth.fields[TURBIDITY].shape == scene.data.shape[1:]
    plane = 520 * 300 * 8
    # beside the scene and the two planes, the field and mixing row blocks,
    # the coordinate vectors and the noise worker (about 5.5 row blocks
    # measured) fit in 8 row blocks
    margin = 8 * sensor._ROW_BLOCK * 300 * 8
    assert peak <= 7 * plane + 2 * plane + margin


@pytest.mark.parametrize("block", BLOCKS)
@settings(max_examples=30, deadline=None, derandomize=True, phases=PHASES)
@given(data=st.data())
def test_each_slab_holds_the_original_rows_though_the_blocks_are_overwritten(
        block, data):
    height = data.draw(st.integers(1, 50), label="height")
    above = data.draw(st.integers(0, 9), label="above")
    below = data.draw(st.integers(0, 9), label="below")
    original = np.random.default_rng(height).uniform(size=(height, 3))
    band = original.copy()
    seen = []
    with row_block(block, height):
        for rows, source, top in sensor._slabs(band, above, below):
            seen.append(rows)
            assert top == rows.start - above
            assert len(source) == rows.stop - rows.start + above + below
            # rows past the band's edge repeat its edge row
            want = original[np.clip(np.arange(top, top + len(source)), 0, height - 1)]
            assert np.array_equal(source, want)
            band[rows] = -1.0  # the caller writes its block back
    assert [r for rows in seen for r in range(rows.start, rows.stop)] == \
        list(range(height))


@pytest.mark.parametrize("block", BLOCKS)
def test_misalignment_at_the_registration_bound_equals_the_whole_plane_passes(block):
    # a 10 m shift is 2.1 px at the product pitch: each row reads three rows
    # away, the farthest a slab's halo reaches
    gsd, bound = 4.75, sensor.MISALIGN_BOUND_M
    cfg = DegradeConfig(misalignment_per_band=(
        (0.0, bound), (0.0, -bound), (bound, 0.0), (-bound, 0.0),
        (bound / math.sqrt(2), -bound / math.sqrt(2)), (-6.0, 8.0), (0.0, 0.0)))
    radiance = np.random.default_rng(1).uniform(0.0, 300.0, (7, 45, 37))
    want = radiance.copy()
    _full_plane_misalign(want, gsd, cfg)
    with row_block(block, 45):
        sensor._misalign(radiance, gsd, cfg)
    assert np.array_equal(radiance, want)


@pytest.mark.parametrize("block", BLOCKS)
@settings(max_examples=40, deadline=None, derandomize=True, phases=PHASES)
@given(data=st.data())
def test_blur_is_scipys_convolve1d_along_each_axis(block, data):
    # at MTF 0.01 the kernel radius is 4 px, so the shortest bands are
    # shorter than the radius
    height = data.draw(st.integers(1, 70), label="height")
    width = data.draw(st.integers(1, 70), label="width")
    mtf = data.draw(st.floats(0.01, 0.99, exclude_min=True, exclude_max=True),
                    label="mtf")
    radiance = np.random.default_rng(height * 71 + width).uniform(
        0.0, 300.0, (2, height, width))
    kernel = gaussian_kernel(mtf_blur_sigma_px(mtf))
    want = [convolve1d(convolve1d(plane, kernel, axis=0, mode="nearest"), kernel,
                       axis=1, mode="nearest") for plane in radiance]
    with row_block(block, height):
        sensor._degrade(radiance, DegradeConfig(mtf_at_nyquist=mtf), seed=0)
    assert np.array_equal(radiance, want)
