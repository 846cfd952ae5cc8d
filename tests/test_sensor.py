import datetime as dt
import math
import tracemalloc

import numpy as np
import pytest

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
    reflectance_to_radiance,
    resample,
    scene_to_radiance,
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
        assert reflectance_to_radiance(0.0, ctx, 0) == 0.0

    def test_analytic_inversion_to_one(self):
        # rho = pi / esun_b with zenith 0 and d = 1 gives L = 1
        ctx = SolarContext(solar_zenith=0.0, earth_sun_distance=1.0)
        rho = math.pi / sensor.DEFAULT_ESUN[2]
        assert reflectance_to_radiance(rho, ctx, 2) == pytest.approx(1.0)

    def test_roundtrip_random_grid(self):
        ctx = SolarContext(solar_zenith=37.0, earth_sun_distance=1.013)
        rho = RNG.uniform(0, 1.2, (7, 40, 40))
        scene = stack(rho)
        back = in_copy(sensor._to_reflectance, scene_to_radiance(scene, ctx), ctx)
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
        cfg = DegradeConfig(snr_per_band=(100.0,))
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
        radiance = scene_to_radiance(scene, self.CTX)
        data = radiance.data.copy()
        sensor._misalign(data, radiance.gsd, self.CFG)
        sensor._degrade(data, self.CFG, 23)
        sensor._to_reflectance(data, self.CTX)
        reference = tile_scene(BandStack.from_array(data, radiance.gsd),
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
        scene_to_radiance(scene, self.CTX)
        resample(scene, 3.0)
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
        feats = window_average(scene, 10).data.reshape(7, -1).T
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
        spec = SceneSpec(width=128, height=128, mixing_offsets=(0.2,) * 7,
                         mixing_matrix=mix)
        with pytest.raises(ValueError):
            generate_synthetic_scene(spec, 2)
