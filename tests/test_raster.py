import dataclasses
import datetime as dt
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from coastwatch.errors import DimensionError, InconsistencyError
from coastwatch.raster import (
    MS_BAND_IDS,
    N_BANDS,
    REFLECTANCE_MAX,
    BandStack,
    GeoRef,
    Patch,
    TileIndex,
    mosaic,
    random_patches,
    read_pat1,
    sidecar_georef,
    tile_scene,
    window_average,
    window_fraction,
    write_pat1,
)

RNG = np.random.default_rng(1234)


def stack(data, gsd=4.75):
    return BandStack.from_array(np.asarray(data, dtype=np.float64), gsd)


def _copy_then_mean(data: np.ndarray, window: int = 10) -> np.ndarray:
    """Window means by the reference formula: copy the cropped raster to
    float64, then take ``mean`` over each block."""
    bands, h, w = data.shape
    out_h, out_w = h // window, w // window
    cropped = data[:, : out_h * window, : out_w * window].astype(np.float64)
    return cropped.reshape(bands, out_h, window, out_w, window).mean(axis=(2, 4))


def _wide_range_float32(rng, shape) -> np.ndarray:
    """float32 of both signs from 1e-12 to 1e12 in magnitude, a tenth of
    them exact zeros and a tenth subnormal."""
    data = rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.integers(-12, 13, shape)
    data[rng.random(shape) < 0.1] = 0.0
    subnormal = rng.random(shape) < 0.1
    data[subnormal] = np.finfo(np.float32).smallest_normal * rng.uniform(
        -1.0, 1.0, int(subnormal.sum()))
    return data.astype(np.float32)


def _rasters(kind: str) -> list[np.ndarray]:
    """The (bands, h, w) rasters one case of the copy-then-mean check runs
    on: ten of random size, or one scene-sized raster."""
    rng = np.random.default_rng(77)
    if kind == "float32_scene":
        return [_wide_range_float32(rng, (7, 1024, 1030))]
    out = []
    for i in range(10):
        shape = (rng.integers(1, 8), *rng.integers(10, 300, size=2))
        if kind in ("float64", "float32"):
            out.append(rng.uniform(0.0, 1.0, shape).astype(kind))
        elif kind == "float32_wide_range":
            out.append(_wide_range_float32(rng, shape))
        elif kind == "offset_view":
            # a view 3 rows and 7 columns into a larger raster, of either dtype
            bands, h, w = shape
            whole = _wide_range_float32(rng, (bands, h + 3, w + 7))
            out.append(whole.astype(np.float64 if i % 2 else np.float32)[:, 3:, 7:])
        else:
            out.append(rng.random(shape) < rng.random())
    return out


class TestWindowAverage:
    def test_patch_window_shape(self):
        out = window_average(RNG.uniform(0, 1, (7, 256, 256)), 10)
        assert out.shape == (7, 25, 25)

    def test_constant_raster(self):
        out = window_average(np.full((3, 64, 64), 0.73), 10)
        assert np.allclose(out, 0.73)

    def test_block_mean_oracle(self):
        # 20x20 raster with values 1..400 row-major vs nested-loop means
        vals = np.arange(1, 401, dtype=np.float64).reshape(1, 20, 20)
        out = window_average(vals, 10)
        expected = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                acc = 0.0
                for r in range(10):
                    for c in range(10):
                        acc += vals[0, i * 10 + r, j * 10 + c]
                expected[i, j] = acc / 100.0
        assert np.allclose(out[0], expected)

    def test_window_one_is_identity(self):
        data = RNG.uniform(0, 1, (2, 13, 17))
        assert np.array_equal(window_average(data, 1), data)

    @pytest.mark.parametrize("kind", ["float64", "float32", "float32_wide_range",
                                      "offset_view", "float32_scene", "bool"])
    def test_equals_the_copy_then_mean_formula(self, kind):
        # the means are pinned to numpy's reduction order: any other order
        # moves wide-range sums by ulps
        for data in _rasters(kind):
            want = _copy_then_mean(data)
            got = window_average(data, 10)
            assert got.dtype == np.float64
            assert np.array_equal(got, want)
            # a 2-D array is reduced as the one band it is
            assert np.array_equal(window_average(data[0], 10), want[0])
            if kind == "bool":
                assert np.array_equal(window_fraction(data[0], 10), want[0])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, bool])
    def test_raster_is_not_copied(self, dtype):
        data = RNG.uniform(0, 1, (7, 512, 512))
        data = data < 0.5 if dtype is bool else data.astype(dtype)
        nbytes = data.nbytes
        tracemalloc.start()
        try:
            window_average(data, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < nbytes / 4

    def test_trailing_margin_dropped(self):
        out = window_average(RNG.uniform(0, 1, (1, 26, 37)), 10)
        assert out.shape == (1, 2, 3)

    def test_window_larger_than_raster(self):
        with pytest.raises(DimensionError):
            window_average(RNG.uniform(0, 1, (1, 8, 8)), 10)

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(-3, 3, allow_nan=False),
        b=st.floats(-3, 3, allow_nan=False),
        seed=st.integers(0, 2**31),
    )
    def test_linearity(self, a, b, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, (2, 30, 30))
        y = rng.uniform(-1, 1, (2, 30, 30))
        lhs = window_average(a * x + b * y, 10)
        rhs = a * window_average(x, 10) + b * window_average(y, 10)
        assert np.allclose(lhs, rhs, rtol=1e-6, atol=1e-12)


class TestWindowFraction:
    def test_fraction_counts_true_pixels(self):
        mask = np.zeros((20, 20), dtype=bool)
        mask[:10, :5] = True  # half of the first window
        frac = window_fraction(mask, 10)
        assert frac.shape == (2, 2)
        assert frac[0, 0] == pytest.approx(0.5)
        assert frac[1, 1] == 0.0

    def test_mask_is_not_copied(self):
        mask = RNG.uniform(0, 1, (512, 512)) < 0.5
        tracemalloc.start()
        try:
            window_fraction(mask, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a float64 copy of the mask would take eight times its bytes
        assert peak < mask.nbytes


class TestTileScene:
    def test_512_scene_four_patches(self):
        scene = stack(RNG.uniform(0, 1, (7, 512, 512)))
        result = tile_scene(scene)
        assert len(result.patches) == 4
        assert result.index.placements == ((0, 0), (0, 256), (256, 0), (256, 256))
        assert result.margin_rows == 0 and result.margin_cols == 0

    def test_single_patch_identity(self):
        scene = stack(RNG.uniform(0, 1, (7, 256, 256)))
        result = tile_scene(scene)
        assert len(result.patches) == 1
        assert result.index.placements == ((0, 0),)
        assert np.array_equal(result.patches[0].raster.data, scene.data)

    def test_margins_reported(self):
        # 600 rows x 300 cols: 600 - 2*256 = 88 margin rows, 300 - 256 = 44 cols
        scene = stack(RNG.uniform(0, 1, (7, 600, 300)))
        result = tile_scene(scene)
        assert len(result.patches) == 2
        assert result.margin_rows == 88
        assert result.margin_cols == 44

    def test_scene_too_small(self):
        with pytest.raises(DimensionError):
            tile_scene(stack(RNG.uniform(0, 1, (7, 255, 300))))

    def test_wrong_band_count(self):
        with pytest.raises(DimensionError):
            tile_scene(stack(RNG.uniform(0, 1, (3, 512, 512))))

    def test_placements_disjoint_and_aligned(self):
        scene = stack(RNG.uniform(0, 1, (7, 1024, 768)))
        result = tile_scene(scene)
        seen = set()
        for r0, c0 in result.index.placements:
            assert r0 % 256 == 0 and c0 % 256 == 0
            assert (r0, c0) not in seen
            seen.add((r0, c0))
            assert r0 + 256 <= scene.height and c0 + 256 <= scene.width

    def test_patch_georefs_follow_scene_center(self):
        scene = stack(RNG.uniform(0, 1, (7, 512, 512)))
        georef = GeoRef(44.0, 9.0, dt.date(2024, 6, 1))
        result = tile_scene(scene, georef)
        lats = [p.georef.center_lat for p in result.patches]
        lons = [p.georef.center_lon for p in result.patches]
        # north-west patch is north (greater lat) and west (smaller lon)
        assert lats[0] > lats[2] and lons[0] < lons[1]
        assert result.patches[0].georef.acquisition_date == georef.acquisition_date


class TestTileSceneViews:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_patches_are_read_only_views_of_the_scene(self, dtype):
        scene = BandStack.from_array(
            RNG.uniform(0, 1, (7, 512, 768)).astype(dtype), 4.75)
        before = scene.data.copy()
        result = tile_scene(scene)
        for patch, (r0, c0) in zip(result.patches, result.index.placements):
            data = patch.raster.data
            assert data.dtype == dtype
            assert np.shares_memory(data, scene.data)
            assert np.array_equal(data, before[:, r0 : r0 + 256, c0 : c0 + 256])
            with pytest.raises(ValueError):
                data[0, 0, 0] = 0.5
        assert scene.data.flags.writeable
        assert np.array_equal(scene.data, before)


class TestMosaic:
    def test_single_grid_identity(self):
        scene = stack(RNG.uniform(0, 1, (7, 256, 256)))
        result = tile_scene(scene)
        grid = RNG.uniform(0, 1, (25, 25)).astype(np.float32)
        out = mosaic([grid], result.index)
        assert np.array_equal(out.data[0], grid)

    def test_quadrants_land_by_index_arithmetic(self):
        scene = stack(RNG.uniform(0, 1, (7, 512, 512)))
        result = tile_scene(scene)
        grids = [RNG.uniform(0, 1, (25, 25)).astype(np.float32) for _ in range(4)]
        out = mosaic(grids, result.index)
        assert (out.height, out.width) == (50, 50)
        # oracle: recompute each cell's destination from the placement
        for k, (r0, c0) in enumerate(result.index.placements):
            gr, gc = r0 // 256 * 25, c0 // 256 * 25
            assert np.array_equal(out.data[0, gr : gr + 25, gc : gc + 25], grids[k])

    def test_tile_then_mosaic_roundtrip_block_constant(self):
        scene = stack(RNG.uniform(0, 1, (7, 512, 768)))
        result = tile_scene(scene)
        grids = [np.full((25, 25), float(k)) for k in range(len(result.patches))]
        out = mosaic(grids, result.index)
        for k, (r0, c0) in enumerate(result.index.placements):
            gr, gc = r0 // 256 * 25, c0 // 256 * 25
            assert np.all(out.data[0, gr : gr + 25, gc : gc + 25] == k)

    def test_count_mismatch(self):
        scene = stack(RNG.uniform(0, 1, (7, 512, 512)))
        result = tile_scene(scene)
        with pytest.raises(InconsistencyError):
            mosaic([np.zeros((25, 25))] * 3, result.index)

    def test_mosaic_placement_bijection(self):
        # every covered mosaic cell receives exactly one patch cell
        scene = stack(RNG.uniform(0, 1, (7, 768, 512)))
        result = tile_scene(scene)
        grids = [np.full((25, 25), 1.0) for _ in result.patches]
        out = mosaic(grids, result.index)
        assert np.all(out.data == 1.0)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(height=st.integers(256, 800), width=st.integers(256, 800))
    def test_tile_then_mosaic_puts_each_grid_at_its_placement(self, height, width):
        data = np.zeros((7, height, width), np.float32)
        data[0] = np.arange(height * width).reshape(height, width)
        result = tile_scene(BandStack.from_array(data, 4.75))
        index = result.index
        # the index tile_scene builds passes TileIndex's own checks again
        assert dataclasses.replace(index) == index
        assert len(set(index.placements)) == len(result.patches) == (
            height // 256 * (width // 256))
        for patch, (r0, c0) in zip(result.patches, index.placements):
            assert r0 % 256 == c0 % 256 == 0
            assert r0 + 256 <= height and c0 + 256 <= width
            assert np.array_equal(patch.raster.data, data[:, r0 : r0 + 256, c0 : c0 + 256])
        out = mosaic([np.full((5, 5), k) for k in range(len(result.patches))], index)
        assert out.data.shape == (1, 5 * (height // 256), 5 * (width // 256))
        for k, (r0, c0) in enumerate(index.placements):
            assert np.all(out.data[0, r0 // 256 * 5 : r0 // 256 * 5 + 5,
                                   c0 // 256 * 5 : c0 // 256 * 5 + 5] == k)


class TestPatchInvariants:
    def test_wrong_size_rejected(self):
        r = stack(RNG.uniform(0, 1, (7, 128, 128)))
        with pytest.raises(DimensionError):
            Patch(r, GeoRef(0, 0, dt.date(2024, 1, 1)))

    def test_nonfinite_rejected(self):
        data = RNG.uniform(0, 1, (7, 256, 256))
        data[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            Patch(stack(data), GeoRef(0, 0, dt.date(2024, 1, 1)))

    def test_out_of_range_flagged_not_fatal(self):
        data = RNG.uniform(0, 1, (7, 256, 256))
        data[0, :2, :2] = 1.5
        patch = Patch(stack(data), GeoRef(0, 0, dt.date(2024, 1, 1)))
        assert patch.flagged_values == 4

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_anywhere_rejected(self, dtype, value):
        for at in [(0, 0, 0), (3, 128, 77), (6, 255, 255)]:
            data = RNG.uniform(0, 1, (7, 256, 256)).astype(dtype)
            data[at] = value
            with pytest.raises(ValueError, match="non-finite"):
                Patch(BandStack.from_array(data, 4.75),
                      GeoRef(0, 0, dt.date(2024, 1, 1)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_flagged_values_at_the_bounds(self, dtype):
        top = dtype(REFLECTANCE_MAX)
        zero = dtype(0.0)
        edges = [  # (value, flagged)
            (zero, False), (-zero, False), (top, False),
            (np.nextafter(zero, dtype(-1.0)), True),
            (np.nextafter(top, dtype(2.0)), True),
        ]
        data = RNG.uniform(0.1, 0.9, (7, 256, 256)).astype(dtype)
        for i, (value, flagged) in enumerate(edges):
            one = data.copy()
            one[i, 10:13, 20] = value
            patch = Patch(BandStack.from_array(one, 4.75),
                          GeoRef(0, 0, dt.date(2024, 1, 1)))
            want = np.count_nonzero((one < 0.0) | (one > REFLECTANCE_MAX))
            assert patch.flagged_values == want == (3 if flagged else 0)
        for i, (value, _) in enumerate(edges):  # all five edge values in one chip
            data[i, 10:13, 20] = value
        patch = Patch(BandStack.from_array(data, 4.75),
                      GeoRef(0, 0, dt.date(2024, 1, 1)))
        assert patch.flagged_values == 6

    def test_random_patches_are_valid(self):
        patches = list(random_patches(2, seed=0))
        assert all(p.flagged_values == 0 for p in patches)
        assert patches[0].raster.band_ids == MS_BAND_IDS

    def test_random_patches_are_drawn_in_order_from_one_stream(self):
        # one generator, each patch's draw after the last, as a list of
        # eager draws; every iteration draws the same patches again
        rng = np.random.default_rng(11)
        want = [rng.uniform(0.0, 1.0, size=(7, 256, 256)) for _ in range(3)]
        patches = random_patches(3, seed=11)
        assert len(patches) == 3
        for _ in range(2):
            drawn = list(patches)
            assert [p.patch_id for p in drawn] == ["random_0000", "random_0001",
                                                   "random_0002"]
            for patch, data in zip(drawn, want, strict=True):
                assert patch.raster.data.tobytes() == data.tobytes()


class TestPat1Format:
    def test_f32_roundtrip_with_sidecar(self, tmp_path):
        r = stack(RNG.uniform(0, 1, (7, 64, 48)))
        georef = GeoRef(43.5, 9.25, dt.date(2024, 7, 1))
        path = write_pat1(tmp_path / "x.pat1", r, georef=georef,
                          extra={"k": "v"})
        back, sidecar = read_pat1(path)
        assert (back.width, back.height, back.bands) == (48, 64, 7)
        assert back.gsd == pytest.approx(4.75)
        assert np.allclose(back.data, r.data.astype(np.float32))
        assert back.band_ids == MS_BAND_IDS
        assert sidecar_georef(sidecar) == georef
        assert sidecar["extra"] == {"k": "v"}

    def test_u8_mask_roundtrip(self, tmp_path):
        mask = (RNG.uniform(0, 1, (1, 32, 32)) > 0.5).astype(np.uint8)
        r = BandStack.from_array(mask, gsd=4.75, band_ids=("cloud",))
        path = write_pat1(tmp_path / "m.pat1", r)
        back, _ = read_pat1(path)
        assert back.data.dtype == np.uint8
        assert np.array_equal(back.data, mask)

    def test_f32_roundtrip_bit_exact(self, tmp_path):
        data = RNG.normal(0, 1e3, (3, 40, 24)).astype(np.float32)
        data[0, 0, :6] = [0.0, -0.0, np.inf, -np.inf, 1e-45, -3.4e38]
        path = write_pat1(tmp_path / "f.pat1", BandStack.from_array(data, 4.75))
        back, _ = read_pat1(path)
        assert back.data.dtype == np.float32
        assert back.data.flags.writeable
        assert np.array_equal(back.data.view(np.uint32), data.view(np.uint32))

    def test_f64_is_stored_as_its_f32_rounding(self, tmp_path):
        data = RNG.uniform(0, 1, (2, 16, 16))
        back, _ = read_pat1(write_pat1(tmp_path / "d.pat1", stack(data)))
        want = data.astype(np.float32)
        assert np.array_equal(back.data.view(np.uint32), want.view(np.uint32))

    def test_u8_roundtrip_bit_exact(self, tmp_path):
        data = RNG.integers(0, 256, (3, 17, 9), dtype=np.uint8)
        path = write_pat1(tmp_path / "u.pat1", BandStack.from_array(data, 4.75))
        back, _ = read_pat1(path)
        assert back.data.dtype == np.uint8
        assert np.array_equal(back.data, data)

    def test_patch_view_writes_the_bytes_of_its_copy(self, tmp_path):
        scene = BandStack.from_array(
            RNG.uniform(0, 1, (7, 256, 512)).astype(np.float32), 4.75)
        view = tile_scene(scene).patches[1].raster
        copy = BandStack.from_array(view.data.copy(), 4.75)
        a = write_pat1(tmp_path / "view.pat1", view).read_bytes()
        b = write_pat1(tmp_path / "copy.pat1", copy).read_bytes()
        assert a == b and a.endswith(np.ascontiguousarray(view.data).tobytes())

    def test_one_file_per_raster(self, tmp_path):
        write_pat1(tmp_path / "x.pat1", stack(RNG.uniform(0, 1, (1, 4, 4))),
                   georef=GeoRef(43.5, 9.25, dt.date(2024, 7, 1)),
                   extra={"k": "v"})
        assert [p.name for p in tmp_path.iterdir()] == ["x.pat1"]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_any_raster_round_trips_bit_for_bit(self, data):
        shape = data.draw(st.tuples(st.integers(1, 4), st.integers(1, 9),
                                    st.integers(1, 9)), label="shape")
        dtype = data.draw(st.sampled_from([np.dtype("<f4"), np.dtype("u1")]))
        values = data.draw(hnp.arrays(dtype, shape), label="values")
        band_ids = data.draw(st.lists(st.text(max_size=8), min_size=shape[0],
                                      max_size=shape[0], unique=True))
        gsd = data.draw(st.floats(0.0, exclude_min=True, allow_infinity=False))
        georef = data.draw(st.none() | st.builds(
            GeoRef, st.floats(-90.0, 90.0), st.floats(-180.0, 180.0), st.dates()))
        extra = data.draw(st.dictionaries(
            st.text(max_size=6), st.integers() | st.text(max_size=6)
            | st.floats(allow_nan=False) | st.lists(st.integers(), max_size=3),
            max_size=3))
        with tempfile.TemporaryDirectory() as d:
            path = write_pat1(Path(d) / "x.pat1", BandStack(values, gsd, band_ids),
                              georef=georef, extra=extra)
            back, manifest = read_pat1(path)
        assert back.data.dtype == dtype and back.data.shape == shape
        assert back.data.tobytes() == values.tobytes()
        assert (back.bands, back.height, back.width) == shape
        assert [manifest[k] for k in ("bands", "height", "width")] == list(shape)
        assert (back.gsd, back.band_ids) == (gsd, tuple(band_ids))
        assert sidecar_georef(manifest) == georef
        assert manifest.get("extra", {}) == extra

    def test_gsd_roundtrips_exactly(self, tmp_path):
        # a mosaic of 25-cell maps over 256 px patches at 4.75 m/px
        r = BandStack.from_array(np.zeros((1, 4, 4), np.float32), 4.75 * 256 / 25)
        back, _ = read_pat1(write_pat1(tmp_path / "g.pat1", r))
        assert back.gsd == r.gsd == 48.64


class TestBandStackInvariants:
    def test_size_is_the_arrays(self):
        assert [f.name for f in dataclasses.fields(BandStack)] == [
            "data", "gsd", "band_ids"]
        r = BandStack(np.zeros((3, 5, 7)), 1.0)
        assert (r.bands, r.height, r.width) == (3, 5, 7)
        assert r.band_ids == ("B0", "B1", "B2")
        assert BandStack(np.zeros((N_BANDS, 2, 2)), 1.0).band_ids == MS_BAND_IDS
        with pytest.raises(AttributeError):
            r.width = 4

    def test_non_3d_or_empty_data_rejected(self):
        for shape in [(), (16,), (4, 4), (1, 1, 4, 4), (0, 4, 4), (2, 0, 4), (2, 4, 0)]:
            with pytest.raises(DimensionError, match="every dimension >= 1"):
                BandStack(np.zeros(shape), 1.0)

    def test_duplicate_band_ids(self):
        with pytest.raises(InconsistencyError):
            BandStack(np.zeros((2, 2, 2)), 1.0, ("a", "a"))

    def test_georef_validation(self):
        with pytest.raises(ValueError):
            GeoRef(95.0, 0.0, dt.date(2024, 1, 1))
        with pytest.raises(ValueError):
            GeoRef(0.0, 181.0, dt.date(2024, 1, 1))
