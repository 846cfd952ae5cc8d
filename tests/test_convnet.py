import datetime as dt
import hashlib
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from coastwatch import convnet
from coastwatch.convnet import (
    ConvLayer,
    ConvNet,
    ContaminantMap,
    _stack_on_means,
    check_patches,
    fc_to_cnn,
    infer_kept,
    infer_patch,
    infer_raster,
    load_cnn1,
    save_cnn1,
    verify_equivalence,
)
from coastwatch.dataset import NormStats
from coastwatch.errors import DimensionError, FormatError, SchemaError, TransferError
from coastwatch.mlp import forward, init_mlp
from coastwatch.quantbench import FP16_CHECK_PATCHES, compare_quantized, quantize_fp16
from coastwatch.raster import (
    GRID,
    PATCH_SIZE,
    PRODUCT_GSD,
    WINDOW,
    BandStack,
    GeoRef,
    Patch,
    random_patches,
    window_average,
)
from coastwatch.sensor import TURBIDITY

DIMS = (7, 32, 16, 1)


def cnn1_bytes(net, equivalence=None) -> bytes:
    """The bytes ``save_cnn1`` writes for ``net``."""
    with tempfile.TemporaryDirectory() as d:
        return save_cnn1(Path(d) / "net.cnn1", net, equivalence).read_bytes()


def model(seed=0):
    """A transferable regressor with a random output bias, batch-norm state
    and stats."""
    params = init_mlp(DIMS, seed=seed)
    rng = np.random.default_rng(seed + 100)
    params.bias[...] = rng.normal(0.0, 0.5, 1)
    for k in range(params.n_hidden):
        h = DIMS[k + 1]
        params.bn_gamma[k][...] = rng.uniform(0.5, 1.5, h)
        params.bn_beta[k][...] = rng.normal(0.0, 0.3, h)
        params.bn_mean[k][...] = rng.normal(0.0, 1.0, h)
        params.bn_var[k][...] = rng.uniform(0.2, 3.0, h)
    params.bn_stats_tracked = True
    stats = NormStats(feature_mean=rng.uniform(0.3, 0.7, 7),
                      feature_std=rng.uniform(0.1, 0.3, 7),
                      target_mean=5.0, target_std=2.0)
    return params, stats


def served_formula(net, patch, deployed=np.float32):
    """The served route written out: the window means standardized by the
    network's statistics in float64 and rounded to float32; the 1x1 stack
    run in float32 on the parameters rounded to ``deployed``, with ReLU
    after every layer but the last; its output de-standardized in float64
    and rounded to float32."""
    stats = net.stats
    means = window_average(patch.raster.data, WINDOW).reshape(7, -1)
    act = ((means - stats.feature_mean[:, None])
           / stats.feature_std[:, None]).astype(np.float32)
    *hidden, last = net.layers
    for layer in hidden:
        kernel = layer.kernel.astype(deployed).astype(np.float32)
        bias = layer.bias.astype(deployed).astype(np.float32)
        act = np.maximum(kernel @ act + bias[:, None], np.float32(0))
    kernel = last.kernel.astype(deployed).astype(np.float32)
    act = kernel @ act + last.bias.astype(deployed).astype(np.float32)[:, None]
    out = act.astype(np.float64) * stats.target_std + stats.target_mean
    return out.astype(np.float32).reshape(25, 25)


def test_layers_hold_float32():
    net = fc_to_cnn(*model(), "turbidity_NTU")
    for layer in net.layers:
        assert layer.kernel.dtype == layer.bias.dtype == np.float32
    values = np.random.default_rng(0).normal(0.0, 1.0, (3, 7))
    layer = ConvLayer(values, values[:, 0])
    assert layer.kernel.dtype == layer.bias.dtype == np.float32
    assert np.array_equal(layer.kernel, values.astype(np.float32))


@pytest.mark.parametrize("fp16", [False, True])
def test_infer_patch_matches_deployed_dtype_formula(fp16):
    # the served maps are the served route written out, bit for bit
    net = fc_to_cnn(*model(1), "turbidity_NTU")
    deployed = np.float32
    if fp16:
        net, deployed = quantize_fp16(net), np.float16
    for patch in random_patches(2, seed=3):
        want = served_formula(net, patch, deployed)
        grid = infer_raster(net, patch.raster)
        assert grid.dtype == np.float32
        assert np.array_equal(grid, want)
        assert np.array_equal(infer_patch(net, patch).values, want)


def test_fp16_rounding_from_f64_equals_rounding_from_f32():
    rng = np.random.default_rng(4)
    halves = rng.integers(0, 0x7BFF, 20000, dtype=np.uint16).view(np.float16)
    lo = halves.astype(np.float32)
    hi = np.nextafter(halves, np.float16(np.inf)).astype(np.float32)
    values = np.concatenate([
        (lo + hi) / 2,                       # exact ties: round to even
        np.nextafter((lo + hi) / 2, np.float32(0)),
        rng.uniform(-70000, 70000, 20000).astype(np.float32),
        rng.normal(0.0, 1e-6, 20000).astype(np.float32),   # subnormal halves
    ])
    values = np.concatenate([values, -values])
    with np.errstate(over="ignore"):
        via_f32 = values.astype(np.float16)
        via_f64 = values.astype(np.float64).astype(np.float16)
    assert np.array_equal(via_f32.view(np.uint16), via_f64.view(np.uint16))


def test_quantize_values_are_f16_of_the_f32_values():
    net = fc_to_cnn(*model(2), "turbidity_NTU")
    net16 = quantize_fp16(net)
    assert net16.dtype == "f16"
    for l32, l16 in zip(net.layers, net16.layers):
        for a32, a16 in ((l32.kernel, l16.kernel), (l32.bias, l16.bias)):
            assert a16.dtype == np.float32
            want = a32.astype(np.float16).astype(np.float32)
            assert np.array_equal(a16, want)
    assert quantize_fp16(net16).layers[0].kernel.tobytes() == \
        net16.layers[0].kernel.tobytes()


@pytest.mark.parametrize("fp16,itemsize", [(False, 4), (True, 2)])
def test_cnn1_stores_deployed_dtype_and_round_trips(tmp_path, fp16, itemsize):
    net = fc_to_cnn(*model(3), "turbidity_NTU")
    if fp16:
        net = quantize_fp16(net)
    blob = cnn1_bytes(net)
    n_params = sum(l.kernel.size + l.bias.size for l in net.layers)
    mlen = int.from_bytes(blob[4:8], "little")
    assert len(blob) - 8 - mlen == n_params * itemsize
    loaded, _ = load_cnn1(save_cnn1(tmp_path / "net.cnn1", net))
    for a, b in zip(net.layers, loaded.layers):
        assert b.kernel.dtype == b.bias.dtype == np.float32
        assert np.array_equal(a.kernel, b.kernel)
        assert np.array_equal(a.bias, b.bias)
    assert loaded.stats.to_json() == net.stats.to_json()
    assert cnn1_bytes(loaded) == blob


def test_equivalence_certified():
    params, stats = model(4)
    net = fc_to_cnn(params, stats, "turbidity_NTU")
    report = verify_equivalence(params, stats, net, random_patches(3, seed=5))
    assert report.passed and not report.vacuous
    assert report.n_cells == 3 * 625


def test_the_certificate_accepts_a_deviation_equal_to_its_tolerance(monkeypatch):
    params, stats = model(4)
    net = fc_to_cnn(params, stats, "turbidity_NTU")
    patches = list(random_patches(2, seed=5))
    measured = verify_equivalence(params, stats, net, patches).max_abs_deviation
    assert measured > 0.0
    monkeypatch.setattr(convnet, "EQUIVALENCE_TOL", measured)
    assert verify_equivalence(params, stats, net, patches).passed
    monkeypatch.setattr(convnet, "EQUIVALENCE_TOL", float(np.nextafter(measured, 0.0)))
    assert not verify_equivalence(params, stats, net, patches).passed


def test_a_net_without_a_hidden_layer_keeps_the_feature_standardization():
    # (7, 1), the linear reference TrainConfig accepts: its one layer is the
    # output layer, and the standardization stays in the front end
    params = init_mlp((7, 1), seed=2)
    params.bias[...] = 0.7
    params.bn_stats_tracked = True
    stats = NormStats(feature_mean=np.linspace(0.3, 0.6, 7),
                      feature_std=np.linspace(0.1, 0.2, 7),
                      target_mean=5.0, target_std=2.0)
    net = fc_to_cnn(params, stats, "turbidity_NTU")
    report = verify_equivalence(params, stats, net, random_patches(2, seed=3))
    assert report.passed and report.max_abs_deviation < 1e-5
    assert net.channels == (7, 1)


def test_worst_names_the_first_cell_of_the_maximum_when_every_deviation_is_zero():
    params = init_mlp((7, 4, 1), seed=0)
    params.theta[...] = 0.0   # every map is target_mean on both routes
    params.bn_stats_tracked = True
    stats = NormStats(np.full(7, 0.5), np.full(7, 0.2), 5.0, 2.0)
    net = fc_to_cnn(params, stats, "turbidity_NTU")
    report = verify_equivalence(params, stats, net, random_patches(2, seed=1))
    assert (report.max_abs_deviation, report.n_cells) == (0.0, 2 * 625)
    assert report.worst == (0, 0, 0)


def test_the_checks_read_any_iterable_as_they_read_a_list():
    params, stats = model(6)
    net = fc_to_cnn(params, stats, "turbidity_NTU")
    net16 = quantize_fp16(net)
    patches = list(random_patches(3, seed=7))
    want = verify_equivalence(params, stats, net, patches)
    assert verify_equivalence(params, stats, net, iter(patches)) == want
    assert verify_equivalence(params, stats, net, random_patches(3, seed=7)) == want
    assert want.n_patches == 3
    quant = compare_quantized(net, net16, patches)
    assert compare_quantized(net, net16, (p for p in patches)) == quant
    assert quant.patches_tested == 3
    # nothing to check: the certificate is vacuous, the fp16 check refuses
    empty = verify_equivalence(params, stats, net, iter(()))
    assert empty.vacuous and empty.passed and empty.n_patches == 0
    assert empty.worst == (-1, -1, -1)
    with pytest.raises(ValueError, match="at least one patch"):
        compare_quantized(net, net16, iter(()))


def test_equivalence_and_fp16_checks_equal_per_network_inference():
    # the certificate and the fp16 check are what infer_patch serves: the
    # certificate against the FC route, the fp16 check against the f32 net
    params, stats = model(6)
    net = fc_to_cnn(params, stats, "turbidity_NTU")
    net16 = quantize_fp16(net)
    patches = list(random_patches(3, seed=7))
    eq_dev, q_dev = [], []
    for patch in patches:
        feats = window_average(patch.raster.data, WINDOW).reshape(7, -1).T
        fc = stats.denormalize_target(
            forward(params, (feats - stats.feature_mean) / stats.feature_std))
        eq_dev.append(np.abs(infer_patch(net, patch).values.reshape(-1) - fc))
        q_dev.append(np.abs(infer_patch(net, patch).values
                            - infer_patch(net16, patch).values))
    report = verify_equivalence(params, stats, net, patches)
    assert report.max_abs_deviation == max(float(d.max()) for d in eq_dev)
    assert report.mean_abs_deviation == sum(float(d.sum()) for d in eq_dev) / (3 * 625)
    quant = compare_quantized(net, net16, patches)
    assert quant.max_map_deviation == max(float(d.max()) for d in q_dev)
    assert quant.mean_map_deviation == sum(float(d.sum()) for d in q_dev) / (3 * 625)


@st.composite
def transferable_models(draw):
    """A 7 -> ... -> 1 regressor of 0-3 small hidden layers with a drawn
    output bias and batch-norm state (He-uniform weights from a drawn seed), and
    drawn normalization statistics of reflectance-range features."""
    hidden = draw(st.lists(st.integers(1, 24), max_size=3), label="hidden")
    params = init_mlp((7, *hidden, 1), seed=draw(st.integers(0, 2**32 - 1)))

    def vector(n, lo, hi):
        return draw(hnp.arrays(np.float64, n, elements=st.floats(lo, hi)))

    for k, h in enumerate(hidden):
        params.bn_gamma[k][...] = vector(h, -2.0, 2.0)
        params.bn_beta[k][...] = vector(h, -1.0, 1.0)
        params.bn_mean[k][...] = vector(h, -2.0, 2.0)
        params.bn_var[k][...] = vector(h, 0.05, 4.0)
    params.bias[...] = vector(1, -1.0, 1.0)
    params.bn_stats_tracked = True
    stats = NormStats(feature_mean=vector(7, 0.05, 0.5),
                      feature_std=vector(7, 0.02, 0.3),
                      target_mean=draw(st.floats(-50.0, 50.0), label="target_mean"),
                      target_std=draw(st.floats(0.1, 20.0), label="target_std"))
    return params, stats


def served_rounding_bound(net, means):
    """How far the served route's float32 rounding can move each cell's map
    value from exact arithmetic, to first order, with u = 2**-24. In the
    stack's standardized units, s_0 = |x| for the standardized means x and
    s_k = |W_k| s_(k-1) + |b_k|, and layer k adds:

    * the rounding of its folded parameters to float32 once, u s_k;
    * its float32 dot product over n_in terms and the bias, (n_in + 1) u s_k;

    the means' own rounding to float32 adds u s_0 in front. Each error
    propagates through |W| of the layers after it, and ReLU moves nothing
    farther. The back end scales the stack's bound by ``target_std``, and the
    map's rounding to float32 adds u times its magnitude, at most
    target_std s_L + |target_mean|, or 2**-150, half the least float32
    subnormal, where the value underflows. Returns the per-cell bound."""
    u = 2.0**-24
    stats = net.stats
    s = np.abs((means.reshape(means.shape[0], -1) - stats.feature_mean[:, None])
               / stats.feature_std[:, None])
    err = u * s
    for layer in net.layers:
        kernel = np.abs(layer.kernel.astype(np.float64))
        s = kernel @ s + np.abs(layer.bias.astype(np.float64))[:, None]
        err = kernel @ err + (kernel.shape[1] + 2) * u * s
    magnitude = stats.target_std * s + abs(stats.target_mean)
    return (stats.target_std * err + u * magnitude + 2.0**-150).reshape(GRID, GRID)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(model=transferable_models(), seed=st.integers(0, 2**32 - 1))
def test_each_cell_of_the_served_route_is_the_fc_of_its_window_mean(model, seed):
    params, stats = model
    net = fc_to_cnn(params, stats, "turbidity_NTU")
    data = np.random.default_rng(seed).uniform(0.05, 0.5, (7, PATCH_SIZE, PATCH_SIZE))
    patch = Patch(BandStack.from_array(data, PRODUCT_GSD),
                  GeoRef(0.0, 0.0, dt.date(2024, 6, 15)))
    # the network's route: the map infer_patch serves
    cnn = infer_patch(net, patch).values
    # the FC route on each window's mean, taken here by reshaping
    used = GRID * WINDOW
    window_means = data[:, :used, :used].reshape(7, GRID, WINDOW, GRID, WINDOW).mean(
        axis=(2, 4))
    feats = window_means.reshape(7, -1).T
    fc = stats.denormalize_target(
        forward(params, (feats - stats.feature_mean) / stats.feature_std))
    # twice the first-order bound covers its second-order terms and both
    # routes' float64 arithmetic, which is 2**29 times finer
    bound = 2.0 * served_rounding_bound(net, window_average(data, WINDOW))
    assert (np.abs(cnn - fc.reshape(GRID, GRID)) <= bound).all()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_check_patches_are_window_constant_draws_of_the_training_distribution(seed):
    """Sized before it is read, the same patches on every iteration, one
    value per window (the partial windows at the patch edge included), and
    every window's standardized mean inside [-sqrt(3), sqrt(3)], the box of
    a uniform variable of mean 0 and std 1, which its draws fill. The fp16
    gate's patches are the first of the certificate's, bit for bit."""
    stats = model(seed)[1]
    patches = check_patches(stats, convnet.EQUIVALENCE_CHECK_PATCHES)
    assert len(patches) == convnet.EQUIVALENCE_CHECK_PATCHES
    fp16 = check_patches(stats, FP16_CHECK_PATCHES)
    assert [p.raster.data.tobytes() for p in fp16] == [
        p.raster.data.tobytes() for p, _ in zip(patches, range(FP16_CHECK_PATCHES))]
    cell = np.arange(PATCH_SIZE) // WINDOW
    standardized = []
    for a, b in zip(patches, patches, strict=True):
        assert a.raster.data.tobytes() == b.raster.data.tobytes()
        # each pixel holds the value of its window's first pixel
        firsts = a.raster.data[:, ::WINDOW, ::WINDOW]
        assert (a.raster.data == firsts[:, cell[:, None], cell]).all()
        means = window_average(a.raster.data, WINDOW)
        standardized.append((means - stats.feature_mean[:, None, None])
                            / stats.feature_std[:, None, None])
    z = np.stack(standardized, axis=1).reshape(7, -1)
    assert np.abs(z).max() <= np.sqrt(3.0) + 1e-9
    # 12,500 draws per band: its mean and std sit within 5 standard errors
    assert np.abs(z.mean(axis=1)).max() < 0.05
    assert np.abs(z.std(axis=1) - 1.0).max() < 0.05


def test_cnn1_declaring_another_window_is_a_format_error(tmp_path):
    """Any window but ``WINDOW`` gives maps of another size than 25x25; the
    loader refuses such a file instead of a later map check."""
    blob = cnn1_bytes(fc_to_cnn(*model(7), "turbidity_NTU"))
    mlen = int.from_bytes(blob[4:8], "little")
    manifest = json.loads(blob[8 : 8 + mlen])
    assert manifest["window"] == WINDOW == 10
    manifest["window"] = 8
    mbytes = json.dumps(manifest).encode()
    path = tmp_path / "net.cnn1"
    path.write_bytes(blob[:4] + len(mbytes).to_bytes(4, "little") + mbytes
                     + blob[8 + mlen :])
    with pytest.raises(FormatError, match="8 px windows"):
        load_cnn1(path)


@st.composite
def nets(draw, bound=None):
    """A small 7 -> ... -> 1 network of float32 parameters: any finite ones,
    or those within +-``bound``."""
    dims = (7, *draw(st.lists(st.integers(1, 6), max_size=3)), 1)
    if bound is None:
        values = st.floats(allow_nan=False, allow_infinity=False, width=32)
    else:
        values = st.floats(-bound, bound, width=32)
    layers = [ConvLayer(draw(hnp.arrays(np.float32, (c_out, c_in), elements=values)),
                        draw(hnp.arrays(np.float32, c_out, elements=values)))
              for c_in, c_out in zip(dims[:-1], dims[1:])]
    return ConvNet(layers, parameter="turbidity_NTU")


@pytest.mark.parametrize("fp16", [False, True])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_cnn1_round_trips_any_network_bit_for_bit(fp16, data):
    net = data.draw(nets(65504.0 if fp16 else None))
    if fp16:
        net = quantize_fp16(net)
    blob = cnn1_bytes(net)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "net.cnn1"
        path.write_bytes(blob)
        back, manifest = load_cnn1(path)
        assert manifest["channels"] == net.channels == back.channels
        assert (back.dtype, back.parameter) == (net.dtype, net.parameter)
        assert back.stats.to_json() == net.stats.to_json()
        for a, b in zip(net.layers, back.layers, strict=True):
            assert b.kernel.tobytes() == a.kernel.tobytes()
            assert b.bias.tobytes() == a.bias.tobytes()
        assert cnn1_bytes(back) == blob
        path.write_bytes(blob[:-1])  # one byte short
        with pytest.raises(FormatError, match=str(path)):
            load_cnn1(path)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(net=nets(65504.0))
def test_quantize_fp16_is_idempotent(net):
    once = quantize_fp16(net)
    twice = quantize_fp16(once)
    assert once.dtype == twice.dtype == "f16"
    for a, b in zip(once.layers, twice.layers, strict=True):
        assert b.kernel.dtype == a.kernel.dtype == np.float32
        assert b.kernel.tobytes() == a.kernel.tobytes()
        assert b.bias.tobytes() == a.bias.tobytes()


def former_manifest(net, report) -> dict:
    """The CNN1 manifest as written before it dropped what it restates: the
    front layer (``window``), the per-layer specs (``channels``, and ReLU on
    every layer but the last), ``meta`` and the report's hash, beside the
    ``normalization`` a network holds now."""
    last = len(net.layers) - 1
    meta = {"normalization_absorbed": True, "output_units": "physical"}
    if net.dtype == "f16":
        meta["quantized"] = "fp16_round_nearest_even"
    equivalence = report.to_json() if report else None
    return {
        "format": "CNN1", "window": 10,
        "front_layer": {"kind": "depthwise_average", "kernel": [10, 10],
                        "stride": 10, "weight": 0.01, "trainable": False},
        "channels": list(net.channels),
        "layers": [{"out": l.kernel.shape[0], "in": l.kernel.shape[1], "relu": k < last}
                   for k, l in enumerate(net.layers)],
        "dtype": net.dtype, "parameter": net.parameter, "meta": meta,
        "normalization": net.stats.to_json(), "equivalence": equivalence,
        "equivalence_sha256": hashlib.sha256(json.dumps(
            equivalence, sort_keys=True).encode()).hexdigest() if report else None,
    }


@pytest.mark.parametrize("fp16", [False, True])
def test_a_cnn1_in_the_former_manifest_loads_to_the_same_layers(tmp_path, fp16):
    params, stats = model(8)
    net = fc_to_cnn(params, stats, "turbidity_NTU")
    report = verify_equivalence(params, stats, net, random_patches(1, seed=9))
    if fp16:
        net, report = quantize_fp16(net), None
    blob = cnn1_bytes(net, report)
    mlen = int.from_bytes(blob[4:8], "little")
    mbytes = json.dumps(former_manifest(net, report)).encode()
    path = tmp_path / "former.cnn1"
    path.write_bytes(b"CNN1" + len(mbytes).to_bytes(4, "little") + mbytes
                     + blob[8 + mlen :])
    back, manifest = load_cnn1(path)
    assert manifest["layers"][0]["relu"] and not manifest["layers"][-1]["relu"]
    assert (back.channels, back.dtype, back.parameter) == (
        net.channels, net.dtype, net.parameter)
    for a, b in zip(net.layers, back.layers, strict=True):
        assert b.kernel.tobytes() == a.kernel.tobytes()
        assert b.bias.tobytes() == a.bias.tobytes()
    # saving it again writes the current manifest around the same payload
    assert cnn1_bytes(back, report) == blob


def he_net(dims, rng) -> ConvNet:
    """Random He-scaled weights, as a trained ReLU stack's are in size."""
    return ConvNet([ConvLayer(rng.normal(0, np.sqrt(2 / i), (o, i)), rng.normal(0, 0.1, o))
                    for i, o in zip(dims[:-1], dims[1:])], TURBIDITY)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(bands=st.integers(1, 8), hidden=st.lists(st.integers(1, 160), max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_a_column_of_a_patch_shaped_block_ignores_the_other_columns(
        bands, hidden, seed):
    """``infer_kept`` packs the kept windows of several patches into one
    ``(bands, GRID, GRID)`` block, window j of each in column j. Its maps are
    bit-identical to ``infer_patch``'s only if, in that shape, a column's
    result does not depend on the other columns. Its position is not free:
    under OpenBLAS 0.3.31's Haswell and Prescott kernels a column moved to
    another position can take other bits, so ``infer_kept`` never moves
    one."""
    rng = np.random.default_rng(seed)
    net = he_net((bands, *hidden, 1), rng)

    def stack(columns):
        # C-contiguous, as infer_kept's block: the bits may depend on the layout
        block = np.ascontiguousarray(columns).reshape(bands, GRID, GRID)
        return _stack_on_means(net, block).reshape(-1)

    block = rng.uniform(0.0, 0.4, (bands, GRID * GRID)).astype(np.float32)
    out = stack(block)
    keep = rng.random(GRID * GRID) < rng.random()
    other = rng.uniform(0.0, 0.4, block.shape).astype(np.float32)
    other[:, keep] = block[:, keep]
    assert stack(other)[keep].tobytes() == out[keep].tobytes()


PATCHES = list(random_patches(5, seed=21))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(hidden=st.lists(st.integers(1, 160), max_size=3), seed=st.integers(0, 2**32 - 1),
       shares=st.lists(st.sampled_from([0.0, 0.3, 0.7, 0.998, 1.0]), min_size=5,
                       max_size=5))
def test_infer_kept_is_infer_patch_on_the_kept_windows(hidden, seed, shares):
    """Bit for bit, at any dims and for any kept planes, the last window of
    a patch included, on whichever OpenBLAS core the host selects
    (``test_blas_cores.py`` reruns this on every core the CPU supports)."""
    rng = np.random.default_rng(seed)
    net = he_net((7, *hidden, 1), rng)
    kept = [rng.random((GRID, GRID)) < share for share in shares]
    for keep, cmap, patch in zip(kept, infer_kept(net, PATCHES, kept), PATCHES,
                                 strict=True):
        want = np.where(keep, infer_patch(net, patch).values, np.nan)
        assert cmap.values.tobytes() == want.tobytes()


@pytest.mark.parametrize("cover", [0.25, 0.5])
def test_infer_kept_makes_as_few_stack_calls_as_its_column_rule_allows(
        monkeypatch, cover):
    """A stack call holds one patch's window j at most, in column j, so it
    takes at least as many calls as the most patches that keep any one
    window. On 64 patches, as in a deploy_scene, under cloud in blocks of 6
    windows, ``infer_kept`` makes exactly that many; with ``OPEN_BLOCKS``
    at 5 or fewer it makes more."""
    side = 8 * GRID
    coarse = np.random.default_rng(1).random((-(-side // 6),) * 2) >= cover
    clear = np.kron(coarse, np.ones((6, 6), dtype=bool))[:side, :side]
    kept = [clear[r : r + GRID, c : c + GRID]
            for r in range(0, side, GRID) for c in range(0, side, GRID)]
    calls = []
    stack_on_means = convnet._stack_on_means
    monkeypatch.setattr(convnet, "_stack_on_means",
                        lambda net, means: calls.append(1) or stack_on_means(net, means))
    net = ConvNet([ConvLayer(np.ones((1, 7)), np.zeros(1))], TURBIDITY)
    infer_kept(net, PATCHES[:1] * len(kept), kept)
    assert len(calls) == np.sum(kept, axis=0).max()


def test_infer_kept_refuses_a_net_of_other_bands_even_with_nothing_kept():
    net = ConvNet([ConvLayer(np.ones((1, 3)), np.zeros(1))], TURBIDITY)
    with pytest.raises(DimensionError, match="a patch has 7 bands, network expects 3"):
        infer_kept(net, PATCHES[:1], [np.zeros((GRID, GRID), dtype=bool)])


def layer(out_channels, in_channels, bias=None):
    return ConvLayer(np.ones((out_channels, in_channels)),
                     np.zeros(out_channels if bias is None else bias))


@pytest.mark.parametrize("layers, kwargs, error, says", [
    ([], {}, TransferError, "a network needs at least one 1x1 layer"),
    ([layer(4, 7), layer(1, 5)], {}, TransferError,
     "layer 2: kernel (1, 5) does not take 4 channels"),
    ([ConvLayer(np.ones(7), np.zeros(1))], {}, TransferError,
     "layer 1: kernel (7,) does not take 7 channels"),
    ([layer(4, 7), layer(1, 4, bias=2)], {}, TransferError, "layer 2: bias shape mismatch"),
    ([layer(2, 7)], {}, TransferError, "the last layer emits 2 channels, not 1"),
    ([layer(0, 7), layer(1, 0)], {}, TransferError,
     "every layer width must be >= 1, got [7, 0, 1]"),
    ([layer(1, 7)], {"dtype": "f64"}, ValueError, "unknown dtype 'f64'"),
    ([layer(1, 7)], {"parameter": "chlorophyll"}, SchemaError,
     "unknown parameter 'chlorophyll'"),
    ([layer(1, 7)], {"parameter": "unknown"}, SchemaError, "unknown parameter 'unknown'"),
], ids=["no_layer", "kernel_off_the_previous_width", "one_dimensional_kernel",
        "bias_shape", "last_layer_wider_than_1", "zero_width_layer", "unknown_dtype", "unknown_parameter",
        "former_default_parameter"])
def test_a_network_refuses_what_it_cannot_serve(layers, kwargs, error, says):
    with pytest.raises(error, match=re.escape(says)):
        ConvNet(layers, **{"parameter": TURBIDITY, **kwargs})


def test_a_network_needs_its_contaminant_name():
    with pytest.raises(TypeError, match="parameter"):
        ConvNet([layer(1, 7)])


@pytest.mark.parametrize("values, parameter, error, says", [
    (np.zeros((GRID - 1, GRID)), TURBIDITY, DimensionError,
     f"contaminant map must be {GRID}x{GRID}, got ({GRID - 1}, {GRID})"),
    (np.zeros(GRID * GRID), TURBIDITY, DimensionError,
     f"contaminant map must be {GRID}x{GRID}, got ({GRID * GRID},)"),
    (np.zeros((GRID, GRID)), "chlorophyll", SchemaError,
     "unknown parameter 'chlorophyll'"),
    (np.zeros((GRID, GRID)), "turbidity", SchemaError, "unknown parameter 'turbidity'"),
], ids=["one_row_short", "flat", "unknown_parameter", "alias_not_a_parameter"])
def test_a_contaminant_map_refuses_another_shape_or_parameter(values, parameter, error,
                                                              says):
    with pytest.raises(error, match=re.escape(says)):
        ContaminantMap(values, parameter, GeoRef(44.0, 9.0, dt.date(2024, 6, 15)))


def test_transfer_refuses_untracked_batch_norm_statistics():
    params, stats = model(0)
    params.bn_stats_tracked = False
    with pytest.raises(TransferError, match="batch-norm running statistics never updated"):
        fc_to_cnn(params, stats, TURBIDITY)
