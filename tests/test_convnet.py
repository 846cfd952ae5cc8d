import json

import numpy as np
import pytest

from coastwatch.convnet import (
    cnn1_bytes,
    fc_to_cnn,
    infer_patch,
    load_cnn1,
    save_cnn1,
    verify_equivalence,
)
from coastwatch.dataset import NormStats
from coastwatch.errors import FormatError
from coastwatch.mlp import forward, init_mlp
from coastwatch.quantbench import compare_quantized, quantize_fp16
from coastwatch.raster import WINDOW, random_patches, window_average

DIMS = (7, 32, 16, 1)


def model(seed=0):
    """A transferable regressor with random batch-norm state and stats."""
    params = init_mlp(DIMS, seed=seed)
    rng = np.random.default_rng(seed + 100)
    for k in range(params.n_hidden):
        h = DIMS[k + 1]
        params.biases[k][...] = rng.normal(0.0, 0.5, h)
        params.bn_gamma[k][...] = rng.uniform(0.5, 1.5, h)
        params.bn_beta[k][...] = rng.normal(0.0, 0.3, h)
        params.bn_mean[k][...] = rng.normal(0.0, 1.0, h)
        params.bn_var[k][...] = rng.uniform(0.2, 3.0, h)
    params.bn_stats_tracked = True
    stats = NormStats(feature_mean=rng.uniform(0.3, 0.7, 7),
                      feature_std=rng.uniform(0.1, 0.3, 7),
                      target_mean=5.0, target_std=2.0)
    return params, stats


def stack_with_deployed_arrays(net, patch, deployed):
    """The 1x1 stack as run on deployed-dtype arrays widened per call."""
    act = window_average(patch.raster, WINDOW).data.reshape(7, -1)
    act = act.astype(np.float64)
    for layer in net.layers:
        kernel = layer.kernel.astype(deployed)
        bias = layer.bias.astype(deployed)
        act = kernel.astype(np.float64) @ act + bias.astype(np.float64)[:, None]
        if layer.relu:
            np.maximum(act, 0.0, out=act)
    return act.reshape(25, 25)


def test_layers_hold_f32_values_as_f64():
    net = fc_to_cnn(*model(), "turbidity_NTU")
    for layer in net.layers:
        for arr in (layer.kernel, layer.bias):
            assert arr.dtype == np.float64
            assert np.array_equal(arr.astype(np.float32).astype(np.float64), arr)


@pytest.mark.parametrize("fp16", [False, True])
def test_infer_patch_matches_deployed_dtype_formula(fp16):
    net = fc_to_cnn(*model(1), "turbidity_NTU")
    deployed = np.float32
    if fp16:
        net, deployed = quantize_fp16(net), np.float16
    for patch in random_patches(2, seed=3):
        got = infer_patch(net, patch).values
        assert np.array_equal(got, stack_with_deployed_arrays(net, patch, deployed))


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
            assert a16.dtype == np.float64
            want = a32.astype(np.float32).astype(np.float16).astype(np.float64)
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
        assert b.kernel.dtype == np.float64
        assert np.array_equal(a.kernel, b.kernel)
        assert np.array_equal(a.bias, b.bias)
    assert cnn1_bytes(loaded) == blob


def test_equivalence_certified():
    params, stats = model(4)
    net = fc_to_cnn(params, stats, "turbidity_NTU")
    report = verify_equivalence(params, stats, net, random_patches(3, seed=5))
    assert report.passed and not report.vacuous
    assert report.n_cells == 3 * 625


def test_equivalence_and_fp16_checks_equal_per_network_inference():
    # both checks compute each patch's window means once and share them
    params, stats = model(6)
    net = fc_to_cnn(params, stats, "turbidity_NTU")
    net16 = quantize_fp16(net)
    patches = random_patches(3, seed=7)
    eq_dev, q_dev = [], []
    for patch in patches:
        cnn = infer_patch(net, patch).values.reshape(-1)
        feats = window_average(patch.raster, 10).data.reshape(7, -1).T
        fc = stats.denormalize_target(
            forward(params, (feats - stats.feature_mean) / stats.feature_std))
        eq_dev.append(np.abs(cnn - fc))
        q_dev.append(np.abs(infer_patch(net, patch).values
                            - infer_patch(net16, patch).values))
    report = verify_equivalence(params, stats, net, patches)
    assert report.max_abs_deviation == max(float(d.max()) for d in eq_dev)
    assert report.mean_abs_deviation == sum(float(d.sum()) for d in eq_dev) / (3 * 625)
    quant = compare_quantized(net, net16, patches)
    assert quant.max_map_deviation == max(float(d.max()) for d in q_dev)
    assert quant.mean_map_deviation == sum(float(d.sum()) for d in q_dev) / (3 * 625)


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
