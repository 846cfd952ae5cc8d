"""quantbench: the fp16 comparison, its refusals, the latency bench and the
report documents."""

import numpy as np
import pytest

from coastwatch.convnet import ConvLayer, ConvNet
from coastwatch.errors import NumericError
from coastwatch.quantbench import (
    BENCH_REPS,
    BENCH_WARMUP,
    FP16_THRESHOLD,
    MISSION_SIZE_LIMIT_BYTES,
    REFERENCE_VPU,
    QuantReport,
    bench,
    compare_quantized,
    quantize_fp16,
)
from coastwatch.raster import random_patches


def net_of(dims=(7, 4, 1), seed=0):
    """A random float32 1x1 stack with layer widths ``dims``."""
    rng = np.random.default_rng(seed)
    return ConvNet([ConvLayer(rng.normal(0.0, 0.5, (o, i)), rng.normal(0.0, 0.1, o))
                    for i, o in zip(dims[:-1], dims[1:])])


def test_a_net_compared_with_itself_deviates_by_nothing_and_passes():
    net = net_of()
    report = compare_quantized(net, net, random_patches(2, seed=1))
    assert report.max_map_deviation == 0.0
    assert report.mean_map_deviation == 0.0
    assert report.patches_tested == 2
    assert report.threshold == FP16_THRESHOLD
    assert report.passed


def test_an_empty_patch_list_is_refused():
    net = net_of()
    with pytest.raises(ValueError, match="at least one patch"):
        compare_quantized(net, quantize_fp16(net), [])


@pytest.mark.parametrize("name", ["kernel", "bias"])
def test_a_value_past_binary16_range_names_its_layer_and_array(name):
    net = net_of((7, 4, 1))
    getattr(net.layers[1], name)[0] = 7e4   # binary16's largest finite is 65504
    with pytest.raises(NumericError, match=f"layer 2 {name}"):
        quantize_fp16(net)


def test_bench_reports_its_fixed_repetitions_and_the_reference():
    report = bench(net_of((7, 4, 1)), list(random_patches(1, seed=2)))
    assert report.reps == BENCH_REPS and report.warmup == BENCH_WARMUP
    assert report.fps == 1000.0 / report.ms_per_inference
    assert report.ms_p95 >= report.ms_per_inference > 0.0
    assert report.patches == 1
    assert report.reference == REFERENCE_VPU
    assert report.to_json()["reference"] == REFERENCE_VPU


def test_quant_report_json_carries_the_mission_size_limit():
    report = QuantReport(max_map_deviation=0.01, mean_map_deviation=0.001,
                         patches_tested=3, threshold=FP16_THRESHOLD, passed=True)
    doc = report.to_json()
    assert doc["mission_size_limit_bytes"] == MISSION_SIZE_LIMIT_BYTES
    assert doc["max_map_deviation"] == 0.01 and doc["passed"] is True
