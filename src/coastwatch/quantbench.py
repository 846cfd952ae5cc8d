"""FP16 deployment checks: quantization, size accounting, latency benchmark.

The flight accelerator is emulated numerically: parameters are rounded to
IEEE-754 binary16 (round-to-nearest-even) and held as float32, the
network's standardization statistics stay float64, both networks run the
one route they are served with (standardization in float64, the 1x1 stack
in float32, de-standardization in float64), and inference latency is a desk
benchmark of that served route on the local host. The fp16 gate runs
``convnet.deviations``, the transfer certificate's loop, with the fp16
network's served route as the reference; the ``quantize`` command checks it
on the first ``FP16_CHECK_PATCHES`` of ``convnet.check_patches``, the
certificate's patches, drawn in the model's own distribution, which is the
distribution the network serves. Model size is the byte size of a CNN1 file:
the sizes come from the files the ``quantize`` command reads and writes,
which it reports beside ``compare_quantized``'s deviations. The flight
reference figures (40.5 ms per inference, 24 FPS on the mission VPU; 250 MB
mission size ceiling) ride along as metadata and are never an acceptance
gate for desk hardware.
"""

from __future__ import annotations

import platform
import time
from collections.abc import Iterable
from dataclasses import asdict, dataclass, replace

import numpy as np

from .convnet import ConvNet, Patch, deviations, infer_patch
from .errors import NumericError

# The fp16 gate: the largest map deviation it accepts, in physical units,
# and how many of convnet.check_patches it reads: the first 8 of the
# certificate's 20, since at paper dims compare_quantized took 0.33 s on
# all 20 against 0.14 s on 8 (2-core x86-64, numpy 2.4).
FP16_THRESHOLD = 0.05
FP16_CHECK_PATCHES = 8
# bench's untimed and timed single-patch inferences, and how many of
# convnet.check_patches the CLI cycles through when given no patches
BENCH_WARMUP = 5
BENCH_REPS = 100
BENCH_PATCHES = 4

MISSION_SIZE_LIMIT_BYTES = 250 * 1024 * 1024
REFERENCE_VPU = {
    "hardware": "Myriad-2 class VPU (mission reference)",
    "ms_per_inference": 40.5,
    "fps": 24.0,
}


def quantize_fp16(net: ConvNet) -> ConvNet:
    """Round every parameter to binary16; the layers hold the halves as
    float32, which represents each exactly.

    Round-to-nearest-even (the IEEE default, numpy's cast). Values whose
    magnitude exceeds the binary16 range overflow to infinity and raise.
    Idempotent: re-quantizing changes nothing.
    """
    layers = []
    for k, layer in enumerate(net.layers):
        rounded = {}
        for name in ("kernel", "bias"):
            # the overflow is reported below, as NumericError, not as the
            # cast's RuntimeWarning
            with np.errstate(over="ignore"):
                arr = getattr(layer, name).astype(np.float16)
            if not np.isfinite(arr).all():
                raise NumericError(
                    f"layer {k + 1} {name}: value overflows binary16 range"
                )
            rounded[name] = arr
        layers.append(replace(layer, **rounded))
    return replace(net, layers=layers, dtype="f16")


@dataclass
class QuantReport:
    max_map_deviation: float
    mean_map_deviation: float
    patches_tested: int
    threshold: float
    passed: bool

    def to_json(self) -> dict:
        return dict(asdict(self), mission_size_limit_bytes=MISSION_SIZE_LIMIT_BYTES)


def compare_quantized(
    net32: ConvNet,
    net16: ConvNet,
    patches: Iterable[Patch],
) -> QuantReport:
    """Per-cell deviation statistics between the two precisions.

    ``convnet.deviations`` runs both networks on the route ``infer_patch``
    serves, from one set of window means per patch; deviations are in
    physical units. ``passed`` holds when the maximum deviation is at most
    ``FP16_THRESHOLD``; a NaN deviation makes the maximum NaN, which fails.
    ``patches`` may be any iterable, counted as it is read, one patch alive
    at a time from a lazy source such as ``convnet.check_patches``. An empty
    iterable is a ``ValueError``.
    """
    max_dev = total = 0.0
    cells = n_patches = 0
    for dev in deviations(net32, net16, patches):
        # np.maximum propagates NaN, where Python's max would skip it
        max_dev = float(np.maximum(max_dev, dev.max()))
        total += float(dev.sum())
        cells += dev.size
        n_patches += 1
    if not n_patches:
        raise ValueError("need at least one patch to compare")
    return QuantReport(
        max_map_deviation=max_dev,
        mean_map_deviation=total / cells,
        patches_tested=n_patches,
        threshold=FP16_THRESHOLD,
        passed=max_dev <= FP16_THRESHOLD,
    )


@dataclass
class BenchReport:
    ms_per_inference: float       # median
    ms_p95: float
    fps: float
    patches: int
    reps: int
    warmup: int
    hardware_descriptor: str
    reference: dict

    def to_json(self) -> dict:
        return asdict(self)


def _hardware_descriptor() -> str:
    info = platform.uname()
    cpu = platform.processor() or info.machine
    return f"{info.system} {info.machine} ({cpu}), python {platform.python_version()}, numpy {np.__version__}"


def bench(net: ConvNet, patches: list[Patch]) -> BenchReport:
    """Wall-clock per single-patch inference (``infer_patch``, the served
    route); median and p95 over ``BENCH_REPS`` timed runs after
    ``BENCH_WARMUP`` untimed ones. ``infer_kept`` serves a clear patch by
    exactly this one stack call, each window in its own column.

    The workload is deterministic (patches cycled in order); only the timing
    is nondeterministic. FPS is 1000 / median by definition.
    """
    if not patches:
        raise ValueError("need at least one patch to benchmark")
    for i in range(BENCH_WARMUP):
        infer_patch(net, patches[i % len(patches)])
    times_ms = np.empty(BENCH_REPS)
    for i in range(BENCH_REPS):
        patch = patches[i % len(patches)]
        t0 = time.perf_counter()
        infer_patch(net, patch)
        times_ms[i] = (time.perf_counter() - t0) * 1000.0
    median = float(np.median(times_ms))
    return BenchReport(
        ms_per_inference=median,
        ms_p95=float(np.percentile(times_ms, 95)),
        fps=1000.0 / median,
        patches=len(patches),
        reps=BENCH_REPS,
        warmup=BENCH_WARMUP,
        hardware_descriptor=_hardware_descriptor(),
        reference=dict(REFERENCE_VPU),
    )
