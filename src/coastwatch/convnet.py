"""Conversion of the trained regressor into a fully-convolutional network.

The deployed network reproduces the regression pipeline as convolutions: a
fixed front layer averages each band over non-overlapping 10x10 windows
(depthwise, kernel weight 1/100, untrainable), and every fully-connected
layer becomes a 1x1 convolution over the resulting 25x25 grid. The window
is the package constant ``raster.WINDOW``, not a property of a network: a
CNN1 file records it and the loader refuses any other. The conversion is
exact in eval mode:

* batch-norm is folded into the preceding layer's kernel and bias
  (w' = w * gamma / sqrt(var + eps), b' = (b - mean) * gamma /
  sqrt(var + eps) + beta);
* the feature standardization is absorbed into the first 1x1 layer and the
  target de-standardization into the last, so the network consumes raw
  reflectance patches and emits physical units;
* dropout disappears (eval semantics).

For every patch P and window w the identity ConvNet(P)[w] =
FC(mean_10x10(P, w)) holds up to float rounding; ``verify_equivalence``
certifies it against the independent FC route and the CNN1 file records the
report hash of the run that blessed a deployed model.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import _container
from .dataset import NormStats
from .errors import DimensionError, FormatError, NumericError, TransferError
from .mlp import BN_EPS, MLPParams, forward
from .raster import WINDOW, BandStack, GeoRef, Patch, window_average


@dataclass
class ConvLayer:
    """One 1x1 convolution layer.

    ``kernel`` and ``bias`` are held as float64 arrays whose values are
    exactly representable in the network's deployed dtype (f32 or f16): the
    builders (``fc_to_cnn``, ``load_cnn1``, ``quantize_fp16``) round to that
    dtype and widen once, so inference never re-casts and the CNN1 file
    stores the deployed values unchanged.
    """

    kernel: np.ndarray   # (out_channels, in_channels), a 1x1 convolution
    bias: np.ndarray     # (out_channels,)
    relu: bool


@dataclass
class ConvNet:
    """The transferred network: fixed averaging front end + 1x1 conv stack.

    ``layers`` excludes the front averaging layer, which is structural and
    the same for every network: depthwise, kernel ``WINDOW x WINDOW``,
    stride ``WINDOW``, every weight exactly ``1 / WINDOW**2``, bias 0,
    untrainable. No layer after it changes the spatial dimensions.
    """

    channels: tuple[int, ...]
    layers: list[ConvLayer]
    dtype: str = "f32"
    parameter: str = "unknown"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.layers) != len(self.channels) - 1:
            raise TransferError("one 1x1 layer per channel transition required")
        for k, layer in enumerate(self.layers):
            expect = (self.channels[k + 1], self.channels[k])
            if layer.kernel.shape != expect:
                raise TransferError(
                    f"layer {k + 1}: kernel {layer.kernel.shape}, expected {expect}"
                )
            if layer.bias.shape != (self.channels[k + 1],):
                raise TransferError(f"layer {k + 1}: bias shape mismatch")
        if self.dtype not in ("f32", "f16"):
            raise ValueError(f"unknown dtype {self.dtype!r}")


@dataclass
class ContaminantMap:
    """Dense 25x25 prediction grid for one patch, in physical units."""

    values: np.ndarray
    parameter: str
    georef: GeoRef

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != (25, 25):
            raise DimensionError(
                f"contaminant map must be 25x25, got {self.values.shape}"
            )

    @property
    def window_gsd(self) -> float:
        """Ground size of one map cell: the patch gsd times ``WINDOW``."""
        return self.georef.gsd * WINDOW


def _as_f32(arr: np.ndarray) -> np.ndarray:
    """Round to float32 and hold the result as float64."""
    return arr.astype(np.float32).astype(np.float64)


def fc_to_cnn(params: MLPParams, stats: NormStats, parameter: str) -> ConvNet:
    """Transplant the trained regressor into the convolutional form.

    Requires populated batch-norm running statistics (eval mode is what the
    conversion reproduces). All folding algebra runs in float64; kernels are
    rounded to float32, the deployed dtype, and held as float64.
    """
    if not params.bn_stats_tracked:
        raise TransferError(
            "batch-norm running statistics never updated; train or load a "
            "model before transfer"
        )
    layers: list[ConvLayer] = []
    for k in range(params.n_hidden):
        w = params.weights[k].astype(np.float64)
        b = params.biases[k].astype(np.float64)
        if k == 0:
            # absorb feature standardization: x_norm = (f - mu_f) / sigma_f
            w = w / stats.feature_std[None, :]
            b = b - w @ stats.feature_mean
        scale = params.bn_gamma[k] / np.sqrt(params.bn_var[k] + BN_EPS)
        kernel = w * scale[:, None]
        bias = (b - params.bn_mean[k]) * scale + params.bn_beta[k]
        layers.append(ConvLayer(_as_f32(kernel), _as_f32(bias), relu=True))
    # output layer: no batch-norm, no activation; absorb target
    # de-standardization so the map is in physical units
    w_out = params.weights[-1].astype(np.float64) * stats.target_std
    b_out = params.biases[-1].astype(np.float64) * stats.target_std
    b_out = b_out + stats.target_mean
    layers.append(ConvLayer(_as_f32(w_out), _as_f32(b_out), relu=False))
    return ConvNet(
        channels=tuple(params.layer_dims),
        layers=layers,
        parameter=parameter,
        meta={"normalization_absorbed": True, "output_units": "physical"},
    )


def _stack_on_means(net: ConvNet, means: np.ndarray) -> np.ndarray:
    """The 1x1 stack over (bands, rows, cols) window means -> (rows, cols).

    ``means`` is only read, so one set of window means can feed several
    networks or routes. Parameters hold deployed-dtype values (f32, or f16)
    stored as float64 (see ``ConvLayer``), so they are used as they are; the
    arithmetic runs in float64 so deviations against the reference
    regressor measure parameter rounding, not accumulator noise.
    """
    bands, rows, cols = means.shape
    if bands != net.channels[0]:
        raise DimensionError(
            f"raster has {bands} bands, network expects {net.channels[0]}"
        )
    act = means.reshape(bands, -1).astype(np.float64)
    for k, layer in enumerate(net.layers):
        act = layer.kernel @ act
        act += layer.bias[:, None]
        if not np.isfinite(act).all():
            raise NumericError(f"non-finite activations at conv layer {k + 1}")
        if layer.relu:
            np.maximum(act, 0.0, out=act)
    return act.reshape(rows, cols)


def infer_raster(net: ConvNet, raster: BandStack) -> np.ndarray:
    """Forward a 7-band raster; returns the (rows, cols) prediction grid."""
    return _stack_on_means(net, window_average(raster, WINDOW).data)


def infer_patch(net: ConvNet, patch: Patch) -> ContaminantMap:
    """One forward pass over a 256x256x7 patch; 25x25 map, deterministic."""
    return ContaminantMap(infer_raster(net, patch.raster), net.parameter,
                          patch.georef)


@dataclass
class EquivalenceReport:
    max_abs_deviation: float
    mean_abs_deviation: float
    n_patches: int
    n_cells: int
    tol: float
    passed: bool
    vacuous: bool
    worst: tuple[int, int, int]   # (patch index, cell row, cell col)

    def to_json(self) -> dict:
        return asdict(self)

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_json(), sort_keys=True).encode()
        ).hexdigest()


def verify_equivalence(
    params: MLPParams,
    stats: NormStats,
    net: ConvNet,
    patches: list[Patch],
    tol: float = 1e-4,
) -> EquivalenceReport:
    """Certify ConvNet(P)[w] == FC(mean window w of P) over all patches.

    Both routes start from the same float64 window means, computed once
    per patch; the FC route then runs independently (standardization,
    eval-mode forward, de-standardization). Deviations are in physical
    units. An empty patch list passes vacuously with n = 0 flagged.
    """
    max_dev = 0.0
    sum_dev = 0.0
    n_cells = 0
    worst = (-1, -1, -1)
    for p_idx, patch in enumerate(patches):
        means = window_average(patch.raster, WINDOW).data
        cnn_map = _stack_on_means(net, means)
        rows, cols = cnn_map.shape
        feats = means.reshape(means.shape[0], -1).T
        feats_norm = (feats - stats.feature_mean) / stats.feature_std
        fc = stats.denormalize_target(forward(params, feats_norm))
        dev = np.abs(cnn_map.reshape(-1) - fc)
        idx = int(np.argmax(dev))
        if dev[idx] > max_dev:
            max_dev = float(dev[idx])
            worst = (p_idx, idx // cols, idx % cols)
        sum_dev += float(dev.sum())
        n_cells += dev.size
    return EquivalenceReport(
        max_abs_deviation=max_dev,
        mean_abs_deviation=sum_dev / n_cells if n_cells else 0.0,
        n_patches=len(patches),
        n_cells=n_cells,
        tol=tol,
        passed=(max_dev <= tol) if n_cells else True,
        vacuous=n_cells == 0,
        worst=worst,
    )


# ---------------------------------------------------------------------------
# CNN1 deployed-model file: "CNN1" magic, u32 manifest length, JSON manifest,
# little-endian parameter blob (per layer: kernel then bias) in the
# manifest-declared dtype (f32 or f16); the framing is ``_container``'s.
# ---------------------------------------------------------------------------

_CNN1_MAGIC = b"CNN1"
_CNN1_DTYPES = {"f32": np.dtype("<f4"), "f16": np.dtype("<f2")}


def cnn1_bytes(net: ConvNet, equivalence: EquivalenceReport | None = None) -> bytes:
    dtype = _CNN1_DTYPES[net.dtype]
    manifest = {
        "format": "CNN1",
        "window": WINDOW,
        "front_layer": {
            "kind": "depthwise_average",
            "kernel": [WINDOW, WINDOW],
            "stride": WINDOW,
            "weight": 1.0 / WINDOW**2,
            "trainable": False,
        },
        "channels": list(net.channels),
        "layers": [
            {"out": int(l.kernel.shape[0]), "in": int(l.kernel.shape[1]),
             "relu": l.relu}
            for l in net.layers
        ],
        "dtype": net.dtype,
        "parameter": net.parameter,
        "meta": net.meta,
        "equivalence": equivalence.to_json() if equivalence else None,
        "equivalence_sha256": equivalence.digest() if equivalence else None,
    }
    arrays = (arr for l in net.layers for arr in (l.kernel, l.bias))
    buffer = io.BytesIO()
    _container.write(buffer, _CNN1_MAGIC, manifest, arrays, dtype)
    return buffer.getvalue()


def save_cnn1(
    path: str | Path, net: ConvNet, equivalence: EquivalenceReport | None = None
) -> Path:
    path = Path(path)
    path.write_bytes(cnn1_bytes(net, equivalence))
    return path


def _cnn1_layout(manifest: dict) -> tuple[list[tuple[int, ...]], np.dtype]:
    """Per layer its kernel, then its bias, in the declared dtype."""
    dtype = manifest["dtype"]
    if dtype not in _CNN1_DTYPES:
        raise ValueError(f"unknown dtype {dtype!r}")
    shapes = [shape for spec in manifest["layers"]
              for shape in ((spec["out"], spec["in"]), (spec["out"],))]
    return shapes, _CNN1_DTYPES[dtype]


def load_cnn1(path: str | Path) -> tuple[ConvNet, dict]:
    """Read a CNN1 file; a malformed one, or one whose front end averages
    another window than ``WINDOW``, raises ``FormatError``."""
    manifest, arrays = _container.load(path, _CNN1_MAGIC, _cnn1_layout)
    with _container.parsing(path):
        if manifest["window"] != WINDOW:
            raise FormatError(f"{path}: front end averages "
                              f"{manifest['window']!r} px windows, not {WINDOW}")
        specs = manifest["layers"]
        layers = [
            ConvLayer(kernel.astype(np.float64), bias.astype(np.float64),
                      relu=bool(spec["relu"]))
            for spec, kernel, bias in zip(specs, arrays[0::2], arrays[1::2])
        ]
        net = ConvNet(
            channels=tuple(manifest["channels"]),
            layers=layers,
            dtype=manifest["dtype"],
            parameter=manifest.get("parameter", "unknown"),
            meta=manifest.get("meta", {}),
        )
    return net, manifest
