"""Conversion of the trained regressor into a fully-convolutional network.

The deployed network reproduces the regression pipeline as convolutions: a
fixed front layer averages each band over non-overlapping 10x10 windows
(depthwise, kernel weight 1/100, untrainable), and every fully-connected
layer becomes a 1x1 convolution over the resulting ``raster.GRID`` x
``GRID`` grid. The window is the package constant ``raster.WINDOW``, not a
property of a network: a CNN1 file records it and the loader refuses any
other. The conversion is exact in eval mode:

* batch-norm is folded into the preceding layer's kernel, which has no
  bias, and gives the 1x1 layer its bias (w' = w * s, b' = beta -
  (c + mean) * s with s = gamma / sqrt(var + eps), where c = w @ mu_f /
  sigma_f on the first layer, the standardization's shift, and 0 after);
* the feature standardization is absorbed into the first 1x1 layer (the
  only one, for a regressor without hidden layers) and the target
  de-standardization into the last, so the network consumes raw
  reflectance patches and emits physical units;
* dropout disappears (eval semantics).

For every patch P and window w the identity ConvNet(P)[w] =
FC(mean_10x10(P, w)) holds up to float rounding; ``verify_equivalence``
certifies it against the independent FC route and the CNN1 file records the
report of the run that blessed a deployed model.

A network is its layers: the channel widths are read off the kernels, and
every layer but the last applies ReLU, the only network ``fc_to_cnn``
builds. The CNN1 manifest therefore holds ``window``, ``channels`` (the
payload's layout: per layer its kernel, then its bias), ``dtype``,
``parameter`` (one of ``sensor.PARAMETERS``) and ``equivalence``. The loader
reads the first four by their declared JSON kinds and carries any other key
as parsed, so a file that also records the former ``front_layer``,
``layers``, ``meta`` or ``equivalence_sha256`` loads to the same layers.

Parameters are float32, the dtype a CNN1 file deploys, and the served path
(``infer_raster``/``infer_patch``) runs the 1x1 stack in float32 on the
window means of the patch's array, which ``window_average`` returns as a
float64 array, reducing the patch where it lies without a float64 copy, in
numpy's order; serving a patch therefore allocates little beyond the
stack's two float32 activation planes.
A scene is served by ``infer_kept``, which runs only the windows cloud
leaves valid, window j of a patch in column j of a patch-shaped stack call
(``infer_patch``'s bits on any BLAS core), from ``OPEN_BLOCKS`` blocks.
The certificate runs the same stack in float64 as its reference route, so
its deviation measures the folding and the parameter rounding, not float32
arithmetic; the served route's own deviation is reported beside it.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import _container
from .dataset import NormStats
from .errors import DimensionError, FormatError, NumericError, TransferError
from .mlp import BN_EPS, MLPParams, forward
from .raster import GRID, N_BANDS, WINDOW, BandStack, GeoRef, Patch, window_average
from .sensor import PARAMETERS

# The transfer certificate: the largest deviation it accepts, in physical
# units, and the random patches it is checked on. CHECK_SEED draws the check
# patches of this gate and of quantbench's fp16 gate.
EQUIVALENCE_TOL = 1e-4
EQUIVALENCE_CHECK_PATCHES = 20
CHECK_SEED = 0

# Patch-sized blocks ``infer_kept`` holds open. At 8 its stack calls on every
# clouded deploy_scene unit (seeds 1, 2, 3, 7) reached the least its column
# rule allows; at 4 they took up to 3 more.
OPEN_BLOCKS = 8


@dataclass
class ConvLayer:
    """One 1x1 convolution layer.

    ``kernel`` and ``bias`` are float32 arrays; construction rounds whatever
    it is given to float32 (round-to-nearest-even). A network quantized to
    f16 holds binary16 values, which float32 represents exactly, so the CNN1
    file stores the deployed values unchanged in either dtype.
    """

    kernel: np.ndarray   # (out_channels, in_channels), a 1x1 convolution
    bias: np.ndarray     # (out_channels,)

    def __post_init__(self):
        self.kernel = np.asarray(self.kernel, dtype=np.float32)
        self.bias = np.asarray(self.bias, dtype=np.float32)


@dataclass
class ConvNet:
    """The transferred network: fixed averaging front end + 1x1 conv stack.

    ``layers`` excludes the front averaging layer, which is structural and
    the same for every network: depthwise, kernel ``WINDOW x WINDOW``,
    stride ``WINDOW``, every weight exactly ``1 / WINDOW**2``, bias 0,
    untrainable. No layer after it changes the spatial dimensions. Every
    layer but the last applies ReLU, and the last emits the one map.
    """

    layers: list[ConvLayer]
    dtype: str = "f32"
    parameter: str = "unknown"

    def __post_init__(self):
        if not self.layers:
            raise TransferError("a network needs at least one 1x1 layer")
        width = self.layers[0].kernel.shape[-1]
        for k, layer in enumerate(self.layers):
            if layer.kernel.ndim != 2 or layer.kernel.shape[1] != width:
                raise TransferError(f"layer {k + 1}: kernel {layer.kernel.shape} "
                                    f"does not take {width} channels")
            width = layer.kernel.shape[0]
            if layer.bias.shape != (width,):
                raise TransferError(f"layer {k + 1}: bias shape mismatch")
        if width != 1:
            raise TransferError(f"the last layer emits {width} channels, not 1")
        if self.dtype not in ("f32", "f16"):
            raise ValueError(f"unknown dtype {self.dtype!r}")

    @property
    def channels(self) -> tuple[int, ...]:
        """Channel widths from the input bands to the output, read off the
        kernels."""
        return (self.layers[0].kernel.shape[1],
                *(layer.kernel.shape[0] for layer in self.layers))


@dataclass
class ContaminantMap:
    """Dense ``GRID`` x ``GRID`` prediction grid for one patch, in physical
    units.

    ``values`` are held as float64, so thresholds and alert statistics come
    out the same for a map served in float32 and for one read from a map
    file.
    """

    values: np.ndarray
    parameter: str
    georef: GeoRef

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (GRID, GRID):
            raise DimensionError(
                f"contaminant map must be {GRID}x{GRID}, got {self.values.shape}"
            )


def fc_to_cnn(params: MLPParams, stats: NormStats, parameter: str) -> ConvNet:
    """Transplant the trained regressor into the convolutional form.

    Requires populated batch-norm running statistics (eval mode is what the
    conversion reproduces). All folding algebra runs in float64; the layers
    round the folded kernels and biases to float32, the deployed dtype.
    """
    if not params.bn_stats_tracked:
        raise TransferError(
            "batch-norm running statistics never updated; train or load a "
            "model before transfer"
        )
    # absorb feature standardization into the first layer, hidden or output:
    # x_norm = (f - mu_f) / sigma_f, so W x_norm = (W / sigma_f) f - c
    first = params.weights[0].astype(np.float64) / stats.feature_std[None, :]
    shift = first @ stats.feature_mean   # c
    layers: list[ConvLayer] = []
    for k in range(params.n_hidden):
        w, shifted = ((first, params.bn_mean[k] + shift) if k == 0 else
                      (params.weights[k].astype(np.float64), params.bn_mean[k]))
        scale = params.bn_gamma[k] / np.sqrt(params.bn_var[k] + BN_EPS)
        layers.append(ConvLayer(w * scale[:, None], params.bn_beta[k] - shifted * scale))
    # output layer: no batch-norm, no activation; absorb target
    # de-standardization so the map is in physical units
    w_out, b_out = params.weights[-1].astype(np.float64), params.bias.astype(np.float64)
    if not params.n_hidden:
        w_out, b_out = first, b_out - shift
    layers.append(ConvLayer(w_out * stats.target_std,
                            b_out * stats.target_std + stats.target_mean))
    return ConvNet(layers, parameter=parameter)


def _stack_on_means(net: ConvNet, means: np.ndarray) -> np.ndarray:
    """The 1x1 stack over (bands, rows, cols) window means -> (rows, cols).

    The arithmetic runs in ``means.dtype``: float32 on the served path,
    float64 on the certificate's reference route (the float32 parameters
    widen exactly). ``means`` is only read, so one set of window means can
    feed several networks or routes. Every layer but the last applies ReLU.
    """
    bands, rows, cols = means.shape
    expect = net.layers[0].kernel.shape[1]
    if bands != expect:
        raise DimensionError(f"raster has {bands} bands, network expects {expect}")
    dtype = means.dtype
    act = means.reshape(bands, -1)
    last = len(net.layers) - 1
    for k, layer in enumerate(net.layers):
        act = layer.kernel.astype(dtype, copy=False) @ act
        act += layer.bias.astype(dtype, copy=False)[:, None]
        if not np.isfinite(act).all():
            raise NumericError(f"non-finite activations at conv layer {k + 1}")
        if k < last:
            np.maximum(act, 0.0, out=act)
    return act.reshape(rows, cols)


def _served_means(raster: BandStack) -> np.ndarray:
    """Window means accumulated in float64, served to the stack as float32."""
    return window_average(raster.data).astype(np.float32)


def infer_raster(net: ConvNet, raster: BandStack) -> np.ndarray:
    """Forward a raster of the network's bands; returns the float32
    (rows, cols) grid."""
    return _stack_on_means(net, _served_means(raster))


def infer_patch(net: ConvNet, patch: Patch) -> ContaminantMap:
    """One forward pass over a patch; its ``GRID`` x ``GRID`` map,
    deterministic."""
    return ContaminantMap(infer_raster(net, patch.raster), net.parameter,
                          patch.georef)


def infer_kept(net: ConvNet, patches: list[Patch],
               kept: Iterable[np.ndarray | None]) -> list[ContaminantMap]:
    """The maps of ``patches``, computing only their kept windows; every
    other cell is NaN.

    ``kept`` yields, per patch, its boolean ``GRID`` x ``GRID`` plane of the
    windows to compute, or None for all of them. Each computed cell is
    bit-identical to ``infer_patch``'s:

    * The kept window means stream into ``(bands, GRID, GRID)`` float32
      blocks, which may mix patches. Every stack call has the shape of one
      patch. A GEMM over a subset of the columns would change bits.
    * Window j (row-major) goes into column j of the oldest open block where
      that column is free: on every BLAS core a column's bits may depend on
      its position, but not on the other columns.
    * A block runs when it is full, at the end, or, the oldest, when a
      window needs a new block and ``OPEN_BLOCKS`` are open. Unused columns
      hold copies of a kept column, so padding cannot raise ``NumericError``.

    A window that is not kept never enters the stack, so a reflectance there
    that would overflow it raises nothing, and a patch with no kept window
    costs no stack call.
    """
    if net.channels[0] != N_BANDS:
        raise DimensionError(f"a patch has {N_BANDS} bands, network expects "
                             f"{net.channels[0]}")
    cells = GRID * GRID
    blocks = []   # open, oldest first: (means, free columns, [(map cells, columns)])

    def run(block, free, pending) -> None:
        block[:, free] = block[:, [np.argmin(free)]]
        out = _stack_on_means(net, block.reshape(N_BANDS, GRID, GRID)).reshape(-1)
        for values, idx in pending:
            values[idx] = out[idx]

    maps = []
    for patch, keep in zip(patches, kept, strict=True):
        cmap = ContaminantMap(np.full((GRID, GRID), np.nan), net.parameter,
                              patch.georef)
        maps.append(cmap)
        todo = np.ones(cells, bool) if keep is None else np.ravel(keep).astype(bool)
        if not todo.any():
            continue
        means = _served_means(patch.raster).reshape(N_BANDS, cells)
        values = cmap.values.reshape(-1)
        for block, free, pending in blocks:
            idx = np.flatnonzero(todo & free)
            block[:, idx] = means[:, idx]
            free[idx] = todo[idx] = False
            pending.append((values, idx))
        if todo.any():
            if len(blocks) == OPEN_BLOCKS:
                run(*blocks.pop(0))
            idx = np.flatnonzero(todo)
            block = np.empty((N_BANDS, cells), np.float32)
            block[:, idx] = means[:, idx]
            blocks.append((block, ~todo, [(values, idx)]))
        # a window enters a newer block only where the older ones are full,
        # so the full blocks are the oldest
        while blocks and not blocks[0][1].any():
            run(*blocks.pop(0))
    for block in blocks:
        run(*block)
    return maps


@dataclass
class EquivalenceReport:
    """The certificate (float64 stack against the FC route) and, ungated,
    the served float32 stack's maximum deviation against the same route."""

    max_abs_deviation: float
    mean_abs_deviation: float
    served_max_abs_deviation: float
    n_patches: int
    n_cells: int
    tol: float
    passed: bool
    vacuous: bool
    worst: tuple[int, int, int]   # (patch index, cell row, cell col)

    def to_json(self) -> dict:
        return asdict(self)


def verify_equivalence(
    params: MLPParams,
    stats: NormStats,
    net: ConvNet,
    patches: Iterable[Patch],
) -> EquivalenceReport:
    """Certify ConvNet(P)[w] == FC(mean window w of P) over all patches.

    All routes start from the same float64 window means, computed once
    per patch. The certificate runs the 1x1 stack in float64; the FC route
    runs independently (standardization, eval-mode forward,
    de-standardization). The served float32 stack (``infer_patch``) is
    measured against the same FC values and reported, not gated.
    Deviations are in physical units; the gate is ``EQUIVALENCE_TOL``, and
    ``worst`` names the first cell holding the maximum. ``patches`` may be
    any iterable, counted as it is read; each patch is let go once its
    means are taken, so a lazy source such as ``raster.random_patches``
    has one patch alive at a time. An empty iterable passes vacuously with
    n = 0 flagged.
    """
    max_dev = 0.0
    served_max = 0.0
    sum_dev = 0.0
    n_patches = n_cells = 0
    worst = (-1, -1, -1)
    # map holds no patch once its means are taken
    for means in map(lambda patch: window_average(patch.raster.data), patches):
        cnn_map = _stack_on_means(net, means)
        rows, cols = cnn_map.shape
        feats = means.reshape(means.shape[0], -1).T
        feats_norm = (feats - stats.feature_mean) / stats.feature_std
        fc = stats.denormalize_target(forward(params, feats_norm))
        dev = np.abs(cnn_map.reshape(-1) - fc)
        idx = int(np.argmax(dev))
        if not n_cells or dev[idx] > max_dev:
            max_dev = float(dev[idx])
            worst = (n_patches, idx // cols, idx % cols)
        sum_dev += float(dev.sum())
        n_cells += dev.size
        n_patches += 1
        served = _stack_on_means(net, means.astype(np.float32))
        served_max = max(served_max, float(np.abs(served.reshape(-1) - fc).max()))
    return EquivalenceReport(
        max_abs_deviation=max_dev,
        mean_abs_deviation=sum_dev / n_cells if n_cells else 0.0,
        served_max_abs_deviation=served_max,
        n_patches=n_patches,
        n_cells=n_cells,
        tol=EQUIVALENCE_TOL,
        passed=(max_dev <= EQUIVALENCE_TOL) if n_cells else True,
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
# The JSON kind of each CNN1 manifest key ``load_cnn1`` reads.
_CNN1_KINDS = {"window": "an integer", "channels": "a list of integers",
               "dtype": "a string", "parameter": "a string"}


def save_cnn1(
    path: str | Path, net: ConvNet, equivalence: EquivalenceReport | None = None
) -> Path:
    path = Path(path)
    manifest = {
        "format": "CNN1",
        "window": WINDOW,
        "channels": list(net.channels),
        "dtype": net.dtype,
        "parameter": net.parameter,
        "equivalence": equivalence.to_json() if equivalence else None,
    }
    arrays = (arr for l in net.layers for arr in (l.kernel, l.bias))
    with open(path, "wb") as fh:
        _container.write(fh, _CNN1_MAGIC, manifest, arrays, _CNN1_DTYPES[net.dtype])
    return path


def _cnn1_layout(manifest: dict) -> tuple[list[tuple[int, ...]], np.dtype]:
    """Per layer its kernel, then its bias, in the declared dtype."""
    dtype = manifest["dtype"]
    if dtype not in _CNN1_DTYPES:
        raise ValueError(f"unknown dtype {dtype!r}")
    channels = manifest["channels"]
    shapes = [shape for c_in, c_out in zip(channels[:-1], channels[1:])
              for shape in ((c_out, c_in), (c_out,))]
    return shapes, _CNN1_DTYPES[dtype]


def load_cnn1(path: str | Path) -> tuple[ConvNet, dict]:
    """Read a CNN1 file; a malformed one, one whose front end averages
    another window than ``WINDOW`` or one for a parameter outside
    ``sensor.PARAMETERS`` raises ``FormatError``."""
    manifest, arrays = _container.load(path, _CNN1_MAGIC, _CNN1_KINDS, _cnn1_layout)
    with _container.parsing(path):
        if manifest["window"] != WINDOW:
            raise FormatError(f"{path}: front end averages "
                              f"{manifest['window']!r} px windows, not {WINDOW}")
        if manifest["parameter"] not in PARAMETERS:
            raise ValueError(f"unknown parameter {manifest['parameter']!r}")
        layers = [ConvLayer(kernel, bias)
                  for kernel, bias in zip(arrays[0::2], arrays[1::2])]
        net = ConvNet(layers, dtype=manifest["dtype"], parameter=manifest["parameter"])
    return net, manifest
