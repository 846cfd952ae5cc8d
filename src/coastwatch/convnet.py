"""Conversion of the trained regressor into a fully-convolutional network.

The deployed network reproduces the regression pipeline as convolutions: a
fixed front end averages each band over non-overlapping 10x10 windows
(depthwise, kernel weight 1/100, untrainable) and standardizes each window
mean by the model's feature statistics, every fully-connected layer becomes
a 1x1 convolution over the resulting ``raster.GRID`` x ``GRID`` grid, and a
fixed back end de-standardizes the output into physical units. The window
is the package constant ``raster.WINDOW``, not a property of a network: a
CNN1 file records it and the loader refuses any other. The conversion is
exact in eval mode:

* batch-norm is folded into the preceding layer's kernel, which has no
  bias, and gives the 1x1 layer its bias (w' = w * s, b' = beta - mean * s
  with s = gamma / sqrt(var + eps)); nothing else is folded, so the
  kernels keep the trained weights' size;
* the network holds the model's ``NormStats``: the front end applies the
  feature standardization and the back end the target de-standardization,
  both in float64;
* dropout disappears (eval semantics).

For every patch P and window w the identity ConvNet(P)[w] =
FC(mean_10x10(P, w)) holds up to float rounding; ``verify_equivalence``
certifies it for the route that is served, against the independent FC
route, and the CNN1 file records the report of the run that blessed a
deployed model. ``check_patches`` is the one source of the patches every
deployment check runs on: one stream from ``CHECK_SEED`` in the model's own
distribution, constant per window, band b uniform in mu_b +- sqrt(3)
sigma_b, which has that band's training mean and std; each check reads as
many of its first patches as its caller asks. ``deviations`` is the one
loop of both gates: per patch, the served route against a reference (the
FC route for the certificate, the fp16 network's served route for
``quantbench.compare_quantized``).

A network is its layers and its statistics: the channel widths are read
off the kernels, and every layer but the last applies ReLU, the only
network ``fc_to_cnn`` builds. The CNN1 manifest therefore holds ``window``,
``channels`` (the payload's layout: per layer its kernel, then its bias),
``dtype``, ``parameter`` (one of ``sensor.PARAMETERS``), ``normalization``
(read by ``NormStats.from_json``, as an MDL1's is) and ``equivalence``. The
loader reads the first five by their declared JSON kinds and carries any
other key as parsed, so a file that also records the former
``front_layer``, ``layers``, ``meta`` or ``equivalence_sha256`` loads to the
same layers. A file without ``normalization`` is the former layout, whose
first layer folded the standardization in; the loader refuses it by that
missing key, and transferring its MDL1 again gives the current layout.

Parameters are float32, the dtype a CNN1 file deploys. There is one served
route, a ``ConvNet`` called on window means (``infer_raster``/``infer_patch``
and the checks call it; ``infer_kept`` runs its two halves on blocks of
windows): the window means of the patch's array, which ``window_average``
returns as a float64 array, reducing the patch where it lies without a
float64 copy, are standardized in float64 and rounded to float32, the 1x1
stack runs in float32, and its output is de-standardized in float64 and
rounded to a float32 map, so a map read back from its file equals the one
served.
Serving a patch allocates little beyond the stack's two float32 activation
planes. A scene is served by ``infer_kept``, which runs only the windows
cloud leaves valid, window j of a patch in column j of a patch-shaped stack
call (``infer_patch``'s bits on any BLAS core), from ``OPEN_BLOCKS`` blocks.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import _container
from .dataset import NormStats
from .errors import DimensionError, FormatError, NumericError, TransferError
from .mlp import BN_EPS, MLPParams, forward
from .raster import (GRID, N_BANDS, WINDOW, BandStack, GeoRef, Patch, window_average,
                     window_patches)
from .sensor import check_parameter

# The transfer certificate: the largest deviation it accepts, in physical
# units, and how many check patches it reads. CHECK_SEED draws the one
# stream of check patches (``check_patches``) that this gate, quantbench's
# fp16 gate and the CLI's ``bench`` each read the first patches of.
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
    """The transferred network: fixed front end + 1x1 conv stack + fixed
    back end.

    ``layers`` excludes the front averaging layer, which is structural and
    the same for every network: depthwise, kernel ``WINDOW x WINDOW``,
    stride ``WINDOW``, every weight exactly ``1 / WINDOW**2``, bias 0,
    untrainable. No layer after it changes the spatial dimensions. Every
    layer has at least one channel; every layer but the last applies ReLU,
    and the last emits the one map, of ``parameter``, one of
    ``sensor.PARAMETERS``. ``stats`` standardizes the window means in front
    of the stack and de-standardizes its output; it defaults to the
    identity, for a stack that takes window means and emits the map.
    """

    layers: list[ConvLayer]
    parameter: str
    dtype: str = "f32"
    stats: NormStats = field(default_factory=lambda: NormStats(
        np.zeros(N_BANDS), np.ones(N_BANDS), 0.0, 1.0))

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
        if min(self.channels) < 1:
            raise TransferError(f"every layer width must be >= 1, got "
                                f"{list(self.channels)}")
        if self.dtype not in ("f32", "f16"):
            raise ValueError(f"unknown dtype {self.dtype!r}")
        check_parameter(self.parameter)

    @property
    def channels(self) -> tuple[int, ...]:
        """Channel widths from the input bands to the output, read off the
        kernels."""
        return (self.layers[0].kernel.shape[1],
                *(layer.kernel.shape[0] for layer in self.layers))

    def __call__(self, means: np.ndarray) -> np.ndarray:
        """The served route on float64 (bands, rows, cols) window means: the
        float32 (rows, cols) map."""
        return _stack_on_means(self, _front(self, means))


@dataclass
class ContaminantMap:
    """Dense ``GRID`` x ``GRID`` prediction grid for one patch, in physical
    units of ``parameter``, one of ``sensor.PARAMETERS``.

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
        check_parameter(self.parameter)


def fc_to_cnn(params: MLPParams, stats: NormStats, parameter: str) -> ConvNet:
    """Transplant the trained regressor into the convolutional form.

    Requires populated batch-norm running statistics (eval mode is what the
    conversion reproduces). Batch-norm folds into the hidden layers in
    float64; the layers round the folded kernels and biases to float32, the
    deployed dtype, and the network keeps ``stats`` for its front and back
    ends.
    """
    if not params.bn_stats_tracked:
        raise TransferError(
            "batch-norm running statistics never updated; train or load a "
            "model before transfer"
        )
    layers = []
    for k in range(params.n_hidden):
        scale = params.bn_gamma[k] / np.sqrt(params.bn_var[k] + BN_EPS)
        layers.append(ConvLayer(params.weights[k] * scale[:, None],
                                params.bn_beta[k] - params.bn_mean[k] * scale))
    # output layer: no batch-norm, no activation
    layers.append(ConvLayer(params.weights[-1], params.bias))
    return ConvNet(layers, parameter, stats=stats)


def _front(net: ConvNet, means: np.ndarray) -> np.ndarray:
    """The served route's front end: float64 (bands, rows, cols) window
    means, standardized by the network's statistics in float64 and rounded
    to float32."""
    bands, expect = means.shape[0], net.channels[0]
    if bands != expect:
        raise DimensionError(f"raster has {bands} bands, network expects {expect}")
    return ((means - net.stats.feature_mean[:, None, None])
            / net.stats.feature_std[:, None, None]).astype(np.float32)


def _stack_on_means(net: ConvNet, act: np.ndarray) -> np.ndarray:
    """The rest of the served route: the float32 1x1 stack over ``_front``'s
    (bands, rows, cols) standardized means, every layer but the last
    applying ReLU, then the back end, which de-standardizes the output in
    float64 and rounds it to the float32 (rows, cols) map. ``act`` is only
    read. Non-finite activations, and a map past float32's range, raise
    ``NumericError``."""
    bands, rows, cols = act.shape
    act = act.reshape(bands, -1)
    last = len(net.layers) - 1
    for k, layer in enumerate(net.layers):
        act = layer.kernel @ act
        act += layer.bias[:, None]
        if not np.isfinite(act).all():
            raise NumericError(f"non-finite activations at conv layer {k + 1}")
        if k < last:
            np.maximum(act, 0.0, out=act)
    # an overflow is reported below, as NumericError, not as a RuntimeWarning
    with np.errstate(over="ignore"):
        out = net.stats.denormalize_target(act.astype(np.float64)).astype(np.float32)
    if not np.isfinite(out).all():
        raise NumericError("the de-standardized map overflows float32")
    return out.reshape(rows, cols)


def infer_raster(net: ConvNet, raster: BandStack) -> np.ndarray:
    """Forward a raster of the network's bands; returns the float32
    (rows, cols) grid."""
    return net(window_average(raster.data))


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

    * The kept standardized window means stream into ``(bands, GRID,
      GRID)`` float32 blocks, which may mix patches. Every stack call has
      the shape of one patch. A GEMM over a subset of the columns would
      change bits.
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
        means = _front(net, window_average(patch.raster.data)).reshape(N_BANDS, cells)
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
    """The certificate: the served route against the FC route."""

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


def check_patches(stats: NormStats, n: int) -> Iterable[Patch]:
    """The first ``n`` check patches, drawn from ``CHECK_SEED`` in the
    model's own distribution: constant per window, band b uniform in mu_b
    +- sqrt(3) sigma_b of ``stats``' features, so each band has its training
    mean and std. One stream for any ``n``: a smaller ``n`` gives the first
    patches of a larger one, bit for bit. Lazy and sized, as
    ``raster.random_patches``."""
    mean = stats.feature_mean[:, None, None]
    half = np.sqrt(3.0) * stats.feature_std[:, None, None]
    return window_patches(n, CHECK_SEED, mean - half, mean + half)


def deviations(net: ConvNet, reference: Callable[[np.ndarray], np.ndarray],
               patches: Iterable[Patch]) -> Iterator[np.ndarray]:
    """Per patch, the float64 (rows, cols) |difference| between the map
    ``net`` serves and ``reference``'s, both from the patch's float64
    (bands, rows, cols) window means, taken once. ``reference`` maps those
    means to a (rows, cols) map; another ``ConvNet`` is one. ``patches`` may
    be any iterable, read as the deviations are; each patch is let go once
    its means are taken, so a lazy source such as ``check_patches`` has one
    patch alive at a time."""
    # map holds no patch once its means are taken
    for means in map(lambda patch: window_average(patch.raster.data), patches):
        yield np.abs(np.subtract(net(means), reference(means), dtype=np.float64))


def verify_equivalence(
    params: MLPParams,
    stats: NormStats,
    net: ConvNet,
    patches: Iterable[Patch],
) -> EquivalenceReport:
    """Certify ConvNet(P)[w] == FC(mean window w of P) over all patches.

    ``deviations`` runs the route ``infer_patch`` serves against the FC
    route, which runs independently (standardization by ``stats``, eval-mode
    forward, de-standardization). Deviations are in physical units; the
    gate is ``EQUIVALENCE_TOL``, and ``worst`` names the first cell holding
    the maximum. ``patches`` may be any iterable, counted as it is read. An
    empty iterable passes vacuously with n = 0 flagged.
    """
    def fc(means: np.ndarray) -> np.ndarray:
        feats = means.reshape(means.shape[0], -1).T
        out = forward(params, (feats - stats.feature_mean) / stats.feature_std)
        return stats.denormalize_target(out).reshape(means.shape[1:])

    max_dev = sum_dev = 0.0
    n_patches = n_cells = 0
    worst = (-1, -1, -1)
    for dev in deviations(net, fc, patches):
        idx = int(np.argmax(dev))
        if not n_cells or dev.flat[idx] > max_dev:
            max_dev = float(dev.flat[idx])
            worst = (n_patches, *divmod(idx, dev.shape[1]))
        sum_dev += float(dev.sum())
        n_cells += dev.size
        n_patches += 1
    return EquivalenceReport(
        max_abs_deviation=max_dev,
        mean_abs_deviation=sum_dev / n_cells if n_cells else 0.0,
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
               "dtype": "a string", "parameter": "a string", "normalization": None}


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
        "normalization": net.stats.to_json(),
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
    """Read a CNN1 file; a malformed one, one of the former layout (no
    ``normalization``), one whose front end averages another window than
    ``WINDOW`` or one ``ConvNet`` refuses (a parameter outside
    ``sensor.PARAMETERS``, say) raises ``FormatError``."""
    manifest, arrays = _container.load(path, _CNN1_MAGIC, _CNN1_KINDS, _cnn1_layout)
    with _container.parsing(path):
        if manifest["window"] != WINDOW:
            raise FormatError(f"{path}: front end averages "
                              f"{manifest['window']!r} px windows, not {WINDOW}")
        layers = [ConvLayer(kernel, bias)
                  for kernel, bias in zip(arrays[0::2], arrays[1::2])]
        net = ConvNet(layers, manifest["parameter"], manifest["dtype"],
                      NormStats.from_json(manifest["normalization"]))
    return net, manifest
