"""Fully-connected regression network, trained with Adam on an RMSE loss.

Maps the ``N_BANDS`` window-averaged band reflectances to one contaminant
value.
Default architecture: hidden layers [512, 512, 512, 512, 43], each
Linear without bias -> BatchNorm -> ReLU, then a final Linear with a bias to
one output; training adds Dropout after each ReLU. A hidden layer has no
bias: the batch norm after it subtracts the mean, so a bias could not
change the output, and BatchNorm's beta takes its role (Ioffe & Szegedy
2015, arXiv:1502.03167, section 3.2). Forward, backward and the optimizer
are implemented directly on numpy arrays so the weight transfer into the
convolutional form (and its verification) has full access to every
parameter, and so gradients can be checked against finite differences.

The model is two vectors: ``MLPParams.theta`` holds every trainable value
and ``bn_state`` the running batch-norm statistics; the per-layer arrays are
views into them, and only ``_vector_sizes``/``_theta_views`` know their
layout. Adam steps over ``theta`` as one vector, ``_backward`` returns one
gradient vector in its layout, the gradient check perturbs it entry by
entry, and an MDL1 file stores both vectors as they lie.

Two forwards: ``_forward_full`` (train or eval mode, keeping the cache
``_backward`` reads) runs training's mini-batches, dropping units at
``TrainConfig.dropout_p`` (dropout is a training setting, not part of the
model), and the gradient check, without dropout; ``_forward_eval`` is the
one eval forward, bit-identical to ``_forward_full``'s eval mode, behind
``forward``, ``evaluate``, train's per-epoch val score and ``recalibrate_bn``.
The public ``forward`` is eval-only: a deployed model never normalizes with
batch statistics and never drops units.

Training follows one recipe: Adam with the textbook constants
(``ADAM_BETA1``, ``ADAM_BETA2``, ``ADAM_EPS``) at a constant learning rate
on the RMSE loss, computed in float32, keeping the best-validation snapshot.
Every epoch has one monitor, the val RMSE, scored by the only eval forward
the epoch runs; it picks the snapshot and both stopping aids read it. An
epoch's ``train_rmse``, the RMS of its own train-mode mini-batch residuals
summed from the batch losses, is recorded only. It is single-threaded and
bit-deterministic for a fixed seed. One model per contaminant; the two
models share hyperparameters and differ only in their weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import _container
from .dataset import NormStats, SampleTable
from .errors import NumericError, SchemaError, read_document
from .raster import N_BANDS
from .sensor import check_parameter

DEFAULT_LAYER_DIMS = (N_BANDS, 512, 512, 512, 512, 43, 1)
BN_EPS = 1e-5
BN_MOMENTUM = 0.1
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _vector_sizes(dims: tuple[int, ...]) -> tuple[int, int]:
    """Lengths of ``theta`` and ``bn_state`` for ``dims``."""
    hidden = sum(dims[1:-1])
    weights = sum(i * o for i, o in zip(dims[:-1], dims[1:]))
    return weights + dims[-1] + 2 * hidden, 2 * hidden


def _theta_views(theta: np.ndarray, dims: tuple[int, ...]):
    """Views of a vector in ``theta``'s layout: the per-layer weights, the
    output layer's bias, then the per-hidden-layer batch-norm gammas and
    betas. No hidden layer has a bias."""
    n_layers, n_hidden = len(dims) - 1, len(dims) - 2
    hidden = [(h,) for h in dims[1:-1]]
    views = _container.views(
        theta, [*zip(dims[1:], dims[:-1]), (dims[-1],), *hidden, *hidden])
    return (views[:n_layers], views[n_layers],
            views[n_layers + 1 : n_layers + 1 + n_hidden],
            views[n_layers + 1 + n_hidden :])


@dataclass
class MLPParams:
    """All parameters and batch-norm state of the regressor, in two vectors.

    ``layer_dims`` chains input, hidden and output sizes; there is one
    weight matrix per adjacent pair of dims, one batch-norm parameter set
    per hidden layer and one bias, the output layer's; every width is at
    least 1, as ``TrainConfig`` requires. ``theta`` holds every
    trainable value and ``bn_state`` the running means, then the running
    variances; the order inside ``theta`` is ``_theta_views``'s.
    ``weights``, ``bn_gamma``, ``bn_beta``, ``bn_mean`` and ``bn_var`` are
    per-layer lists of views into those two vectors and ``bias`` is one
    view, built once: writing into a view (``params.weights[k][...] = w``)
    writes the vector. ``clone`` and ``astype`` copy the vectors.
    ``bn_stats_tracked`` records whether the running statistics have ever
    been updated by training (or load); the transfer into convolutional
    form refuses to run on untracked stats.
    No training setting lives here: dropout belongs to ``TrainConfig``.
    """

    layer_dims: tuple[int, ...]
    theta: np.ndarray       # every trainable value, in _theta_views' order
    bn_state: np.ndarray    # running statistics (eval mode): means, variances
    bn_stats_tracked: bool = False

    def __post_init__(self):
        dims = self.layer_dims
        if len(dims) < 2:
            raise ValueError("need at least input and output dims")
        if min(dims) < 1:
            raise ValueError(f"every layer width must be >= 1, got {list(dims)}")
        for name, size in zip(("theta", "bn_state"), _vector_sizes(dims)):
            shape = getattr(self, name).shape
            if shape != (size,):
                raise ValueError(f"{name} shape {shape}, expected {(size,)}")
        if not (np.isfinite(self.theta).all() and np.isfinite(self.bn_state).all()):
            raise ValueError("parameters must be finite")
        if not (self.bn_state[self.bn_state.size // 2 :] > 0).all():
            raise ValueError("running variance must be positive")
        self.weights, self.bias, self.bn_gamma, self.bn_beta = _theta_views(
            self.theta, dims)
        state = _container.views(self.bn_state, [(h,) for h in dims[1:-1]] * 2)
        self.bn_mean, self.bn_var = state[: self.n_hidden], state[self.n_hidden :]

    @property
    def n_hidden(self) -> int:
        return len(self.layer_dims) - 2

    def astype(self, dtype) -> "MLPParams":
        """A copy with both vectors cast to ``dtype``."""
        return replace(self, theta=self.theta.astype(dtype),
                       bn_state=self.bn_state.astype(dtype))

    def clone(self) -> "MLPParams":
        return self.astype(self.theta.dtype)


def init_mlp(
    layer_dims: tuple[int, ...] = DEFAULT_LAYER_DIMS, seed: int = 0
) -> MLPParams:
    """He-uniform fan-in initialization for the ReLU stack, drawn layer by
    layer into a zero ``theta``; a zero output bias, identity batch-norm with
    unit running variance."""
    dims = tuple(layer_dims)
    n_theta, n_state = _vector_sizes(dims)
    params = MLPParams(dims, np.zeros(n_theta), np.ones(n_state))
    rng = np.random.default_rng(seed)
    for w in params.weights:
        bound = np.sqrt(6.0 / w.shape[1])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    for gamma, mean in zip(params.bn_gamma, params.bn_mean):
        gamma[...], mean[...] = 1.0, 0.0
    return params


# The JSON kind of each ``TrainConfig`` field.
_CONFIG_KINDS = {
    "layer_dims": "a list of integers", "epochs": "an integer",
    "learning_rate": "a number", "batch_size": "an integer",
    "dropout_p": "a number", "seed": "an integer", "recalibrate_bn": "a boolean",
    "early_stop_val_rmse": "a number or null", "patience": "an integer or null",
}


@dataclass(frozen=True)
class TrainConfig:
    """The settings a training run can change; the rest of the recipe (Adam
    and its constants, the RMSE loss, float32 compute, keeping the
    best-validation snapshot) is fixed.

    ``layer_dims``, ``epochs``, ``learning_rate``, ``batch_size`` and
    ``dropout_p`` are the recipe's numbers, kept settable so a deviation
    from them can be measured; ``seed`` drives the initialization and the
    batch order. ``recalibrate_bn`` replaces the running batch-norm
    statistics with exact population statistics of the train set once
    training ends, measured on the eval forward's own activations, which
    removes the eval-time noise of the momentum estimates.
    ``early_stop_val_rmse`` and ``patience`` end a run before the epoch
    budget, both on the one monitor, the epoch's val RMSE:
    ``early_stop_val_rmse`` is compared with it, and ``patience`` counts
    epochs without a new best of it. A setting the recipe cannot use (a
    non-finite learning rate or stop target, a negative seed) is a
    ``SchemaError``.
    """

    layer_dims: tuple[int, ...] = DEFAULT_LAYER_DIMS
    epochs: int = 2000
    learning_rate: float = 1e-3
    batch_size: int = 64
    dropout_p: float = 0.25
    seed: int = 0
    recalibrate_bn: bool = True
    # optional stopping aids; epochs remains the hard budget
    early_stop_val_rmse: float | None = None
    patience: int | None = None

    def __post_init__(self):
        dims = self.layer_dims
        if len(dims) < 2 or dims[0] != N_BANDS or dims[-1] != 1:
            raise SchemaError(f"layer_dims must run from {N_BANDS} "
                              f"bands to 1 output, got {list(dims)}")
        if min(dims) < 1:
            raise SchemaError(f"every layer width must be >= 1, got {list(dims)}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise SchemaError("dropout_p must be in [0, 1)")
        if self.patience is not None and self.patience < 0:
            raise SchemaError("patience must be >= 0")
        if self.epochs < 1:
            raise SchemaError("epochs must be >= 1")
        if not 0 <= self.learning_rate < math.inf:
            raise SchemaError("learning_rate must be finite and >= 0")
        if (self.early_stop_val_rmse is not None
                and not 0 <= self.early_stop_val_rmse < math.inf):
            raise SchemaError("early_stop_val_rmse must be finite and >= 0")
        if not self.seed >= 0:
            raise SchemaError("seed must be >= 0")
        if self.batch_size < 1:
            raise SchemaError("batch size must be >= 1")

    @classmethod
    def from_json(cls, doc: dict) -> "TrainConfig":
        return cls(**read_document(doc, "train config", _CONFIG_KINDS))


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


def _dropout_mask(
    rng: np.random.Generator, shape: tuple, keep: float
) -> np.ndarray:
    """Bernoulli(keep) mask; exact integer-threshold draw when keep is a
    multiple of 1/256 (it is for p = 0.25), cheaper than float uniforms."""
    thr = keep * 256.0
    if thr == round(thr):
        return rng.integers(0, 256, size=shape, dtype=np.uint8) < int(thr)
    return rng.random(shape, dtype=np.float32) < keep


def _forward_full(
    params: MLPParams,
    X: np.ndarray,
    mode: str,
    rng: np.random.Generator | None = None,
    update_running: bool = False,
    dropout_p: float = 0.0,
):
    """Batched forward pass returning (predictions, cache for backward).

    Train mode uses batch statistics for normalization (updating the running
    statistics only when ``update_running``) and inverted-scaling dropout at
    rate ``dropout_p``; eval mode uses the running statistics and no dropout.
    Compute dtype follows the parameter arrays.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "train" and dropout_p > 0 and rng is None:
        raise ValueError("train mode with dropout needs an rng")
    dtype = params.weights[0].dtype
    X = np.ascontiguousarray(np.asarray(X), dtype=dtype)
    n = X.shape[0]
    # comb fuses the ReLU derivative mask with the scaled dropout mask so
    # forward and backward share one multiplier
    cache = {"X": X, "Zhat": [], "inv": [], "A": [], "comb": [], "mode": mode}
    keep = dtype.type(1.0 - dropout_p)
    act = X
    for k in range(params.n_hidden):
        Z = act @ params.weights[k].T
        if not np.isfinite(Z).all():
            raise NumericError(f"non-finite activations at hidden layer {k}")
        if mode == "train":
            mu = Z.mean(axis=0)
            var = Z.var(axis=0)
            if update_running:
                # unbiased variance feeds the running estimate
                var_u = var * n / (n - 1) if n > 1 else var
                params.bn_mean[k] *= 1.0 - BN_MOMENTUM
                params.bn_mean[k] += BN_MOMENTUM * mu.astype(params.bn_mean[k].dtype)
                params.bn_var[k] *= 1.0 - BN_MOMENTUM
                params.bn_var[k] += BN_MOMENTUM * var_u.astype(params.bn_var[k].dtype)
        else:
            mu = params.bn_mean[k].astype(dtype)
            var = params.bn_var[k].astype(dtype)
        inv = 1.0 / np.sqrt(var + dtype.type(BN_EPS))
        Zhat = (Z - mu) * inv
        H = params.bn_gamma[k] * Zhat + params.bn_beta[k]
        if mode == "train" and dropout_p > 0.0:
            mask = _dropout_mask(rng, H.shape, float(keep))
            comb = ((H > 0) & mask).astype(dtype) / keep
        else:
            comb = (H > 0).astype(dtype)
        A = H * comb
        cache["Zhat"].append(Zhat)
        cache["inv"].append(inv)
        cache["A"].append(A)
        cache["comb"].append(comb)
        act = A
    out = act @ params.weights[-1].T + params.bias
    if not np.isfinite(out).all():
        raise NumericError(f"non-finite output at layer {len(params.weights) - 1}")
    return out[:, 0], cache


# rows of squares ``_centred_var`` sums at a time
_BN_CHUNK = 256


def _centred_var(Z: np.ndarray) -> np.ndarray:
    """``Z.var(axis=0)`` bit for bit, for a C-ordered ``(n, h)`` ``Z`` already
    centred on ``Z.mean(axis=0)`` (the mean ``var`` subtracts first).

    numpy sums the squares of such an array row after row when ``h > 1``, so
    summing ``_BN_CHUNK`` rows at a time, each chunk after the running sum,
    keeps that order with no ``(n, h)`` temporary. A single column numpy sums
    pairwise instead; its squares are one column and are summed whole.
    """
    n, h = Z.shape
    if h == 1:
        sq = np.square(Z).sum(axis=0)
    else:
        buf = np.empty((min(n, _BN_CHUNK) + 1, h), Z.dtype)
        sq = np.zeros(h, Z.dtype)
        for start in range(0, n, _BN_CHUNK):
            rows = Z[start : start + _BN_CHUNK]
            buf[0] = sq
            np.square(rows, out=buf[1 : len(rows) + 1])
            np.sum(buf[: len(rows) + 1], axis=0, out=sq)
    # numpy's own division: by the count as an intp, cast back unsafely
    return np.true_divide(sq, np.intp(n), out=sq, casting="unsafe")


def _forward_eval(
    params: MLPParams, X: np.ndarray, store_bn_stats: bool = False
) -> np.ndarray:
    """Eval-mode predictions of ``_forward_full`` without its backward cache.

    The same unfolded arithmetic in the same order, done in place on one
    activation buffer per layer, so the result is bit-identical to
    ``_forward_full(params, X, "eval")[0]``. With ``store_bn_stats`` each
    hidden layer first stores the mean and unbiased variance of its pre-BN
    activations over ``X`` as its running statistics, then normalizes with
    them, so layer k+1 measures what the eval forward feeds it; the variance
    is taken on the activations centred in place (``_centred_var``), so the
    pass holds two activation planes, as without ``store_bn_stats``.
    """
    dtype = params.weights[0].dtype
    act = np.ascontiguousarray(np.asarray(X), dtype=dtype)
    n = len(act)
    for k in range(params.n_hidden):
        Z = act @ params.weights[k].T
        if not np.isfinite(Z).all():
            raise NumericError(f"non-finite activations at hidden layer {k}")
        if store_bn_stats:
            params.bn_mean[k][...] = Z.mean(axis=0)
        Z -= params.bn_mean[k].astype(dtype)
        if store_bn_stats:
            params.bn_var[k][...] = _centred_var(Z) * n / max(n - 1, 1)
        var = params.bn_var[k].astype(dtype)
        Z *= 1.0 / np.sqrt(var + dtype.type(BN_EPS))
        Z *= params.bn_gamma[k]
        Z += params.bn_beta[k]
        act = np.maximum(Z, 0.0, out=Z)
    out = act @ params.weights[-1].T + params.bias
    if not np.isfinite(out).all():
        raise NumericError(f"non-finite output at layer {len(params.weights) - 1}")
    return out[:, 0]


def forward(params: MLPParams, x: np.ndarray) -> np.ndarray:
    """Eval-mode predictions ``(n,)`` for a batch ``(n, N_BANDS)``: a pure function
    of the inputs (running batch-norm statistics, no dropout)."""
    return _forward_eval(params, np.asarray(x, dtype=np.float64))


def loss_rmse(predictions: np.ndarray, targets: np.ndarray) -> float:
    """sqrt(mean((p - t)^2)) over the batch."""
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.size == 0:
        raise ValueError("empty batch")
    return float(np.sqrt(np.mean((predictions - targets) ** 2)))


def loss_rmse_grad(
    predictions: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Loss and its gradient (p - t) / (n * L); zero gradient at L = 0."""
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.size == 0:
        raise ValueError("empty batch")
    resid = predictions - targets
    loss = float(np.sqrt(np.mean(resid**2)))
    if loss == 0.0:
        return 0.0, np.zeros_like(resid)
    return loss, resid / (resid.size * loss)


def _backward(params: MLPParams, cache: dict, dpred: np.ndarray) -> np.ndarray:
    """Gradient of the scalar loss w.r.t. ``params.theta``, in its layout.

    Follows the cached forward pass; in train mode the batch-norm backward
    accounts for the dependence of the batch statistics on the inputs, in
    eval mode the statistics are constants.
    """
    mode = cache["mode"]
    dtype = params.theta.dtype
    grad = np.empty_like(params.theta)
    g_weights, g_bias, g_gamma, g_beta = _theta_views(grad, params.layer_dims)
    a_last = cache["A"][-1] if params.n_hidden else cache["X"]
    dout = dpred[:, None].astype(dtype)
    np.matmul(dout.T, a_last, out=g_weights[-1])
    np.sum(dout, axis=0, out=g_bias)
    dA = dout @ params.weights[-1]

    for k in range(params.n_hidden - 1, -1, -1):
        # comb already folds the ReLU derivative and the dropout scaling
        dH = dA * cache["comb"][k]
        Zhat = cache["Zhat"][k]
        np.sum(dH * Zhat, axis=0, out=g_gamma[k])
        np.sum(dH, axis=0, out=g_beta[k])
        dZhat = dH * params.bn_gamma[k]
        inv = cache["inv"][k]
        if mode == "train":
            dZ = (dZhat - dZhat.mean(axis=0) - Zhat * (dZhat * Zhat).mean(axis=0)) * inv
        else:
            dZ = dZhat * inv
        a_prev = cache["A"][k - 1] if k > 0 else cache["X"]
        np.matmul(dZ.T, a_prev, out=g_weights[k])
        dA = dZ @ params.weights[k]
    return grad


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


# elements per Adam chunk: the chunk's operands and scratch stay in cache
_ADAM_CHUNK = 1 << 16


class _Adam:
    """Adam, updating the parameter vector in place chunk by chunk.

    Each chunk runs the textbook step in its operation order,

        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta -= lr * (m / bc1) / (sqrt(v / bc2) + eps)

    with b1, b2 and eps the module's ``ADAM_*`` constants, so results are
    bit-identical to the unchunked expressions; the two scratch buffers are
    reused.
    """

    def __init__(self, theta: np.ndarray):
        self.m = np.zeros_like(theta)
        self.v = np.zeros_like(theta)
        self.t = 0
        size = min(theta.size, _ADAM_CHUNK)
        self._num = np.empty(size, theta.dtype)
        self._den = np.empty(size, theta.dtype)

    def step(self, theta: np.ndarray, grad: np.ndarray, lr: float):
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        for start in range(0, theta.size, _ADAM_CHUNK):
            cs = slice(start, start + _ADAM_CHUNK)
            ac, gc, mc, vc = theta[cs], grad[cs], self.m[cs], self.v[cs]
            num = self._num[:ac.size]
            den = self._den[:ac.size]
            mc *= ADAM_BETA1
            np.multiply(1.0 - ADAM_BETA1, gc, out=den)
            mc += den
            vc *= ADAM_BETA2
            np.multiply(1.0 - ADAM_BETA2, gc, out=den)
            den *= gc
            vc += den
            np.divide(mc, bc1, out=num)
            num *= lr
            np.divide(vc, bc2, out=den)
            np.sqrt(den, out=den)
            den += ADAM_EPS
            num /= den
            ac -= num


def recalibrate_bn(params: MLPParams, X: np.ndarray) -> None:
    """Replace the running batch-norm statistics with exact population
    statistics of ``X`` (dropout off), layer by layer.

    One eval forward over ``X`` stores each layer's pre-BN mean and unbiased
    variance before normalizing with them, so the statistics are measured on
    the activations the eval forward itself produces. The momentum-based
    running estimates chase dropout-noisy batch statistics; this single
    full-set pass after training removes that source of eval error. Mutates
    ``params`` in place.
    """
    _forward_eval(params, X, store_bn_stats=True)
    params.bn_stats_tracked = True


def train(
    samples: SampleTable,
    config: TrainConfig,
    val_samples: SampleTable,
) -> tuple[MLPParams, dict]:
    """Mini-batch Adam on the RMSE loss; deterministic for a fixed seed.

    ``samples`` (train) and ``val_samples`` are normalized tables. The loop
    computes in float32; the returned parameters are float64. The history
    records, per epoch in normalized target units, ``train_rmse``, the RMS
    of that epoch's own train-mode mini-batch residuals (dropout on, batch
    statistics, the parameters of each step), summed from the batch losses;
    and ``val_rmse``, the eval forward's RMSE on the val set, the only eval
    forward an epoch runs. ``val_rmse`` is the one monitor: the snapshot
    with the lowest one is returned instead of the final state (copied into
    one buffer), and both stopping aids read it. The first epoch always
    takes the snapshot: the eval forward refuses a non-finite output, so its
    val RMSE is finite. Adam's moments are dropped before ``recalibrate_bn``
    runs. Divergence (non-finite loss) aborts with the epoch index; an empty
    ``samples`` or ``val_samples`` raises ``ValueError`` naming the split.
    """
    if not samples:
        raise ValueError("empty train split")
    if not val_samples:
        raise ValueError("empty val split")
    X, y = samples.features.astype(np.float32), samples.target.astype(np.float32)
    Xv = val_samples.features.astype(np.float32)
    yv = val_samples.target.astype(np.float32)
    params = init_mlp(config.layer_dims, seed=config.seed).astype(np.float32)
    rng = np.random.default_rng(config.seed + 1)
    adam = _Adam(params.theta)
    history: dict = {"train_rmse": [], "val_rmse": [], "lr": [],
                     "epochs_run": 0, "stopped_early": False}
    n = len(samples)
    best_val = np.inf
    best_params: MLPParams | None = None
    stale = 0

    lr = config.learning_rate
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        sq_sum = 0.0   # the epoch's squared train residuals, batch by batch
        try:
            for start in range(0, n, config.batch_size):
                idx = order[start : start + config.batch_size]
                preds, cache = _forward_full(
                    params, X[idx], "train", rng, update_running=True,
                    dropout_p=config.dropout_p)
                loss, dpred = loss_rmse_grad(preds, y[idx])
                if not np.isfinite(loss):
                    raise NumericError("training diverged (loss NaN)")
                sq_sum += loss * loss * len(idx)
                adam.step(params.theta, _backward(params, cache, dpred), lr)
            params.bn_stats_tracked = True
            train_rmse = math.sqrt(sq_sum / n)
            # the monitor calls the private eval forward: ``forward`` would
            # round-trip every epoch's inputs through float64
            val_rmse = loss_rmse(_forward_eval(params, Xv), yv)
        except NumericError as exc:
            raise NumericError(f"epoch {epoch}: {exc}") from None

        history["train_rmse"].append(train_rmse)
        history["val_rmse"].append(val_rmse)
        history["lr"].append(lr)
        history["epochs_run"] = epoch + 1
        if val_rmse < best_val - 1e-12:
            best_val = val_rmse
            stale = 0
            if best_params is None:
                best_params = params.clone()
            else:
                best_params.theta[...] = params.theta
                best_params.bn_state[...] = params.bn_state
        else:
            stale += 1
        if (config.early_stop_val_rmse is not None
                and val_rmse <= config.early_stop_val_rmse):
            history["stopped_early"] = True
            break
        if config.patience is not None and stale > config.patience:
            history["stopped_early"] = True
            break

    del adam   # its moments are twice theta; recalibration needs none of it
    params = best_params
    if config.recalibrate_bn:
        recalibrate_bn(params, X)
    return params.astype(np.float64), history


# ---------------------------------------------------------------------------
# Gradient check and evaluation
# ---------------------------------------------------------------------------


@dataclass
class GradCheckReport:
    max_rel_error: float
    fraction_within_tol: float
    n_parameters: int
    tol: float
    passed: bool
    worst: tuple[str, int, int]   # (array kind, array index, flat position)


def gradient_check(
    params: MLPParams,
    X: np.ndarray,
    targets: np.ndarray,
    tol: float = 1e-5,
    h: float = 1e-4,
    mode: str = "eval",
) -> GradCheckReport:
    """Analytic gradients vs central finite differences, entry by entry of
    ``theta``, on float64, without dropout.

    Meant for shrunken architectures (about 1k parameters or fewer). Eval
    mode freezes the batch-norm statistics; train mode exercises the full
    batch-statistics backward. ``worst`` names the entry with the largest
    relative error by its kind, the index of its array among all of
    ``theta``'s arrays, and its flat position in that array.
    """
    X = np.asarray(X, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)

    def loss_at() -> float:
        return loss_rmse(_forward_full(params, X, mode)[0], targets)

    preds, cache = _forward_full(params, X, mode)
    _, dpred = loss_rmse_grad(preds, targets)
    grad = _backward(params, cache, dpred)
    theta = params.theta

    max_rel = 0.0
    within = 0
    worst_i = -1
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + h
        lp = loss_at()
        theta[i] = orig - h
        lm = loss_at()
        theta[i] = orig
        fd = (lp - lm) / (2.0 * h)
        denom = max(abs(fd), abs(grad[i]), 1e-10)
        rel = abs(fd - grad[i]) / denom
        if rel <= tol:
            within += 1
        if rel > max_rel:
            max_rel = rel
            worst_i = i
    worst = ("", -1, -1)
    # each array's view of theta's positions says where the worst entry lies
    w, b, gamma, beta = _theta_views(np.arange(theta.size), params.layer_dims)
    arrays = [(kind, a) for kind, views in zip(
        ("weights", "bias", "bn_gamma", "bn_beta"), (w, [b], gamma, beta)) for a in views]
    for a_idx, (kind, a) in enumerate(arrays):
        if a.flat[0] <= worst_i <= a.flat[-1]:
            worst = (kind, a_idx, worst_i - int(a.flat[0]))
    return GradCheckReport(
        max_rel_error=max_rel,
        fraction_within_tol=within / theta.size,
        n_parameters=theta.size,
        tol=tol,
        passed=max_rel <= tol,
        worst=worst,
    )


@dataclass
class EvalReport:
    rmse: float
    mae: float
    split: str
    n: int

    def __post_init__(self):
        if self.rmse < 0 or self.mae < 0:
            raise ValueError("metrics must be non-negative")
        # power-mean inequality; at equality both round by far less than 1e-12
        if self.rmse < self.mae * (1 - 1e-12):
            raise ValueError(f"rmse {self.rmse} < mae {self.mae}")


def evaluate(
    params: MLPParams,
    samples: SampleTable,
    stats: NormStats,
    split: str = "test",
) -> EvalReport:
    """Eval-mode metrics in physical units.

    ``samples`` is a table of normalized features and targets (the training
    representation); predictions and targets are denormalized through
    ``stats`` before computing RMSE and MAE. An empty ``samples`` raises
    ``ValueError`` naming ``split``.
    """
    if not samples:
        raise ValueError(f"empty {split} split")
    preds = stats.denormalize_target(forward(params, samples.features))
    truth = stats.denormalize_target(samples.target)
    resid = preds - truth
    return EvalReport(
        rmse=float(np.sqrt(np.mean(resid**2))),
        mae=float(np.mean(np.abs(resid))),
        split=split,
        n=len(samples),
    )


# ---------------------------------------------------------------------------
# MDL1 model file: "MDL1" magic, u32 manifest length, JSON manifest, then the
# little-endian float64 ``theta`` and ``bn_state``, each as it lies in memory
# (the framing is ``_container``'s). ``param_order`` must name just those two:
# the former per-layer order is refused by name. A file written while hidden
# layers had biases holds a longer ``theta`` and fails the size check; a net
# with no hidden layer, such as (7, 1), has the same layout either way.
# ---------------------------------------------------------------------------

_MDL1_MAGIC = b"MDL1"
_MDL1_ORDER = ("theta", "bn_state")
# The JSON kind of each MDL1 manifest key ``load_mdl1`` reads.
_MDL1_KINDS = {"layer_dims": "a list of integers", "parameter": "a string",
               "normalization": None, "bn_stats_tracked": "a boolean",
               "param_order": "a list of strings"}


def _mdl1_layout(manifest: dict) -> tuple[list[tuple[int, ...]], str]:
    """Two f64 vectors: ``theta``, then ``bn_state``."""
    if manifest["param_order"] != _MDL1_ORDER:
        raise ValueError(f"param_order is not {_MDL1_ORDER}: another MDL1 layout")
    return [(size,) for size in _vector_sizes(manifest["layer_dims"])], "<f8"


def save_mdl1(
    path: str | Path,
    params: MLPParams,
    stats: NormStats,
    parameter: str,
    training: dict | None = None,
) -> Path:
    """Write ``params`` as an MDL1 file for ``parameter``, one of
    ``sensor.PARAMETERS``; any other name raises ``SchemaError`` before the
    file is opened, as ``load_mdl1`` would refuse the file."""
    check_parameter(parameter)
    path = Path(path)
    manifest = {
        "format": "MDL1",
        "layer_dims": list(params.layer_dims),
        "activation": "relu",
        "batchnorm": True,
        "bn_eps": BN_EPS,
        "dtype": "f64",
        "parameter": parameter,
        "normalization": stats.to_json(),
        "bn_stats_tracked": params.bn_stats_tracked,
        "param_order": _MDL1_ORDER,
        "training": training or {},
    }
    vectors = (params.theta, params.bn_state)
    with open(path, "wb") as fh:
        _container.write(fh, _MDL1_MAGIC, manifest, vectors, "<f8")
    return path


def load_mdl1(path: str | Path) -> tuple[MLPParams, NormStats, dict]:
    """Read an MDL1 file; the model's vectors are views of the one payload
    buffer. A malformed file, one for an unknown parameter or one whose values
    ``MLPParams`` rejects (non-finite, running variance <= 0) raises FormatError."""
    manifest, (theta, bn_state) = _container.load(path, _MDL1_MAGIC, _MDL1_KINDS,
                                                  _mdl1_layout)
    with _container.parsing(path):
        check_parameter(manifest["parameter"])
        stats = NormStats.from_json(manifest["normalization"])
        params = MLPParams(manifest["layer_dims"], theta, bn_state,
                           manifest["bn_stats_tracked"])
    return params, stats, manifest
