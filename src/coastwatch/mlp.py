"""Fully-connected regression network, trained with Adam on an RMSE loss.

Maps the 7 window-averaged band reflectances to one contaminant value.
Default architecture: hidden layers [512, 512, 512, 512, 43], each
Linear -> BatchNorm -> ReLU -> Dropout(0.25), then a final Linear to one
output. Forward, backward and the optimizer are implemented directly on
numpy arrays so the weight transfer into the convolutional form (and its
verification) has full access to every parameter, and so gradients can be
checked against finite differences.

Training is single-threaded and bit-deterministic for a fixed seed. One
model per contaminant; the two models share hyperparameters and differ only
in their weights.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import _container
from .dataset import NormStats, Sample, as_arrays
from .errors import NumericError, SchemaError

DEFAULT_LAYER_DIMS = (7, 512, 512, 512, 512, 43, 1)
BN_EPS = 1e-5
BN_MOMENTUM = 0.1


@dataclass
class MLPParams:
    """All parameters and batch-norm state of the regressor.

    ``layer_dims`` chains input, hidden and output sizes; there is one
    weight/bias pair per adjacent pair of dims and one batch-norm parameter
    set per hidden layer. ``bn_stats_tracked`` records whether the running
    statistics have ever been updated by training (or load); the transfer
    into convolutional form refuses to run on untracked stats.
    """

    layer_dims: tuple[int, ...]
    weights: list[np.ndarray]       # (out, in) per layer
    biases: list[np.ndarray]        # (out,) per layer
    bn_gamma: list[np.ndarray]      # per hidden layer
    bn_beta: list[np.ndarray]
    bn_mean: list[np.ndarray]       # running statistics (eval mode)
    bn_var: list[np.ndarray]
    dropout_p: float = 0.25
    bn_stats_tracked: bool = False

    def __post_init__(self):
        dims = self.layer_dims
        if len(dims) < 2:
            raise ValueError("need at least input and output dims")
        if len(self.weights) != len(dims) - 1:
            raise ValueError("one weight matrix per layer transition required")
        for k, w in enumerate(self.weights):
            if w.shape != (dims[k + 1], dims[k]):
                raise ValueError(
                    f"layer {k}: weight shape {w.shape}, expected "
                    f"{(dims[k + 1], dims[k])}"
                )
            if self.biases[k].shape != (dims[k + 1],):
                raise ValueError(f"layer {k}: bias shape mismatch")
        if len(self.bn_gamma) != self.n_hidden:
            raise ValueError("one batch-norm set per hidden layer required")
        for arrs in (self.weights, self.biases, self.bn_gamma, self.bn_beta,
                     self.bn_mean, self.bn_var):
            for a in arrs:
                if not np.isfinite(a).all():
                    raise ValueError("parameters must be finite")
        for v in self.bn_var:
            if not (v > 0).all():
                raise ValueError("running variance must be positive")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError("dropout_p must be in [0, 1)")

    @property
    def n_hidden(self) -> int:
        return len(self.layer_dims) - 2

    def trainable_arrays(self) -> list[np.ndarray]:
        """Arrays updated by the optimizer, in a fixed documented order."""
        return [*self.weights, *self.biases, *self.bn_gamma, *self.bn_beta]

    def clone(self) -> "MLPParams":
        return copy.deepcopy(self)


def init_mlp(
    layer_dims: tuple[int, ...] = DEFAULT_LAYER_DIMS,
    seed: int = 0,
    dropout_p: float = 0.25,
) -> MLPParams:
    """He-uniform fan-in initialization for the ReLU stack; zero biases,
    identity batch-norm with unit running variance."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        bound = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    hidden = layer_dims[1:-1]
    return MLPParams(
        layer_dims=tuple(layer_dims),
        weights=weights,
        biases=biases,
        bn_gamma=[np.ones(h) for h in hidden],
        bn_beta=[np.zeros(h) for h in hidden],
        bn_mean=[np.zeros(h) for h in hidden],
        bn_var=[np.ones(h) for h in hidden],
        dropout_p=dropout_p,
    )


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters; architecture, optimizer, loss, dropout and the epoch
    budget follow the fixed recipe, the rest are free knobs.

    ``lr_schedule`` is "constant" or "cosine" (annealed to ``lr_min`` over the
    epoch budget). ``dtype`` selects the compute precision of the training
    loop; parameters are always returned as float64. ``recalibrate_bn``
    replaces the running batch-norm statistics with exact population
    statistics of the train set (dropout off) once training ends, which
    removes the eval-time noise of the momentum estimates.
    """

    layer_dims: tuple[int, ...] = DEFAULT_LAYER_DIMS
    epochs: int = 2000
    learning_rate: float = 1e-3
    batch_size: int = 64
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    dropout_p: float = 0.25
    seed: int = 0
    lr_schedule: str = "constant"
    lr_min: float = 1e-5
    dtype: str = "f32"
    recalibrate_bn: bool = True
    # optional stopping aids; epochs remains the hard budget
    early_stop_val_rmse: float | None = None
    patience: int | None = None
    keep_best: bool = True

    def __post_init__(self):
        if self.epochs < 1:
            raise SchemaError("epochs must be >= 1")
        if self.learning_rate < 0:
            raise SchemaError("learning rate must be >= 0")
        if self.batch_size < 1:
            raise SchemaError("batch size must be >= 1")
        if self.lr_schedule not in ("constant", "cosine"):
            raise SchemaError(f"unknown lr schedule {self.lr_schedule!r}")
        if self.dtype not in ("f32", "f64"):
            raise SchemaError(f"unknown dtype {self.dtype!r}")

    def lr_at(self, epoch: int) -> float:
        if self.lr_schedule == "constant":
            return self.learning_rate
        span = max(self.epochs - 1, 1)
        cos = 0.5 * (1.0 + np.cos(np.pi * min(epoch, span) / span))
        return self.lr_min + (self.learning_rate - self.lr_min) * cos

    @classmethod
    def from_json(cls, doc: dict) -> "TrainConfig":
        unknown = sorted(set(doc) - {f.name for f in fields(cls)})
        if unknown:
            raise SchemaError(f"unknown train config keys: {', '.join(unknown)}")
        kwargs = dict(doc)
        if "layer_dims" in kwargs:
            kwargs["layer_dims"] = tuple(int(d) for d in kwargs["layer_dims"])
        return cls(**kwargs)


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
):
    """Batched forward pass returning (predictions, cache for backward).

    Train mode uses batch statistics for normalization (updating the running
    statistics only when ``update_running``) and applies inverted-scaling
    dropout; eval mode uses the running statistics and no dropout. Compute
    dtype follows the parameter arrays.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "train" and params.dropout_p > 0 and rng is None:
        raise ValueError("train mode with dropout needs an rng")
    dtype = params.weights[0].dtype
    X = np.ascontiguousarray(np.asarray(X), dtype=dtype)
    n = X.shape[0]
    # comb fuses the ReLU derivative mask with the scaled dropout mask so
    # forward and backward share one multiplier
    cache = {"X": X, "Zhat": [], "inv": [], "A": [], "comb": [], "mode": mode}
    keep = dtype.type(1.0 - params.dropout_p)
    act = X
    for k in range(params.n_hidden):
        Z = act @ params.weights[k].T + params.biases[k]
        if not np.isfinite(Z).all():
            raise NumericError(f"non-finite activations at hidden layer {k}")
        if mode == "train":
            mu = Z.mean(axis=0)
            var = Z.var(axis=0)
            if update_running:
                # unbiased variance feeds the running estimate
                var_u = var * n / (n - 1) if n > 1 else var
                params.bn_mean[k] *= 1.0 - BN_MOMENTUM
                params.bn_mean[k] += BN_MOMENTUM * mu.astype(
                    params.bn_mean[k].dtype
                )
                params.bn_var[k] *= 1.0 - BN_MOMENTUM
                params.bn_var[k] += BN_MOMENTUM * var_u.astype(
                    params.bn_var[k].dtype
                )
        else:
            mu = params.bn_mean[k].astype(dtype)
            var = params.bn_var[k].astype(dtype)
        inv = 1.0 / np.sqrt(var + dtype.type(BN_EPS))
        Zhat = (Z - mu) * inv
        H = params.bn_gamma[k] * Zhat + params.bn_beta[k]
        if mode == "train" and params.dropout_p > 0.0:
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
    out = act @ params.weights[-1].T + params.biases[-1]
    if not np.isfinite(out).all():
        raise NumericError(f"non-finite output at layer {len(params.weights) - 1}")
    return out[:, 0], cache


def _forward_eval_folded(params: MLPParams, X: np.ndarray) -> np.ndarray:
    """Eval-mode forward with the batch-norm affine folded per layer, in
    place on one activation buffer per layer."""
    dtype = params.weights[0].dtype
    act = np.ascontiguousarray(np.asarray(X), dtype=dtype)
    for k in range(params.n_hidden):
        inv = 1.0 / np.sqrt(params.bn_var[k] + BN_EPS)
        scale = (params.bn_gamma[k] * inv).astype(dtype)
        shift = (params.bn_beta[k] - params.bn_mean[k] * params.bn_gamma[k] * inv
                 ).astype(dtype)
        Z = act @ params.weights[k].T
        Z += params.biases[k]
        Z *= scale
        Z += shift
        act = np.maximum(Z, 0.0, out=Z)
    return (act @ params.weights[-1].T + params.biases[-1])[:, 0]


def _forward_eval(params: MLPParams, X: np.ndarray) -> np.ndarray:
    """Eval-mode predictions of ``_forward_full`` without its backward cache.

    The same unfolded arithmetic in the same order, done in place on one
    activation buffer per layer, so the result is bit-identical to
    ``_forward_full(params, X, "eval")[0]``.
    """
    dtype = params.weights[0].dtype
    act = np.ascontiguousarray(np.asarray(X), dtype=dtype)
    for k in range(params.n_hidden):
        Z = act @ params.weights[k].T
        Z += params.biases[k]
        if not np.isfinite(Z).all():
            raise NumericError(f"non-finite activations at hidden layer {k}")
        var = params.bn_var[k].astype(dtype)
        Z -= params.bn_mean[k].astype(dtype)
        Z *= 1.0 / np.sqrt(var + dtype.type(BN_EPS))
        Z *= params.bn_gamma[k]
        Z += params.bn_beta[k]
        act = np.maximum(Z, 0.0, out=Z)
    out = act @ params.weights[-1].T + params.biases[-1]
    if not np.isfinite(out).all():
        raise NumericError(f"non-finite output at layer {len(params.weights) - 1}")
    return out[:, 0]


def forward(
    params: MLPParams,
    x: np.ndarray,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
):
    """Predictions for a batch ``(n, d)`` or a single ``(d,)`` input.

    Eval mode is a pure function of the inputs (running batch-norm
    statistics, no dropout); train mode normalizes with batch statistics.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    x = x[None] if single else x
    if mode == "eval":
        preds = _forward_eval(params, x)
    else:
        preds, _ = _forward_full(params, x, mode, rng)
    return float(preds[0]) if single else preds


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


def _backward(params: MLPParams, cache: dict, dpred: np.ndarray) -> dict:
    """Gradients of the scalar loss w.r.t. every trainable array.

    Follows the cached forward pass; in train mode the batch-norm backward
    accounts for the dependence of the batch statistics on the inputs, in
    eval mode the statistics are constants.
    """
    mode = cache["mode"]
    dtype = params.weights[0].dtype
    grads = {
        "weights": [None] * len(params.weights),
        "biases": [None] * len(params.weights),
        "bn_gamma": [None] * params.n_hidden,
        "bn_beta": [None] * params.n_hidden,
    }
    last = len(params.weights) - 1
    a_last = cache["A"][-1] if params.n_hidden else cache["X"]
    dout = dpred[:, None].astype(dtype)
    grads["weights"][last] = dout.T @ a_last
    grads["biases"][last] = dout.sum(axis=0)
    dA = dout @ params.weights[last]

    for k in range(params.n_hidden - 1, -1, -1):
        # comb already folds the ReLU derivative and the dropout scaling
        dH = dA * cache["comb"][k]
        Zhat = cache["Zhat"][k]
        grads["bn_gamma"][k] = (dH * Zhat).sum(axis=0)
        grads["bn_beta"][k] = dH.sum(axis=0)
        dZhat = dH * params.bn_gamma[k]
        inv = cache["inv"][k]
        if mode == "train":
            dZ = (
                dZhat
                - dZhat.mean(axis=0)
                - Zhat * (dZhat * Zhat).mean(axis=0)
            ) * inv
        else:
            dZ = dZhat * inv
        a_prev = cache["A"][k - 1] if k > 0 else cache["X"]
        grads["weights"][k] = dZ.T @ a_prev
        grads["biases"][k] = dZ.sum(axis=0)
        dA = dZ @ params.weights[k]
    return grads


def _grad_arrays(grads: dict) -> list[np.ndarray]:
    return [*grads["weights"], *grads["biases"],
            *grads["bn_gamma"], *grads["bn_beta"]]


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


# elements per Adam chunk: the chunk's operands and scratch stay in cache
_ADAM_CHUNK = 1 << 16


class _Adam:
    """Adam, updating the arrays in place chunk by chunk.

    Each chunk runs the textbook step in its operation order,

        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        a -= lr * (m / bc1) / (sqrt(v / bc2) + eps)

    with the same dtype promotion (a numpy float64 ``lr`` from the cosine
    schedule makes the step itself float64), so results are bit-identical
    to the unchunked expressions; the two scratch buffers are reused.
    """

    def __init__(self, arrays: list[np.ndarray], cfg: TrainConfig):
        self.cfg = cfg
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]
        self.t = 0
        # chunk along the first axis, so slices are views whatever the layout
        row_sizes = [a[0].size if a.ndim > 1 else 1 for a in arrays]
        self._rows = [max(1, _ADAM_CHUNK // n) for n in row_sizes]
        size = max(min(len(a), r) * n
                   for a, r, n in zip(arrays, self._rows, row_sizes))
        self._num = np.empty(size, arrays[0].dtype)
        self._den = np.empty(size, arrays[0].dtype)

    def step(self, arrays: list[np.ndarray], grads: list[np.ndarray], lr: float):
        c = self.cfg
        self.t += 1
        bc1 = 1.0 - c.adam_beta1**self.t
        bc2 = 1.0 - c.adam_beta2**self.t
        num_dtype = np.result_type(lr, self._num.dtype)
        num_buf = (self._num if num_dtype == self._num.dtype
                   else np.empty(self._num.size, num_dtype))
        for a, g, m, v, rows in zip(arrays, grads, self.m, self.v, self._rows):
            for r0 in range(0, len(a), rows):
                rs = slice(r0, r0 + rows)
                ac, gc, mc, vc = a[rs], g[rs], m[rs], v[rs]
                num = num_buf[:ac.size].reshape(ac.shape)
                den = self._den[:ac.size].reshape(ac.shape)
                mc *= c.adam_beta1
                np.multiply(1.0 - c.adam_beta1, gc, out=den)
                mc += den
                vc *= c.adam_beta2
                np.multiply(1.0 - c.adam_beta2, gc, out=den)
                den *= gc
                vc += den
                np.divide(mc, bc1, out=num)
                num *= lr
                np.divide(vc, bc2, out=den)
                np.sqrt(den, out=den)
                den += c.adam_eps
                num /= den
                ac -= num


def recalibrate_bn(params: MLPParams, X: np.ndarray) -> None:
    """Replace the running batch-norm statistics with exact population
    statistics of ``X`` (dropout off), layer by layer.

    The momentum-based running estimates chase dropout-noisy batch
    statistics; a single full-set pass after training removes that source of
    eval error. Mutates ``params`` in place.
    """
    dtype = params.weights[0].dtype
    act = np.ascontiguousarray(np.asarray(X), dtype=dtype)
    n = len(act)
    for k in range(params.n_hidden):
        Z = act @ params.weights[k].T + params.biases[k]
        mu = Z.mean(axis=0)
        var = Z.var(axis=0)
        params.bn_mean[k][...] = mu
        params.bn_var[k][...] = var * n / max(n - 1, 1)
        inv = 1.0 / np.sqrt(var + dtype.type(BN_EPS))
        act = np.maximum(
            params.bn_gamma[k] * (Z - mu) * inv + params.bn_beta[k], 0.0
        )
    params.bn_stats_tracked = True


def _cast_params(params: MLPParams, dtype) -> MLPParams:
    return MLPParams(
        layer_dims=params.layer_dims,
        weights=[w.astype(dtype) for w in params.weights],
        biases=[b.astype(dtype) for b in params.biases],
        bn_gamma=[g.astype(dtype) for g in params.bn_gamma],
        bn_beta=[b.astype(dtype) for b in params.bn_beta],
        bn_mean=[m.astype(dtype) for m in params.bn_mean],
        bn_var=[v.astype(dtype) for v in params.bn_var],
        dropout_p=params.dropout_p,
        bn_stats_tracked=params.bn_stats_tracked,
    )


def train(
    samples: list[Sample],
    config: TrainConfig,
    val_samples: list[Sample] | None = None,
) -> tuple[MLPParams, dict]:
    """Mini-batch Adam on the RMSE loss; deterministic for a fixed seed.

    ``samples`` must be normalized. The history records eval-mode train (and
    val, when provided) RMSE per epoch in normalized target units. When
    ``keep_best`` and a validation set are given, the parameter snapshot
    with the lowest validation RMSE is returned instead of the final state.
    Divergence (non-finite loss) aborts with the epoch index.
    """
    if not samples:
        raise ValueError("empty train split")
    dtype = np.float32 if config.dtype == "f32" else np.float64
    X, y = as_arrays(samples)
    X = X.astype(dtype)
    y = y.astype(dtype)
    if val_samples:
        Xv, yv = as_arrays(val_samples)
        Xv = Xv.astype(dtype)
        yv = yv.astype(dtype)
    else:
        Xv = yv = None
    params = _cast_params(
        init_mlp(config.layer_dims, seed=config.seed, dropout_p=config.dropout_p),
        dtype,
    )
    rng = np.random.default_rng(config.seed + 1)
    adam = _Adam(params.trainable_arrays(), config)
    history: dict = {"train_rmse": [], "val_rmse": [], "lr": [],
                     "epochs_run": 0, "stopped_early": False}
    n = len(samples)
    best_val = np.inf
    best_params: MLPParams | None = None
    stale = 0

    for epoch in range(config.epochs):
        lr = config.lr_at(epoch)
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            try:
                preds, cache = _forward_full(
                    params, X[idx], "train", rng, update_running=True
                )
            except NumericError as exc:
                raise NumericError(f"epoch {epoch}: {exc}") from None
            loss, dpred = loss_rmse_grad(preds, y[idx])
            if not np.isfinite(loss):
                raise NumericError(f"training diverged at epoch {epoch} (loss NaN)")
            grads = _backward(params, cache, dpred)
            adam.step(params.trainable_arrays(), _grad_arrays(grads), lr)
        params.bn_stats_tracked = True

        train_rmse = loss_rmse(_forward_eval_folded(params, X), y)
        history["train_rmse"].append(train_rmse)
        history["lr"].append(lr)
        history["epochs_run"] = epoch + 1
        if not np.isfinite(train_rmse):
            raise NumericError(f"training diverged at epoch {epoch} (loss NaN)")
        monitored = train_rmse
        if Xv is not None:
            val_rmse = loss_rmse(_forward_eval_folded(params, Xv), yv)
            history["val_rmse"].append(val_rmse)
            monitored = val_rmse
            if val_rmse < best_val - 1e-12:
                best_val = val_rmse
                stale = 0
                if config.keep_best:
                    best_params = params.clone()
            else:
                stale += 1
        if (config.early_stop_val_rmse is not None
                and monitored <= config.early_stop_val_rmse):
            history["stopped_early"] = True
            break
        if config.patience is not None and stale > config.patience:
            history["stopped_early"] = True
            break

    if best_params is not None and config.keep_best and Xv is not None:
        params = best_params
    if config.recalibrate_bn:
        recalibrate_bn(params, X)
    return _cast_params(params, np.float64), history


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
    """Analytic gradients vs central finite differences, parameter by
    parameter, on float64.

    Meant for shrunken architectures (about 1k parameters or fewer); dropout
    must be inactive or the comparison is meaningless, so a nonzero
    dropout_p combined with train mode is rejected. Eval mode freezes the
    batch-norm statistics; train mode exercises the full batch-statistics
    backward.
    """
    if mode == "train" and params.dropout_p > 0.0:
        raise ValueError(
            "gradient check requires dropout to be disabled in train mode"
        )
    X = np.asarray(X, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)

    def loss_at() -> float:
        preds, _ = _forward_full(params, X, mode, rng=None)
        return loss_rmse(preds, targets)

    preds, cache = _forward_full(params, X, mode, rng=None)
    _, dpred = loss_rmse_grad(preds, targets)
    grads = _grad_arrays(_backward(params, cache, dpred))
    arrays = params.trainable_arrays()
    kinds = (
        ["weights"] * len(params.weights) + ["biases"] * len(params.biases)
        + ["bn_gamma"] * params.n_hidden + ["bn_beta"] * params.n_hidden
    )

    max_rel = 0.0
    within = 0
    total = 0
    worst = ("", -1, -1)
    for a_idx, (arr, g) in enumerate(zip(arrays, grads)):
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_at()
            flat[i] = orig - h
            lm = loss_at()
            flat[i] = orig
            fd = (lp - lm) / (2.0 * h)
            denom = max(abs(fd), abs(gflat[i]), 1e-10)
            rel = abs(fd - gflat[i]) / denom
            total += 1
            if rel <= tol:
                within += 1
            if rel > max_rel:
                max_rel = rel
                worst = (kinds[a_idx], a_idx, i)
    return GradCheckReport(
        max_rel_error=max_rel,
        fraction_within_tol=within / total,
        n_parameters=total,
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
        # power-mean inequality, allow float rounding at equality
        if self.rmse < self.mae - 1e-12:
            raise ValueError(f"rmse {self.rmse} < mae {self.mae}")


def evaluate(
    params: MLPParams,
    samples: list[Sample],
    stats: NormStats,
    split: str = "test",
) -> EvalReport:
    """Eval-mode metrics in physical units.

    ``samples`` carry normalized features and targets (the training
    representation); predictions and targets are denormalized through
    ``stats`` before computing RMSE and MAE.
    """
    X, y = as_arrays(samples)
    preds = stats.denormalize_target(forward(params, X, "eval"))
    truth = stats.denormalize_target(y)
    resid = preds - truth
    return EvalReport(
        rmse=float(np.sqrt(np.mean(resid**2))),
        mae=float(np.mean(np.abs(resid))),
        split=split,
        n=len(samples),
    )


# ---------------------------------------------------------------------------
# MDL1 model file: "MDL1" magic, u32 manifest length, JSON manifest, then a
# little-endian float64 parameter blob in the manifest-declared order (the
# framing is ``_container``'s).
# ---------------------------------------------------------------------------

_MDL1_MAGIC = b"MDL1"


def _param_order(params: MLPParams) -> list[tuple[str, int]]:
    order = []
    for k in range(len(params.weights)):
        order.append(("weight", k))
        order.append(("bias", k))
    for k in range(params.n_hidden):
        order += [("bn_gamma", k), ("bn_beta", k), ("bn_mean", k), ("bn_var", k)]
    return order


def _param_array(params: MLPParams, kind: str, k: int) -> np.ndarray:
    return {
        "weight": params.weights, "bias": params.biases,
        "bn_gamma": params.bn_gamma, "bn_beta": params.bn_beta,
        "bn_mean": params.bn_mean, "bn_var": params.bn_var,
    }[kind][k]


def save_mdl1(
    path: str | Path,
    params: MLPParams,
    stats: NormStats,
    parameter: str,
    training: dict | None = None,
) -> Path:
    path = Path(path)
    manifest = {
        "format": "MDL1",
        "layer_dims": list(params.layer_dims),
        "dropout_p": params.dropout_p,
        "activation": "relu",
        "batchnorm": True,
        "bn_eps": BN_EPS,
        "dtype": "f64",
        "parameter": parameter,
        "normalization": stats.to_json(),
        "bn_stats_tracked": params.bn_stats_tracked,
        "param_order": [f"{kind}[{k}]" for kind, k in _param_order(params)],
        "training": training or {},
    }
    arrays = (_param_array(params, kind, k) for kind, k in _param_order(params))
    path.write_bytes(_container.pack(_MDL1_MAGIC, manifest, arrays, "<f8"))
    return path


def load_mdl1(path: str | Path) -> tuple[MLPParams, NormStats, dict]:
    path = Path(path)
    manifest, payload = _container.read(path.read_bytes(), _MDL1_MAGIC, path)
    dims = tuple(manifest["layer_dims"])
    params = init_mlp(dims, seed=0, dropout_p=float(manifest["dropout_p"]))
    arrays = [_param_array(params, kind, k) for kind, k in _param_order(params)]
    stored = _container.split(payload, [a.shape for a in arrays], "<f8", path)
    for arr, values in zip(arrays, stored):
        arr[...] = values
    params.bn_stats_tracked = bool(manifest.get("bn_stats_tracked", False))
    stats = NormStats.from_json(manifest["normalization"])
    return params, stats, manifest
