import dataclasses
import datetime as dt
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from coastwatch import mlp
from coastwatch.dataset import NormStats, Sample, as_table
from coastwatch.errors import FormatError, NumericError, SchemaError
from coastwatch.mlp import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    BN_EPS,
    EvalReport,
    MLPParams,
    TrainConfig,
    _ADAM_CHUNK,
    _BN_CHUNK,
    _CONFIG_KINDS,
    _Adam,
    _backward,
    _forward_eval,
    _forward_full,
    _vector_sizes,
    evaluate,
    forward,
    gradient_check,
    init_mlp,
    load_mdl1,
    loss_rmse,
    loss_rmse_grad,
    recalibrate_bn,
    save_mdl1,
    train,
)

DIMS = (7, 32, 16, 1)


def tracked_params(dims=DIMS, seed=0, dtype=np.float64):
    """Initialized parameters with a random output bias and random
    batch-norm affine and statistics."""
    params = init_mlp(dims, seed=seed)
    rng = np.random.default_rng(seed + 100)
    params.bias[...] = rng.normal(0.0, 0.5, dims[-1])
    for k in range(params.n_hidden):
        h = dims[k + 1]
        params.bn_gamma[k][...] = rng.uniform(0.5, 1.5, h)
        params.bn_beta[k][...] = rng.normal(0.0, 0.3, h)
        params.bn_mean[k][...] = rng.normal(0.0, 1.0, h)
        params.bn_var[k][...] = rng.uniform(0.2, 3.0, h)
    params.bn_stats_tracked = True
    return params.astype(dtype)


def _sample(x, t):
    return Sample(features=x, target=float(t), parameter="turbidity_NTU",
                  patch_id="p", window=(0, 0), station_id="s",
                  date=dt.date(2024, 6, 15))


class TestEvalForward:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bit_identical_to_cached_forward(self, dtype):
        params = tracked_params(dtype=dtype)
        X = np.random.default_rng(1).normal(0.0, 1.0, (625, 7))
        fast = forward(params, X)
        full, _ = _forward_full(params, X, "eval")
        assert fast.dtype == full.dtype
        assert np.array_equal(fast, full)

    def test_trained_model_bit_identical(self):
        rng = np.random.default_rng(2)
        X = rng.normal(0.0, 1.0, (300, 7))
        y = X @ rng.normal(0.0, 1.0, 7)
        samples = as_table([_sample(x, t) for x, t in zip(X, y)])
        params, _ = train(samples[:240], TrainConfig(layer_dims=DIMS, epochs=2),
                          samples[240:])
        assert np.array_equal(forward(params, X),
                              _forward_full(params, X, "eval")[0])

    def test_does_not_mutate_input_or_params(self):
        params = tracked_params()
        before = params.clone()
        X = np.random.default_rng(4).normal(0.0, 1.0, (10, 7))
        X_copy = X.copy()
        forward(params, X)
        assert np.array_equal(X, X_copy)
        assert np.array_equal(params.theta, before.theta)
        assert np.array_equal(params.bn_state, before.bn_state)

    def test_non_finite_input_raises_at_first_layer(self):
        params = tracked_params()
        X = np.zeros((4, 7))
        X[2, 3] = np.nan
        with pytest.raises(NumericError, match="hidden layer 0"):
            forward(params, X)
        with pytest.raises(NumericError, match="hidden layer 0"):
            _forward_full(params, X, "eval")

    def test_non_finite_output_raises(self):
        params = init_mlp((7, 1))
        params.bn_stats_tracked = True
        with pytest.raises(NumericError, match="output at layer 0"), \
                np.errstate(invalid="ignore"):
            forward(params, np.full((2, 7), np.inf))


def linear_split(seed, sizes=(256, 128)):
    """(X, y, table) per size from one noisy linear relation; X and y hold
    float32 values, so training's float32 cast keeps them exactly."""
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 1.0, 7)
    out = []
    for n in sizes:
        X = rng.normal(0.0, 1.0, (n, 7)).astype(np.float32).astype(np.float64)
        y = (X @ w + rng.normal(0.0, 0.1, n)).astype(np.float32).astype(np.float64)
        out.append((X, y, as_table([_sample(x, t) for x, t in zip(X, y)])))
    return out


def patience_stop(val_rmse, patience):
    """Epochs train runs under ``patience``, from an unrestricted history."""
    best, stale = np.inf, 0
    for epoch, v in enumerate(val_rmse):
        best, stale = (v, 0) if v < best - 1e-12 else (best, stale + 1)
        if stale > patience:
            return epoch + 1
    return len(val_rmse)


def recorded_batch_losses(monkeypatch):
    """Wrap ``train``'s ``loss_rmse_grad``; the returned list collects one
    (loss, batch size) pair per call."""
    calls = []

    def recording(predictions, targets):
        loss, grad = loss_rmse_grad(predictions, targets)
        calls.append((loss, len(predictions)))
        return loss, grad

    monkeypatch.setattr(mlp, "loss_rmse_grad", recording)
    return calls


def epoch_rms(calls, n):
    """RMS over an epoch's ``n`` residuals from its (loss, batch size)
    pairs: each batch's loss is the RMS of its residuals."""
    sq_sum = 0.0
    for loss, size in calls:
        sq_sum += loss * loss * size
    return math.sqrt(sq_sum / n)


class TestTrainLoop:
    CFG = TrainConfig(layer_dims=DIMS, epochs=8, seed=2, learning_rate=0.03)

    def test_monitor_scores_with_the_eval_forward(self, monkeypatch):
        (X, y, train_s), (Xv, yv, val_s) = linear_split(11)
        calls = recorded_batch_losses(monkeypatch)
        cfg = dataclasses.replace(self.CFG, recalibrate_bn=False)
        params, history = train(train_s, cfg, val_s)
        best = int(np.argmin(history["val_rmse"]))
        assert 0 < best < cfg.epochs - 1  # keep-best returns a middle epoch
        params32 = params.astype(np.float32)
        assert history["val_rmse"][best] == loss_rmse(forward(params32, Xv), yv)
        # the train score is the epoch's own mini-batch residuals, not a forward
        per_epoch = len(calls) // cfg.epochs
        assert history["train_rmse"][best] == epoch_rms(
            calls[best * per_epoch : (best + 1) * per_epoch], len(X))

    def test_train_rmse_is_the_rms_of_the_epoch_batch_losses(self, monkeypatch):
        (X, _, train_s), (_, _, val_s) = linear_split(11, sizes=(250, 64))
        calls = recorded_batch_losses(monkeypatch)
        evals = []

        def counted(params, X, **kwargs):
            evals.append(len(X))
            return _forward_eval(params, X, **kwargs)

        monkeypatch.setattr(mlp, "_forward_eval", counted)
        cfg = dataclasses.replace(self.CFG, epochs=3, batch_size=64)
        _, history = train(train_s, cfg, val_s)
        per_epoch = math.ceil(len(X) / cfg.batch_size)
        assert len(calls) == cfg.epochs * per_epoch
        assert history["train_rmse"] == [
            epoch_rms(calls[e * per_epoch : (e + 1) * per_epoch], len(X))
            for e in range(cfg.epochs)]
        # one eval forward an epoch, over the val set, then recalibration's
        assert evals == [len(val_s)] * cfg.epochs + [len(X)]

    def test_heap_peak_holds_only_what_picks_the_model(self):
        """Train's heap peak at 512-wide layers, with a train set eight
        times the val set: the parameters, Adam's moments and scratch, one
        snapshot, one step's cache and gradient, and two activation planes
        of the train set, the set recalibration's eval forward reads."""
        dims, n_train, n_val = (7, 512, 512, 1), 4000, 500
        (X, _, train_s), (_, _, val_s) = linear_split(3, sizes=(n_train, n_val))
        cfg = TrainConfig(layer_dims=dims, epochs=2, seed=1)
        f32 = np.dtype(np.float32).itemsize
        n_theta, n_state = _vector_sizes(dims)
        # the live parameters, Adam's two moments, the snapshot and a gradient
        vectors = 5 * n_theta * f32 + 2 * n_state * f32
        adam_scratch = 2 * min(n_theta, _ADAM_CHUNK) * f32
        params = init_mlp(dims).astype(np.float32)
        _, cache = _forward_full(params, X[: cfg.batch_size], "train",
                                 np.random.default_rng(0), dropout_p=0.25)
        step = sum(a.nbytes for key in ("Zhat", "A", "comb") for a in cache[key])
        planes = 2 * n_train * max(dims) * f32
        tracemalloc.start()
        try:
            train(train_s, cfg, val_s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the inputs' float64 and float32 copies and Python objects fit in 1 MiB
        assert peak <= vectors + adam_scratch + 2 * step + planes + 2**20

    def test_early_stop_at_the_first_epoch_reaching_the_target(self):
        (_, _, train_s), (_, _, val_s) = linear_split(11)
        _, full = train(train_s, self.CFG, val_s)
        target = 0.5
        want = next(e for e, v in enumerate(full["val_rmse"]) if v <= target) + 1
        assert want < self.CFG.epochs
        cfg = dataclasses.replace(self.CFG, early_stop_val_rmse=target)
        _, history = train(train_s, cfg, val_s)
        assert history["stopped_early"] and history["epochs_run"] == want
        assert history["val_rmse"] == full["val_rmse"][:want]
        assert not full["stopped_early"]

    @pytest.mark.parametrize("patience", [0, 1])
    def test_patience_stops_after_that_many_stale_epochs(self, patience):
        (_, _, train_s), (_, _, val_s) = linear_split(11)
        _, full = train(train_s, self.CFG, val_s)
        want = patience_stop(full["val_rmse"], patience)
        assert want < self.CFG.epochs
        cfg = dataclasses.replace(self.CFG, patience=patience)
        _, history = train(train_s, cfg, val_s)
        assert history["stopped_early"] and history["epochs_run"] == want
        assert history["val_rmse"] == full["val_rmse"][:want]


@pytest.mark.parametrize("val", [None, as_table([])], ids=["missing", "empty"])
def test_train_refuses_a_missing_or_empty_val_set(val):
    """Every epoch's monitor is the val RMSE, so there is no run without one."""
    (_, _, train_s), = linear_split(0, sizes=(8,))
    cfg = TrainConfig(layer_dims=DIMS, epochs=1)
    with pytest.raises(ValueError, match="^empty val split$"):
        train(train_s, cfg, val)
    with pytest.raises(TypeError, match="val_samples"):
        train(train_s, cfg)


@pytest.mark.parametrize("slicing", [False, True], ids=["table", "slice"])
def test_train_and_evaluate_refuse_an_empty_sample_set(slicing):
    (_, _, val_s), = linear_split(0, sizes=(8,))
    empty = val_s[8:] if slicing else as_table([])
    with pytest.raises(ValueError, match="^empty train split$"):
        train(empty, TrainConfig(layer_dims=DIMS, epochs=1), val_s)
    stats = NormStats(np.zeros(7), np.ones(7), 0.0, 1.0)
    with pytest.raises(ValueError, match="^empty val split$"):
        evaluate(tracked_params(), empty, stats, split="val")


@pytest.mark.parametrize("rmse, mae", [(-1e-300, 0.0), (0.0, -1e-300), (-1.0, -2.0)])
def test_an_eval_report_refuses_a_negative_metric(rmse, mae):
    with pytest.raises(ValueError, match="non-negative"):
        EvalReport(rmse=rmse, mae=mae, split="test", n=3)


def test_an_eval_report_refuses_rmse_below_mae_past_rounding():
    # RMSE >= MAE (power means); a slack of 1e-12 of mae absorbs float rounding
    with pytest.raises(ValueError, match="rmse"):
        EvalReport(rmse=2.0 - 1e-11, mae=2.0, split="test", n=3)
    EvalReport(rmse=2.0 - 1e-13, mae=2.0, split="test", n=3)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(size=st.floats(1.0, 1e5), n=st.integers(1, 500))
def test_an_eval_report_of_equal_size_residuals_is_valid(size, n):
    """RMSE equals MAE when every residual has the same size; computed as
    ``evaluate`` computes them, the two round apart by more than 1e-12 once
    the residuals reach the thousands."""
    resid = size * (-1.0) ** np.arange(n)
    EvalReport(rmse=float(np.sqrt(np.mean(resid**2))), mae=float(np.mean(np.abs(resid))),
               split="test", n=resid.size)


@pytest.mark.parametrize("value", [0.0, 0.5, 7.25])
def test_an_eval_report_with_rmse_equal_to_mae_is_valid(value):
    # equality holds when every residual has the same size
    report = EvalReport(rmse=value, mae=value, split="val", n=4)
    assert report.rmse == report.mae == value


def recalibrated_by_formula(params, X):
    """``recalibrate_bn``'s statistics from numpy's ``mean`` and ``var`` on
    each layer's whole pre-BN activations, normalized as the eval forward
    normalizes."""
    params = params.clone()
    dtype = params.weights[0].dtype
    act, n = X.astype(dtype), len(X)
    for k in range(params.n_hidden):
        Z = act @ params.weights[k].T
        params.bn_mean[k][...] = Z.mean(axis=0)
        params.bn_var[k][...] = Z.var(axis=0) * n / max(n - 1, 1)
        inv = 1.0 / np.sqrt(params.bn_var[k] + dtype.type(BN_EPS))
        H = (Z - params.bn_mean[k]) * inv * params.bn_gamma[k] + params.bn_beta[k]
        act = np.maximum(H, 0.0)
    return params.bn_state


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.sampled_from([1, 2, _BN_CHUNK - 1, _BN_CHUNK + 1, 3300]),
       hidden=st.lists(st.sampled_from([1, 2, 5, 43]), min_size=1, max_size=3),
       dtype=st.sampled_from([np.float32, np.float64]),
       seed=st.integers(0, 2**16))
def test_recalibration_stores_the_bits_of_numpy_mean_and_var(n, hidden, dtype, seed):
    params = tracked_params((7, *hidden, 1), seed=seed, dtype=dtype)
    X = np.random.default_rng(seed).normal(0.5, 2.0, (n, 7))
    want = recalibrated_by_formula(params, X)
    recalibrate_bn(params, X)
    assert params.bn_state.tobytes() == want.tobytes()


def test_recalibrated_statistics_describe_the_eval_forward():
    """Each layer's stored statistics are the population mean and unbiased
    variance of the pre-BN activations the eval forward feeds it."""
    params = tracked_params((7, 64, 64, 43, 1))
    X = np.random.default_rng(12).normal(0.0, 1.0, (500, 7))
    recalibrate_bn(params, X)
    assert params.bn_stats_tracked
    act = X
    for k in range(params.n_hidden):
        Z = act @ params.weights[k].T
        mean, var = params.bn_mean[k], params.bn_var[k]
        assert np.all(np.abs(Z.mean(axis=0) - mean) <= 1e-12 * np.sqrt(var))
        assert np.all(np.abs(Z.var(axis=0, ddof=1) / var - 1.0) <= 1e-12)
        H = params.bn_gamma[k] * (Z - mean) / np.sqrt(var + BN_EPS) + params.bn_beta[k]
        act = np.maximum(H, 0.0)


def textbook_adam(theta, grad_seq, lr):
    """Unchunked reference: the whole-vector expressions, one step per grad."""
    theta = theta.copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, g in enumerate(grad_seq, start=1):
        bc1 = 1.0 - ADAM_BETA1**t
        bc2 = 1.0 - ADAM_BETA2**t
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        theta -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return theta


class TestAdam:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lr", [pytest.param(3e-3, id="constant")])
    def test_bit_identical_to_textbook_step(self, dtype, lr):
        """Training's step: one Python-float learning rate for every step."""
        rng = np.random.default_rng(5)
        # three full chunks plus a tail, and a vector shorter than one chunk
        for n in (3 * _ADAM_CHUNK + 1234, 300):
            theta = rng.normal(0.0, 1.0, n).astype(dtype)
            grad_seq = [rng.normal(0.0, 0.1, n).astype(dtype) for _ in range(5)]
            expected = textbook_adam(theta, grad_seq, lr)

            adam = _Adam(theta)
            for grad in grad_seq:
                adam.step(theta, grad, lr)
            assert theta.dtype == expected.dtype
            assert np.array_equal(theta, expected)

    def test_training_is_deterministic(self):
        rng = np.random.default_rng(6)
        X = rng.normal(0.0, 1.0, (200, 7))
        samples = as_table([_sample(x, t) for x, t in zip(X, X.sum(axis=1))])
        cfg = TrainConfig(layer_dims=DIMS, epochs=2, seed=3)
        a, ha = train(samples[:150], cfg, samples[150:])
        b, hb = train(samples[:150], cfg, samples[150:])
        assert ha == hb
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.bn_state, b.bn_state)


class TestParameterVectors:
    def test_init_draws_the_former_per_layer_arrays(self):
        params = init_mlp(DIMS, seed=3)
        rng = np.random.default_rng(3)
        for k, (fan_in, fan_out) in enumerate(zip(DIMS[:-1], DIMS[1:])):
            bound = np.sqrt(6.0 / fan_in)
            want = rng.uniform(-bound, bound, size=(fan_out, fan_in))
            assert np.array_equal(params.weights[k], want)
        assert np.array_equal(params.bias, np.zeros(1))
        for h, g, b, m, v in zip(DIMS[1:-1], params.bn_gamma, params.bn_beta,
                                 params.bn_mean, params.bn_var, strict=True):
            assert np.array_equal(g, np.ones(h)) and np.array_equal(b, np.zeros(h))
            assert np.array_equal(m, np.zeros(h)) and np.array_equal(v, np.ones(h))

    def test_layer_arrays_are_views_into_the_vectors(self):
        params = init_mlp(DIMS, seed=1)
        # theta: weights (32, 7), (16, 32), (1, 16), the output bias, then
        # gammas 32, 16 and betas 32, 16; no hidden layer has a bias
        params.weights[1][...] = np.arange(16 * 32).reshape(16, 32)
        assert np.array_equal(params.theta[7 * 32 : 7 * 32 + 16 * 32],
                              np.arange(16 * 32))
        params.bias[0] = -4.0
        assert params.theta[7 * 32 + 16 * 32 + 16] == -4.0
        params.bn_gamma[0][...] = 3.0
        assert np.array_equal(params.theta[7 * 32 + 16 * 32 + 16 + 1 :][:32],
                              np.full(32, 3.0))
        params.bn_beta[1][...] = 0.5
        assert np.array_equal(params.theta[-16:], np.full(16, 0.5))
        # bn_state: means 32, 16, then variances 32, 16
        params.bn_var[1][...] = 2.5
        assert np.array_equal(params.bn_state[32 + 16 + 32 :], np.full(16, 2.5))
        assert np.shares_memory(params.bias, params.theta)
        for name in ("weights", "bn_gamma", "bn_beta"):
            assert all(np.shares_memory(a, params.theta) for a in getattr(params, name))
        for name in ("bn_mean", "bn_var"):
            assert all(np.shares_memory(a, params.bn_state)
                       for a in getattr(params, name))

    @pytest.mark.parametrize("copy", ["clone", "astype"])
    def test_clone_and_astype_detach(self, copy):
        params = tracked_params()
        theta, bn_state = params.theta.copy(), params.bn_state.copy()
        other = params.clone() if copy == "clone" else params.astype(np.float32)
        assert other.theta.dtype == (np.float64 if copy == "clone" else np.float32)
        assert np.array_equal(other.theta, theta.astype(other.theta.dtype))
        other.weights[0][...] = 0.0
        other.bn_var[0][...] = 9.0
        assert not other.theta[: 7 * 32].any()
        assert np.array_equal(params.theta, theta)
        assert np.array_equal(params.bn_state, bn_state)
        assert not np.shares_memory(other.theta, params.theta)


def per_array_backward(params, cache, dpred):
    """The per-array gradient expressions, concatenated in theta's order."""
    dtype = params.weights[0].dtype
    n = len(params.weights)
    gw = [None] * n
    gg, gbeta = [None] * params.n_hidden, [None] * params.n_hidden
    a_last = cache["A"][-1] if params.n_hidden else cache["X"]
    dout = dpred[:, None].astype(dtype)
    gw[-1] = dout.T @ a_last
    gb = dout.sum(axis=0)
    dA = dout @ params.weights[-1]
    for k in range(params.n_hidden - 1, -1, -1):
        dH = dA * cache["comb"][k]
        Zhat = cache["Zhat"][k]
        gg[k] = (dH * Zhat).sum(axis=0)
        gbeta[k] = dH.sum(axis=0)
        dZhat = dH * params.bn_gamma[k]
        if cache["mode"] == "train":
            dZ = (dZhat - dZhat.mean(axis=0)
                  - Zhat * (dZhat * Zhat).mean(axis=0)) * cache["inv"][k]
        else:
            dZ = dZhat * cache["inv"][k]
        a_prev = cache["A"][k - 1] if k > 0 else cache["X"]
        gw[k] = dZ.T @ a_prev
        dA = dZ @ params.weights[k]
    return np.concatenate([g.ravel() for g in (*gw, gb, *gg, *gbeta)])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("mode", ["eval", "train"])
def test_backward_vector_equals_per_array_expressions(dtype, mode):
    params = tracked_params((7, 64, 43, 1), dtype=dtype)
    rng = np.random.default_rng(8)
    X = rng.normal(0.0, 1.0, (64, 7))
    preds, cache = _forward_full(params, X, mode, rng=np.random.default_rng(9))
    _, dpred = loss_rmse_grad(preds, rng.normal(0.0, 1.0, 64))
    got = _backward(params, cache, dpred)
    want = per_array_backward(params, cache, dpred)
    assert got.dtype == want.dtype == dtype
    assert np.array_equal(got, want)


class TestGradientCheck:
    DIMS = (7, 8, 6, 1)

    @staticmethod
    def _case(dims):
        params = tracked_params(dims, seed=2)
        rng = np.random.default_rng(5)
        return params, rng.normal(0.0, 1.0, (16, 7)), rng.normal(0.0, 1.0, 16)

    def test_eval_mode_passes(self):
        params, X, t = self._case(self.DIMS)
        theta = params.theta.copy()
        report = gradient_check(params, X, t, mode="eval")
        assert report.passed and report.fraction_within_tol == 1.0
        assert report.n_parameters == params.theta.size == 139
        assert np.array_equal(params.theta, theta)  # every entry restored

    @pytest.mark.parametrize("dims", [(7, 8, 6, 1), (7, 32, 16, 1), (7, 16, 8, 4, 1)],
                             ids=str)
    def test_train_mode_passes(self, dims):
        """The batch-statistics backward agrees with finite differences on
        every entry at the default tolerance: no hidden layer has a bias,
        whose gradient batch norm would make zero up to rounding."""
        params, X, t = self._case(dims)
        report = gradient_check(params, X, t, mode="train")
        assert report.passed and report.fraction_within_tol == 1.0
        assert report.n_parameters == _vector_sizes(dims)[0]


def test_save_mdl1_refuses_an_unknown_parameter_before_writing(tmp_path):
    stats = NormStats(np.full(7, 0.2), np.full(7, 0.05), 5.0, 2.0)
    path = tmp_path / "m.mdl1"
    with pytest.raises(SchemaError, match="unknown parameter 'chlorophyll'"):
        save_mdl1(path, tracked_params(), stats, "chlorophyll")
    assert list(tmp_path.iterdir()) == []


def test_mdl1_round_trips_bit_for_bit(tmp_path):
    params = tracked_params()
    rng = np.random.default_rng(7)
    stats = NormStats(feature_mean=rng.uniform(0.1, 0.3, 7),
                      feature_std=rng.uniform(0.01, 0.05, 7),
                      target_mean=4.2, target_std=1.7)
    training = {"epochs_run": 3, "test_rmse": 0.125}
    path = save_mdl1(tmp_path / "m.mdl1", params, stats, "turbidity_NTU", training)
    back, back_stats, manifest = load_mdl1(path)

    for name in ("weights", "bn_gamma", "bn_beta", "bn_mean", "bn_var"):
        for a, b in zip(getattr(params, name), getattr(back, name), strict=True):
            assert a.dtype == b.dtype == np.float64
            assert a.tobytes() == b.tobytes()
    assert back.bias.tobytes() == params.bias.tobytes()
    assert back.layer_dims == params.layer_dims
    assert manifest["param_order"] == ("theta", "bn_state")
    assert back.bn_stats_tracked
    assert back_stats.feature_mean.tobytes() == stats.feature_mean.tobytes()
    assert back_stats.feature_std.tobytes() == stats.feature_std.tobytes()
    assert (back_stats.target_mean, back_stats.target_std) == (4.2, 1.7)
    assert manifest["parameter"] == "turbidity_NTU"
    assert manifest["training"] == training
    again = save_mdl1(tmp_path / "again.mdl1", back, back_stats, "turbidity_NTU",
                      training)
    assert again.read_bytes() == path.read_bytes()


@st.composite
def models(draw):
    """A small 7 -> ... -> 1 model with any finite theta and running means and
    any positive running variances."""
    dims = (7, *draw(st.lists(st.integers(1, 6), max_size=3)), 1)
    n_theta, n_state = _vector_sizes(dims)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    theta = draw(hnp.arrays(np.float64, n_theta, elements=finite))
    means = draw(hnp.arrays(np.float64, n_state // 2, elements=finite))
    variances = draw(hnp.arrays(np.float64, n_state // 2, elements=positive))
    return MLPParams(dims, theta, np.concatenate([means, variances]),
                     draw(st.booleans()))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(params=models())
def test_mdl1_round_trips_any_model(params):
    stats = NormStats(np.full(7, 0.2), np.full(7, 0.05), 5.0, 2.0)
    with tempfile.TemporaryDirectory() as d:
        path = save_mdl1(Path(d) / "m.mdl1", params, stats, "turbidity_NTU")
        back, _, _ = load_mdl1(path)
        assert back.layer_dims == params.layer_dims
        assert back.bn_stats_tracked == params.bn_stats_tracked
        assert back.theta.tobytes() == params.theta.tobytes()
        assert back.bn_state.tobytes() == params.bn_state.tobytes()
        again = save_mdl1(Path(d) / "again.mdl1", back, stats, "turbidity_NTU")
        assert again.read_bytes() == path.read_bytes()
        path.write_bytes(path.read_bytes()[:-1])  # one byte short
        with pytest.raises(FormatError, match=str(path)):
            load_mdl1(path)


@pytest.mark.parametrize("doc", [
    {"epochz": 3}, {"epochs": 0}, {"dtype": "f16"},
    # the fixed recipe: schedule, precision, snapshot and Adam constants
    {"lr_schedule": "cosine"}, {"lr_min": 1e-5}, {"dtype": "f32"},
    {"keep_best": True}, {"adam_beta1": 0.9},
    [], 3,
    # a value of the wrong JSON kind
    {"epochs": "3"}, {"epochs": 2.5}, {"layer_dims": 5},
    {"learning_rate": "x"},
    # a value out of range: layer_dims runs from the 7 bands to 1 output
    {"layer_dims": [7]}, {"layer_dims": [8, 4, 1]}, {"layer_dims": [7, 8, 2]},
    {"layer_dims": [7, 0, 1]}, {"dropout_p": 1.5}, {"dropout_p": -0.1},
    {"patience": -1},
    # a value the recipe cannot use: NaN fails every comparison
    {"learning_rate": math.nan}, {"learning_rate": math.inf},
    {"early_stop_val_rmse": math.nan}, {"early_stop_val_rmse": -0.1},
    {"early_stop_val_rmse": math.inf}, {"seed": -1},
])
def test_bad_train_config_is_a_schema_error(doc):
    with pytest.raises(SchemaError):
        TrainConfig.from_json(doc)


def test_every_train_config_field_has_a_json_kind():
    assert set(_CONFIG_KINDS) == {f.name for f in dataclasses.fields(TrainConfig)}
    doc = {"layer_dims": [7, 4, 1], "epochs": 2, "learning_rate": 1,
           "batch_size": 8, "dropout_p": 0.0, "seed": 3, "recalibrate_bn": False,
           "early_stop_val_rmse": None, "patience": None}
    assert TrainConfig.from_json(doc) == TrainConfig(**dict(doc, layer_dims=(7, 4, 1)))
