import datetime as dt

import numpy as np
import pytest

from coastwatch.dataset import NormStats, Sample
from coastwatch.errors import NumericError, SchemaError
from coastwatch.mlp import (
    BN_EPS,
    TrainConfig,
    _Adam,
    _cast_params,
    _forward_eval_folded,
    _forward_full,
    forward,
    init_mlp,
    load_mdl1,
    save_mdl1,
    train,
)

DIMS = (7, 32, 16, 1)


def tracked_params(dims=DIMS, seed=0, dtype=np.float64):
    """Initialized parameters with random batch-norm affine and statistics."""
    params = init_mlp(dims, seed=seed)
    rng = np.random.default_rng(seed + 100)
    for k in range(params.n_hidden):
        h = dims[k + 1]
        params.biases[k][...] = rng.normal(0.0, 0.5, h)
        params.bn_gamma[k][...] = rng.uniform(0.5, 1.5, h)
        params.bn_beta[k][...] = rng.normal(0.0, 0.3, h)
        params.bn_mean[k][...] = rng.normal(0.0, 1.0, h)
        params.bn_var[k][...] = rng.uniform(0.2, 3.0, h)
    params.bn_stats_tracked = True
    return _cast_params(params, dtype)


def _sample(x, t):
    return Sample(features=x, target=float(t), parameter="turbidity_NTU",
                  patch_id="p", window=(0, 0), station_id="s",
                  date=dt.date(2024, 6, 15))


class TestEvalForward:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bit_identical_to_cached_forward(self, dtype):
        params = tracked_params(dtype=dtype)
        X = np.random.default_rng(1).normal(0.0, 1.0, (625, 7))
        fast = forward(params, X, "eval")
        full, _ = _forward_full(params, X, "eval")
        assert fast.dtype == full.dtype
        assert np.array_equal(fast, full)

    def test_trained_model_bit_identical(self):
        rng = np.random.default_rng(2)
        X = rng.normal(0.0, 1.0, (300, 7))
        y = X @ rng.normal(0.0, 1.0, 7)
        samples = [_sample(x, t) for x, t in zip(X, y)]
        params, _ = train(samples, TrainConfig(layer_dims=DIMS, epochs=2))
        assert np.array_equal(forward(params, X, "eval"),
                              _forward_full(params, X, "eval")[0])

    def test_does_not_mutate_input_or_params(self):
        params = tracked_params()
        before = params.clone()
        X = np.random.default_rng(4).normal(0.0, 1.0, (10, 7))
        X_copy = X.copy()
        forward(params, X, "eval")
        assert np.array_equal(X, X_copy)
        for a, b in zip(params.trainable_arrays() + params.bn_mean + params.bn_var,
                        before.trainable_arrays() + before.bn_mean + before.bn_var):
            assert np.array_equal(a, b)

    def test_non_finite_input_raises_at_first_layer(self):
        params = tracked_params()
        X = np.zeros((4, 7))
        X[2, 3] = np.nan
        with pytest.raises(NumericError, match="hidden layer 0"):
            forward(params, X, "eval")
        with pytest.raises(NumericError, match="hidden layer 0"):
            _forward_full(params, X, "eval")

    def test_non_finite_output_raises(self):
        params = init_mlp((7, 1))
        params.bn_stats_tracked = True
        with pytest.raises(NumericError, match="output at layer 0"), \
                np.errstate(invalid="ignore"):
            forward(params, np.full((2, 7), np.inf), "eval")


def folded_reference(params, X):
    """Folded eval forward written as whole-array expressions."""
    dtype = params.weights[0].dtype
    act = np.asarray(X, dtype=dtype)
    for k in range(params.n_hidden):
        inv = 1.0 / np.sqrt(params.bn_var[k] + BN_EPS)
        scale = (params.bn_gamma[k] * inv).astype(dtype)
        shift = (params.bn_beta[k] - params.bn_mean[k] * params.bn_gamma[k] * inv
                 ).astype(dtype)
        Z = act @ params.weights[k].T + params.biases[k]
        act = np.maximum(Z * scale + shift, 0.0)
    return (act @ params.weights[-1].T + params.biases[-1])[:, 0]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_folded_eval_forward_matches_reference(dtype):
    params = tracked_params(dtype=dtype)
    X = np.random.default_rng(7).normal(0.0, 1.0, (500, 7))
    assert np.array_equal(_forward_eval_folded(params, X),
                          folded_reference(params, X))


def textbook_adam(arrays, grad_seq, lrs, cfg):
    """Unchunked reference: the whole-array expressions, one step per grad."""
    arrays = [a.copy() for a in arrays]
    m = [np.zeros_like(a) for a in arrays]
    v = [np.zeros_like(a) for a in arrays]
    for t, (grads, lr) in enumerate(zip(grad_seq, lrs), start=1):
        bc1 = 1.0 - cfg.adam_beta1**t
        bc2 = 1.0 - cfg.adam_beta2**t
        for a, g, mi, vi in zip(arrays, grads, m, v):
            mi *= cfg.adam_beta1
            mi += (1.0 - cfg.adam_beta1) * g
            vi *= cfg.adam_beta2
            vi += (1.0 - cfg.adam_beta2) * g * g
            a -= lr * (mi / bc1) / (np.sqrt(vi / bc2) + cfg.adam_eps)
    return arrays


class TestAdam:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("schedule", ["constant", "cosine"])
    def test_bit_identical_to_textbook_step(self, dtype, schedule):
        cfg = TrainConfig(epochs=5, lr_schedule=schedule, learning_rate=3e-3)
        rng = np.random.default_rng(5)
        # several chunks along the first axis, a single row above the chunk
        # size, a Fortran-ordered array and small vectors
        shapes = [(700, 300), (1, 70000), (40, 7), (300,), (1,)]
        arrays = [rng.normal(0.0, 1.0, s).astype(dtype) for s in shapes]
        arrays[2] = np.asfortranarray(arrays[2])
        grad_seq = [[rng.normal(0.0, 0.1, s).astype(dtype) for s in shapes]
                    for _ in range(5)]
        grad_seq[0][0] = np.ascontiguousarray(grad_seq[0][0].T).T  # F-order grad
        lrs = [cfg.lr_at(e) for e in range(5)]
        expected = textbook_adam(arrays, grad_seq, lrs, cfg)

        adam = _Adam(arrays, cfg)
        for grads, lr in zip(grad_seq, lrs):
            adam.step(arrays, grads, lr)
        for got, want in zip(arrays, expected):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_training_is_deterministic(self):
        rng = np.random.default_rng(6)
        X = rng.normal(0.0, 1.0, (200, 7))
        samples = [_sample(x, t) for x, t in zip(X, X.sum(axis=1))]
        cfg = TrainConfig(layer_dims=DIMS, epochs=2, seed=3)
        a, ha = train(samples, cfg)
        b, hb = train(samples, cfg)
        assert ha == hb
        for x, y in zip(a.trainable_arrays(), b.trainable_arrays()):
            assert np.array_equal(x, y)


def test_mdl1_round_trips_bit_for_bit(tmp_path):
    params = tracked_params()
    rng = np.random.default_rng(7)
    stats = NormStats(feature_mean=rng.uniform(0.1, 0.3, 7),
                      feature_std=rng.uniform(0.01, 0.05, 7),
                      target_mean=4.2, target_std=1.7)
    training = {"epochs_run": 3, "test_rmse": 0.125}
    path = save_mdl1(tmp_path / "m.mdl1", params, stats, "turbidity_NTU", training)
    back, back_stats, manifest = load_mdl1(path)

    for name in ("weights", "biases", "bn_gamma", "bn_beta", "bn_mean", "bn_var"):
        for a, b in zip(getattr(params, name), getattr(back, name), strict=True):
            assert a.dtype == b.dtype == np.float64
            assert a.tobytes() == b.tobytes()
    assert back.layer_dims == params.layer_dims
    assert back.dropout_p == params.dropout_p
    assert back.bn_stats_tracked
    assert back_stats.feature_mean.tobytes() == stats.feature_mean.tobytes()
    assert back_stats.feature_std.tobytes() == stats.feature_std.tobytes()
    assert (back_stats.target_mean, back_stats.target_std) == (4.2, 1.7)
    assert manifest["parameter"] == "turbidity_NTU"
    assert manifest["training"] == training
    again = save_mdl1(tmp_path / "again.mdl1", back, back_stats, "turbidity_NTU",
                      training)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("doc", [{"epochz": 3}, {"epochs": 0}, {"dtype": "f16"}])
def test_bad_train_config_is_a_schema_error(doc):
    with pytest.raises(SchemaError):
        TrainConfig.from_json(doc)
