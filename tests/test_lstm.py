import numpy as np
import pytest

from handover_intent.evaluation import auc_roc
from handover_intent.lstm import (
    LstmModel,
    LstmSpec,
    TrainingDivergedError,
    _forward,
    _loss_and_grad,
    ensemble_predict,
    gradient_check,
    init_model,
    lstm_forward,
    lstm_train,
    param_count,
)
from handover_intent.rng import substream


def small_spec(layers=1, hidden=4, input_dim=3, seed=0, **kw):
    return LstmSpec(
        layers=layers,
        hidden=hidden,
        input_dim=input_dim,
        batch_size=kw.pop("batch_size", 4),
        max_epochs=kw.pop("max_epochs", 20),
        early_stop_after=kw.pop("early_stop_after", None),
        seed=seed,
    )


def logit(p):
    return float(np.log(p / (1.0 - p)))


def model_with_constant_probability(p, input_dim=2):
    """h stays 0 with zero parameters, so the head bias alone sets the output."""
    spec = small_spec(hidden=3, input_dim=input_dim)
    params = np.zeros(param_count(spec))
    params[-1] = logit(p)
    return LstmModel(spec=spec, parameters=params)


def single_cell_oracle(spec, params, x_t):
    """Hand-rolled one-step LSTM + head for layers=1, batch of one."""
    h = spec.hidden
    d = spec.input_dim
    offset = 0
    w = params[offset : offset + 4 * h * d].reshape(4 * h, d); offset += 4 * h * d
    u = params[offset : offset + 4 * h * h].reshape(4 * h, h); offset += 4 * h * h
    b = params[offset : offset + 4 * h]; offset += 4 * h
    head_w = params[offset : offset + h]
    head_b = params[offset + h]
    z = w @ x_t + b  # h_prev = 0
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    gi, gf, gg, go = sig(z[:h]), sig(z[h:2*h]), np.tanh(z[2*h:3*h]), sig(z[3*h:])
    c = gi * gg  # c_prev = 0
    hid = go * np.tanh(c)
    s = np.maximum(hid, 0.0) @ head_w + head_b
    return float(sig(s))


class TestSpecAndParams:
    def test_param_count_formula(self):
        # manual count: layer 4H(D+H+1), head H+1
        spec = small_spec(layers=2, hidden=5, input_dim=3)
        expected = 4 * 5 * (3 + 5 + 1) + 4 * 5 * (5 + 5 + 1) + 5 + 1
        assert param_count(spec) == expected

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LstmSpec(layers=3, hidden=4, input_dim=2, batch_size=2, max_epochs=5)
        with pytest.raises(ValueError):
            LstmSpec(layers=1, hidden=0, input_dim=2, batch_size=2, max_epochs=5)
        with pytest.raises(ValueError):
            LstmSpec(layers=1, hidden=2, input_dim=2, batch_size=0, max_epochs=5)

    def test_model_requires_matching_vector(self):
        spec = small_spec()
        with pytest.raises(ValueError):
            LstmModel(spec=spec, parameters=np.zeros(3))

    def test_forget_gate_bias_initialized_to_one(self):
        spec = small_spec(hidden=4, input_dim=2)
        model = init_model(spec)
        h, d = 4, 2
        b = model.parameters[4 * h * d + 4 * h * h : 4 * h * d + 4 * h * h + 4 * h]
        assert np.all(b[h : 2 * h] > 0.5)  # +1 shift dominates the +-0.5 init


class TestForward:
    def test_zero_parameters_give_half(self):
        model = model_with_constant_probability(0.5)
        seq = np.random.default_rng(0).normal(size=(6, 2))
        assert lstm_forward(model, seq) == pytest.approx(0.5)

    def test_output_strictly_inside_unit_interval(self):
        rng = substream(0, "bounds")
        for i in range(1000):
            spec = small_spec(
                layers=int(rng.integers(1, 3)),
                hidden=int(rng.integers(1, 6)),
                input_dim=int(rng.integers(1, 4)),
                seed=i,
            )
            model = LstmModel(
                spec=spec,
                parameters=rng.normal(scale=2.0, size=param_count(spec)),
            )
            seq = rng.normal(size=(int(rng.integers(1, 5)), spec.input_dim))
            p = lstm_forward(model, seq)
            assert 0.0 < p < 1.0

    def test_single_step_matches_hand_rolled_cell(self):
        rng = substream(1, "cell")
        spec = small_spec(layers=1, hidden=5, input_dim=3)
        params = rng.normal(size=param_count(spec))
        model = LstmModel(spec=spec, parameters=params)
        x_t = rng.normal(size=3)
        oracle = single_cell_oracle(spec, params, x_t)
        assert lstm_forward(model, x_t[None, :]) == pytest.approx(oracle, abs=1e-12)

    def test_deterministic_given_parameters(self):
        spec = small_spec(layers=2, hidden=3, input_dim=2, seed=9)
        model = init_model(spec)
        seq = substream(2, "det").normal(size=(7, 2))
        assert lstm_forward(model, seq) == lstm_forward(model, seq)

    def test_dimension_mismatch(self):
        model = init_model(small_spec(input_dim=3))
        with pytest.raises(ValueError):
            lstm_forward(model, np.zeros((4, 2)))


class TestGradients:
    def test_small_random_models_pass_the_check(self):
        rng = substream(3, "grad")
        for i in range(5):
            spec = small_spec(
                layers=int(rng.integers(1, 3)),
                hidden=int(rng.integers(2, 5)),
                input_dim=int(rng.integers(1, 4)),
                seed=100 + i,
            )
            model = init_model(spec)
            x = rng.normal(size=(3, 4, spec.input_dim))
            y = rng.integers(0, 2, size=3).astype(float)
            assert gradient_check(model, x, y) < 1e-4

    def test_zero_gradient_point(self):
        # Same sequence under both labels with a zero head: every gradient
        # cancels exactly.
        spec = small_spec(hidden=3, input_dim=2)
        params = init_model(spec).parameters.copy()
        params[-4 :] = 0.0  # head weights + bias
        model = LstmModel(spec=spec, parameters=params)
        seq = substream(4, "zero").normal(size=(5, 2))
        x = np.stack([seq, seq])
        y = np.array([0.0, 1.0])
        _, grad = _loss_and_grad(spec, model.parameters[None], x[None], y[None])
        assert np.abs(grad).max() < 1e-12

    def test_loss_scale_linearity(self):
        spec = small_spec(hidden=3, input_dim=2)
        model = init_model(spec)
        rng = substream(5, "scale")
        x = rng.normal(size=(4, 3, 2))
        y = np.array([1.0, 0.0, 1.0, 0.0])
        (loss,), (grad,) = _loss_and_grad(spec, model.parameters[None], x[None], y[None])
        # duplicating the batch keeps the mean loss and gradient identical
        (loss2,), (grad2,) = _loss_and_grad(
            spec,
            model.parameters[None],
            np.concatenate([x, x])[None],
            np.concatenate([y, y])[None],
        )
        assert loss2 == pytest.approx(loss, rel=1e-12)
        assert np.abs(grad - grad2).max() < 1e-12
        # doubling the loss doubles its finite-difference slope vs analytic x2
        eps = 1e-6
        for index in (0, param_count(spec) // 2, param_count(spec) - 1):
            params = model.parameters.copy()
            params[index] += eps
            up, _ = _forward(spec, params[None], x[None])
            params[index] -= 2 * eps
            down, _ = _forward(spec, params[None], x[None])
            from handover_intent.lstm import _bce_from_logits

            fd_doubled = (
                2.0 * _bce_from_logits(up, y[None])[0]
                - 2.0 * _bce_from_logits(down, y[None])[0]
            ) / (2 * eps)
            assert fd_doubled == pytest.approx(2.0 * grad[index], abs=1e-5)

    def test_gradient_check_rejects_large_models(self):
        spec = LstmSpec(layers=1, hidden=32, input_dim=16, batch_size=4, max_epochs=5)
        model = init_model(spec)
        with pytest.raises(ValueError, match="500"):
            gradient_check(model, np.zeros((1, 2, 16)), np.array([1.0]))


def separable_toy(rng, n=30, t=8, d=2, scale=0.8):
    """Class = sign of the mean of feature 0 (a one-step rule suffices)."""
    seqs, labels = [], []
    for i in range(n):
        label = i % 2
        base = scale if label else -scale
        seq = rng.normal(scale=0.4, size=(t, d))
        seq[:, 0] += base
        seqs.append(seq)
        labels.append(label)
    return list(zip(seqs, labels))


class TestTraining:
    def test_learns_linearly_separable_sequences(self):
        rng = substream(6, "toy")
        data = separable_toy(rng, n=40)
        train, val = data[:30], data[30:]
        spec = small_spec(hidden=6, input_dim=2, batch_size=5, max_epochs=60, seed=11)
        model = lstm_train(spec, train, val)
        probs = np.array([lstm_forward(model, s) for s, _ in train])
        labels = np.array([lbl for _, lbl in train])
        assert auc_roc(probs, labels) >= 0.95

    def test_single_class_training_set_rejected(self):
        rng = substream(7, "one-class")
        data = [(rng.normal(size=(4, 2)), 1) for _ in range(8)]
        spec = small_spec(input_dim=2)
        with pytest.raises(ValueError, match="single class"):
            lstm_train(spec, data, data[:2])

    def test_same_seed_bit_identical_parameters(self):
        rng = substream(8, "repeat")
        data = separable_toy(rng, n=20, t=4)
        spec = small_spec(hidden=4, input_dim=2, max_epochs=10, seed=21)
        a = lstm_train(spec, data[:14], data[14:])
        b = lstm_train(spec, data[:14], data[14:])
        assert np.array_equal(a.parameters, b.parameters)

    def test_nan_input_raises_divergence_error(self):
        rng = substream(9, "nan")
        data = separable_toy(rng, n=10, t=3)
        bad = [(np.full_like(s, np.nan), lbl) for s, lbl in data]
        spec = small_spec(input_dim=2, max_epochs=5)
        with pytest.raises(TrainingDivergedError, match="epoch 1"):
            lstm_train(spec, bad, bad[:2])

    def test_early_stopping_bounds_the_epoch_count(self):
        rng = substream(10, "early")
        data = separable_toy(rng, n=12, t=3)
        spec = small_spec(
            hidden=3, input_dim=2, max_epochs=500, early_stop_after=4, seed=3
        )
        history = []
        lstm_train(
            spec,
            data[:8],
            data[8:],
            learning_rate=0.0,  # validation loss can never improve
            early_stop_start=6,
            history=history,
        )
        assert len(history) == 6  # patience (4) only counts from epoch 6 on

    def test_min_validation_snapshot_is_returned(self):
        rng = substream(11, "snapshot")
        data = separable_toy(rng, n=24, t=4)
        spec = small_spec(hidden=4, input_dim=2, max_epochs=30, seed=5)
        history = []
        model = lstm_train(spec, data[:18], data[18:], history=history)
        x_val = np.stack([s for s, _ in data[18:]])
        y_val = np.array([float(lbl) for _, lbl in data[18:]])
        logits, _ = _forward(spec, model.parameters[None], x_val[None])
        from handover_intent.lstm import _bce_from_logits

        returned_loss = _bce_from_logits(logits, y_val[None])[0]
        assert returned_loss == pytest.approx(min(history), abs=1e-12)

    def test_mixed_sequence_lengths_rejected(self):
        rng = substream(12, "ragged")
        data = [(rng.normal(size=(4, 2)), 0), (rng.normal(size=(5, 2)), 1)]
        with pytest.raises(ValueError, match="share one shape"):
            lstm_train(small_spec(input_dim=2), data, data)


class TestEnsemble:
    def test_single_member_passthrough(self):
        model = model_with_constant_probability(0.3)
        seq = np.zeros((4, 2))
        assert ensemble_predict([(model, 1.0)], seq) == pytest.approx(0.3)

    def test_equal_weights_average(self):
        members = [
            (model_with_constant_probability(0.2), 0.5),
            (model_with_constant_probability(0.8), 0.5),
        ]
        assert ensemble_predict(members, np.zeros((3, 2))) == pytest.approx(0.5)

    def test_weighted_average_hand_arithmetic(self):
        members = [
            (model_with_constant_probability(0.4), 0.25),
            (model_with_constant_probability(0.8), 0.75),
        ]
        assert ensemble_predict(members, np.zeros((2, 2))) == pytest.approx(0.7)

    def test_empty_and_bad_weights(self):
        with pytest.raises(ValueError, match="no members"):
            ensemble_predict([], np.zeros((2, 2)))
        with pytest.raises(ValueError, match="sum to 1"):
            ensemble_predict(
                [(model_with_constant_probability(0.5), 0.4)], np.zeros((2, 2))
            )

    def test_result_within_member_envelope(self):
        rng = substream(13, "envelope")
        seq = rng.normal(size=(5, 2))
        for trial in range(20):
            models = [init_model(small_spec(hidden=3, input_dim=2, seed=trial * 10 + j))
                      for j in range(3)]
            raw = rng.random(3)
            weights = raw / raw.sum()
            members = list(zip(models, weights))
            fused = ensemble_predict(members, seq)
            probs = [lstm_forward(m, seq) for m in models]
            assert min(probs) - 1e-12 <= fused <= max(probs) + 1e-12
