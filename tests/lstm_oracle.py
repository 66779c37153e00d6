"""Frozen one-model LSTM forward pass, BPTT and training loop: the oracle the
stacked kernel in ``handover_intent.lstm`` must reproduce bit for bit.

This is the package's serial implementation as it stood before members were
trained as one stack (params (P,), x (B, T, D)).  Test-only code: keep it
unchanged, so that a change to the stacked kernel cannot move the oracle.
"""

from __future__ import annotations

import numpy as np

from handover_intent.lstm import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    CLIP_NORM,
    EARLY_STOP_START_EPOCH,
    LEARNING_RATE,
    LstmModel,
    LstmSpec,
    TrainingDivergedError,
    init_model,
)
from handover_intent.rng import substream


def _unpack(spec: LstmSpec, params: np.ndarray):
    h = spec.hidden
    layers = []
    offset = 0
    d = spec.input_dim
    for _ in range(spec.layers):
        w = params[offset : offset + 4 * h * d].reshape(4 * h, d)
        offset += 4 * h * d
        u = params[offset : offset + 4 * h * h].reshape(4 * h, h)
        offset += 4 * h * h
        b = params[offset : offset + 4 * h]
        offset += 4 * h
        layers.append((w, u, b))
        d = h
    head_w = params[offset : offset + h]
    head_b = params[offset + h : offset + h + 1]
    return layers, head_w, head_b


def _sigmoid(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def forward(spec: LstmSpec, params: np.ndarray, x: np.ndarray):
    n_batch, n_steps, _ = x.shape
    h = spec.hidden
    layers, head_w, head_b = _unpack(spec, params)
    layer_caches = []
    inputs = x
    for w, u, b in layers:
        hidden = np.zeros((n_batch, h))
        cell = np.zeros((n_batch, h))
        steps = []
        outputs = np.empty((n_batch, n_steps, h))
        for t in range(n_steps):
            xt = inputs[:, t, :]
            z = xt @ w.T + hidden @ u.T + b
            gi = _sigmoid(z[:, 0 * h : 1 * h])
            gf = _sigmoid(z[:, 1 * h : 2 * h])
            gg = np.tanh(z[:, 2 * h : 3 * h])
            go = _sigmoid(z[:, 3 * h : 4 * h])
            new_cell = gf * cell + gi * gg
            tanh_cell = np.tanh(new_cell)
            new_hidden = go * tanh_cell
            steps.append((xt, hidden, cell, gi, gf, gg, go, tanh_cell))
            hidden, cell = new_hidden, new_cell
            outputs[:, t, :] = hidden
        layer_caches.append((steps, outputs))
        inputs = outputs
    last_hidden = inputs[:, -1, :]
    rect = np.maximum(last_hidden, 0.0)
    logits = rect @ head_w + head_b[0]
    cache = (x, layer_caches, last_hidden, rect)
    return logits, cache


def bce_from_logits(logits: np.ndarray, labels: np.ndarray) -> float:
    s, y = logits, labels
    return float(np.mean(np.maximum(s, 0.0) - s * y + np.log1p(np.exp(-np.abs(s)))))


def loss_and_grad(spec: LstmSpec, params: np.ndarray, x: np.ndarray, y: np.ndarray):
    logits, cache = forward(spec, params, x)
    loss = bce_from_logits(logits, y)
    _, layer_caches, last_hidden, rect = cache
    n_batch, n_steps = x.shape[0], x.shape[1]
    h = spec.hidden
    layers, head_w, _ = _unpack(spec, params)
    grad = np.zeros_like(params)
    glayers, ghead_w, ghead_b = _unpack(spec, grad)

    dlogits = (_sigmoid(logits) - y) / n_batch
    ghead_w += rect.T @ dlogits
    ghead_b += dlogits.sum()
    drect = np.outer(dlogits, head_w)
    dtop = drect * (last_hidden > 0.0)

    dout = np.zeros((n_batch, n_steps, h))
    dout[:, -1, :] = dtop
    for layer_index in range(spec.layers - 1, -1, -1):
        w, u, _ = layers[layer_index]
        gw, gu, gb = glayers[layer_index]
        steps, _ = layer_caches[layer_index]
        din = np.zeros((n_batch, n_steps, w.shape[1]))
        dh_carry = np.zeros((n_batch, h))
        dc = np.zeros((n_batch, h))
        for t in range(n_steps - 1, -1, -1):
            xt, h_prev, c_prev, gi, gf, gg, go, tanh_cell = steps[t]
            dh = dout[:, t, :] + dh_carry
            do = dh * tanh_cell
            dc = dc + dh * go * (1.0 - tanh_cell**2)
            di = dc * gg
            dg = dc * gi
            df = dc * c_prev
            dz = np.concatenate(
                [
                    di * gi * (1.0 - gi),
                    df * gf * (1.0 - gf),
                    dg * (1.0 - gg**2),
                    do * go * (1.0 - go),
                ],
                axis=1,
            )
            gw += dz.T @ xt
            gu += dz.T @ h_prev
            gb += dz.sum(axis=0)
            din[:, t, :] = dz @ w
            dh_carry = dz @ u
            dc = dc * gf
        dout = din
    return loss, grad


def _stack(dataset):
    seqs = [np.asarray(s, dtype=float) for s, _ in dataset]
    labels = np.array([float(lbl) for _, lbl in dataset])
    return np.stack(seqs), labels


def train(
    spec: LstmSpec,
    train,
    val,
    learning_rate: float = LEARNING_RATE,
    clip_norm: float = CLIP_NORM,
    early_stop_start: int = EARLY_STOP_START_EPOCH,
    history: "list | None" = None,
) -> LstmModel:
    x_train, y_train = _stack(train)
    x_val, y_val = _stack(val)

    model = init_model(spec)
    params = model.parameters.copy()
    order_rng = substream(spec.seed, "lstm-batch-order")
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    step = 0

    def val_loss_of(p: np.ndarray) -> float:
        logits, _ = forward(spec, p, x_val)
        return bce_from_logits(logits, y_val)

    best_loss = val_loss_of(params)
    best_params = params.copy()
    best_epoch = 0
    n = x_train.shape[0]
    for epoch in range(1, spec.max_epochs + 1):
        order = order_rng.permutation(n)
        for start in range(0, n, spec.batch_size):
            batch = order[start : start + spec.batch_size]
            loss, grad = loss_and_grad(spec, params, x_train[batch], y_train[batch])
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch, learning_rate)
            norm = float(np.linalg.norm(grad))
            if norm > clip_norm:
                grad = grad * (clip_norm / norm)
            step += 1
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad**2
            m_hat = m / (1.0 - ADAM_BETA1**step)
            v_hat = v / (1.0 - ADAM_BETA2**step)
            params -= learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        current = val_loss_of(params)
        if history is not None:
            history.append(current)
        if not np.isfinite(current):
            raise TrainingDivergedError(epoch, learning_rate)
        if current < best_loss:
            best_loss = current
            best_params = params.copy()
            best_epoch = epoch
        if (
            spec.early_stop_after is not None
            and epoch >= early_stop_start
            and epoch - best_epoch >= spec.early_stop_after
        ):
            break
    return LstmModel(spec=spec, parameters=best_params)
