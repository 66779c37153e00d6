"""Small LSTM sequence classifier, trained by mini-batch gradient descent with
hand-written backprop through time (numpy, float64, fully seeded).

Architecture: 1 or 2 standard LSTM layers; the last time step's top hidden
state passes through ReLU and a fully connected layer to a sigmoid output.
Loss is binary cross-entropy on the logit.  Optimizer is adaptive-moment
gradient descent (lr 1e-3, global gradient-norm clip 5.0).

The kernel (``_forward``, ``_loss_and_grad``) works on a stack of G members
that share a spec and a sequence shape: parameters (G, P), sequences
(G, B, T, D), one loss per member.  ``lstm_train_members`` trains a stack in
one loop, and each member's result is bit-identical to training it alone,
because every per-member product is the same BLAS call on the same operands
and every reduction runs over the same axis in the same order.  A stack's
memory grows with its member count, so callers fill stacks up to
``STACK_BYTES`` as estimated by ``member_bytes``.  Prediction and
``lstm_train`` use stacks of one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .rng import substream

LEARNING_RATE = 1e-3
CLIP_NORM = 5.0
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
EARLY_STOP_START_EPOCH = 100  # patience only counts after this many epochs
STACK_BYTES = 64 * 2**20  # working-memory budget of one training stack


class TrainingDivergedError(RuntimeError):
    """``member`` is the index of the diverged member in its training stack."""

    def __init__(self, epoch: int, learning_rate: float, member: int = 0):
        super().__init__(
            f"training loss became non-finite at epoch {epoch} "
            f"(learning rate {learning_rate:g})"
        )
        self.epoch = epoch
        self.learning_rate = learning_rate
        self.member = member


@dataclass(frozen=True)
class LstmSpec:
    layers: int
    hidden: int
    input_dim: int
    batch_size: int
    max_epochs: int
    early_stop_after: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.layers not in (1, 2):
            raise ValueError(f"layers must be 1 or 2, got {self.layers}")
        if self.hidden < 1 or self.input_dim < 1:
            raise ValueError("hidden and input_dim must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")


def param_count(spec: LstmSpec) -> int:
    h = spec.hidden
    total = 0
    d = spec.input_dim
    for _ in range(spec.layers):
        total += 4 * h * (d + h + 1)
        d = h
    return total + h + 1  # head weights + bias


@dataclass(frozen=True)
class LstmModel:
    spec: LstmSpec
    parameters: np.ndarray  # flat vector, layout per _unpack

    def __post_init__(self):
        p = np.asarray(self.parameters, dtype=float)
        if p.shape != (param_count(self.spec),):
            raise ValueError(
                f"expected {param_count(self.spec)} parameters, got {p.shape}"
            )
        object.__setattr__(self, "parameters", p)


def _unpack(spec: LstmSpec, params: np.ndarray):
    """Views into a (G, P) stack of flat vectors: per layer (W, U, b) with gate
    rows ordered input, forget, candidate, output; then the head (w, b)."""
    n_members = params.shape[0]
    h = spec.hidden
    layers = []
    offset = 0
    d = spec.input_dim
    for _ in range(spec.layers):
        w = params[:, offset : offset + 4 * h * d].reshape(n_members, 4 * h, d)
        offset += 4 * h * d
        u = params[:, offset : offset + 4 * h * h].reshape(n_members, 4 * h, h)
        offset += 4 * h * h
        b = params[:, offset : offset + 4 * h]
        offset += 4 * h
        layers.append((w, u, b))
        d = h
    head_w = params[:, offset : offset + h]
    head_b = params[:, offset + h]
    return layers, head_w, head_b


def init_model(spec: LstmSpec) -> LstmModel:
    """Uniform +-1/sqrt(hidden) init with the forget-gate bias raised to +1."""
    rng = substream(spec.seed, "lstm-init")
    scale = 1.0 / np.sqrt(spec.hidden)
    params = rng.uniform(-scale, scale, size=param_count(spec))
    h = spec.hidden
    offset = 0
    d = spec.input_dim
    for _ in range(spec.layers):
        offset += 4 * h * d + 4 * h * h
        params[offset + h : offset + 2 * h] += 1.0  # forget-gate bias
        offset += 4 * h
        d = h
    return LstmModel(spec=spec, parameters=params)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _forward(spec: LstmSpec, params: np.ndarray, x: np.ndarray):
    """Forward pass of a stack of G members.  params: (G, P), x: (G, B, T, D).
    Returns (logits (G, B), cache)."""
    if x.ndim != 4 or x.shape[3] != spec.input_dim:
        raise ValueError(
            f"expected sequences of shape (B, T, {spec.input_dim}), got {x.shape[1:]}"
        )
    n_members, n_batch, n_steps, _ = x.shape
    h = spec.hidden
    layers, head_w, head_b = _unpack(spec, params)
    layer_caches = []
    inputs = x
    # One sigmoid over all 4h gate columns per step, under one errstate for
    # the whole pass; the candidate columns' sigmoid is computed and unused.
    with np.errstate(over="ignore"):
        for w, u, b in layers:
            w_t = w.transpose(0, 2, 1)
            u_t = u.transpose(0, 2, 1)
            bias = b[:, None, :]
            hidden = np.zeros((n_members, n_batch, h))
            cell = np.zeros((n_members, n_batch, h))
            steps = []
            outputs = np.empty((n_members, n_batch, n_steps, h))
            for t in range(n_steps):
                xt = inputs[:, :, t, :]
                z = xt @ w_t + hidden @ u_t + bias
                gates = 1.0 / (1.0 + np.exp(-z))
                gi = gates[..., 0 * h : 1 * h]
                gf = gates[..., 1 * h : 2 * h]
                gg = np.tanh(z[..., 2 * h : 3 * h])
                go = gates[..., 3 * h : 4 * h]
                new_cell = gf * cell + gi * gg
                tanh_cell = np.tanh(new_cell)
                new_hidden = go * tanh_cell
                steps.append((xt, hidden, cell, gi, gf, gg, go, tanh_cell))
                hidden, cell = new_hidden, new_cell
                outputs[:, :, t, :] = hidden
            layer_caches.append((steps, outputs))
            inputs = outputs
    last_hidden = inputs[:, :, -1, :]
    rect = np.maximum(last_hidden, 0.0)
    logits = (rect @ head_w[:, :, None])[..., 0] + head_b[:, None]
    cache = (x, layer_caches, last_hidden, rect)
    return logits, cache


def _bce_from_logits(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Mean binary cross-entropy per member: (G, B) logits -> (G,)."""
    s, y = logits, labels
    return np.mean(
        np.maximum(s, 0.0) - s * y + np.log1p(np.exp(-np.abs(s))), axis=-1
    )


def _loss_and_grad(spec: LstmSpec, params: np.ndarray, x: np.ndarray, y: np.ndarray):
    """Per-member loss (G,) and gradient (G, P) of a stack; y: (G, B)."""
    logits, cache = _forward(spec, params, x)
    loss = _bce_from_logits(logits, y)
    _, layer_caches, last_hidden, rect = cache
    n_members, n_batch, n_steps = x.shape[:3]
    h = spec.hidden
    layers, head_w, _ = _unpack(spec, params)
    grad = np.zeros_like(params)
    glayers, ghead_w, ghead_b = _unpack(spec, grad)

    dlogits = (_sigmoid(logits) - y) / n_batch
    ghead_w += (rect.transpose(0, 2, 1) @ dlogits[:, :, None])[..., 0]
    ghead_b += dlogits.sum(axis=1)
    drect = dlogits[:, :, None] * head_w[:, None, :]
    dtop = drect * (last_hidden > 0.0)

    # Gradient flowing into each layer's output sequence.
    dout = np.zeros((n_members, n_batch, n_steps, h))
    dout[:, :, -1, :] = dtop
    dz = np.empty((n_members, n_batch, 4 * h))
    dz_t = dz.transpose(0, 2, 1)
    for layer_index in range(spec.layers - 1, -1, -1):
        w, u, _ = layers[layer_index]
        gw, gu, gb = glayers[layer_index]
        steps, _ = layer_caches[layer_index]
        # The bottom layer's input gradient is never used.
        din = np.zeros((n_members, n_batch, n_steps, h)) if layer_index else None
        dh_carry = np.zeros((n_members, n_batch, h))
        dc = np.zeros((n_members, n_batch, h))
        for t in range(n_steps - 1, -1, -1):
            xt, h_prev, c_prev, gi, gf, gg, go, tanh_cell = steps[t]
            dh = dout[:, :, t, :] + dh_carry
            do = dh * tanh_cell
            dc = dc + dh * go * (1.0 - tanh_cell**2)
            di = dc * gg
            dg = dc * gi
            df = dc * c_prev
            dz[..., 0 * h : 1 * h] = di * gi * (1.0 - gi)
            dz[..., 1 * h : 2 * h] = df * gf * (1.0 - gf)
            dz[..., 2 * h : 3 * h] = dg * (1.0 - gg**2)
            dz[..., 3 * h : 4 * h] = do * go * (1.0 - go)
            gw += dz_t @ xt
            gu += dz_t @ h_prev
            gb += dz.sum(axis=1)
            if din is not None:
                din[:, :, t, :] = dz @ w
            dh_carry = dz @ u
            dc = dc * gf
        dout = din
    return loss, grad


def lstm_forward(model: LstmModel, seq: np.ndarray) -> float:
    """Class-1 probability for one sequence of shape (T, D)."""
    seq = np.asarray(seq, dtype=float)
    if seq.ndim != 2:
        raise ValueError(f"sequence must be (T, D), got shape {seq.shape}")
    logits, _ = _forward(model.spec, model.parameters[None], seq[None, None])
    p = float(_sigmoid(logits)[0, 0])
    return float(np.clip(p, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)))


def predict_proba_batch(model: LstmModel, x: np.ndarray) -> np.ndarray:
    """Class-1 probabilities for sequences of shape (B, T, D)."""
    x = np.asarray(x, dtype=float)
    logits, _ = _forward(model.spec, model.parameters[None], x[None])
    return np.clip(
        _sigmoid(logits[0]), np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)
    )


def gradient_check(
    model: LstmModel, x: np.ndarray, y: np.ndarray, fd_step: float = 1e-5
) -> float:
    """Max relative error between analytic BPTT gradients and central finite
    differences over every parameter.  Only sensible for small models."""
    if param_count(model.spec) > 500:
        raise ValueError("gradient_check is limited to models with <= 500 parameters")
    x = np.asarray(x, dtype=float)[None]
    y = np.asarray(y, dtype=float)[None]
    _, analytic = _loss_and_grad(model.spec, model.parameters[None], x, y)
    analytic = analytic[0]
    params = model.parameters.copy()
    numeric = np.empty_like(analytic)
    for i in range(params.shape[0]):
        saved = params[i]
        params[i] = saved + fd_step
        up, _ = _forward(model.spec, params[None], x)
        loss_up = _bce_from_logits(up, y)[0]
        params[i] = saved - fd_step
        down, _ = _forward(model.spec, params[None], x)
        loss_down = _bce_from_logits(down, y)[0]
        params[i] = saved
        numeric[i] = (loss_up - loss_down) / (2.0 * fd_step)
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-5)
    return float(np.max(np.abs(analytic - numeric) / denom))


def _stack(dataset) -> tuple[np.ndarray, np.ndarray]:
    seqs = [np.asarray(s, dtype=float) for s, _ in dataset]
    labels = np.array([float(lbl) for _, lbl in dataset])
    shapes = {s.shape for s in seqs}
    if len(shapes) != 1:
        raise ValueError(f"sequences must share one shape, got {sorted(shapes)}")
    return np.stack(seqs), labels


def _member_data(train, val):
    (x_train, y_train), (x_val, y_val) = (
        (np.ascontiguousarray(x, dtype=float), np.asarray(y, dtype=float))
        for x, y in (train, val)
    )
    if y_train.size == 0 or y_val.size == 0:
        raise ValueError("train and val sets must be nonempty")
    if len(set(y_train.tolist())) < 2:
        raise ValueError("training labels contain a single class")
    if x_train.shape[1:] != x_val.shape[1:]:
        raise ValueError(
            f"val sequences {x_val.shape[1:]} differ from train {x_train.shape[1:]}"
        )
    return x_train, y_train, x_val, y_val


def _by_size(members, size_of) -> "list[list[int]]":
    """Members grouped by size_of(member), so each group stacks without padding."""
    groups = {}
    for g in members:
        groups.setdefault(size_of(g), []).append(g)
    return list(groups.values())


def lstm_train(
    spec: LstmSpec,
    train,
    val,
    learning_rate: float = LEARNING_RATE,
    clip_norm: float = CLIP_NORM,
    early_stop_start: int = EARLY_STOP_START_EPOCH,
    history: "list | None" = None,
) -> LstmModel:
    """Minimize BCE by seeded mini-batch Adam; return the parameter snapshot
    with the minimum validation loss.

    With ``spec.early_stop_after`` set, training stops once the validation
    loss has not improved for that many epochs, checked only after
    ``early_stop_start`` epochs.  ``history``, when given, collects the
    per-epoch validation losses.  This is ``lstm_train_members`` on a stack
    of one.
    """
    if not train or not val:
        raise ValueError("train and val sets must be nonempty")
    histories = None if history is None else [history]
    return lstm_train_members(
        spec,
        [spec.seed],
        [_stack(train)],
        [_stack(val)],
        learning_rate,
        clip_norm,
        early_stop_start,
        histories,
    )[0]


def member_bytes(spec: LstmSpec, n_steps: int, n_fit: int, n_val: int) -> int:
    """Approximate working memory of one member in a training stack; callers
    fill a stack up to ``STACK_BYTES``.

    A member holds its n_fit + n_val sequences once (the caller's arrays),
    and a forward-backward pass over a batch or the val set keeps about 12
    hidden-wide float64 arrays per layer, step and row.  About
    ten parameter-sized vectors come on top: parameters, Adam moments, best
    snapshot, gradient and update temporaries, and the trained model.
    """
    rows = max(min(spec.batch_size, n_fit), n_val)
    per_step = (n_fit + n_val) * spec.input_dim
    per_step += 12 * spec.layers * spec.hidden * rows
    return 8 * (n_steps * per_step + 10 * param_count(spec))


def lstm_train_members(
    spec: LstmSpec,
    seeds,
    trains,
    vals,
    learning_rate: float = LEARNING_RATE,
    clip_norm: float = CLIP_NORM,
    early_stop_start: int = EARLY_STOP_START_EPOCH,
    histories: "list | None" = None,
) -> "list[LstmModel]":
    """Train member g, ``spec`` with seed ``seeds[g]``, on (trains[g],
    vals[g]); all members in one stack.  Each train or val set is an ``(x,
    y)`` pair of arrays: sequences (N, T, D) and their labels (N,).

    Each member's model is bit-identical to ``lstm_train`` on it alone: it
    keeps its own batch order, Adam steps, gradient clip, best snapshot and
    early stop, and leaves the stack when it stops.  All sequences share one
    shape.  A step stacks the members whose batches (or val sets) have one
    size, so ragged tails run as separate sub-stacks, never padded.
    ``histories[g]`` collects member g's per-epoch validation losses.

    The error raised is the one training the members one after another would
    raise first, with the failing member's index in ``.member``: once member
    g has invalid input or diverges, the members after it drop out, and its
    error is raised when the members before it have finished.
    """
    if not len(seeds) == len(trains) == len(vals):
        raise ValueError("need one seed, train set and val set per member")
    specs = [replace(spec, seed=seed) for seed in seeds]
    failed = {}
    data = []
    for member, (train, val) in enumerate(zip(trains, vals)):
        try:
            arrays = _member_data(train, val)
            if data and arrays[0].shape[1:] != data[0][0].shape[1:]:
                raise ValueError(
                    f"sequences {arrays[0].shape[1:]} differ from member 0's "
                    f"{data[0][0].shape[1:]}"
                )
        except ValueError as exc:
            exc.member = member
            failed[member] = exc
            break
        data.append(arrays)
    if not data:
        raise failed[0] if failed else ValueError("no members to train")
    x_train, y_train, x_val, y_val = (list(column) for column in zip(*data))

    n_members = len(data)
    params = np.stack([init_model(s).parameters for s in specs[:n_members]])
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    step = [0] * n_members
    order_rngs = [substream(s.seed, "lstm-batch-order") for s in specs[:n_members]]

    def val_losses(members) -> "dict[int, float]":
        losses = {}
        for group in _by_size(members, lambda g: y_val[g].shape[0]):
            logits, _ = _forward(
                spec, params[group], np.stack([x_val[g] for g in group])
            )
            loss = _bce_from_logits(logits, np.stack([y_val[g] for g in group]))
            losses.update(zip(group, loss.tolist()))
        return losses

    best_loss = val_losses(range(n_members))
    best_params = list(params.copy())
    best_epoch = [0] * n_members
    active = list(range(n_members))
    for epoch in range(1, spec.max_epochs + 1):
        if not active:
            break
        orders = {g: order_rngs[g].permutation(y_train[g].shape[0]) for g in active}
        longest = max(order.shape[0] for order in orders.values())
        for start in range(0, longest, spec.batch_size):
            batches = {
                g: orders[g][start : start + spec.batch_size]
                for g in active
                if start < orders[g].shape[0]
            }
            stepped, grads = [], []
            for group in _by_size(batches, lambda g: batches[g].shape[0]):
                loss, grad = _loss_and_grad(
                    spec,
                    params[group],
                    np.stack([x_train[g][batches[g]] for g in group]),
                    np.stack([y_train[g][batches[g]] for g in group]),
                )
                for row, g in enumerate(group):
                    if not np.isfinite(loss[row]):
                        failed[g] = TrainingDivergedError(epoch, learning_rate, g)
                        continue
                    norm = float(np.linalg.norm(grad[row]))
                    if norm > clip_norm:
                        grad[row] *= clip_norm / norm
                    step[g] += 1
                    stepped.append(g)
                    grads.append(grad[row])
            if failed:
                active = [g for g in active if g < min(failed)]
            if not stepped:
                continue
            grad = np.stack(grads)
            counts = [step[g] for g in stepped]
            m[stepped] = ADAM_BETA1 * m[stepped] + (1.0 - ADAM_BETA1) * grad
            v[stepped] = ADAM_BETA2 * v[stepped] + (1.0 - ADAM_BETA2) * grad**2
            m_hat = m[stepped] / np.array([[1.0 - ADAM_BETA1**k] for k in counts])
            v_hat = v[stepped] / np.array([[1.0 - ADAM_BETA2**k] for k in counts])
            params[stepped] -= learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        current = val_losses(active)
        for g in list(active):
            if histories is not None:
                histories[g].append(current[g])
            if not np.isfinite(current[g]):
                failed[g] = TrainingDivergedError(epoch, learning_rate, g)
                active.remove(g)
                continue
            if current[g] < best_loss[g]:
                best_loss[g] = current[g]
                best_params[g] = params[g].copy()
                best_epoch[g] = epoch
            if (
                spec.early_stop_after is not None
                and epoch >= early_stop_start
                and epoch - best_epoch[g] >= spec.early_stop_after
            ):
                active.remove(g)
        if failed:
            active = [g for g in active if g < min(failed)]
    if failed:
        raise failed[min(failed)]
    return [LstmModel(spec=s, parameters=p) for s, p in zip(specs, best_params)]


def ensemble_predict(members, seq: np.ndarray) -> float:
    """Weighted mean of member probabilities; weights must already sum to 1."""
    members = list(members)
    if not members:
        raise ValueError("ensemble has no members")
    weights = np.array([w for _, w in members], dtype=float)
    if (weights < 0).any() or abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError("weights must be nonnegative and sum to 1")
    return float(sum(w * lstm_forward(model, seq) for model, w in members))
