"""Small LSTM sequence classifier, trained by mini-batch gradient descent with
hand-written backprop through time (numpy, float64, fully seeded).

Architecture: 1 or 2 standard LSTM layers; the last time step's top hidden
state passes through ReLU and a fully connected layer to a sigmoid output.
Loss is binary cross-entropy on the logit.  Optimizer is adaptive-moment
gradient descent (lr 1e-3, global gradient-norm clip 5.0).

The kernel (``_forward``, ``_loss_and_grad``) works on a stack of G members
that share a spec and a sequence shape: parameters (G, P), sequences
(G, B, T, D), one loss per member.  As in Appleyard et al., "Optimizing
Performance of Recurrent Neural Networks on GPUs" (arXiv:1604.01946), each
layer's input projection and weight-gradient products are one product over
all T*B rows of a member, outside the time loop, so a step runs only the
recurrent product and the gate arithmetic.  ``lstm_train_members`` trains a
stack in one loop: each batch step and each validation pass is one call, with
shorter batches and val sets zero-padded and their padding rows given no
weight.  A member's model is the one training it alone would give, up to
float rounding, since the sums run in another order than one step and one
member at a time: parameters agree with the one-model loop to about 1e-13
relative over 200 epochs, and the tests allow 1e-10.  A stack's memory grows
with its member count, so callers fill stacks up to ``STACK_BYTES`` as
estimated by ``member_bytes``.  Prediction and ``lstm_train`` use stacks of
one.
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
    layers, _, _ = _unpack(spec, params[None])
    for _, _, b in layers:  # views into params
        b[0, spec.hidden : 2 * spec.hidden] += 1.0  # forget-gate bias
    return LstmModel(spec=spec, parameters=params)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _real_rows(rows, shape) -> tuple[np.ndarray, np.ndarray]:
    """Row counts (G,) and mask (G, B) of a (G, B) stack: member g's first
    ``rows[g]`` rows are real and the rest pad it (``None``: every row is
    real)."""
    n_members, n_batch = shape
    counts = np.full(n_members, n_batch) if rows is None else np.asarray(rows)
    return counts, np.arange(n_batch) < counts[:, None]


def _forward(spec: LstmSpec, params: np.ndarray, x: np.ndarray):
    """Forward pass of a stack of G members.  params: (G, P), x: (G, B, T, D).
    Returns (logits (G, B), cache).

    Each layer projects all of its inputs at once, one (T*B, D) product per
    member, so a step adds only the recurrent product and the gate
    arithmetic.  Step state is kept in time-major (T, G, B, .) buffers;
    ``cells`` and ``outputs`` start with a zero row for t = -1.
    """
    if x.ndim != 4 or x.shape[3] != spec.input_dim:
        raise ValueError(
            f"expected sequences of shape (B, T, {spec.input_dim}), got {x.shape[1:]}"
        )
    n_members, n_batch, n_steps, _ = x.shape
    h = spec.hidden
    layers, head_w, head_b = _unpack(spec, params)
    shape = (n_steps, n_members, n_batch)
    layer_caches = []
    seq = x.transpose(2, 0, 1, 3)
    # One sigmoid over all 4h gate columns per step, under one errstate for
    # the whole pass; the candidate columns' sigmoid is computed and unused.
    with np.errstate(over="ignore"):
        for w, u, b in layers:
            # Member-major rows (G, T*B, d), as the weight gradients need them.
            inputs = seq.transpose(1, 0, 2, 3).reshape(n_members, n_steps * n_batch, -1)
            # Every step's input projection, written straight into the gates.
            gates = np.empty(shape + (4 * h,))
            proj = inputs @ w.transpose(0, 2, 1)
            proj = proj.reshape(n_members, n_steps, n_batch, -1).transpose(1, 0, 2, 3)
            np.add(proj, b[:, None, :], out=gates)
            del proj
            u_t = u.transpose(0, 2, 1)
            cand = np.empty(shape + (h,))  # tanh of the candidate columns
            tanh_cells = np.empty(shape + (h,))
            cells = np.zeros((n_steps + 1,) + shape[1:] + (h,))
            outputs = np.zeros((n_steps + 1,) + shape[1:] + (h,))
            recurrent = np.empty(shape[1:] + (4 * h,))
            gated = np.empty(shape[1:] + (h,))
            for t in range(n_steps):
                z = gates[t]
                np.matmul(outputs[t], u_t, out=recurrent)
                z += recurrent
                np.tanh(z[..., 2 * h : 3 * h], out=cand[t])
                np.negative(z, out=z)
                np.exp(z, out=z)
                z += 1.0
                np.reciprocal(z, out=z)
                np.multiply(z[..., h : 2 * h], cells[t], out=cells[t + 1])
                np.multiply(z[..., :h], cand[t], out=gated)
                cells[t + 1] += gated
                np.tanh(cells[t + 1], out=tanh_cells[t])
                np.multiply(z[..., 3 * h :], tanh_cells[t], out=outputs[t + 1])
            layer_caches.append((inputs, gates, cand, cells, tanh_cells, outputs))
            seq = outputs[1:]
    last_hidden = outputs[-1]
    rect = np.maximum(last_hidden, 0.0)
    logits = (rect @ head_w[:, :, None])[..., 0] + head_b[:, None]
    return logits, (layer_caches, last_hidden, rect)


def _bce_from_logits(
    logits: np.ndarray, labels: np.ndarray, rows: "np.ndarray | None" = None
) -> np.ndarray:
    """Mean binary cross-entropy per member over its real rows (see
    ``_real_rows``): (G, B) logits -> (G,)."""
    counts, real = _real_rows(rows, logits.shape)
    s, y = logits, labels
    per_row = np.maximum(s, 0.0) - s * y + np.log1p(np.exp(-np.abs(s)))
    return np.where(real, per_row, 0.0).sum(axis=-1) / counts


def _loss_and_grad(
    spec: LstmSpec,
    params: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    rows: "np.ndarray | None" = None,
):
    """Per-member loss (G,) and gradient (G, P) of a stack; y: (G, B).  Only
    member g's first ``rows[g]`` rows count (default: all B); padding rows
    get zero weight."""
    logits, (layer_caches, last_hidden, rect) = _forward(spec, params, x)
    counts, real = _real_rows(rows, logits.shape)
    loss = _bce_from_logits(logits, y, counts)
    n_members, n_batch, n_steps = x.shape[:3]
    h = spec.hidden
    layers, head_w, _ = _unpack(spec, params)
    grad = np.zeros_like(params)
    glayers, ghead_w, ghead_b = _unpack(spec, grad)

    dlogits = np.where(real, (_sigmoid(logits) - y) / counts[:, None], 0.0)
    ghead_w += (rect.transpose(0, 2, 1) @ dlogits[:, :, None])[..., 0]
    ghead_b += dlogits.sum(axis=1)
    drect = dlogits[:, :, None] * head_w[:, None, :]
    dtop = drect * (last_hidden > 0.0)

    dout = None  # gradient into this layer's outputs from the layer above
    for layer_index in range(spec.layers - 1, -1, -1):
        w, u, _ = layers[layer_index]
        gw, gu, gb = glayers[layer_index]
        inputs, gates, cand, cells, tanh_cells, outputs = layer_caches[layer_index]
        gi, gf, gs, go = (gates[..., k * h : (k + 1) * h] for k in range(4))
        # Every step's gate-derivative factors at once, written over the
        # gates: dz[t] = factors[t] * (dc, dc, dc, dh), block by block.
        forget = gf.copy()
        dc_dh = np.square(tanh_cells)  # d cell / d hidden: go * (1 - tanh(c)^2)
        np.subtract(1.0, dc_dh, out=dc_dh)
        dc_dh *= go
        np.square(cand, out=gs)
        np.subtract(1.0, gs, out=gs)
        gs *= gi
        gi *= 1.0 - gi
        gi *= cand
        gf *= 1.0 - gf
        gf *= cells[:-1]
        go *= 1.0 - go
        go *= tanh_cells
        dz = gates  # filled in place, last step first
        dz_blocks = dz.reshape(n_steps, n_members, n_batch, 4, h)
        dh = (dtop if dout is None else dout[-1]).copy()
        dc = np.zeros_like(dh)
        carried = np.empty_like(dh)
        for t in range(n_steps - 1, -1, -1):
            if t < n_steps - 1:
                np.matmul(dz[t + 1], u, out=dh)
                if dout is not None:
                    dh += dout[t]
                dc *= forget[t + 1]
            np.multiply(dh, dc_dh[t], out=carried)
            dc += carried
            dz_blocks[t, :, :, :3] *= dc[:, :, None, :]
            dz_blocks[t, :, :, 3] *= dh
        # Weight gradients and the lower layer's input gradient, each one
        # product over all T*B rows of a member.
        dz_rows = dz.transpose(1, 0, 2, 3).reshape(n_members, n_steps * n_batch, 4 * h)
        dz_cols = dz_rows.transpose(0, 2, 1)
        h_prev = outputs[:-1].transpose(1, 0, 2, 3).reshape(dz_rows.shape[:2] + (h,))
        gw[...] = dz_cols @ inputs
        gu[...] = dz_cols @ h_prev
        gb[...] = dz_rows.sum(axis=1)
        if layer_index:
            din = dz_rows @ w
            dout = din.reshape(n_members, n_steps, n_batch, -1).transpose(1, 0, 2, 3)
    return loss, grad


def lstm_forward(model: LstmModel, seq: np.ndarray) -> float:
    """Class-1 probability for one sequence of shape (T, D)."""
    seq = np.asarray(seq, dtype=float)
    if seq.ndim != 2:
        raise ValueError(f"sequence must be (T, D), got shape {seq.shape}")
    return float(predict_proba_batch(model, seq[None])[0])


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

    A member's n_fit + n_val sequences are held twice: the caller's arrays and
    the stack's own padded copies.  Per step and row, a forward pass keeps the
    rows' sequences, plus each layer's input and 8 hidden-wide values (4 gates,
    candidate, cell, cell tanh, output); backprop over a batch adds about 9
    hidden-wide values, and 6 more per layer below the top.  Training runs over
    a batch of fit rows, validation over the val rows, and the larger of the
    two counts.  About ten parameter-sized vectors come on top: parameters,
    Adam moments, best snapshot, gradient and update temporaries, and the
    trained model.  Padding a member to a larger stack-mate costs the rows it
    is padded by.
    """
    h, d = spec.hidden, spec.input_dim
    forward = d + 8 * h + (spec.layers - 1) * 9 * h
    train = min(spec.batch_size, n_fit) * (forward + (3 + 6 * spec.layers) * h + d)
    val = n_val * (forward + d)
    per_step = 2 * (n_fit + n_val) * d + max(train, val)
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

    Each member keeps its own batch order, Adam steps, gradient clip, best
    snapshot and early stop, and leaves the stack when it stops, so its model
    is ``lstm_train`` on it alone up to float rounding: the stacked kernel sums
    in another order than one member at a time (see the module docstring).  All
    sequences share one shape.  Every batch step, and every validation pass, is
    one stack: members with fewer rows than the largest are zero-padded, and
    padding rows count in neither loss nor gradient.  ``histories[g]`` collects
    member g's per-epoch validation losses.

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
    sequence_shape = x_train[0].shape[1:]
    fit_sizes = np.array([y.shape[0] for y in y_train])
    fit_starts = np.cumsum(fit_sizes) - fit_sizes
    # All fit sets in one array, ending in the zero row that pads batches.
    x_fit = np.concatenate(x_train + [np.zeros((1,) + sequence_shape)])
    y_fit = np.concatenate(y_train + [np.zeros(1)])
    pad_row = y_fit.shape[0] - 1
    # All val sets as one zero-padded stack.
    val_sizes = np.array([y.shape[0] for y in y_val])
    x_vals = np.zeros((n_members, val_sizes.max()) + sequence_shape)
    y_vals = np.zeros((n_members, val_sizes.max()))
    for g, (x, y) in enumerate(zip(x_val, y_val)):
        x_vals[g, : y.shape[0]] = x
        y_vals[g, : y.shape[0]] = y

    params = np.stack([init_model(s).parameters for s in specs[:n_members]])
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    step = np.zeros(n_members, dtype=int)
    order_rngs = [substream(s.seed, "lstm-batch-order") for s in specs[:n_members]]
    # Adam's bias corrections by step count, from Python's float power.
    max_steps = spec.max_epochs * -(-int(fit_sizes.max()) // spec.batch_size)
    debias_m, debias_v = (
        np.array([[1.0 - beta**k] for k in range(max_steps + 1)])
        for beta in (ADAM_BETA1, ADAM_BETA2)
    )

    def val_losses(members: np.ndarray) -> np.ndarray:
        logits, _ = _forward(spec, params[members], x_vals[members])
        return _bce_from_logits(logits, y_vals[members], val_sizes[members])

    best_loss = val_losses(np.arange(n_members)).tolist()
    best_params = list(params.copy())
    best_epoch = [0] * n_members
    active = list(range(n_members))
    for epoch in range(1, spec.max_epochs + 1):
        if not active:
            break
        members = np.array(active)
        sizes = fit_sizes[members]
        # Row numbers into x_fit: member by member, its own batch order,
        # then padding.
        orders = np.full((members.shape[0], sizes.max()), pad_row)
        for row, g in enumerate(active):
            order = order_rngs[g].permutation(sizes[row])
            orders[row, : sizes[row]] = fit_starts[g] + order
        for start in range(0, sizes.max(), spec.batch_size):
            rows = np.clip(sizes - start, 0, spec.batch_size)
            rows[members >= min(failed, default=n_members)] = 0
            stepping = rows > 0
            if not stepping.any():
                continue
            group, rows = members[stepping], rows[stepping]
            batch = orders[stepping, start : start + rows.max()]
            loss, grad = _loss_and_grad(
                spec, params[group], x_fit[batch], y_fit[batch], rows
            )
            finite = np.isfinite(loss)
            for g in group[~finite].tolist():
                failed[g] = TrainingDivergedError(epoch, learning_rate, g)
            group, grad = group[finite], grad[finite]
            # The norm as one dot product per member, like np.linalg.norm.
            norm = np.sqrt(grad[:, None, :] @ grad[:, :, None])[:, 0]
            grad *= clip_norm / np.maximum(norm, clip_norm)
            step[group] += 1
            m[group] = ADAM_BETA1 * m[group] + (1.0 - ADAM_BETA1) * grad
            v[group] = ADAM_BETA2 * v[group] + (1.0 - ADAM_BETA2) * grad**2
            m_hat = m[group] / debias_m[step[group]]
            v_hat = v[group] / debias_v[step[group]]
            params[group] -= learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        if failed:
            active = [g for g in active if g < min(failed)]
            if not active:
                break
        current = val_losses(np.array(active)).tolist()
        for g, loss in zip(list(active), current):
            if histories is not None:
                histories[g].append(loss)
            if not np.isfinite(loss):
                failed[g] = TrainingDivergedError(epoch, learning_rate, g)
                active.remove(g)
                continue
            if loss < best_loss[g]:
                best_loss[g] = loss
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
