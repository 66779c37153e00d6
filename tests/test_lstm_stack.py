"""Stacked training must reproduce serial training up to float rounding.

The oracle is the one-model implementation frozen in ``lstm_oracle.py``.  The
stacked kernel hoists the input projection and the weight-gradient products
out of the time loop and zero-pads ragged batches and shorter sequences, so
its sums run in another order: parameters and validation losses must agree to
``TOLERANCE``, relative to the largest parameter and to the loss, and every
member must train for the oracle's number of epochs.  A member that fails
fails alone.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lstm_oracle
from handover_intent import lstm
from handover_intent.lstm import (
    LstmSpec,
    TrainingDivergedError,
    _loss_and_grad,
    lstm_train,
    lstm_train_members,
    member_bytes,
    param_count,
)

TOLERANCE = 1e-10


def member_data(rng, n_fit, n_val, steps, dim):
    # Both classes in every fit set; val labels are free.
    fit = [(rng.normal(size=(steps, dim)), i % 2) for i in range(n_fit)]
    val = [(rng.normal(size=(steps, dim)), int(rng.integers(0, 2))) for _ in range(n_val)]
    return fit, val


def arrays(pairs):
    """A member's (sequence, label) pairs as the (x, y) arrays that
    ``lstm_train_members`` takes."""
    return np.stack([s for s, _ in pairs]), np.array([lbl for _, lbl in pairs])


def assert_close_to_oracle(model, history, expected, expected_history):
    scale = np.abs(expected.parameters).max()
    assert np.abs(model.parameters - expected.parameters).max() <= TOLERANCE * scale
    assert len(history) == len(expected_history)
    np.testing.assert_allclose(history, expected_history, rtol=TOLERANCE, atol=0.0)


def assert_matches_oracle(spec, seeds, trains, vals, **kw):
    histories = [[] for _ in seeds]
    models = lstm_train_members(
        spec, seeds, list(map(arrays, trains)), list(map(arrays, vals)), histories=histories, **kw
    )
    # Each member against the oracle on its own, unpadded sequences.
    for seed, train, val, model, history in zip(seeds, trains, vals, models, histories):
        member_spec = replace(spec, seed=seed)
        expected_history = []
        expected = lstm_oracle.train(
            member_spec, train, val, history=expected_history, **kw
        )
        assert_close_to_oracle(model, history, expected, expected_history)
        assert model.spec == member_spec
    return histories


@settings(max_examples=40, deadline=None)
@given(
    layers=st.integers(1, 2),
    hidden=st.integers(1, 4),
    dim=st.integers(1, 3),
    batch_size=st.integers(1, 5),
    max_epochs=st.integers(1, 10),
    early_stop_after=st.one_of(st.none(), st.integers(1, 3)),
    early_stop_start=st.integers(0, 4),
    learning_rate=st.sampled_from([0.0, 1e-3, 0.05]),
    # Per member: fit rows, val rows and sequence length.
    sizes=st.lists(
        st.tuples(st.integers(2, 11), st.integers(1, 6), st.integers(1, 4)),
        min_size=1,
        max_size=4,
    ),
    seed=st.integers(0, 2**31 - 1),
)
def test_stack_matches_serial_oracle(
    layers,
    hidden,
    dim,
    batch_size,
    max_epochs,
    early_stop_after,
    early_stop_start,
    learning_rate,
    sizes,
    seed,
):
    rng = np.random.default_rng(seed)
    base = LstmSpec(layers, hidden, dim, batch_size, max_epochs, early_stop_after)
    seeds = [int(rng.integers(0, 10_000)) for _ in sizes]
    data = [member_data(rng, n_fit, n_val, steps, dim) for n_fit, n_val, steps in sizes]
    assert_matches_oracle(
        base,
        seeds,
        [fit for fit, _ in data],
        [val for _, val in data],
        learning_rate=learning_rate,
        early_stop_start=early_stop_start,
    )


def test_members_stopping_at_different_epochs_match_the_oracle():
    rng = np.random.default_rng(3)
    base = LstmSpec(2, 3, 2, 4, max_epochs=40, early_stop_after=2)
    sizes = [(7, 3), (8, 4), (9, 3), (5, 2)]
    data = [member_data(rng, n_fit, n_val, 3, 2) for n_fit, n_val in sizes]
    histories = assert_matches_oracle(
        base,
        [10 + i for i in range(len(sizes))],
        [fit for fit, _ in data],
        [val for _, val in data],
        learning_rate=0.05,
        early_stop_start=3,
    )
    assert len({len(h) for h in histories}) > 1


def test_members_of_different_lengths_match_the_oracle():
    # A split's members across growing windows: 2 layers, 3 lengths.
    rng = np.random.default_rng(13)
    base = LstmSpec(2, 4, 3, 5, max_epochs=25, early_stop_after=3)
    sizes = [(8, 7, 2), (7, 8, 2), (8, 7, 5), (7, 8, 5), (8, 7, 9)]
    data = [member_data(rng, n_fit, n_val, steps, 3) for n_fit, n_val, steps in sizes]
    assert_matches_oracle(
        base,
        [20 + i for i in range(len(sizes))],
        [fit for fit, _ in data],
        [val for _, val in data],
        learning_rate=0.05,
        early_stop_start=5,
    )


def test_lstm_train_is_the_stack_of_one():
    rng = np.random.default_rng(4)
    spec = LstmSpec(1, 3, 2, 3, max_epochs=6, seed=9)
    fit, val = member_data(rng, 7, 3, 4, 2)
    history = []
    model = lstm_train(spec, fit, val, history=history)
    expected_history = []
    expected = lstm_oracle.train(spec, fit, val, history=expected_history)
    assert_close_to_oracle(model, history, expected, expected_history)


@settings(max_examples=60, deadline=None)
@given(
    layers=st.integers(1, 2),
    hidden=st.integers(1, 5),
    dim=st.integers(1, 3),
    # Per member: sequence length, real rows and padding rows.
    members=st.lists(
        st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(0, 3)),
        min_size=1,
        max_size=3,
    ),
    seed=st.integers(0, 2**31 - 1),
)
def test_one_gradient_matches_the_oracle(layers, hidden, dim, members, seed):
    rng = np.random.default_rng(seed)
    spec = LstmSpec(layers, hidden, dim, batch_size=1, max_epochs=1)
    params = rng.normal(size=(len(members), param_count(spec)))
    n_steps = max(steps for steps, _, _ in members)
    n_batch = max(batch + padding for _, batch, padding in members)
    # Each member's batch zero-padded to the stack's longest sequence and
    # largest batch; the padding must count for nothing.
    x = np.zeros((len(members), n_batch, n_steps, dim))
    y = np.ones((len(members), n_batch))
    expected = []
    for g, (steps, batch, _) in enumerate(members):
        x_g = rng.normal(size=(batch, steps, dim))
        y_g = rng.integers(0, 2, size=batch).astype(float)
        x[g, :batch, :steps] = x_g
        y[g, :batch] = y_g
        expected.append(lstm_oracle.loss_and_grad(spec, params[g], x_g, y_g))
    rows = np.array([batch for _, batch, _ in members])
    steps = np.array([steps for steps, _, _ in members])
    losses, grads = _loss_and_grad(spec, params, x, y, rows, steps)
    for loss, grad, (expected_loss, expected_grad) in zip(losses, grads, expected):
        assert abs(loss - expected_loss) <= 1e-13 * abs(expected_loss)
        assert np.abs(grad - expected_grad).max() <= 1e-13 * np.abs(expected_grad).max()


def test_a_ragged_stack_takes_one_gradient_call_per_batch_step(monkeypatch):
    # Shaped like the motion-lstm workload: fit sets of 7 and 8 rows at batch
    # size 5, val sets of 8 and 7 rows.
    calls = {"_loss_and_grad": 0, "_forward": 0}
    for name in calls:
        original = getattr(lstm, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(lstm, name, counted)
    rng = np.random.default_rng(11)
    epochs = 4
    spec = LstmSpec(2, 10, 3, batch_size=5, max_epochs=epochs)
    data = [member_data(rng, 7, 8, 5, 3), member_data(rng, 8, 7, 5, 3)]
    lstm_train_members(spec, [1, 2], [arrays(f) for f, _ in data], [arrays(v) for _, v in data])
    # Two batch steps per epoch (5 rows, then 2 or 3); one val pass per epoch
    # and one before training.
    assert calls["_loss_and_grad"] == 2 * epochs
    assert calls["_forward"] == calls["_loss_and_grad"] + epochs + 1


def test_a_member_does_not_depend_on_its_stack_mates():
    rng = np.random.default_rng(12)
    spec = LstmSpec(2, 4, 2, batch_size=4, max_epochs=30, early_stop_after=3)
    member = member_data(rng, 6, 3, 4, 2)
    small = member_data(rng, 5, 2, 4, 2)
    large = member_data(rng, 11, 7, 4, 2)  # pads member's batches and val set
    models, histories = {}, {}
    for name, mate in (("small", small), ("large", large)):
        histories[name] = [[], []]
        models[name] = lstm_train_members(
            spec,
            [7, 8],
            [arrays(member[0]), arrays(mate[0])],
            [arrays(member[1]), arrays(mate[1])],
            learning_rate=0.05,
            early_stop_start=3,
            histories=histories[name],
        )[0]
    assert_close_to_oracle(
        models["large"], histories["large"][0], models["small"], histories["small"][0]
    )


def poison(member):
    fit, val = member
    return [(np.full_like(s, np.nan), lbl) for s, lbl in fit], val


def test_nan_member_fails_at_epoch_1_with_its_index():
    rng = np.random.default_rng(5)
    spec = LstmSpec(1, 3, 2, 4, max_epochs=5)
    data = [member_data(rng, 8, 3, 3, 2) for _ in range(3)]
    data[1] = poison(data[1])
    histories = [[], [], []]
    results = lstm_train_members(
        spec,
        [0, 1, 2],
        [arrays(f) for f, _ in data],
        [arrays(v) for _, v in data],
        histories=histories,
    )
    assert isinstance(results[1], TrainingDivergedError)
    assert results[1].member == 1 and "epoch 1" in str(results[1])
    # Members 0 and 2 train to the end, as each does alone.
    for g in (0, 2):
        expected_history = []
        expected = lstm_oracle.train(replace(spec, seed=g), *data[g], history=expected_history)
        assert_close_to_oracle(results[g], histories[g], expected, expected_history)
    assert histories[1] == []


def test_a_diverging_member_fails_alone():
    rng = np.random.default_rng(8)
    spec = LstmSpec(1, 3, 2, 4, max_epochs=30)
    data = [member_data(rng, 8, 3, 3, 2), member_data(rng, 8, 3, 5, 2)]
    data[0] = poison(data[0])
    histories = [[], []]
    results = lstm_train_members(
        spec,
        [0, 1],
        [arrays(f) for f, _ in data],
        [arrays(v) for _, v in data],
        histories=histories,
    )
    assert isinstance(results[0], TrainingDivergedError) and results[0].member == 0
    assert histories[0] == []
    # The later member trains to the end, as it does in a stack of its own.
    alone_history = []
    [alone] = lstm_train_members(
        spec, [1], [arrays(data[1][0])], [arrays(data[1][1])], histories=[alone_history]
    )
    assert len(histories[1]) == 30
    assert_close_to_oracle(results[1], histories[1], alone, alone_history)
    with pytest.raises(TrainingDivergedError):
        lstm_train(spec, *data[0])


def test_invalid_member_input_names_the_member():
    rng = np.random.default_rng(6)
    spec = LstmSpec(1, 3, 2, 4, max_epochs=5)
    good = member_data(rng, 8, 3, 3, 2)
    one_class = [(s, 1) for s, _ in good[0]]
    histories = [[], [], []]
    results = lstm_train_members(
        spec,
        [0, 1, 2],
        [arrays(good[0]), arrays(one_class), arrays(good[0])],
        [arrays(good[1])] * 3,
        histories=histories,
    )
    assert isinstance(results[1], ValueError) and "single class" in str(results[1])
    assert results[1].member == 1
    assert [len(h) for h in histories] == [5, 0, 5]
    assert all(isinstance(results[g], lstm.LstmModel) for g in (0, 2))


@pytest.mark.parametrize("layers, hidden, batch_size, n_val", [(1, 32, 8, 6), (2, 16, 4, 12)])
def test_member_bytes_tracks_the_measured_peak(layers, hidden, batch_size, n_val):
    import tracemalloc

    rng = np.random.default_rng(9)
    spec = LstmSpec(layers, hidden, 8, batch_size, max_epochs=1)
    stacks = {}
    for n_members in (1, 3):
        data = [member_data(rng, 40, n_val, 60, 8) for _ in range(n_members)]
        trains = [arrays(f) for f, _ in data]
        vals = [arrays(v) for _, v in data]
        tracemalloc.start()
        lstm_train_members(spec, list(range(n_members)), trains, vals)
        stacks[n_members] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    caller_copy = 8 * 60 * (40 + n_val) * 8
    per_member = (stacks[3] - stacks[1]) / 2 + caller_copy
    estimate = member_bytes(spec, 60, 40, n_val)
    assert 0.7 * estimate < per_member < 1.3 * estimate
