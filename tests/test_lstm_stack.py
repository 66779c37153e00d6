"""Stacked training must reproduce serial training bit for bit.

The oracle is the one-model implementation frozen in ``lstm_oracle.py``.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lstm_oracle
from handover_intent.lstm import (
    LstmSpec,
    TrainingDivergedError,
    lstm_train,
    lstm_train_members,
    member_bytes,
)


def member_data(rng, n_fit, n_val, steps, dim):
    # Both classes in every fit set; val labels are free.
    fit = [(rng.normal(size=(steps, dim)), i % 2) for i in range(n_fit)]
    val = [(rng.normal(size=(steps, dim)), int(rng.integers(0, 2))) for _ in range(n_val)]
    return fit, val


def arrays(pairs):
    """A member's (sequence, label) pairs as the (x, y) arrays that
    ``lstm_train_members`` takes."""
    return np.stack([s for s, _ in pairs]), np.array([lbl for _, lbl in pairs])


def assert_matches_oracle(spec, seeds, trains, vals, **kw):
    histories = [[] for _ in seeds]
    models = lstm_train_members(
        spec, seeds, list(map(arrays, trains)), list(map(arrays, vals)), histories=histories, **kw
    )
    for seed, train, val, model, history in zip(seeds, trains, vals, models, histories):
        member_spec = replace(spec, seed=seed)
        expected_history = []
        expected = lstm_oracle.train(
            member_spec, train, val, history=expected_history, **kw
        )
        assert np.array_equal(model.parameters, expected.parameters)
        assert model.spec == member_spec
        assert history == expected_history
    return histories


@settings(max_examples=40, deadline=None)
@given(
    layers=st.integers(1, 2),
    hidden=st.integers(1, 4),
    dim=st.integers(1, 3),
    steps=st.integers(1, 4),
    batch_size=st.integers(1, 5),
    max_epochs=st.integers(1, 10),
    early_stop_after=st.one_of(st.none(), st.integers(1, 3)),
    early_stop_start=st.integers(0, 4),
    learning_rate=st.sampled_from([0.0, 1e-3, 0.05]),
    sizes=st.lists(
        st.tuples(st.integers(2, 11), st.integers(1, 6)), min_size=1, max_size=4
    ),
    seed=st.integers(0, 2**31 - 1),
)
def test_stack_matches_serial_oracle(
    layers,
    hidden,
    dim,
    steps,
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
    data = [member_data(rng, n_fit, n_val, steps, dim) for n_fit, n_val in sizes]
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


def test_lstm_train_is_the_stack_of_one():
    rng = np.random.default_rng(4)
    spec = LstmSpec(1, 3, 2, 3, max_epochs=6, seed=9)
    fit, val = member_data(rng, 7, 3, 4, 2)
    history = []
    model = lstm_train(spec, fit, val, history=history)
    expected_history = []
    expected = lstm_oracle.train(spec, fit, val, history=expected_history)
    assert np.array_equal(model.parameters, expected.parameters)
    assert history == expected_history


def poison(member):
    fit, val = member
    return [(np.full_like(s, np.nan), lbl) for s, lbl in fit], val


def test_nan_member_raises_at_epoch_1_with_its_index():
    rng = np.random.default_rng(5)
    spec = LstmSpec(1, 3, 2, 4, max_epochs=5)
    data = [member_data(rng, 8, 3, 3, 2) for _ in range(3)]
    data[1] = poison(data[1])
    histories = [[], [], []]
    with pytest.raises(TrainingDivergedError, match="epoch 1") as info:
        lstm_train_members(
            spec,
            [0, 1, 2],
            [arrays(f) for f, _ in data],
            [arrays(v) for _, v in data],
            histories=histories,
        )
    assert info.value.member == 1
    # Member 0 trains to the end, as serially; member 2 never trains.
    expected_history = []
    lstm_oracle.train(spec, *data[0], history=expected_history)
    assert histories == [expected_history, [], []]


def test_first_member_diverging_stops_the_stack_at_once():
    rng = np.random.default_rng(8)
    spec = LstmSpec(1, 3, 2, 4, max_epochs=500)
    data = [member_data(rng, 8, 3, 3, 2) for _ in range(2)]
    data[0] = poison(data[0])
    histories = [[], []]
    with pytest.raises(TrainingDivergedError) as info:
        lstm_train_members(
            spec,
            [0, 1],
            [arrays(f) for f, _ in data],
            [arrays(v) for _, v in data],
            histories=histories,
        )
    assert info.value.member == 0
    assert histories == [[], []]


def test_invalid_member_input_names_the_member():
    rng = np.random.default_rng(6)
    spec = LstmSpec(1, 3, 2, 4, max_epochs=5)
    good = member_data(rng, 8, 3, 3, 2)
    one_class = [(s, 1) for s, _ in good[0]]
    histories = [[], [], []]
    with pytest.raises(ValueError, match="single class") as info:
        lstm_train_members(
            spec,
            [0, 1, 2],
            [arrays(good[0]), arrays(one_class), arrays(good[0])],
            [arrays(good[1])] * 3,
            histories=histories,
        )
    assert info.value.member == 1
    assert len(histories[0]) == 5 and histories[1:] == [[], []]


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
