import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import handover_intent
from handover_intent import evaluation
from handover_intent.classifiers import (
    fit_flat_preprocessing,
    fit_lda_classifier,
    lda_recipe_for,
    lstm_recipe_for,
)
from handover_intent.core_data import CoverageError, Modality
from handover_intent.evaluation import (
    _window,
    AucTimeline,
    CvScheme,
    EvaluationError,
    View,
    WindowScore,
    aggregate_participants,
    anova_oneway,
    assemble_timeline,
    auc_roc,
    detection_latency_table,
    evaluate_window,
    fit_lstm_ensemble,
    late_fusion_weights,
    make_splits,
    make_view,
    median_timeline,
    prepare_split,
    read_timelines_csv,
    sustained_level_time,
    sweep,
    write_latency_csv,
    write_results_csv,
    write_timeline_csv,
)
from handover_intent.features import (
    FeatureSequence,
    GridError,
    WindowGrid,
    flatten,
    window_features,
)
from handover_intent.lstm import predict_proba_batch
from handover_intent.rng import derive_seed

from conftest import series


def pairwise_auc_oracle(scores, labels):
    """Brute force: fraction of (positive, negative) pairs ranked correctly,
    ties counting one half."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestAuc:
    def test_spec_example(self):
        assert auc_roc(np.array([0.1, 0.4, 0.35, 0.8]), np.array([0, 0, 1, 1])) == 0.75

    def test_reversal_antisymmetry(self, rng):
        scores = rng.random(30)
        labels = (rng.random(30) < 0.4).astype(int)
        labels[0], labels[1] = 0, 1
        assert auc_roc(-scores, labels) == pytest.approx(
            1.0 - auc_roc(scores, labels), abs=1e-12
        )

    def test_chance_level_for_independent_labels(self):
        rng = np.random.default_rng(7)
        scores = rng.random(4000)
        labels = (rng.random(4000) < 0.5).astype(int)
        assert abs(auc_roc(scores, labels) - 0.5) < 0.05

    def test_equals_pairwise_oracle_with_ties(self, rng):
        for _ in range(50):
            n = int(rng.integers(4, 30))
            labels = (rng.random(n) < 0.5).astype(int)
            labels[0], labels[1] = 0, 1
            scores = np.round(rng.random(n) * 4) / 4.0
            assert auc_roc(scores, labels) == pytest.approx(
                pairwise_auc_oracle(scores.tolist(), labels.tolist()), abs=1e-12
            )

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_bit_equal_to_scipy_rankdata(self, seed):
        from scipy.stats import rankdata

        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        labels = (rng.random(n) < 0.5).astype(int)
        labels[0], labels[1] = 0, 1
        scores = np.round(rng.normal(size=n), int(rng.integers(0, 3)))  # ties
        n_pos = int(labels.sum())
        u = rankdata(scores)[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
        assert auc_roc(scores, labels) == float(u / (n_pos * (n - n_pos)))

    def test_nan_score_gives_nan(self):
        assert np.isnan(auc_roc(np.array([0.1, np.nan, 0.3]), np.array([0, 1, 1])))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            auc_roc(np.array([0.1, 0.2]), np.array([1, 1]))


class TestSplits:
    def test_90_trials_10_fold_3_repeats(self):
        labels = np.array([1] * 30 + [0] * 60)
        splits = make_splits(labels, CvScheme(k=10, repeats=3, seed=1))
        assert len(splits) == 30
        for s in splits:
            assert labels[s.test_idx].sum() == 3
            assert (labels[s.test_idx] == 0).sum() == 6
            assert np.intersect1d(s.train_idx, s.test_idx).size == 0

    def test_folds_partition_the_data(self):
        labels = np.array([0, 1] * 13 + [0])
        splits = make_splits(labels, CvScheme(k=5, repeats=2, seed=3))
        for repeat in range(2):
            chunk = splits[repeat * 5 : (repeat + 1) * 5]
            all_test = np.concatenate([s.test_idx for s in chunk])
            assert np.array_equal(np.sort(all_test), np.arange(labels.shape[0]))

    @pytest.mark.parametrize(
        "labels, scheme, message",
        [
            ([0, 0, 0, 1, 1, 1], CvScheme(k=6, repeats=1, seed=0),
             "class 0 has 3 trials, fewer than k=6 folds; use a smaller k"),
            ([0] * 8 + [1] * 4, CvScheme(k=5, repeats=2, seed=0),
             "class 1 has 4 trials, fewer than k=5 folds; use a smaller k"),
            ([0] * 8 + [1] * 4, CvScheme(k=2, repeats=1, nested=True, inner_k=3, seed=0),
             "class 1 has 2 training trials in split 0, fewer than inner_k=3 folds; "
             "use a smaller inner_k"),
        ],
        ids=["k-equals-n", "outer", "inner"],
    )
    def test_a_class_smaller_than_its_fold_count_is_rejected(self, labels, scheme, message):
        with pytest.raises(ValueError) as error:
            make_splits(np.array(labels), scheme)
        assert str(error.value) == message

    def test_k_larger_than_n_suggests_smaller_k(self):
        with pytest.raises(ValueError, match="smaller k"):
            make_splits(np.array([0, 1, 0, 1]), CvScheme(k=5, repeats=1, seed=0))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 5), st.integers(2, 5), st.integers(0, 12), st.integers(0, 12),
        st.integers(0, 2**16),
    )
    def test_every_fold_a_scheme_draws_holds_both_classes(self, k, inner_k, more0, more1, seed):
        # The fewest trials per class that pass: at least k, and at least
        # inner_k left in a training set after the largest test fold.
        least = next(c for c in range(k, 100) if c - -(-c // k) >= inner_k)
        labels = np.array([0] * (least + more0) + [1] * (least + more1))
        scheme = CvScheme(k=k, repeats=2, nested=True, inner_k=inner_k, seed=seed)
        for s in make_splits(labels, scheme):
            folds = [s.train_idx, s.test_idx, *(idx for pair in s.inner for idx in pair)]
            for idx in folds:
                assert set(labels[idx].tolist()) == {0, 1}

    def test_same_seed_reproduces_splits(self):
        labels = np.array([0, 1] * 20)
        a = make_splits(labels, CvScheme(k=4, repeats=2, seed=9))
        b = make_splits(labels, CvScheme(k=4, repeats=2, seed=9))
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.test_idx, sb.test_idx)
        c = make_splits(labels, CvScheme(k=4, repeats=2, seed=10))
        assert any(
            not np.array_equal(sa.test_idx, sc.test_idx) for sa, sc in zip(a, c)
        )

    def test_stratification_within_one_sample(self, rng):
        labels = (rng.random(47) < 0.3).astype(int)
        labels[:2] = [0, 1]
        for k in (3, 5, 7):
            splits = make_splits(labels, CvScheme(k=k, repeats=1, seed=2))
            for cls in (0, 1):
                counts = [(labels[s.test_idx] == cls).sum() for s in splits]
                assert max(counts) - min(counts) <= 1

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"k": 1}, "fold counts must be >= 2"),
            ({"inner_k": 1}, "fold counts must be >= 2"),
            ({"inner_k": 1, "nested": True}, "fold counts must be >= 2"),
            ({"repeats": 0}, "repeats must be >= 1"),
        ],
    )
    def test_scheme_rejects_too_few_folds_or_repeats(self, kwargs, message):
        # inner_k is checked in an unnested scheme too: a view's scheme is the
        # configured one with nested switched on for an LSTM view.
        with pytest.raises(ValueError, match=f"^{message}$"):
            CvScheme(**kwargs)

    def test_nested_inner_folds_avoid_the_outer_test(self):
        labels = np.array([1] * 12 + [0] * 24)
        splits = make_splits(
            labels, CvScheme(k=3, repeats=2, nested=True, inner_k=4, seed=5)
        )
        for s in splits:
            assert s.inner is not None and len(s.inner) == 4
            for fit_idx, val_idx in s.inner:
                assert np.intersect1d(val_idx, s.test_idx).size == 0
                assert np.intersect1d(fit_idx, s.test_idx).size == 0
                assert np.intersect1d(fit_idx, val_idx).size == 0
            all_val = np.concatenate([v for _, v in s.inner])
            assert np.array_equal(np.sort(all_val), np.sort(s.train_idx))


def toy_sequences(rng, n=90, t_samples=55, rate=5.0, signal_at=None, effect=3.0):
    """Motion-like sequences on [-5, 6); class signal only after signal_at."""
    out = []
    times = -5.0 + np.arange(t_samples) / rate
    for i in range(n):
        label = int(i % 3 == 1)
        vals = rng.normal(size=(t_samples, 3))
        if signal_at is not None and label:
            vals[times >= signal_at, 0] += effect
        out.append(
            FeatureSequence(
                modality=Modality.MOTION,
                series=series(-5.0, 1.0 / rate, vals),
                trial_ref=(1, i),
                label=label,
            )
        )
    return out


def evaluate_at(seqs, end, recipe, scheme, grid=None):
    """``evaluate_window`` on the window ending at ``end`` of the one-block
    view of ``seqs``."""
    grid = WindowGrid() if grid is None else grid
    return evaluate_window(make_view([(seqs, recipe)], scheme), grid, grid.index_of(end))


class TestEvaluateWindow:
    def test_no_signal_is_chance_level(self, rng):
        seqs = toy_sequences(rng, signal_at=None)
        score = evaluate_at(
            seqs, 0.0, lda_recipe_for(Modality.MOTION), CvScheme(k=10, repeats=3, seed=4)
        )
        assert 0.4 <= np.mean(score.split_aucs) <= 0.6

    def test_post_onset_signal_splits_pre_and_post_windows(self, rng):
        seqs = toy_sequences(rng, signal_at=1.0, effect=3.0)
        recipe = lda_recipe_for(Modality.MOTION)
        scheme = CvScheme(k=10, repeats=3, seed=4)
        pre = evaluate_at(seqs, 0.0, recipe, scheme)
        post = evaluate_at(seqs, 3.0, recipe, scheme)
        assert 0.4 <= np.mean(pre.split_aucs) <= 0.6
        assert np.mean(post.split_aucs) >= 0.9

    def test_deterministic(self, rng):
        seqs = toy_sequences(rng, signal_at=2.0)
        recipe = lda_recipe_for(Modality.MOTION)
        scheme = CvScheme(k=5, repeats=2, seed=8)
        a = evaluate_at(seqs, 2.5, recipe, scheme)
        b = evaluate_at(seqs, 2.5, recipe, scheme)
        assert a == b

    def test_split_errors_are_tagged(self, rng):
        seqs = toy_sequences(rng, n=12)
        # Unshrunk, a window wider (D = 75) than its training fold (8 trials)
        # has a singular covariance.
        recipe = replace(lda_recipe_for(Modality.MOTION), shrinkage=0.0)
        with pytest.raises(EvaluationError, match="^split 0: pooled covariance is singular"):
            evaluate_at(seqs, 0.0, recipe, CvScheme(k=3, repeats=1, seed=0))

    @pytest.mark.parametrize("nested", [False, True])
    def test_inner_folds_are_drawn_exactly_for_an_lstm_view(self, rng, nested):
        seqs = toy_sequences(rng, n=18, t_samples=10)
        scheme = CvScheme(k=3, repeats=1, nested=nested, inner_k=2, seed=0)
        lstm = make_view([(seqs, lstm_recipe_for(Modality.MOTION))], scheme)
        lda = make_view([(seqs, lda_recipe_for(Modality.MOTION))], scheme)
        assert [len(s.inner) for s in lstm.splits] == [2, 2, 2]
        assert [s.inner for s in lda.splits] == [None] * 3
        for ours, theirs in zip(lstm.splits, lda.splits):
            assert np.array_equal(ours.test_idx, theirs.test_idx)

    def test_lstm_divergence_names_the_split_that_owns_the_member(self, rng):
        seqs = toy_sequences(rng, n=18, t_samples=55)
        scheme = CvScheme(k=2, repeats=1, nested=True, inner_k=2, seed=2)
        labels = np.array([s.label for s in seqs])
        splits = make_splits(labels, scheme)
        # A trial in split 0's test fold is in split 1's training set only.
        poisoned = int(splits[0].test_idx[0])
        assert poisoned in splits[1].train_idx
        bad = seqs[poisoned]
        nan_series = replace(bad.series, values=np.full_like(bad.series.values, np.nan))
        seqs[poisoned] = replace(bad, series=nan_series)
        recipe = replace(lstm_recipe_for(Modality.MOTION), max_epochs=3, hidden=3)
        with pytest.raises(EvaluationError, match=r"^split 1: .*non-finite at epoch 1"):
            evaluate_at(seqs, -3.0, recipe, scheme)

    def test_lstm_training_crash_is_a_failed_window(self, rng, monkeypatch):
        def crash(*args, **kwargs):
            raise MemoryError("out of memory")

        monkeypatch.setattr(evaluation, "lstm_train_members", crash)
        seqs = toy_sequences(rng, n=18, t_samples=55)
        scheme = CvScheme(k=2, repeats=1, nested=True, inner_k=2, seed=2)
        recipe = lstm_recipe_for(Modality.MOTION)
        with pytest.raises(EvaluationError, match="^window: out of memory"):
            evaluate_at(seqs, -3.0, recipe, scheme)
        timeline = sweep([(seqs, recipe)], scheme, participant_id=1, tag="motion")
        assert np.isnan(timeline.auc).all()
        assert len(timeline.errors) == timeline.window_end_times_s.shape[0]

    def test_stack_budget_changes_no_result(self, rng, monkeypatch):
        stacks = []
        train = evaluation.lstm_train_members

        def recording(spec, seeds, trains, vals, **kwargs):
            stacks.append(len(seeds))
            return train(spec, seeds, trains, vals, **kwargs)

        monkeypatch.setattr(evaluation, "lstm_train_members", recording)
        seqs = toy_sequences(rng, n=18, t_samples=55, signal_at=-5.0, effect=4.0)
        recipe = replace(
            lstm_recipe_for(Modality.MOTION), max_epochs=4, hidden=3, early_stop_after=None
        )
        scheme = CvScheme(k=2, repeats=1, nested=True, inner_k=3, seed=2)
        whole = evaluate_at(seqs, -3.0, recipe, scheme)
        assert stacks == [6]
        stacks.clear()
        monkeypatch.setattr(evaluation, "STACK_BYTES", 1)
        one_by_one = evaluate_at(seqs, -3.0, recipe, scheme)
        assert stacks == [1] * 6
        assert one_by_one == whole

    def test_nested_lstm_evaluation_runs(self, rng):
        seqs = toy_sequences(rng, n=18, t_samples=55, signal_at=-5.0, effect=4.0)
        recipe = lstm_recipe_for(Modality.MOTION)
        # shrink the recipe for test speed
        recipe = replace(recipe, max_epochs=8, hidden=4, early_stop_after=None)
        scheme = CvScheme(k=3, repeats=1, nested=True, inner_k=3, seed=2)
        score = evaluate_at(seqs, -3.0, recipe, scheme)
        assert len(score.split_aucs) == 3
        assert np.mean(score.split_aucs) > 0.8  # signal everywhere, easy sequences
        assert (score.fused_dims, score.weight_fallbacks) == ((), 0)

    def test_inner_folds_a_class_cannot_fill_are_rejected(self, rng):
        # 12 trials, 4 of class 1: each outer training fold holds 4 of class 0
        # and 2 of class 1, too few for 3 validation folds with both classes.
        seqs = toy_sequences(rng, n=12, t_samples=55)
        scheme = CvScheme(k=2, repeats=2, inner_k=3, seed=2)
        with pytest.raises(ValueError) as error:
            make_view([(seqs, lstm_recipe_for(Modality.MOTION))], scheme)
        assert str(error.value) == (
            "class 1 has 2 training trials in split 0, fewer than inner_k=3 folds; "
            "use a smaller inner_k"
        )
        make_view([(seqs, lstm_recipe_for(Modality.MOTION))], replace(scheme, inner_k=2))


def motion_sequence(rng, start, n_samples, trial=0):
    values = rng.normal(size=(n_samples, 3))
    return FeatureSequence(Modality.MOTION, series(start, 0.2, values), (1, trial), trial % 2)


class TestWindowArrays:
    def test_slices_equal_window_features_to_the_bit(self, rng):
        seqs = [motion_sequence(rng, start, 40, i) for i, start in enumerate((-5.0, -5.2, -5.4))]
        grid = WindowGrid(first_end_s=-1.0, last_end_s=1.0, step_s=0.5)
        for end in grid.end_times():
            windows = [window_features(s, end, grid) for s in seqs]
            tensor = np.stack([w.series.values for w in windows])
            matrix = np.stack([flatten(w) for w in windows])
            window = _window(seqs, end, grid)
            assert window.tobytes() == tensor.tobytes()
            # LDA flattens each trial's window time-major, as ``flatten`` does.
            assert window.reshape(len(seqs), -1).tobytes() == matrix.tobytes()

    def test_errors_are_those_of_window_features(self, rng):
        grid = WindowGrid(first_end_s=-4.95, last_end_s=1.0, step_s=0.05)
        full, short, off_grid = (
            motion_sequence(rng, -5.0, 40),
            motion_sequence(rng, -5.0, 20),  # ends at -1.2 s
            motion_sequence(rng, -5.1, 40),  # no sample in [-5.0, -4.95)
        )
        cases = [
            ([full], 0.02, GridError),
            ([full, short], 0.0, CoverageError),
            ([off_grid], -4.95, ValueError),
        ]
        for seqs, end, error in cases:
            with pytest.raises(error) as expected:
                for s in seqs:
                    window_features(s, end, grid)
            with pytest.raises(type(expected.value)) as got:
                _window(seqs, end, grid)
            assert str(got.value) == str(expected.value)


def two_block_view(rng, late, scheme=CvScheme(k=3, repeats=2, seed=5)):
    """A standardize+PCA block and a raw block over the same 30 trials."""
    pca = lda_recipe_for(Modality.EEG, eeg_pca_target=0.9)
    raw = lda_recipe_for(Modality.MOTION)
    blocks = [(toy_sequences(rng, n=30, signal_at=0.0), recipe) for recipe in (pca, raw)]
    return make_view(blocks, scheme, late)


class TestStages:
    @pytest.mark.parametrize("kind", ["early", "late", "lstm"])
    def test_prepare_split_reads_no_labels(self, rng, kind):
        # Shared preparation across views and label permutations rely on it.
        if kind == "lstm":  # one standardized sequence block
            recipe = lstm_recipe_for(Modality.MOTION, standardize_all=True)
            scheme = CvScheme(k=3, repeats=2, nested=True, inner_k=2, seed=5)
            view = make_view([(toy_sequences(rng, n=30, signal_at=0.0), recipe)], scheme)
        else:
            view = two_block_view(rng, late=kind == "late")
        permuted = replace(view, labels=rng.permutation(view.labels))
        assert not np.array_equal(permuted.labels, view.labels)
        grid = WindowGrid()
        xs = [_window(seqs, 1.0, grid) for seqs, _ in view.blocks]
        if kind != "lstm":
            xs = [x.reshape(len(x), -1) for x in xs]
        for split in view.splits:
            parts = prepare_split(view, xs, split)
            if kind == "lstm":
                [(x_train, x_test)] = parts
                assert x_train.shape == (len(split.train_idx), *xs[0].shape[1:])
                assert x_test.shape == (len(split.test_idx), *xs[0].shape[1:])
                assert np.allclose(x_train.mean(axis=(0, 1)), 0.0)  # standardized
            else:
                assert parts[0][0].shape[1] < xs[0].shape[1] == parts[1][0].shape[1]  # PCA, raw
            for ours, theirs in zip(parts, prepare_split(permuted, xs, split)):
                assert [rows.tobytes() for rows in ours] == [rows.tobytes() for rows in theirs]

    @pytest.mark.parametrize("late", [False, True], ids=["early", "late"])
    def test_work_per_window(self, rng, monkeypatch, late):
        calls = dict.fromkeys(("fit_flat_preprocessing", "lda_fit", "auc_roc"), 0)
        for name in calls:

            def counted(*args, _name=name, _fn=getattr(evaluation, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(evaluation, name, counted)
        view = two_block_view(rng, late, CvScheme(k=3, repeats=2, seed=5))
        grid = WindowGrid()
        evaluate_window(view, grid, grid.index_of(1.0))
        splits, blocks = 3 * 2, 2
        assert calls == {
            "fit_flat_preprocessing": blocks * splits,
            "lda_fit": blocks * splits if late else splits,
            "auc_roc": splits + (blocks * splits if late else 0),  # late training AUCs
        }

    def test_one_block_lstm_window_equals_a_hand_loop(self, rng, monkeypatch):
        calls = dict.fromkeys(("fit_flat_preprocessing", "predict_proba_batch", "auc_roc"), 0)
        scored = []  # every score vector the engine ranks, bit for bit
        for name in calls:

            def counted(*args, _name=name, _fn=getattr(evaluation, name), **kwargs):
                calls[_name] += 1
                if _name == "auc_roc":
                    scored.append(args[0].tobytes())
                return _fn(*args, **kwargs)

            monkeypatch.setattr(evaluation, name, counted)
        seqs = toy_sequences(rng, n=18, t_samples=55, signal_at=-5.0, effect=1.0)
        recipe = replace(
            lstm_recipe_for(Modality.MOTION, standardize_all=True),
            max_epochs=3, hidden=3, early_stop_after=None,
        )
        scheme = CvScheme(k=2, repeats=2, nested=True, inner_k=2, seed=9)
        grid = WindowGrid()
        window_index = grid.index_of(-3.0)
        view = make_view([(seqs, recipe)], scheme)
        score = evaluate_window(view, grid, window_index)
        splits, members = 2 * 2, 2 * 2 * 2
        assert calls == {
            "fit_flat_preprocessing": splits,
            "predict_proba_batch": 2 * members,  # validation, then test
            "auc_roc": members + splits,
        }
        monkeypatch.undo()
        ordered = sorted(seqs, key=lambda s: s.trial_ref)
        x = np.stack([window_features(s, -3.0, grid).series.values for s in ordered])
        labels = np.array([s.label for s in ordered])
        aucs = []
        for i, split in enumerate(make_splits(labels, scheme)):
            prep, _ = fit_flat_preprocessing(x[split.train_idx], recipe)
            seed = derive_seed(scheme.seed, "lstm", window_index, i)
            trained = fit_lstm_ensemble(
                recipe.spec(input_dim=x.shape[2], seed=seed),
                [
                    (derive_seed(seed, "member", j), prep.apply(x[fit]), labels[fit],
                     prep.apply(x[val]), labels[val])
                    for j, (fit, val) in enumerate(split.inner)
                ],
            )
            weights, _ = late_fusion_weights([auc for _, auc in trained])
            x_test = prep.apply(x[split.test_idx])
            scores = sum(w * predict_proba_batch(m, x_test) for (m, _), w in zip(trained, weights))
            assert scores.tobytes() in scored
            aucs.append(auc_roc(scores, labels[split.test_idx]))
        assert score.split_aucs == tuple(aucs)


RANKERS = {
    "evaluate_window": "the reported test AUC",
    "score_split": "late-fusion training AUCs",
    "fit_lstm_ensemble": "validation AUCs",
}


def stray_auc_refs(source: str) -> list:
    """The line of each reference to ``auc_roc`` (a call, or a name or
    attribute passed on) in ``source`` outside the bodies of ``RANKERS``."""
    tree = ast.parse(source)
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in RANKERS:
            allowed |= set(ast.walk(node))
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if node not in allowed
        and (
            (isinstance(node, ast.Name) and node.id == "auc_roc")
            or (isinstance(node, ast.Attribute) and node.attr == "auc_roc")
        )
    )


class TestOneScoringPlace:
    def test_the_program_ranks_scores_only_in_the_rankers(self):
        found = []
        for path in sorted(Path(handover_intent.__file__).parent.glob("*.py")):
            found += [f"{path.name}:{line}" for line in stray_auc_refs(path.read_text())]
        assert found == []

    def test_the_guard_flags_a_reference_anywhere_else(self):
        source = (
            "auc_roc(s, y)\n"
            "rank = evaluation.auc_roc\n"
            "def _lstm_scores():\n"
            "    yield auc_roc(s, y)\n"
            "class A:\n"
            "    def score(self):\n"
            "        return list(map(auc_roc, xs))\n"
            "from handover_intent.evaluation import auc_roc\n"
            "def auc_roc(scores, labels):\n"
            "    return 0.5\n"
            "def evaluate_window():\n"
            "    return auc_roc(s, y)\n"
            "def score_split():\n"
            "    return evaluation.auc_roc(s, y)\n"
            "def fit_lstm_ensemble():\n"
            "    return [auc_roc(p, y) for p in ps]\n"
        )
        assert stray_auc_refs(source) == [1, 2, 4, 7]


class TestSweep:
    def test_grid_size_and_order_invariance(self, rng):
        seqs = toy_sequences(rng, n=30, signal_at=1.0)
        recipe = lda_recipe_for(Modality.MOTION)
        scheme = CvScheme(k=3, repeats=1, seed=3)
        timeline = sweep([(seqs, recipe)], scheme, participant_id=1, tag="motion")
        assert timeline.window_end_times_s.shape[0] == 44
        shuffled = list(seqs)
        rng.shuffle(shuffled)
        timeline2 = sweep([(shuffled, recipe)], scheme, participant_id=1, tag="motion")
        assert np.array_equal(timeline.auc, timeline2.auc)

    def test_signal_rises_only_after_injection(self, rng):
        seqs = toy_sequences(rng, n=60, signal_at=1.0, effect=4.0)
        recipe = lda_recipe_for(Modality.MOTION)
        scheme = CvScheme(k=5, repeats=2, seed=6)
        timeline = sweep([(seqs, recipe)], scheme, participant_id=1, tag="motion")
        ends = timeline.window_end_times_s
        pre = timeline.auc[ends <= 1.0]
        post = timeline.auc[ends >= 2.0]
        assert np.all(pre < 0.75)
        assert np.all(post > 0.9)

    def test_one_block_lda_sweep_equals_a_hand_loop(self, rng):
        seqs = toy_sequences(rng, n=30, signal_at=0.0)
        recipe = lda_recipe_for(Modality.EEG, eeg_pca_target=0.9)  # standardize + PCA
        scheme = CvScheme(k=3, repeats=2, seed=11)
        grid = WindowGrid(first_end_s=-1.0, last_end_s=1.0, step_s=0.5)
        timeline = sweep([(seqs, recipe)], scheme, grid=grid)
        ordered = sorted(seqs, key=lambda s: s.trial_ref)
        labels = np.array([s.label for s in ordered])
        splits = make_splits(labels, scheme)
        for i, end in enumerate(grid.end_times()):
            x = np.stack([flatten(window_features(s, end, grid)) for s in ordered])
            aucs = []
            for split in splits:
                train, test = split.train_idx, split.test_idx
                clf = fit_lda_classifier(x[train], labels[train], recipe)
                aucs.append(auc_roc(clf.predict_proba(x[test]), labels[test]))
            assert timeline.auc[i] == np.mean(aucs)
            assert timeline.auc_median[i] == np.percentile(aucs, 50)
        assert (timeline.participant_id, timeline.tag, timeline.model) == (1, "motion", "lda")

    def test_failing_windows_marked_missing_not_fatal(self, rng):
        # sequences cover [-5, 2) only; later windows fail with coverage errors
        seqs = toy_sequences(rng, n=30, t_samples=35)
        recipe = lda_recipe_for(Modality.MOTION)
        scheme = CvScheme(k=3, repeats=1, seed=1)
        timeline = sweep([(seqs, recipe)], scheme, participant_id=1, tag="motion")
        ends = timeline.window_end_times_s
        assert np.isfinite(timeline.auc[ends <= 1.75]).all()
        assert np.isnan(timeline.auc[ends > 2.0]).all()
        assert timeline.errors and all(end > 1.75 for end, _ in timeline.errors)

    @pytest.mark.parametrize(
        "recipe",
        [lda_recipe_for(Modality.MOTION), lda_recipe_for(Modality.EEG, eeg_pca_target=0.9)],
        ids=["raw", "standardize+pca"],
    )
    def test_nan_feature_fails_exactly_the_windows_that_contain_it(self, rng, recipe):
        seqs = toy_sequences(rng, n=30, signal_at=0.0)
        values = seqs[7].series.values.copy()
        values[25, 1] = np.nan  # the sample at t = 0.0 s
        seqs[7] = FeatureSequence(Modality.MOTION, series(-5.0, 0.2, values), (1, 7), seqs[7].label)
        grid = WindowGrid(first_end_s=-1.0, last_end_s=1.0, step_s=0.5)
        timeline = sweep([(seqs, recipe)], CvScheme(k=3, repeats=1, seed=2), grid=grid)
        holds_nan = [
            bool(np.isnan(flatten(window_features(seqs[7], end, grid))).any())
            for end in grid.end_times()
        ]
        assert holds_nan == [False, False, False, True, True]
        assert [end for end, _ in timeline.errors] == [0.5, 1.0]
        assert all("infs or NaNs" in message for _, message in timeline.errors)
        assert np.isfinite(timeline.auc[:3]).all() and np.isnan(timeline.auc[3:]).all()


def same_bits(actual, expected) -> bool:
    """Equal to the bit, any nan matching any nan."""
    actual, expected = np.float64(actual), np.float64(expected)
    if np.isnan(expected):
        return bool(np.isnan(actual))
    return actual.tobytes() == expected.tobytes()


class TestAssembleTimeline:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_columns_are_numpys_statistics_of_each_windows_split_aucs(self, data):
        n_splits = data.draw(st.integers(2, 12))
        n_windows = data.draw(st.integers(1, 6))
        # A small pool makes ties likely; nan is an AUC of nan scores.
        auc = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, np.nan]), st.floats(0.0, 1.0))
        window = st.one_of(
            st.none(), st.lists(auc, min_size=n_splits, max_size=n_splits).map(tuple)
        )
        windows = data.draw(st.lists(window, min_size=n_windows, max_size=n_windows))
        grid = WindowGrid(first_end_s=-4.0, last_end_s=-4.0 + 0.5 * (n_windows - 1), step_s=0.5)
        ends = grid.end_times()
        results = [
            (None, "split 0: failed") if aucs is None else (WindowScore(end, aucs, (), 0), None)
            for end, aucs in zip(ends, windows)
        ]
        blocks = (((), lda_recipe_for(Modality.GAZE)),)  # only the model name is read
        view = View(blocks, np.array([]), (None,) * n_splits, 0)
        timeline = assemble_timeline(view, grid, results, participant_id=1, tag="gaze")
        columns = (
            timeline.auc,
            timeline.auc_std,
            timeline.auc_stderr,
            timeline.auc_median,
            timeline.auc_q25,
            timeline.auc_q75,
        )
        for i, aucs in enumerate(windows):
            if aucs is None:
                assert all(np.isnan(column[i]) for column in columns)
                continue
            std = np.std(aucs, ddof=1)
            quartiles = np.percentile(aucs, (50, 25, 75))
            expected = (np.mean(aucs), std, std / np.sqrt(n_splits), *quartiles)
            assert all(same_bits(c[i], e) for c, e in zip(columns, expected, strict=True))
        assert timeline.n_splits == n_splits
        failed = [end for end, aucs in zip(ends, windows) if aucs is None]
        assert [end for end, _ in timeline.errors] == failed


def timeline_from(auc_values, participant_id=1, tag="gaze", model="lda"):
    auc = np.asarray(auc_values, dtype=float)
    n = auc.shape[0]
    ends = -4.75 + 0.25 * np.arange(n)
    zeros = np.zeros(n)
    return AucTimeline(
        participant_id=participant_id,
        tag=tag,
        model=model,
        window_end_times_s=ends,
        auc=auc,
        auc_std=zeros,
        auc_stderr=zeros,
        auc_median=auc,
        auc_q25=auc,
        auc_q75=auc,
        n_splits=30,
    )


class TestSustainedLevel:
    def test_scan_example(self):
        tl = timeline_from([0.5, 0.62, 0.61, 0.63, 0.58, 0.5])
        assert sustained_level_time(tl, 0.60) == pytest.approx(-4.5)

    def test_unreached_level_is_none(self):
        tl = timeline_from([0.5, 0.62, 0.61, 0.63, 0.58, 0.5])
        assert sustained_level_time(tl, 0.9) is None

    def test_run_length_one_accepts_a_spike(self):
        tl = timeline_from([0.5, 0.8, 0.5, 0.5, 0.5])
        assert sustained_level_time(tl, 0.75, run_length=1) == pytest.approx(-4.5)
        assert sustained_level_time(tl, 0.75, run_length=3) is None

    def test_missing_windows_break_runs(self):
        tl = timeline_from([0.8, np.nan, 0.8, 0.8, 0.8])
        assert sustained_level_time(tl, 0.75) == pytest.approx(-4.25)

    def test_run_must_fit_inside_the_grid(self):
        tl = timeline_from([0.5, 0.5, 0.5, 0.8, 0.8])
        assert sustained_level_time(tl, 0.75, run_length=3) is None

    @given(st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_level(self, seed):
        rng = np.random.default_rng(seed)
        tl = timeline_from(rng.random(20))
        times = [sustained_level_time(tl, level) for level in (0.3, 0.5, 0.7, 0.9)]
        for earlier, later in zip(times, times[1:]):
            if earlier is None:
                assert later is None  # unreached stays unreached at higher levels
            elif later is not None:
                assert later >= earlier

    def test_run_length_validation(self):
        with pytest.raises(ValueError):
            sustained_level_time(timeline_from([0.5]), 0.5, run_length=0)


class TestAggregation:
    def test_single_participant_degenerate_band(self):
        tl = timeline_from([0.5, 0.6, 0.7])
        agg = aggregate_participants([tl])
        assert np.array_equal(agg.auc, tl.auc)
        assert np.array_equal(agg.q25, tl.auc)
        assert np.array_equal(agg.q75, tl.auc)

    def test_quartiles_use_linear_interpolation(self):
        tls = [
            timeline_from([0.4] * 4, participant_id=1),
            timeline_from([0.5] * 4, participant_id=2),
            timeline_from([0.6] * 4, participant_id=3),
        ]
        agg = aggregate_participants(tls)
        assert np.allclose(agg.auc, 0.5)
        assert np.allclose(agg.q25, 0.45)
        assert np.allclose(agg.q75, 0.55)

    def test_permutation_invariance(self, rng):
        tls = [timeline_from(rng.random(6), participant_id=i) for i in range(1, 6)]
        a = aggregate_participants(tls)
        b = aggregate_participants(tls[::-1])
        assert np.array_equal(a.auc, b.auc)

    def test_grid_mismatch_rejected(self):
        a = timeline_from([0.5, 0.5])
        b = timeline_from([0.5, 0.5, 0.5])
        with pytest.raises(ValueError, match="grids"):
            aggregate_participants([a, b])

    def test_median_timeline_wraps_aggregate(self):
        tls = [timeline_from([0.4, 0.8]), timeline_from([0.6, 0.9], participant_id=2)]
        med = median_timeline(tls)
        assert med.auc.tolist() == [0.5, pytest.approx(0.85)]


class TestAnova:
    def test_identical_means_give_tiny_f(self, rng):
        base = rng.normal(size=30)
        f, p = anova_oneway([base, base.copy()])
        assert f == pytest.approx(0.0, abs=1e-12)
        assert p == pytest.approx(1.0)

    def test_separated_groups_are_significant(self, rng):
        groups = [rng.normal(loc=m, scale=0.5, size=15) for m in (0.0, 2.0, 4.0)]
        f, p = anova_oneway(groups)
        assert p < 0.01

    def test_scale_invariance(self, rng):
        groups = [rng.normal(size=10), rng.normal(loc=1.0, size=12)]
        f1, p1 = anova_oneway(groups)
        f2, p2 = anova_oneway([g * 7.5 for g in groups])
        assert f1 == pytest.approx(f2)
        assert p1 == pytest.approx(p2)

    def test_matches_scipy_reference(self, rng):
        from scipy.stats import f_oneway

        groups = [rng.normal(size=n) for n in (8, 12, 9)]
        f, p = anova_oneway(groups)
        ref = f_oneway(*groups)
        assert f == pytest.approx(ref.statistic)
        assert p == pytest.approx(ref.pvalue)

    def test_p_is_bit_equal_to_scipy_stats_f_sf(self, rng):
        from scipy.stats import f as f_dist

        for sizes in ((2, 2), (3, 5, 4), (8, 12, 9), (30, 2, 7, 11)):
            groups = [rng.normal(loc=0.3 * i, size=n) for i, n in enumerate(sizes)]
            f, p = anova_oneway(groups)
            assert p == f_dist.sf(f, len(sizes) - 1, sum(sizes) - len(sizes))

    def test_degenerate_groups_rejected(self):
        with pytest.raises(ValueError):
            anova_oneway([[1.0, 2.0]])
        with pytest.raises(ValueError):
            anova_oneway([[1.0, 2.0], [3.0]])
        with pytest.raises(ValueError, match="within"):
            anova_oneway([[1.0, 1.0], [2.0, 2.0]])


class TestLatencyTable:
    def test_times_come_from_the_median_timeline(self):
        gaze = [
            timeline_from([0.5, 0.7, 0.8, 0.8, 0.8], participant_id=i, tag="gaze")
            for i in (1, 2, 3)
        ]
        motion = [
            timeline_from([0.5, 0.5, 0.5, 0.8, 0.8], participant_id=i, tag="motion")
            for i in (1, 2, 3)
        ]
        rows = detection_latency_table(
            {"gaze": gaze, "motion": motion}, levels=(0.60, 0.75, 0.90), run_length=3
        )
        by_level = {row.level: row for row in rows}
        assert by_level[0.60].times["gaze"] == pytest.approx(-4.5)
        assert by_level[0.60].times["motion"] is None  # run of 3 never fits
        assert by_level[0.90].times["gaze"] is None

    def test_anova_flags_differences_across_tags(self, rng):
        def tl(pid, tag, reach_at):
            auc = np.full(20, 0.5)
            auc[reach_at:] = 0.9
            return timeline_from(auc, participant_id=pid, tag=tag)

        early = [tl(i, "gaze", 2 + (i % 3)) for i in range(1, 7)]
        late = [tl(i, "motion", 12 + (i % 3)) for i in range(1, 7)]
        rows = detection_latency_table({"gaze": early, "motion": late}, levels=(0.8,))
        assert rows[0].anova_p is not None and rows[0].anova_p < 0.05
        assert rows[0].significant is True

    def test_csv_marks_unreached_levels_with_x(self, tmp_path):
        gaze = [timeline_from([0.5, 0.9, 0.9, 0.9], tag="gaze")]
        rows = detection_latency_table({"gaze": gaze}, levels=(0.6, 0.95))
        path = tmp_path / "latency.csv"
        write_latency_csv(path, rows, ["gaze"])
        text = path.read_text().splitlines()
        assert text[0] == "level,gaze,anova_f,anova_p,significant"
        assert text[1].startswith("0.6,-4.5")
        assert text[2].startswith("0.95,X")


class TestTimelineCsv:
    def test_round_trip(self, rng, tmp_path):
        auc = rng.random(44)
        tl = timeline_from(auc)
        path = tmp_path / "tl.csv"
        write_timeline_csv(path, tl)
        assert len(path.read_text().splitlines()) == 45  # header + 44 rows
        back = read_timelines_csv(path)
        assert len(back) == 1
        assert np.array_equal(back[0].auc, tl.auc)
        assert back[0].tag == "gaze" and back[0].participant_id == 1

    def test_results_csv_groups_multiple_timelines(self, rng, tmp_path):
        tls = [
            timeline_from(rng.random(5), participant_id=1, tag="gaze"),
            timeline_from(rng.random(5), participant_id=2, tag="gaze"),
            timeline_from(rng.random(5), participant_id=1, tag="motion"),
        ]
        path = tmp_path / "results.csv"
        write_results_csv(path, tls)
        back = read_timelines_csv(path)
        assert len(back) == 3
        keys = {(t.participant_id, t.tag) for t in back}
        assert keys == {(1, "gaze"), (2, "gaze"), (1, "motion")}

    def test_nan_round_trips_for_missing_windows(self, tmp_path):
        tl = timeline_from([0.5, np.nan, 0.7])
        path = tmp_path / "tl.csv"
        write_timeline_csv(path, tl)
        back = read_timelines_csv(path)[0]
        assert np.isnan(back.auc[1]) and back.auc[2] == 0.7
