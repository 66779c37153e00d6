import numpy as np
import pytest

import handover_intent.evaluation as evaluation
from handover_intent.core_data import Modality
from handover_intent.classifiers import (
    fit_flat_preprocessing,
    fit_lda_classifier,
    lda_recipe_for,
    lstm_recipe_for,
)
from handover_intent.evaluation import (
    CvScheme,
    auc_roc,
    evaluate_window,
    make_view,
    sweep,
)
from handover_intent.features import FeatureSequence, WindowGrid, flatten, window_features
from handover_intent.fusion import (
    FusionMode,
    FusionSpec,
    late_fuse,
    late_fusion_weights,
    run_fusion_sweep,
)

from conftest import series, sweep_view


class TestFusionSpec:
    def test_requires_two_distinct_modalities(self):
        with pytest.raises(ValueError):
            FusionSpec(mode=FusionMode.EARLY, modalities=(Modality.GAZE,))
        spec = FusionSpec(
            mode=FusionMode.LATE, modalities=(Modality.MOTION, Modality.GAZE)
        )
        # canonical order: eeg, gaze, motion
        assert spec.modalities == (Modality.GAZE, Modality.MOTION)
        assert spec.tag() == "late:gaze+motion"


class TestLateFuse:
    def test_equal_performances_average(self):
        assert late_fuse([0.9, 0.5], [0.8, 0.8]) == pytest.approx(0.7)

    def test_degenerate_performance_pair(self):
        assert late_fuse([1.0, 0.0], [1.0, 1e-9]) == pytest.approx(1.0, abs=1e-8)

    def test_duplicated_modality_is_a_fixed_point(self):
        assert late_fuse([0.62, 0.62], [0.7, 0.7]) == pytest.approx(0.62)

    def test_weights_scale_invariant(self):
        w1, _ = late_fusion_weights([0.5, 0.25])
        w2, _ = late_fusion_weights([1.0, 0.5])
        assert np.allclose(w1, w2)

    def test_zero_performance_fallback_flagged(self):
        weights, fallback = late_fusion_weights([0.0, 0.0, 0.0])
        assert fallback is True
        assert np.allclose(weights, 1.0 / 3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            late_fusion_weights([0.5])
        with pytest.raises(ValueError):
            late_fusion_weights([0.5, 1.5])
        with pytest.raises(ValueError):
            late_fuse([0.5, 0.5, 0.5], [0.5, 0.5])

    def test_convexity_on_random_tuples(self, rng):
        for _ in range(500):
            k = int(rng.integers(2, 5))
            probs = rng.random(k)
            perfs = rng.random(k)
            fused = late_fuse(probs, perfs)
            assert probs.min() - 1e-12 <= fused <= probs.max() + 1e-12


def modality_sequences(rng, modality, n=36, rate=5.0, informative=True, effect=4.0):
    t_samples = int(round(11 * rate)) + 1
    times = -5.0 + np.arange(t_samples) / rate
    d = {Modality.GAZE: 2, Modality.MOTION: 3, Modality.EEG: 6}[modality]
    out = []
    for i in range(n):
        label = int(i % 3 == 1)
        vals = rng.normal(size=(t_samples, d))
        if informative and label:
            vals[times >= 1.0, 0] += effect
        out.append(
            FeatureSequence(
                modality=modality,
                series=series(-5.0, 1.0 / rate, vals),
                trial_ref=(1, i),
                label=label,
            )
        )
    return out


def window_matrix(sequences, end, grid):
    return np.stack([flatten(window_features(s, end, grid)) for s in sequences])


class TestEarlyFuse:
    """Early fusion concatenates the blocks' fold-preprocessed windows, in
    view order, and fits one LDA on the result."""

    GRID = WindowGrid(first_end_s=-3.0, last_end_s=0.0, step_s=1.0)
    SCHEME = CvScheme(k=3, repeats=1, seed=2)
    SAMPLES = 10  # in the first window, [-5.0, -3.0) at 5 Hz

    def fit_inputs(self, monkeypatch, blocks):
        """The view, each split's LDA training matrix and the score of the
        first window."""
        seen = []
        fit = evaluation.lda_fit

        def recording(x, y, shrinkage):
            seen.append(x)
            return fit(x, y, shrinkage)

        monkeypatch.setattr(evaluation, "lda_fit", recording)
        view = make_view(blocks, self.SCHEME)
        return view, seen, evaluate_window(view, self.GRID, 0)

    def test_dimension_is_the_sum_of_parts(self, rng, monkeypatch):
        blocks = [
            (modality_sequences(rng, m), lda_recipe_for(m))
            for m in (Modality.GAZE, Modality.MOTION)
        ]
        view, seen, score = self.fit_inputs(monkeypatch, blocks)
        assert score.fused_dims == ((2 + 3) * self.SAMPLES,) * 3
        xs = [window_matrix(seqs, -3.0, self.GRID) for seqs, _ in view.blocks]
        for x_train, split in zip(seen, view.splits, strict=True):
            assert np.array_equal(x_train, np.hstack([x[split.train_idx] for x in xs]))

    def test_with_reduced_eeg_block(self, rng, monkeypatch):
        blocks = [
            (modality_sequences(rng, m), lda_recipe_for(m))
            for m in (Modality.EEG, Modality.GAZE, Modality.MOTION)
        ]
        view, _, score = self.fit_inputs(monkeypatch, blocks)
        eeg, recipe = view.blocks[0]
        x = window_matrix(eeg, -3.0, self.GRID)
        for fused_dim, split in zip(score.fused_dims, view.splits, strict=True):
            prep, _ = fit_flat_preprocessing(x[split.train_idx], recipe)
            k = prep.pca.components.shape[0]
            assert k < x.shape[1]
            assert fused_dim == k + (2 + 3) * self.SAMPLES

    def test_deterministic(self, rng):
        gaze = modality_sequences(rng, Modality.GAZE)
        motion = modality_sequences(rng, Modality.MOTION)
        view = make_view(
            [(gaze, lda_recipe_for(Modality.GAZE)), (motion, lda_recipe_for(Modality.MOTION))],
            self.SCHEME,
        )
        scores = [evaluate_window(view, self.GRID, 2) for _ in range(2)]
        assert scores[0] == scores[1]
        assert scores[0].fused_dims

    def test_single_part_is_identity(self, rng, monkeypatch):
        gaze = modality_sequences(rng, Modality.GAZE)
        view, seen, _ = self.fit_inputs(monkeypatch, [(gaze, lda_recipe_for(Modality.GAZE))])
        x = window_matrix(view.blocks[0][0], -3.0, self.GRID)
        for x_train, split in zip(seen, view.splits, strict=True):
            assert np.array_equal(x_train, x[split.train_idx])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_view([], self.SCHEME)


class TestLateSplitFixedPoint:
    def test_identical_members_reproduce_the_single_modality_auc(self, rng):
        # The same block twice in a late view: fused probabilities must match
        # the single member's, so the AUC matches too.
        gaze = modality_sequences(rng, Modality.GAZE)
        recipe = lda_recipe_for(Modality.GAZE)
        grid = WindowGrid(first_end_s=2.0, last_end_s=2.0, step_s=1.0)
        view = make_view(
            [(gaze, recipe), (gaze, recipe)], CvScheme(k=3, repeats=1, seed=0), late=True
        )
        fused = evaluate_window(view, grid, 0)
        x = window_matrix(view.blocks[0][0], 2.0, grid)
        labels = view.labels
        for fused_auc, split in zip(fused.split_aucs, view.splits, strict=True):
            train, test = split.train_idx, split.test_idx
            clf = fit_lda_classifier(x[train], labels[train], recipe)
            single_auc = auc_roc(clf.predict_proba(x[test]), labels[test])
            assert fused_auc == pytest.approx(single_auc, abs=1e-9)

    def test_late_view_with_a_reduced_eeg_member_equals_a_hand_loop(self, rng):
        # Each member is one fit_lda_classifier, weighted by its training AUC.
        blocks = [
            (modality_sequences(rng, m), lda_recipe_for(m, eeg_pca_target=0.9))
            for m in (Modality.EEG, Modality.GAZE)
        ]
        grid = WindowGrid(first_end_s=2.0, last_end_s=2.0, step_s=1.0)
        view = make_view(blocks, CvScheme(k=3, repeats=2, seed=4), late=True)
        fused = evaluate_window(view, grid, 0)
        xs = [window_matrix(seqs, 2.0, grid) for seqs, _ in view.blocks]
        labels = view.labels
        expected = []
        for split in view.splits:
            train, test = split.train_idx, split.test_idx
            clfs = [fit_lda_classifier(x[train], labels[train], r)
                    for x, (_, r) in zip(xs, view.blocks)]
            assert clfs[0].preprocessing.pca.components.shape[0] < xs[0].shape[1]
            perfs = [auc_roc(clf.predict_proba(x[train]), labels[train])
                     for clf, x in zip(clfs, xs)]
            weights, _ = late_fusion_weights(perfs)
            scores = weights @ np.stack([clf.predict_proba(x[test]) for clf, x in zip(clfs, xs)])
            expected.append(auc_roc(scores, labels[test]))
        assert fused.split_aucs == tuple(expected)


class TestFusionSweep:
    def test_late_fusion_stays_inside_the_member_envelope(self, rng):
        gaze = modality_sequences(rng, Modality.GAZE, informative=True)
        motion = modality_sequences(rng, Modality.MOTION, informative=False)
        scheme = CvScheme(k=3, repeats=1, seed=5)
        grid = WindowGrid(first_end_s=0.0, last_end_s=4.0, step_s=1.0)
        spec = FusionSpec(mode=FusionMode.LATE, modalities=(Modality.GAZE, Modality.MOTION))
        fused = run_fusion_sweep(
            {Modality.GAZE: gaze, Modality.MOTION: motion}, spec, scheme, grid=grid
        )
        g = sweep([(gaze, lda_recipe_for(Modality.GAZE))], scheme, grid=grid)
        m = sweep([(motion, lda_recipe_for(Modality.MOTION))], scheme, grid=grid)
        lo = np.minimum(g.auc, m.auc)
        hi = np.maximum(g.auc, m.auc)
        # empirical on this generator/seed: fused stays within the envelope
        assert np.all(fused.auc >= lo - 0.05)
        assert np.all(fused.auc <= hi + 0.05)
        assert fused.tag == "late:gaze+motion"

    def test_early_fusion_dimension_audit_matches_concatenation(self, rng):
        gaze = modality_sequences(rng, Modality.GAZE, rate=5.0)
        motion = modality_sequences(rng, Modality.MOTION, rate=5.0)
        scheme = CvScheme(k=3, repeats=1, seed=2)
        grid = WindowGrid(first_end_s=-3.0, last_end_s=0.0, step_s=1.0)
        blocks = [(gaze, lda_recipe_for(Modality.GAZE)), (motion, lda_recipe_for(Modality.MOTION))]
        _, scores = sweep_view(blocks, scheme, grid)
        assert len(scores) == 4
        for score in scores:
            t_in_window = int(np.ceil((score.end_time_s - -5.0) * 5.0 - 1e-9))
            assert score.fused_dims == (2 * t_in_window + 3 * t_in_window,) * 3

    def test_early_fusion_with_informative_modality_beats_chance(self, rng):
        gaze = modality_sequences(rng, Modality.GAZE, informative=True)
        motion = modality_sequences(rng, Modality.MOTION, informative=False)
        scheme = CvScheme(k=3, repeats=1, seed=7)
        grid = WindowGrid(first_end_s=3.0, last_end_s=3.0, step_s=0.25)
        spec = FusionSpec(mode=FusionMode.EARLY, modalities=(Modality.GAZE, Modality.MOTION))
        fused = run_fusion_sweep(
            {Modality.GAZE: gaze, Modality.MOTION: motion}, spec, scheme, grid=grid
        )
        assert fused.auc[0] > 0.85

    def test_mismatched_trial_coverage_rejected(self, rng):
        gaze = modality_sequences(rng, Modality.GAZE)
        motion = modality_sequences(rng, Modality.MOTION)[:-1]
        spec = FusionSpec(mode=FusionMode.LATE, modalities=(Modality.GAZE, Modality.MOTION))
        with pytest.raises(ValueError, match="different trials|duplicate"):
            run_fusion_sweep(
                {Modality.GAZE: gaze, Modality.MOTION: motion},
                spec,
                CvScheme(k=3, repeats=1, seed=0),
            )

    def test_missing_modality_rejected(self, rng):
        gaze = modality_sequences(rng, Modality.GAZE)
        spec = FusionSpec(mode=FusionMode.LATE, modalities=(Modality.GAZE, Modality.MOTION))
        with pytest.raises(ValueError, match="missing"):
            run_fusion_sweep({Modality.GAZE: gaze}, spec, CvScheme(k=3, repeats=1, seed=0))

    def test_a_failed_window_leaves_no_audit_records(self, rng, monkeypatch):
        # The second LDA scoring call, split 0's second window, fails.
        calls = []
        predict = evaluation.lda_predict_proba

        def failing_once(model, x):
            calls.append(None)
            if len(calls) == 2:
                raise RuntimeError("boom")
            return predict(model, x)

        monkeypatch.setattr(evaluation, "lda_predict_proba", failing_once)
        gaze = modality_sequences(rng, Modality.GAZE)
        motion = modality_sequences(rng, Modality.MOTION)
        grid = WindowGrid(first_end_s=-3.0, last_end_s=-1.0, step_s=1.0)
        blocks = [(gaze, lda_recipe_for(Modality.GAZE)), (motion, lda_recipe_for(Modality.MOTION))]
        fused, scores = sweep_view(blocks, CvScheme(k=3, repeats=1, seed=2), grid)
        assert fused.errors == ((-2.0, "split 0: boom"),)
        assert np.isnan(fused.auc[1]) and np.isfinite(fused.auc[[0, 2]]).all()
        assert scores[1] is None
        kept = [scores[0], scores[2]]
        assert [(s.end_time_s, len(s.fused_dims)) for s in kept] == [(-3.0, 3), (-1.0, 3)]

    def test_lstm_blocks_are_not_fused(self, rng):
        blocks = [
            (modality_sequences(rng, m), lstm_recipe_for(m))
            for m in (Modality.GAZE, Modality.MOTION)
        ]
        with pytest.raises(ValueError, match="only LDA"):
            make_view(blocks, CvScheme(k=3, repeats=1, nested=True, inner_k=2, seed=0))
