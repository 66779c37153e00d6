import numpy as np
import pytest

from handover_intent.classifiers import (
    fit_lda_classifier,
    fit_flat_preprocessing,
    lda_recipe_for,
    lstm_recipe_for,
)
from handover_intent.core_data import Modality
from handover_intent.dsp import standardize
from handover_intent.features import pca_apply, pca_fit
from handover_intent.lda import lda_fit, lda_predict_proba
from handover_intent.lstm import LstmSpec


class TestRecipes:
    def test_eeg_lda_gets_standardization_and_pca(self):
        r = lda_recipe_for(Modality.EEG)
        assert r.standardize and r.pca_variance_target == 0.99

    def test_gaze_lda_stays_raw_by_default(self):
        r = lda_recipe_for(Modality.GAZE)
        assert not r.standardize and r.pca_variance_target is None
        r_all = lda_recipe_for(Modality.GAZE, standardize_all=True)
        assert r_all.standardize

    def test_lstm_recipes_follow_the_two_architectures(self):
        eeg = lstm_recipe_for(Modality.EEG)
        assert (eeg.layers, eeg.hidden, eeg.batch_size, eeg.max_epochs) == (1, 128, 16, 100)
        assert eeg.early_stop_after is None and eeg.standardize
        other = lstm_recipe_for(Modality.MOTION)
        assert (other.layers, other.hidden, other.batch_size, other.max_epochs) == (2, 10, 5, 200)
        assert other.early_stop_after == 20 and not other.standardize

    def test_lstm_recipe_builds_specs(self):
        spec = lstm_recipe_for(Modality.GAZE).spec(input_dim=2, seed=4)
        assert isinstance(spec, LstmSpec)
        assert spec.input_dim == 2 and spec.seed == 4


class TestPreprocessing:
    def test_flat_chain_matches_manual_composition(self, rng):
        x = rng.normal(size=(30, 8)) * np.arange(1, 9)
        recipe = lda_recipe_for(Modality.EEG, eeg_pca_target=0.9)
        prep, _ = fit_flat_preprocessing(x, recipe)
        manual_std, stats = standardize(x)
        manual_pca = pca_fit(manual_std, 0.9)
        assert np.allclose(prep.apply(x), pca_apply(manual_pca, stats.apply(x)))

    def test_sequence_standardization_is_per_feature(self, rng):
        x = rng.normal(loc=[5.0, -3.0], scale=[2.0, 0.5], size=(10, 20, 2))
        prep, _ = fit_flat_preprocessing(x, lstm_recipe_for(Modality.EEG))
        assert prep.pca is None
        out = prep.apply(x)
        flat = out.reshape(-1, 2)
        assert np.abs(flat.mean(axis=0)).max() < 1e-9
        assert np.abs(flat.std(axis=0) - 1.0).max() < 1e-9

    def test_raw_recipe_is_identity(self, rng):
        x = rng.normal(size=(6, 4, 3))
        prep, x_train = fit_flat_preprocessing(x, lstm_recipe_for(Modality.GAZE))
        assert prep.standardization is None
        assert np.array_equal(prep.apply(x), x)
        assert np.array_equal(x_train, x)

    @pytest.mark.parametrize(
        "shape, recipe",
        [
            ((12, 40), lda_recipe_for(Modality.EEG, eeg_pca_target=0.9)),  # n < D: Gram
            ((40, 12), lda_recipe_for(Modality.EEG, eeg_pca_target=0.9)),  # n >= D: SVD
            ((20, 6), lda_recipe_for(Modality.GAZE)),
            ((20, 6), lda_recipe_for(Modality.GAZE, standardize_all=True)),
            ((8, 15, 3), lstm_recipe_for(Modality.EEG)),
            ((8, 15, 3), lstm_recipe_for(Modality.MOTION)),
            ((8, 15, 3), lstm_recipe_for(Modality.MOTION, standardize_all=True)),
        ],
        ids=["eeg-gram", "eeg-svd", "raw", "standardize-all", "lstm-eeg", "lstm-raw",
             "lstm-standardize-all"],
    )
    def test_returned_rows_are_bit_equal_to_applying_the_fit(self, rng, shape, recipe):
        x = rng.normal(loc=2.0, size=shape) * np.arange(1, shape[-1] + 1)
        prep, x_train = fit_flat_preprocessing(x, recipe)
        assert (prep.pca is not None) == (recipe.pca_variance_target is not None)
        if prep.pca is not None:
            assert 1 <= prep.pca.components.shape[0] < shape[-1]
        assert x_train.shape == shape[:-1] + (x_train.shape[-1],)
        assert np.array_equal(x_train, prep.apply(x))


class TestTrainedClassifier:
    def test_lda_prediction_equals_manual_pipeline(self, rng):
        x = np.vstack([rng.normal(size=(25, 6)) - 1.0, rng.normal(size=(25, 6)) + 1.0])
        y = np.array([0] * 25 + [1] * 25)
        recipe = lda_recipe_for(Modality.EEG, eeg_pca_target=0.95)
        clf = fit_lda_classifier(x, y, recipe)
        manual_std, stats = standardize(x)
        pca = pca_fit(manual_std, 0.95)
        manual_x = pca_apply(pca, stats.apply(x))
        manual = lda_predict_proba(lda_fit(manual_x, y, recipe.shrinkage), manual_x)
        assert np.allclose(clf.predict_proba(x), manual)
