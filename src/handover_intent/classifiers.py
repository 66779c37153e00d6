"""Model recipes, fold-fitted preprocessing (one fit function for LDA windows
and LSTM sequences), and ``TrainedClassifier``, the fitted-LDA reference."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_data import Modality
from .dsp import Standardization, standardize
from .features import PcaModel, pca_apply, pca_fit
from .lda import DEFAULT_SHRINKAGE, LdaModel, lda_fit, lda_predict_proba
from .lstm import LstmSpec


@dataclass(frozen=True)
class LdaRecipe:
    """LDA on flattened windows; optional standardization and PCA."""

    shrinkage: float = DEFAULT_SHRINKAGE
    standardize: bool = False
    pca_variance_target: float | None = None

    name = "lda"


@dataclass(frozen=True)
class LstmRecipe:
    """Sequence classifier; trained per window via nested validation folds."""

    layers: int
    hidden: int
    batch_size: int
    max_epochs: int
    early_stop_after: int | None
    standardize: bool = False

    name = "lstm"
    pca_variance_target = None  # sequences keep every feature

    def spec(self, input_dim: int, seed: int) -> LstmSpec:
        return LstmSpec(
            layers=self.layers,
            hidden=self.hidden,
            input_dim=input_dim,
            batch_size=self.batch_size,
            max_epochs=self.max_epochs,
            early_stop_after=self.early_stop_after,
            seed=seed,
        )


def lda_recipe_for(
    modality: Modality,
    standardize_all: bool = False,
    eeg_pca_target: float = 0.99,
    shrinkage: float = DEFAULT_SHRINKAGE,
) -> LdaRecipe:
    """EEG gets standardization + PCA; gaze/motion stay raw unless the
    standardize-all switch is on."""
    if modality is Modality.EEG:
        return LdaRecipe(shrinkage, standardize=True, pca_variance_target=eeg_pca_target)
    return LdaRecipe(shrinkage, standardize=standardize_all, pca_variance_target=None)


def lstm_recipe_for(modality: Modality, standardize_all: bool = False) -> LstmRecipe:
    if modality is Modality.EEG:
        return LstmRecipe(
            layers=1, hidden=128, batch_size=16, max_epochs=100,
            early_stop_after=None, standardize=True,
        )
    return LstmRecipe(
        layers=2, hidden=10, batch_size=5, max_epochs=200,
        early_stop_after=20, standardize=standardize_all,
    )


@dataclass(frozen=True)
class FittedPreprocessing:
    """Standardization and/or PCA fitted on the training fold only; both act
    on the last axis, of windows (n, D) and of sequences (n, T, D) alike."""

    standardization: Standardization | None = None
    pca: PcaModel | None = None

    def apply(self, x: np.ndarray) -> np.ndarray:
        if self.standardization is not None:
            x = self.standardization.apply(x)
        if self.pca is not None:
            x = pca_apply(self.pca, x)
        return x


def fit_flat_preprocessing(x_train: np.ndarray, recipe) -> tuple[FittedPreprocessing, np.ndarray]:
    """The recipe's steps fitted on ``x_train``, windows (n, D) or sequences
    (n, T, D), and ``x_train`` transformed by them (the rows ``apply`` would
    return).  Sequences are fitted on their time steps as rows."""
    x = np.asarray(x_train, dtype=float)
    rows = x.reshape(-1, x.shape[-1])
    stats = pca = None
    if recipe.standardize:
        rows, stats = standardize(rows)
    if recipe.pca_variance_target is not None:
        pca = pca_fit(rows, recipe.pca_variance_target)
        rows = pca_apply(pca, rows)
    return FittedPreprocessing(stats, pca), rows.reshape(*x.shape[:-1], rows.shape[-1])


@dataclass(frozen=True)
class TrainedClassifier:
    """A fitted LDA and the preprocessing fitted with it: the serial
    reference for one split of ``evaluate_window``'s LDA stages."""

    preprocessing: FittedPreprocessing
    lda: LdaModel

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Class-1 probabilities of (n, D) flattened windows."""
        x = self.preprocessing.apply(np.asarray(x, dtype=float))
        return lda_predict_proba(self.lda, x)


def fit_lda_classifier(
    x_train: np.ndarray, y_train: np.ndarray, recipe: LdaRecipe
) -> TrainedClassifier:
    """One LDA on windows prepared by ``recipe``, as ``evaluate_window`` fits a block."""
    prep, x = fit_flat_preprocessing(x_train, recipe)
    model = lda_fit(x, y_train, recipe.shrinkage)
    return TrainedClassifier(prep, model)
