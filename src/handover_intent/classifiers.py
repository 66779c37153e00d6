"""Model recipes, fold-fitted preprocessing, and the fitted-classifier wrapper."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_data import Modality
from .dsp import Standardization, standardize
from .features import PcaModel, pca_apply, pca_fit
from .lda import DEFAULT_SHRINKAGE, LdaModel, lda_fit, lda_predict_proba
from .lstm import LstmSpec, predict_proba_batch


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
    """Standardization and/or PCA fitted on the training fold only."""

    standardization: Standardization | None = None
    pca: PcaModel | None = None

    def apply_flat(self, x: np.ndarray) -> np.ndarray:
        if self.standardization is not None:
            x = self.standardization.apply(x)
        if self.pca is not None:
            x = pca_apply(self.pca, x)
        return x

    def apply_sequences(self, x: np.ndarray) -> np.ndarray:
        """x: (n, T, D); standardization runs per feature dimension."""
        if self.standardization is not None:
            x = self.standardization.apply(x)
        return x


def fit_flat_preprocessing(x_train: np.ndarray, recipe: LdaRecipe) -> FittedPreprocessing:
    stats = None
    if recipe.standardize:
        x_train, stats = standardize(x_train)
    pca = None
    if recipe.pca_variance_target is not None:
        pca = pca_fit(x_train, recipe.pca_variance_target)
    return FittedPreprocessing(standardization=stats, pca=pca)


def fit_sequence_preprocessing(
    x_train: np.ndarray, recipe: LstmRecipe
) -> FittedPreprocessing:
    stats = None
    if recipe.standardize:
        flat = x_train.reshape(-1, x_train.shape[-1])
        _, stats = standardize(flat)
    return FittedPreprocessing(standardization=stats)


@dataclass(frozen=True)
class TrainedClassifier:
    """An immutable fitted model exposing class-1 probability scoring.

    kind is ``lda`` or ``lstm_ensemble``; exactly the matching payload field
    is set.
    """

    kind: str
    preprocessing: FittedPreprocessing
    lda: LdaModel | None = None
    members: tuple | None = None  # ((LstmModel, weight), ...)
    weight_fallback: bool = False  # True when equal weights replaced zero scores

    def __post_init__(self):
        if self.kind not in ("lda", "lstm_ensemble"):
            raise ValueError(f"unknown classifier kind {self.kind!r}")
        if self.kind == "lda" and self.lda is None:
            raise ValueError("lda classifier needs an LdaModel")
        if self.kind == "lstm_ensemble":
            if not self.members:
                raise ValueError("lstm classifier needs members")
            weights = np.array([w for _, w in self.members], dtype=float)
            if (weights < 0).any() or abs(weights.sum() - 1.0) > 1e-9:
                raise ValueError("member weights must be nonnegative and sum to 1")

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """x: (n, D) flattened windows for lda, (n, T, D) sequences otherwise."""
        x = np.asarray(x, dtype=float)
        if self.kind == "lda":
            return lda_predict_proba(self.lda, self.preprocessing.apply_flat(x))
        # Each member scores the whole fold; the weighted sum runs in member
        # order, as ``ensemble_predict`` sums one sequence.
        seqs = self.preprocessing.apply_sequences(x)
        return sum(w * predict_proba_batch(model, seqs) for model, w in self.members)


def fit_lda_classifier(
    x_train: np.ndarray, y_train: np.ndarray, recipe: LdaRecipe
) -> TrainedClassifier:
    prep = fit_flat_preprocessing(x_train, recipe)
    model = lda_fit(prep.apply_flat(x_train), y_train, recipe.shrinkage)
    return TrainedClassifier(kind="lda", preprocessing=prep, lda=model)
