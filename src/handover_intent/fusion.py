"""Multimodal combination: early fusion (feature concatenation, with the EEG
block PCA-reduced) and late fusion (training-performance-weighted averaging of
per-modality classifier probabilities)."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .classifiers import fit_flat_preprocessing, fit_lda_classifier, lda_recipe_for
from .core_data import Modality
from .evaluation import (
    AucTimeline,
    CvScheme,
    EvaluationError,
    WindowScore,
    _score_stats,
    _sorted_sequences,
    _window_matrix,
    auc_roc,
    evaluate_grid,
    make_splits,
    timeline_from_scores,
)
from .features import WindowGrid
from .lda import lda_fit, lda_predict_proba

# Fixed concatenation / reporting order.
MODALITY_ORDER = (Modality.EEG, Modality.GAZE, Modality.MOTION)


class FusionMode(Enum):
    EARLY = "early"
    LATE = "late"


@dataclass(frozen=True)
class FusionSpec:
    mode: FusionMode
    modalities: tuple  # >= 2 distinct Modality members
    eeg_pca_target: float = 0.99

    def __post_init__(self):
        mods = tuple(sorted(set(self.modalities), key=MODALITY_ORDER.index))
        if len(mods) < 2:
            raise ValueError("fusion needs at least two modalities")
        if not 0.0 < self.eeg_pca_target <= 1.0:
            raise ValueError("eeg_pca_target must be in (0, 1]")
        object.__setattr__(self, "modalities", mods)

    def tag(self) -> str:
        return f"{self.mode.value}:" + "+".join(m.value for m in self.modalities)


def early_fuse(parts) -> np.ndarray:
    """Concatenate per-modality vectors for one trial in fixed order.

    The caller supplies the parts already ordered (EEG-PCA first, then gaze,
    then motion); a single part passes through unchanged.
    """
    parts = [np.asarray(p, dtype=float).reshape(-1) for p in parts]
    if not parts:
        raise ValueError("nothing to fuse")
    return np.concatenate(parts)


def late_fusion_weights(member_train_perf) -> tuple[np.ndarray, bool]:
    """Weights proportional to training performance; equal-weight fallback
    (flagged) when every performance is zero."""
    perf = np.asarray(member_train_perf, dtype=float)
    if perf.ndim != 1 or perf.shape[0] < 2:
        raise ValueError("need >= 2 member performances")
    if (perf < 0).any() or (perf > 1).any():
        raise ValueError("training performances must lie in [0, 1]")
    total = perf.sum()
    if total <= 0.0:
        return np.full_like(perf, 1.0 / perf.shape[0]), True
    return perf / total, False


def late_fuse(member_probs, member_train_perf) -> float:
    """Performance-weighted mean of per-modality class-1 probabilities."""
    probs = np.asarray(member_probs, dtype=float)
    weights, _ = late_fusion_weights(member_train_perf)
    if probs.shape != weights.shape:
        raise ValueError("one probability per performance entry is required")
    return float(weights @ probs)


def _aligned_by_modality(sequences_by_modality: dict, modalities) -> tuple:
    """Sort each modality's sequences canonically and require identical
    (trial_ref, label) coverage across modalities."""
    ordered = {}
    reference = None
    for m in modalities:
        if m not in sequences_by_modality:
            raise ValueError(f"missing sequences for modality {m.value}")
        seqs = _sorted_sequences(sequences_by_modality[m])
        key = [(s.trial_ref, s.label) for s in seqs]
        if reference is None:
            reference = key
        elif key != reference:
            raise ValueError("modalities cover different trials; gate upstream")
        ordered[m] = seqs
    return ordered, np.array([s.label for s in ordered[modalities[0]]])


def run_fusion_sweep(
    sequences_by_modality: dict,
    spec: FusionSpec,
    scheme: CvScheme,
    grid: WindowGrid | None = None,
    standardize_all: bool = False,
    shrinkage: float | None = None,
    audit_out: "list | None" = None,
) -> "AucTimeline":
    """LDA-based fusion sweep over the window grid.

    Early mode fits one LDA per split/window on concatenated vectors (the EEG
    block standardized and PCA-reduced on the training fold first).  Late mode
    fits one LDA per modality, weighs each member by its training-fold AUC,
    and scores the fused test probabilities.

    ``audit_out``, when given, collects per-window records (fused dimension in
    early mode, weight-fallback flags in late mode).
    """
    grid = WindowGrid() if grid is None else grid
    ordered, labels = _aligned_by_modality(sequences_by_modality, spec.modalities)
    splits = make_splits(labels, scheme)
    end_times = grid.end_times()
    participant_id = ordered[spec.modalities[0]][0].trial_ref[0]

    recipe_kw = {} if shrinkage is None else {"shrinkage": shrinkage}
    recipes = {
        m: lda_recipe_for(
            m,
            standardize_all=standardize_all,
            eeg_pca_target=spec.eeg_pca_target,
            **recipe_kw,
        )
        for m in spec.modalities
    }

    def run_window(end: float) -> WindowScore:
        try:
            matrices = {m: _window_matrix(ordered[m], end, grid) for m in spec.modalities}
        except Exception as exc:
            raise EvaluationError(f"window setup: {exc}") from exc
        audits = []
        aucs = []
        for split_index, split in enumerate(splits):
            try:
                if spec.mode is FusionMode.EARLY:
                    auc, audit = _early_split(
                        matrices, labels, split, spec, recipes, end
                    )
                else:
                    auc, audit = _late_split(matrices, labels, split, spec, recipes, end)
                aucs.append(auc)
                if audit:
                    audits.append(dict(audit, split=split_index))
            except Exception as exc:
                raise EvaluationError(f"split {split_index}: {exc}") from exc
        if audit_out is not None:
            audit_out.extend(audits)
        return _score_stats(end, aucs)

    scores, errors = evaluate_grid(end_times, run_window)
    return timeline_from_scores(
        participant_id,
        spec.tag(),
        "lda",
        end_times,
        scores,
        scheme.k * scheme.repeats,
        errors,
    )


def _early_split(matrices, labels, split, spec, recipes, end):
    """One early-fusion split: per-modality preprocessing fitted on the
    training rows, concatenation, a single LDA."""
    train_parts = []
    test_parts = []
    fused_dim = 0
    for m in spec.modalities:
        x = matrices[m]
        prep = fit_flat_preprocessing(x[split.train_idx], recipes[m])
        train_parts.append(prep.apply_flat(x[split.train_idx]))
        test_parts.append(prep.apply_flat(x[split.test_idx]))
        fused_dim += train_parts[-1].shape[1]
    x_train = np.hstack(train_parts)
    x_test = np.hstack(test_parts)
    model = lda_fit(x_train, labels[split.train_idx], recipes[spec.modalities[0]].shrinkage)
    probs = lda_predict_proba(model, x_test)
    auc = auc_roc(probs, labels[split.test_idx])
    return auc, {"window_end_s": end, "fused_dim": fused_dim}


def _late_split(matrices, labels, split, spec, recipes, end):
    """One late-fusion split: per-modality LDA members, training-fold AUC as
    the member weight, AUC of the fused test probabilities."""
    member_test_probs = []
    train_perfs = []
    for m in spec.modalities:
        x = matrices[m]
        clf = fit_lda_classifier(x[split.train_idx], labels[split.train_idx], recipes[m])
        train_probs = clf.predict_proba(x[split.train_idx])
        train_perfs.append(auc_roc(train_probs, labels[split.train_idx]))
        member_test_probs.append(clf.predict_proba(x[split.test_idx]))
    weights, fallback = late_fusion_weights(train_perfs)
    fused = weights @ np.stack(member_test_probs)
    auc = auc_roc(fused, labels[split.test_idx])
    audit = {"window_end_s": end, "weight_fallback": True} if fallback else None
    return auc, audit
