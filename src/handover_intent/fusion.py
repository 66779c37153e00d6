"""Multimodal fusion: the fusion spec and late-fusion arithmetic.  Early
fusion fits one LDA on the concatenated per-modality blocks (the EEG block
standardized and PCA-reduced first, to the run's one variance target, as in
the single-modality EEG view); late fusion averages per-modality LDA
probabilities, weighted by each member's training-fold AUC.  ``pipeline``
builds fusion views and single-modality views from the same recipe table,
and the window-sweep engine of ``evaluation`` evaluates both."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .classifiers import lda_recipe_for
from .core_data import Modality
from .evaluation import AucTimeline, CvScheme, late_fusion_weights, sweep
from .features import WindowGrid

# Fixed concatenation / reporting order.
MODALITY_ORDER = (Modality.EEG, Modality.GAZE, Modality.MOTION)


class FusionMode(Enum):
    EARLY = "early"
    LATE = "late"


@dataclass(frozen=True)
class FusionSpec:
    mode: FusionMode
    modalities: tuple  # >= 2 distinct Modality members

    def __post_init__(self):
        mods = tuple(sorted(set(self.modalities), key=MODALITY_ORDER.index))
        if len(mods) < 2:
            raise ValueError("fusion needs at least two modalities")
        object.__setattr__(self, "modalities", mods)

    def tag(self) -> str:
        return f"{self.mode.value}:" + "+".join(m.value for m in self.modalities)


def late_fuse(member_probs, member_train_perf) -> float:
    """Performance-weighted mean of per-modality class-1 probabilities."""
    probs = np.asarray(member_probs, dtype=float)
    weights, _ = late_fusion_weights(member_train_perf)
    if probs.shape != weights.shape:
        raise ValueError("one probability per performance entry is required")
    return float(weights @ probs)


def run_fusion_sweep(
    sequences_by_modality: dict,
    spec: FusionSpec,
    scheme: CvScheme,
    grid: WindowGrid | None = None,
) -> AucTimeline:
    """Sweep the fusion view ``spec``, one default LDA block per modality in
    canonical order, through ``evaluation.sweep``: the serial reference for
    the fusion views that ``pipeline`` builds from its recipe table."""
    blocks = []
    for m in spec.modalities:
        if m not in sequences_by_modality:
            raise ValueError(f"missing sequences for modality {m.value}")
        blocks.append((sequences_by_modality[m], lda_recipe_for(m)))
    return sweep(blocks, scheme, grid=grid, tag=spec.tag(), late=spec.mode is FusionMode.LATE)
