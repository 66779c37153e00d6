"""Handover-intention detection from multimodal recordings (EEG time-frequency
features, 2-D gaze, 3-D hand motion): per-modality and fused classifiers
evaluated on growing time windows, with detection latency reported as the
earliest sustained AUC level."""

import os

# One BLAS thread per process: parallelism lives in the participant process
# pool, and OpenBLAS reads these variables once, when numpy first loads it.
# This must run before anything imports numpy; a value the user set wins.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

from .core_data import (
    Condition,
    LabeledTrial,
    Modality,
    RawEeg,
    RawGaze,
    RawMotion,
    TimeSeries,
    TrialRecording,
    epoch,
    gate_participants,
    label_for,
    labeled,
    load_dataset,
)
from .dsp import (
    FilterSpec,
    Standardization,
    TfFeature,
    TfSpec,
    apply_filter,
    average_channels,
    interpolate_gaps,
    morlet_tf,
    standardize,
)
from .evaluation import (
    AucTimeline,
    CvScheme,
    aggregate_participants,
    anova_oneway,
    auc_roc,
    evaluate_window,
    make_splits,
    sustained_level_time,
    sweep,
)
from .features import (
    FeatureSequence,
    PcaModel,
    WindowGrid,
    build_eeg_features,
    build_gaze_features,
    build_motion_features,
    flatten,
    pca_apply,
    pca_fit,
    window_features,
)
from .fusion import FusionMode, FusionSpec, late_fuse, run_fusion_sweep
from .lda import LdaModel, lda_fit, lda_predict_proba
from .lstm import (
    LstmModel,
    LstmSpec,
    ensemble_predict,
    gradient_check,
    lstm_forward,
    lstm_train,
)
