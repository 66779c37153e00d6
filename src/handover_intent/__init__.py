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
