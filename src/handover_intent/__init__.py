"""Handover-intention detection from multimodal recordings (EEG time-frequency
features, 2-D gaze, 3-D hand motion): per-modality and fused classifiers
evaluated on growing time windows, with detection latency reported as the
earliest sustained AUC level."""

import os

# One BLAS thread per process: parallelism lives in the run's process pools
# (slices of trials, then (participant, view, window) tasks), and the run's
# products are small: on a 2-vCPU Xeon (OpenBLAS 0.3.31), a 230x241 by 241x72
# product took 8.0-8.4 ms with 2 threads against 0.22-0.27 ms with 1.
# OpenBLAS reads these variables once, when numpy first loads it, so this must
# run before anything imports numpy; a value the user set wins.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
