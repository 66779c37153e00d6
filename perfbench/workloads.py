"""The benchmark's workloads: a synthetic dataset profile, a run config, and
the bounds the output checks hold the run to.

Each workload stresses different layers (see README.md):

* ``gaze-lda``: criterion 4's dataset (8 participants x 90 gaze trials, run
  seed 7, LDA) with 2x1 CV on 11 windows instead of 10x3 CV on 44, so that a
  run takes about 4-5 s.  Many small LDA fits on raw features, 720 small
  CSVs, the window thread pool and the BLAS thread count.
* ``eeg-fusion-lda``: one participant, 36 EEG+gaze+motion trials; an ``eeg``
  sweep plus early and late fusion over all three modalities, on 10 windows
  0.5 s apart from -1.5 to 3.0 s, so the EEG block reaches D = 6012 before
  PCA.  Morlet transform, feature-cache writes and reads, standardize+PCA,
  fused LDA.
* ``motion-lstm``: one participant, 30 motion trials, the numpy LSTM under
  2x2 nested CV on 5 short windows, 0.25 s apart, around the injection
  time.  BPTT and per-sequence prediction; nothing else is measurable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Method constants the checks recompute independently of the program.
AUC_LEVELS = (0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90)
SUSTAIN_RUN = 3
ANOVA_ALPHA = 0.05
RUN_SEED = 7
JOBS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    profile: str  # synth profile; the benchmark's --seed is its seed
    config: str  # run config; paths are relative to the work directory
    model: str
    tags: tuple  # result tags the run must write
    participants: int
    grid: tuple  # (first_end_s, last_end_s, step_s)
    chance_band: tuple  # median AUC bounds before the injection
    latency_window_s: float  # sustained-0.75 time at most this far after injection
    separable_after_s: float  # windows this far after injection reach 0.9
    # How far before the end of the injection-free interval the sustained-0.75
    # time may start: a single participant's pre-injection windows can reach
    # 0.75 by chance.
    latency_slack_s: float = 0.0
    morlet: tuple | None = None  # (lowest frequency Hz, cycles) of the EEG features

    def end_times(self) -> list:
        first, last, step = self.grid
        n = int(round((last - first) / step)) + 1
        return [round(first + i * step, 9) for i in range(n)]

    def windows_per_run(self) -> int:
        return self.participants * len(self.tags) * len(self.end_times())

    def pre_injection_margin_s(self, tag: str) -> float:
        """How far before the injection a window must end to be free of it.

        Morlet power at time t mixes samples up to 5 sigma_t after t, with
        sigma_t = cycles / (2 pi f); the lowest frequency has the widest
        support.  Windows of tags without EEG need no margin.
        """
        if self.morlet is None or "eeg" not in tag:
            return 0.0
        f_lo, cycles = self.morlet
        return 5.0 * cycles / (2.0 * math.pi * f_lo)


GAZE_LDA = Workload(
    name="gaze-lda",
    profile="""[synth]
participants = 8
trials_per_condition = 30
modalities = gaze

[gaze]
injection_time_s = 1.0
effect_px = 40.0
noise_px = 5.0
""",
    config=f"""[dataset]
root = data

[experiment]
modalities = gaze
model = lda
seed = {RUN_SEED}
min_trials = 60

[cv]
folds = 2
repeats = 1

[windows]
start_s = -5.0
first_end_s = -4.5
last_end_s = 5.5
step_s = 1.0

[output]
dir = out
""",
    model="lda",
    tags=("gaze",),
    participants=8,
    grid=(-4.5, 5.5, 1.0),
    chance_band=(0.35, 0.65),  # criterion 4's 0.40-0.60 needs its 10x3 CV
    latency_window_s=0.75,  # criterion 4: sustained 0.75 within [1.0, 1.75] s
    separable_after_s=1.0,
)

EEG_FUSION_LDA = Workload(
    name="eeg-fusion-lda",
    profile="""[synth]
participants = 1
trials_per_condition = 12
modalities = eeg,gaze,motion
""",
    config=f"""[dataset]
root = data

[experiment]
modalities = eeg
model = lda
seed = {RUN_SEED}
min_trials = 36

[cv]
folds = 2
repeats = 1

[windows]
start_s = -5.0
first_end_s = -1.5
last_end_s = 3.0
step_s = 0.5

[features]
tf_freq_lo_hz = 5
tf_freq_hi_hz = 40
tf_cycles = 3.0
cache_dir = cache

[fusion]
modes = early,late
modalities = eeg,gaze,motion

[output]
dir = out
""",
    model="lda",
    tags=("early:eeg+gaze+motion", "eeg", "late:eeg+gaze+motion"),
    participants=1,
    grid=(-1.5, 3.0, 0.5),
    chance_band=(0.10, 0.90),  # one participant, 36 trials: null sd about 0.10
    latency_window_s=1.5,  # early fusion waits for the motion ramp
    separable_after_s=2.0,  # later than latency_window_s: each check can fail alone
    # Two steps: on synth seed 204 the eeg windows ending -1.0 and -0.5 s
    # both read 0.76, so a start at -1.0 s is chance, not leakage.
    latency_slack_s=1.0,
    morlet=(5.0, 3.0),
)

MOTION_LSTM = Workload(
    name="motion-lstm",
    profile="""[synth]
participants = 1
trials_per_condition = 10
modalities = motion

[motion]
injection_time_s = 0.0
effect_m = 1.0
noise_m = 0.02
""",
    config=f"""[dataset]
root = data

[experiment]
modalities = motion
model = lstm
seed = {RUN_SEED}
min_trials = 30

[cv]
folds = 2
repeats = 1
inner_folds = 2

[features]
standardize_all = true

[windows]
start_s = -0.5
first_end_s = 0.0
last_end_s = 1.0
step_s = 0.25

[output]
dir = out
""",
    model="lstm",
    tags=("motion",),
    participants=1,
    grid=(0.0, 1.0, 0.25),
    chance_band=(0.05, 0.95),  # one participant, 30 trials: null sd about 0.11
    latency_window_s=0.25,
    separable_after_s=0.5,
    latency_slack_s=0.25,  # one step: the window ending at 0.0 s read 0.77 on synth seed 3
)

WORKLOADS = {w.name: w for w in (GAZE_LDA, EEG_FUSION_LDA, MOTION_LSTM)}
