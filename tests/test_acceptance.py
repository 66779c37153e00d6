"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 8 needs the
published recordings converted via the convert-dataset subcommand and is
skipped unless HANDOVER_DATASET_DIR points at the converted directory.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from handover_intent.cli import main
from handover_intent.core_data import Modality
from handover_intent.dsp import (
    apply_filter,
    band_pass,
    butterworth_magnitude,
    default_tf_spec,
    low_pass,
    morlet_tf,
)
from handover_intent.evaluation import (
    CvScheme,
    auc_roc,
    make_splits,
    median_timeline,
    read_timelines_csv,
    sustained_level_time,
)
from handover_intent.fusion import late_fuse, late_fusion_weights
from handover_intent.lstm import LstmSpec, gradient_check, init_model, param_count
from handover_intent.rng import substream

from conftest import series


def report(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} - {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


def pairwise_auc_oracle(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (pos.shape[0] * neg.shape[0])


def test_criterion_1_auc_oracle_equivalence():
    rng = substream(1000, "auc-oracle")
    started = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        labels = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(int)
        labels[: 2] = [0, 1]  # both classes present
        if rng.random() < 0.5:
            scores = rng.integers(0, 10, size=n) / 10.0  # heavy ties
        else:
            scores = rng.random(n)
        worst = max(worst, abs(auc_roc(scores, labels) - pairwise_auc_oracle(scores, labels)))
    elapsed = time.monotonic() - started
    report(
        1,
        "AUC oracle equivalence",
        worst < 1e-12 and elapsed < 10.0,
        f"max |difference| {worst:.2e} over 1000 instances in {elapsed:.2f}s",
    )


def test_criterion_2_lstm_gradient_correctness():
    rng = substream(2000, "gradcheck")
    started = time.monotonic()
    worst = 0.0
    checked = 0
    while checked < 100:
        spec = LstmSpec(
            layers=int(rng.integers(1, 3)),
            hidden=int(rng.integers(2, 8)),
            input_dim=int(rng.integers(1, 6)),
            batch_size=2,
            max_epochs=1,
            seed=int(rng.integers(0, 2**31)),
        )
        if param_count(spec) > 500:
            continue
        model = init_model(spec)
        batch = int(rng.integers(1, 4))
        steps = int(rng.integers(1, 5))
        x = rng.normal(size=(batch, steps, spec.input_dim))
        y = rng.integers(0, 2, size=batch).astype(float)
        worst = max(worst, gradient_check(model, x, y))
        checked += 1
    elapsed = time.monotonic() - started
    report(
        2,
        "LSTM gradient correctness",
        worst < 1e-4 and elapsed < 60.0,
        f"max relative error {worst:.2e} over 100 models in {elapsed:.1f}s",
    )


def test_criterion_3_spectral_correctness():
    started = time.monotonic()
    rate = 250.0
    t = np.arange(0.0, 3.0, 1.0 / rate)
    spec = default_tf_spec()
    peak_errors = {}
    for freq in (7.0, 12.0, 25.0, 38.0):
        tone = series(0.0, 1.0 / rate, np.sin(2 * np.pi * freq * t))
        power = morlet_tf(tone, spec)[1]
        peak = float(spec.freqs_hz[np.argmax(power[0].mean(axis=0))])
        peak_errors[freq] = abs(peak - freq)
    peaks_ok = all(err <= 1.0 for err in peak_errors.values())

    # Filter gain at the pass-band center vs the analytic magnitude (squared
    # for the forward-backward application), measured on a long sinusoid.
    def measured_gain(filter_spec, freq, rate):
        tt = np.arange(0.0, 8.0, 1.0 / rate)
        x = series(0.0, 1.0 / rate, np.sin(2 * np.pi * freq * tt))
        y = apply_filter(x, filter_spec)
        mid = slice(len(tt) // 3, 2 * len(tt) // 3)
        return float(
            np.sqrt(np.mean(y.values[mid] ** 2) / np.mean(x.values[mid] ** 2))
        )

    low = low_pass(40.0)
    low_center = 20.0  # middle of the 0-40 Hz pass band
    gain_low = measured_gain(low, low_center, 250.0)
    analytic_low = butterworth_magnitude(low, np.array([low_center]))[0] ** 2

    band = band_pass(1.0, 100.0)
    band_center = 10.0  # geometric center of 1-100 Hz
    gain_band = measured_gain(band, band_center, 1000.0)
    analytic_band = butterworth_magnitude(band, np.array([band_center]))[0] ** 2

    filters_ok = (
        abs(gain_low - analytic_low) / analytic_low < 0.01
        and abs(gain_band - analytic_band) / analytic_band < 0.01
    )
    elapsed = time.monotonic() - started
    report(
        3,
        "spectral correctness",
        peaks_ok and filters_ok and elapsed < 10.0,
        f"peak errors {peak_errors}; low-pass gain {gain_low:.4f} vs {analytic_low:.4f}, "
        f"band-pass gain {gain_band:.4f} vs {analytic_band:.4f}; {elapsed:.1f}s",
    )


SYNTH_PROFILE = """[synth]
participants = 8
trials_per_condition = 30
modalities = gaze
seed = 20

[gaze]
injection_time_s = 1.0
effect_px = 40.0
noise_px = 5.0
"""

RUN_CONFIG = """[dataset]
root = {root}

[experiment]
modalities = gaze
model = lda
seed = 7
min_trials = 60

[output]
dir = {out}
"""


@pytest.fixture(scope="session")
def synth_experiment(tmp_path_factory):
    """Criterion 4's dataset and first full run (also reused by criterion 7)."""
    base = tmp_path_factory.mktemp("acceptance")
    data = base / "data"
    (base / "profile.txt").write_text(SYNTH_PROFILE)
    assert main(["synth", "--profile", str(base / "profile.txt"), "--out", str(data)]) == 0
    config = base / "config.txt"
    config.write_text(RUN_CONFIG.format(root=data, out=base / "out"))
    started = time.monotonic()
    assert main(["run", "--config", str(config), "--jobs", "1"]) == 0
    elapsed = time.monotonic() - started
    return {"base": base, "config": config, "out": base / "out", "run_seconds": elapsed}


def test_criterion_4_synthetic_latency_recovery(synth_experiment):
    out = synth_experiment["out"]
    timelines = read_timelines_csv(out / "results.csv")
    assert len(timelines) == 8
    median = median_timeline(timelines)
    sustained = sustained_level_time(median, 0.75, run_length=3)
    ends = median.window_end_times_s
    pre = median.auc[ends <= 1.0]
    pre_ok = bool(pre.min() >= 0.4 and pre.max() <= 0.6)
    time_ok = sustained is not None and 1.0 <= sustained <= 1.75
    runtime = synth_experiment["run_seconds"]
    report(
        4,
        "synthetic end-to-end latency recovery",
        pre_ok and time_ok and runtime < 300.0,
        f"sustained-0.75 at {sustained}s; pre-injection median AUC in "
        f"[{pre.min():.3f}, {pre.max():.3f}]; run took {runtime:.0f}s",
    )


def test_criterion_5_cv_structure():
    labels = np.array([1] * 30 + [0] * 60)
    splits = make_splits(labels, CvScheme(k=10, repeats=3, seed=5))
    flat_ok = len(splits) == 30 and all(
        labels[s.test_idx].sum() == 3 and (labels[s.test_idx] == 0).sum() == 6
        for s in splits
    )
    partition_ok = all(
        np.array_equal(
            np.sort(np.concatenate([s.test_idx for s in splits[r * 10 : (r + 1) * 10]])),
            np.arange(90),
        )
        for r in range(3)
    )
    nested = make_splits(labels, CvScheme(k=10, repeats=3, nested=True, inner_k=10, seed=5))
    nested_ok = True
    for s in nested:
        if s.inner is None or len(s.inner) != 10:
            nested_ok = False
            break
        for fit_idx, val_idx in s.inner:
            if np.intersect1d(val_idx, s.test_idx).size:
                nested_ok = False
            if np.intersect1d(fit_idx, s.test_idx).size:
                nested_ok = False
        all_val = np.sort(np.concatenate([v for _, v in s.inner]))
        if not np.array_equal(all_val, np.sort(s.train_idx)):
            nested_ok = False
    report(
        5,
        "CV structure",
        flat_ok and partition_ok and nested_ok,
        "30 splits with 3/6 stratified test folds; 10 disjoint inner folds per outer split",
    )


def test_criterion_6_fusion_convexity():
    rng = substream(6000, "fusion-convexity")
    worst_weight_sum = 0.0
    convex_ok = True
    for _ in range(10_000):
        k = int(rng.integers(2, 6))
        probs = rng.random(k)
        perfs = rng.random(k)
        if rng.random() < 0.01:
            perfs = np.zeros(k)  # exercise the equal-weight fallback
        weights, _ = late_fusion_weights(perfs)
        worst_weight_sum = max(worst_weight_sum, abs(weights.sum() - 1.0))
        fused = late_fuse(probs, perfs)
        if not (probs.min() - 1e-12 <= fused <= probs.max() + 1e-12):
            convex_ok = False
            break
    report(
        6,
        "fusion convexity",
        convex_ok and worst_weight_sum < 1e-12,
        f"10^4 tuples inside the member envelope; max |sum(w)-1| {worst_weight_sum:.1e}",
    )


def _csv_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*.csv"))
    }


def test_criterion_7_determinism(synth_experiment):
    base = synth_experiment["base"]
    config = synth_experiment["config"]
    out_b = base / "out_repeat"
    out_c = base / "out_jobs8"
    assert main(["run", "--config", str(config), "--jobs", "1", "--out", str(out_b)]) == 0
    assert main(["run", "--config", str(config), "--jobs", "8", "--out", str(out_c)]) == 0
    first = _csv_bytes(synth_experiment["out"])
    repeat = _csv_bytes(out_b)
    jobs8 = _csv_bytes(out_c)
    identical_repeat = first == repeat
    identical_jobs = first == jobs8
    report(
        7,
        "determinism",
        identical_repeat and identical_jobs,
        f"{len(first)} CSV files byte-identical across a rerun and across --jobs 1 vs 8",
    )


# Frozen summary-table values the reproduction run is compared against
# (None marks a level the reference reports as unreached).
REFERENCE_LDA_TIMES = {
    "eeg": {0.60: 3.0, 0.65: 3.75, 0.70: 3.75, 0.75: 4.5, 0.80: None, 0.85: None, 0.90: None},
    "gaze": {0.60: 1.5, 0.65: 2.0, 0.70: 2.25, 0.75: 2.5, 0.80: 3.0, 0.85: 4.0, 0.90: None},
    "motion": {0.60: 3.5, 0.65: 3.5, 0.70: 3.75, 0.75: 4.5, 0.80: 4.75, 0.85: None, 0.90: None},
}

REFERENCE_LSTM_GAZE_EARLIEST_LEVELS = (0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90)

DATASET_ENV = "HANDOVER_DATASET_DIR"
LSTM_REPRO_ENV = "HANDOVER_RUN_LSTM_REPRO"

REPRO_CONFIG = """[dataset]
root = {root}

[experiment]
modalities = eeg,gaze,motion
model = {model}
seed = 7
min_trials = 1

[output]
dir = {out}
"""


def _reproduction_dataset() -> Path:
    root = os.environ.get(DATASET_ENV)
    if not root:
        pytest.skip(
            f"criterion 8 needs the published recordings: convert them with "
            f"'handover-intent convert-dataset' and set {DATASET_ENV}"
        )
    path = Path(root)
    if not (path / "manifest.txt").is_file():
        pytest.skip(f"{DATASET_ENV}={path} has no manifest.txt")
    return path


def _latency_times(out_dir: Path, model: str) -> dict:
    timelines = read_timelines_csv(out_dir / "results.csv")
    by_tag: dict = {}
    for tl in timelines:
        by_tag.setdefault(tl.tag, []).append(tl)
    times = {}
    for tag, tls in by_tag.items():
        med = median_timeline(tls)
        times[tag] = {
            level: sustained_level_time(med, level, run_length=3)
            for level in (0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90)
        }
    return times


def test_criterion_8_lda_reproduction(tmp_path):
    dataset = _reproduction_dataset()
    config = tmp_path / "repro_lda.txt"
    config.write_text(REPRO_CONFIG.format(root=dataset, model="lda", out=tmp_path / "out"))
    assert main(["run", "--config", str(config)]) == 0
    times = _latency_times(tmp_path / "out", "lda")
    problems = []
    for level, gaze_time in times["gaze"].items():
        for other in ("eeg", "motion"):
            other_time = times[other][level]
            if gaze_time is None and other_time is not None:
                problems.append(f"gaze unreached at {level} but {other} reached")
            if gaze_time is not None and other_time is not None and gaze_time > other_time:
                problems.append(f"{other} beat gaze at level {level}")
    for tag, reference in REFERENCE_LDA_TIMES.items():
        for level, expected in reference.items():
            ours = times[tag][level]
            if expected is None:
                if ours is not None:
                    problems.append(f"{tag}@{level}: expected unreached, got {ours}")
            elif ours is None or abs(ours - expected) > 0.5:
                problems.append(f"{tag}@{level}: {ours} vs expected {expected}±0.5")
    report(8, "LDA latency-table reproduction", not problems, "; ".join(problems) or "ok")


def test_criterion_8_lstm_ordinal_reproduction(tmp_path):
    dataset = _reproduction_dataset()
    if not os.environ.get(LSTM_REPRO_ENV):
        pytest.skip(
            f"LSTM reproduction trains 10-model ensembles across 30 splits x 44 "
            f"windows per participant; set {LSTM_REPRO_ENV}=1 to run it"
        )
    config = tmp_path / "repro_lstm.txt"
    config.write_text(REPRO_CONFIG.format(root=dataset, model="lstm", out=tmp_path / "out"))
    assert main(["run", "--config", str(config)]) == 0
    times = _latency_times(tmp_path / "out", "lstm")
    problems = []
    for level in REFERENCE_LSTM_GAZE_EARLIEST_LEVELS:
        gaze_time = times["gaze"][level]
        for other in ("eeg", "motion"):
            other_time = times[other][level]
            if gaze_time is None and other_time is not None:
                problems.append(f"gaze unreached at {level} but {other} reached")
            if gaze_time is not None and other_time is not None and gaze_time > other_time:
                problems.append(f"{other} beat gaze at level {level}")
    report(8, "LSTM ordinal reproduction", not problems, "; ".join(problems) or "ok")
