"""Synthetic dataset generator for desk-scale verification.

Emits a loadable dataset (manifest + trial CSVs) in which class-discriminative
signal appears only after a configurable injection time: before it, all three
conditions share one distribution; after it, each condition drifts in its own
direction, with the handover direction linearly separable from both others.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core_data import (
    EPOCH_END_S,
    EPOCH_START_S,
    STREAM_COLUMNS,
    Condition,
    Manifest,
    ManifestEntry,
    Modality,
    parse_modalities,
    read_sections,
    write_file,
    write_manifest,
    write_trial_csv,
)
from .features import DEFAULT_EEG_CHANNELS
from .rng import substream

RATES_HZ = {Modality.GAZE: 25.0, Modality.MOTION: 5.0, Modality.EEG: 250.0}

# Post-injection drift directions; handover separates linearly from both
# non-handover conditions.
_GAZE_DIRECTIONS = {
    Condition.HANDOVER: np.array([1.0, -0.5]),
    Condition.SOLO: np.array([-0.4, 0.2]),
    Condition.JOINT: np.array([0.2, 0.4]),
}
_MOTION_DIRECTIONS = {
    Condition.HANDOVER: np.array([0.2, 1.0, -0.2]),
    Condition.SOLO: np.array([-1.0, 0.1, 0.2]),
    Condition.JOINT: np.array([1.0, 0.1, 0.2]),
}


@dataclass(frozen=True)
class SynthProfile:
    participants: int = 8
    trials_per_condition: int = 30
    modalities: tuple = (Modality.GAZE,)
    seed: int = 0
    name: str = "synth"
    gaze_injection_time_s: float = 1.0
    gaze_effect_px: float = 40.0
    gaze_noise_px: float = 5.0
    gaze_gap_fraction: float = 0.01
    motion_injection_time_s: float = 0.0
    motion_effect_m: float = 0.3
    motion_noise_m: float = 0.02
    eeg_injection_time_s: float = 0.0
    eeg_effect: float = 1.0  # relative 10 Hz amplitude boost on handover trials
    eeg_noise_uv: float = 10.0

    def __post_init__(self):
        if self.participants < 1 or self.trials_per_condition < 1:
            raise ValueError("participants and trials_per_condition must be >= 1")
        if not self.modalities:
            raise ValueError("at least one modality is required")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        object.__setattr__(self, "modalities", tuple(Modality(m) for m in self.modalities))


_PROFILE_KEYS = {
    ("synth", "participants"): ("participants", int),
    ("synth", "trials_per_condition"): ("trials_per_condition", int),
    ("synth", "modalities"): ("modalities", parse_modalities),
    ("synth", "seed"): ("seed", int),
    ("synth", "name"): ("name", str),
    ("gaze", "injection_time_s"): ("gaze_injection_time_s", float),
    ("gaze", "effect_px"): ("gaze_effect_px", float),
    ("gaze", "noise_px"): ("gaze_noise_px", float),
    ("gaze", "gap_fraction"): ("gaze_gap_fraction", float),
    ("motion", "injection_time_s"): ("motion_injection_time_s", float),
    ("motion", "effect_m"): ("motion_effect_m", float),
    ("motion", "noise_m"): ("motion_noise_m", float),
    ("eeg", "injection_time_s"): ("eeg_injection_time_s", float),
    ("eeg", "effect"): ("eeg_effect", float),
    ("eeg", "noise_uv"): ("eeg_noise_uv", float),
}


def parse_profile(path: "Path | str") -> SynthProfile:
    """Profile file: [synth]/[gaze]/[motion]/[eeg] sections of key = value."""
    path = Path(path)
    values = read_sections(path.read_text(encoding="utf-8"), str(path), _PROFILE_KEYS)
    try:
        return SynthProfile(**values)
    except ValueError as exc:  # SynthProfile's own checks, all on [synth] keys
        raise ValueError(f"{path}: [synth] {exc}") from exc


def _grid(rate_hz: float) -> np.ndarray:
    n = int(round((EPOCH_END_S - EPOCH_START_S) * rate_hz)) + 1
    return EPOCH_START_S + np.arange(n) / rate_hz


def _gaze_trial(profile: SynthProfile, rng, base: np.ndarray, condition: Condition):
    t = _grid(RATES_HZ[Modality.GAZE])
    n = t.shape[0]
    center = np.array([960.0, 540.0])
    ref = center + rng.normal(0.0, 0.5, size=(n, 2))
    # Reference-corrected gaze: participant offset + per-trial fixation offset
    # + sample noise; the condition signal drifts in only after injection.
    corrected = (
        (base - center)
        + rng.normal(0.0, 3.0, size=2)
        + rng.normal(0.0, profile.gaze_noise_px, size=(n, 2))
    )
    after = t >= profile.gaze_injection_time_s
    corrected[after] += profile.gaze_effect_px * _GAZE_DIRECTIONS[condition]
    gaze = corrected + ref
    # Blink-like interior gaps.
    if profile.gaze_gap_fraction > 0:
        starts = rng.random(n) < profile.gaze_gap_fraction
        starts[0] = starts[-1] = False
        for i in np.nonzero(starts)[0]:
            run = int(rng.integers(1, 4))
            gaze[i : min(i + run, n - 1)] = np.nan
    return t, np.hstack([gaze, ref])


def _motion_trial(profile: SynthProfile, rng, base: np.ndarray, condition: Condition):
    t = _grid(RATES_HZ[Modality.MOTION])
    n = t.shape[0]
    pos = base + rng.normal(0.0, profile.motion_noise_m, size=(n, 3))
    ramp = np.clip((t - profile.motion_injection_time_s) / 1.5, 0.0, 1.0)
    pos += profile.motion_effect_m * np.outer(ramp, _MOTION_DIRECTIONS[condition])
    return t, pos


def _eeg_trial(profile: SynthProfile, rng, condition: Condition, channels):
    t = _grid(RATES_HZ[Modality.EEG])
    n = t.shape[0]
    data = rng.normal(0.0, profile.eeg_noise_uv, size=(n, len(channels)))
    amplitude = np.full(n, profile.eeg_noise_uv)
    if condition is Condition.HANDOVER:
        amplitude[t >= profile.eeg_injection_time_s] *= 1.0 + profile.eeg_effect
    phase = rng.uniform(0.0, 2.0 * np.pi)
    osc = amplitude * np.sin(2.0 * np.pi * 10.0 * t + phase)
    data += osc[:, None]
    return t, data


def generate_dataset(profile: SynthProfile, out_dir: "Path | str") -> Path:
    """Write the dataset under ``out_dir``; returns the manifest path."""
    out = Path(out_dir)
    channels = list(DEFAULT_EEG_CHANNELS)
    columns = {**STREAM_COLUMNS, Modality.EEG: channels}
    entries = []
    conditions = [Condition.SOLO, Condition.HANDOVER, Condition.JOINT]
    for pid in range(1, profile.participants + 1):
        base_rng = substream(profile.seed, "participant", pid)
        gaze_base = np.array([960.0, 540.0]) + base_rng.uniform(-30.0, 30.0, size=2)
        motion_base = np.array([0.1, -0.3, 0.9]) + base_rng.uniform(-0.05, 0.05, size=3)
        # In draw order: the modalities of a trial share one random stream.
        makers = {
            Modality.GAZE: lambda rng, c: _gaze_trial(profile, rng, gaze_base, c),
            Modality.MOTION: lambda rng, c: _motion_trial(profile, rng, motion_base, c),
            Modality.EEG: lambda rng, c: _eeg_trial(profile, rng, c, channels),
        }
        n_trials = 3 * profile.trials_per_condition
        for tid in range(n_trials):
            condition = conditions[tid % 3]
            rng = substream(profile.seed, "trial", pid, tid)
            paths = {}
            for modality, make in makers.items():
                if modality in profile.modalities:
                    t, values = make(rng, condition)
                    rel = f"{modality.value}/p{pid:02d}_t{tid:03d}.csv"
                    write_trial_csv(out / rel, t, values, columns[modality])
                    paths[modality] = rel
            entries.append(ManifestEntry(pid, tid, condition, 0.0, paths))
    manifest = Manifest(
        name=profile.name,
        rates_hz={m: RATES_HZ[m] for m in profile.modalities},
        eeg_channels=channels if Modality.EEG in profile.modalities else None,
        entries=entries,
    )
    manifest_path = out / "manifest.txt"
    write_manifest(manifest_path, manifest)
    _write_ground_truth(out / "ground_truth.json", profile)
    return manifest_path


def _write_ground_truth(path: Path, profile: SynthProfile) -> None:
    truth = {
        "seed": profile.seed,
        "participants": profile.participants,
        "trials_per_condition": profile.trials_per_condition,
        "modalities": [m.value for m in profile.modalities],
        "injection_time_s": {
            "gaze": profile.gaze_injection_time_s,
            "motion": profile.motion_injection_time_s,
            "eeg": profile.eeg_injection_time_s,
        },
        "effect_size": {
            "gaze_px": profile.gaze_effect_px,
            "motion_m": profile.motion_effect_m,
            "eeg_relative": profile.eeg_effect,
        },
        "noise": {
            "gaze_px": profile.gaze_noise_px,
            "motion_m": profile.motion_noise_m,
            "eeg_uv": profile.eeg_noise_uv,
        },
    }
    write_file(path, json.dumps(truth, indent=2, sort_keys=True) + "\n")
