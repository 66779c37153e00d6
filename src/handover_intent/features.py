"""Per-modality feature sequences, windowing, flattening, and PCA.  A run
builds EEG features, the channel mean of ``dsp.morlet_tf``'s power, through
``cached_eeg_features``, which alone knows the feature cache's keys."""

from __future__ import annotations

import hashlib
import io
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core_data import (
    EPOCH_END_S,
    EPOCH_START_S,
    Modality,
    RawStream,
    TimeSeries,
    TrialRecording,
    epoch,
    label_for,
    write_file,
)
from .dsp import TfSpec, default_tf_spec, interpolate_gaps, morlet_tf

# Central/frontal montage subset used for classification features.
DEFAULT_EEG_CHANNELS = [
    "Cz", "C3", "C4", "FC1", "FC2", "FC5", "FC6", "CP1", "CP2", "F3", "F4", "Fz",
]

_FEATURE_DIMS = {Modality.GAZE: 2, Modality.MOTION: 3}


class GridError(ValueError):
    """A window end time is off the configured window grid."""


class ModalityAbsentError(ValueError):
    """The trial does not carry the stream a feature builder needs."""


@dataclass(frozen=True)
class FeatureSequence:
    modality: Modality
    series: TimeSeries
    trial_ref: tuple  # (participant_id, trial_id)
    label: int

    def __post_init__(self):
        expected = _FEATURE_DIMS.get(self.modality)
        if expected is not None and self.series.n_features != expected:
            raise ValueError(
                f"{self.modality.value} features must have D={expected}, "
                f"got {self.series.n_features}"
            )
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")


def _sequence(
    trial: TrialRecording, modality: Modality, series: TimeSeries
) -> FeatureSequence:
    return FeatureSequence(
        modality=modality,
        series=series,
        trial_ref=(trial.participant_id, trial.trial_id),
        label=label_for(trial.condition),
    )


def _stream(trial: TrialRecording, modality: Modality) -> RawStream:
    stream = trial.streams.get(modality)
    if stream is None:
        raise ModalityAbsentError(
            f"trial {(trial.participant_id, trial.trial_id)} has no "
            f"{modality.value} stream"
        )
    return stream


def build_gaze_features(trial: TrialRecording) -> FeatureSequence:
    """Reference-corrected gaze: (gaze - reference) per sample, gaps repaired.

    Gaps are filled column by column, so gaze and reference are repaired
    independently of each other.
    """
    filled = interpolate_gaps(_stream(trial, Modality.GAZE).series)
    v = filled.values
    series = TimeSeries(filled.start_time_s, filled.step_s, v[:, 0:2] - v[:, 2:4])
    return _sequence(trial, Modality.GAZE, series)


def build_motion_features(trial: TrialRecording) -> FeatureSequence:
    """Hand x/y/z in the camera frame, untransformed."""
    return _sequence(trial, Modality.MOTION, _stream(trial, Modality.MOTION).series)


def build_eeg_features(
    trial: TrialRecording,
    channels: "list[str] | None" = None,
    tf: TfSpec | None = None,
    log_power: bool = False,
) -> FeatureSequence:
    """Morlet power averaged over the montage subset's channels, (T', F).

    ``log_power`` switches the emitted features to log10(power + eps); the
    default is raw power.
    """
    stream = _stream(trial, Modality.EEG)
    channels = DEFAULT_EEG_CHANNELS if channels is None else list(channels)
    tf = default_tf_spec() if tf is None else tf
    available = stream.columns
    missing = [c for c in channels if c not in available]
    if missing:
        raise ValueError(
            f"channels {missing} not in the recording; available: {available}"
        )
    rows = [available.index(c) for c in channels]
    series = stream.series
    subset = TimeSeries(series.start_time_s, series.step_s, series.values[:, rows])
    times, power = morlet_tf(subset, tf)
    power = power.mean(axis=0)
    if log_power:
        power = np.log10(power + 1e-20)
    return _sequence(
        trial, Modality.EEG, TimeSeries(float(times[0]), float(times[1] - times[0]), power)
    )


# ---------------------------------------------------------------------------
# Window grid and windowing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WindowGrid:
    """Growing-window sweep: ends first..last in increments of step, every
    window inside the epoch."""

    start_s: float = EPOCH_START_S
    first_end_s: float = -4.75
    last_end_s: float = EPOCH_END_S
    step_s: float = 0.25

    def __post_init__(self):
        if self.step_s <= 0:
            raise ValueError("step_s must be positive")
        start, first, last = self.start_s, self.first_end_s, self.last_end_s
        if not EPOCH_START_S <= start < first <= last <= EPOCH_END_S:
            raise ValueError(
                f"need {EPOCH_START_S} <= start < first_end <= last_end <= {EPOCH_END_S} "
                f"(the epoch), got {start}, {first}, {last}"
            )
        n = (self.last_end_s - self.first_end_s) / self.step_s
        if abs(n - round(n)) > 1e-9:
            raise ValueError("last_end_s must lie on the end-time grid")

    def end_times(self) -> np.ndarray:
        n = int(round((self.last_end_s - self.first_end_s) / self.step_s)) + 1
        return self.first_end_s + self.step_s * np.arange(n)

    def index_of(self, end_time_s: float) -> int:
        k = (end_time_s - self.first_end_s) / self.step_s
        if abs(k - round(k)) > 1e-9 or not 0 <= round(k) < len(self.end_times()):
            raise GridError(
                f"end time {end_time_s} s is off the window grid "
                f"({self.first_end_s}..{self.last_end_s} step {self.step_s})"
            )
        return int(round(k))


def window_features(
    seq: FeatureSequence, end_time_s: float, grid: WindowGrid | None = None
) -> FeatureSequence:
    """Restrict a sequence to [grid.start, end_time_s); end must be on-grid."""
    grid = WindowGrid() if grid is None else grid
    grid.index_of(end_time_s)  # raises GridError when off the grid
    series = epoch(seq.series, grid.start_s, end_time_s)
    return FeatureSequence(
        modality=seq.modality, series=series, trial_ref=seq.trial_ref, label=seq.label
    )


def flatten(seq: FeatureSequence) -> np.ndarray:
    """Time-major 1-D vector: all D features of t0, then t1, ..."""
    return seq.series.values.reshape(-1)


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray  # (D,)
    components: np.ndarray  # (k, D), orthonormal rows
    explained_variance_ratio: np.ndarray  # (k,), nonincreasing


def pca_fit(x: np.ndarray, variance_target: float = 0.99) -> PcaModel:
    """Smallest component count whose cumulative explained variance reaches
    the target.

    The components are the principal axes of the mean-centred data C (n, D).
    When n < D they come from ``eigh`` of the n x n Gram C C^T: its
    eigenvalues are the squared singular values of C, and each axis is
    C^T u / sqrt(eigenvalue) for an eigenvector u, which costs O(n^2 D)
    instead of an n x D SVD.  Otherwise they come from the SVD of C.
    Directions with at most 1e-12 of the largest variance are dropped before
    thresholding; zero-variance data gets one dummy component.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError(f"need a 2-D matrix with n >= 2 rows, got shape {x.shape}")
    if not 0.0 < variance_target <= 1.0:
        raise ValueError(f"variance_target must be in (0, 1], got {variance_target}")
    if not np.isfinite(x).all():
        raise ValueError("array must not contain infs or NaNs")
    mean = x.mean(axis=0)
    centered = x - mean
    n, d = centered.shape
    if n < d:
        eigenvalues, u = np.linalg.eigh(centered @ centered.T)
        variances, u = eigenvalues[::-1], u[:, ::-1]  # descending
    else:
        _, svals, vt = np.linalg.svd(centered, full_matrices=False)
        variances = svals**2
    total = variances.sum()
    if total <= 0.0:
        # Zero-variance data: one dummy direction carries "all" the variance.
        components = np.zeros((1, d))
        components[0, 0] = 1.0
        return PcaModel(mean=mean, components=components,
                        explained_variance_ratio=np.array([1.0]))
    ratio = variances / total
    # Drop numerically-null directions before thresholding.
    keep = variances > variances[0] * 1e-12
    cumulative = np.cumsum(ratio[keep])
    k = int(np.searchsorted(cumulative, variance_target - 1e-12) + 1)
    k = min(k, int(keep.sum()))
    if n < d:
        components = (centered.T @ (u[:, :k] / np.sqrt(variances[:k]))).T
    else:
        components = vt[:k]
    return PcaModel(
        mean=mean, components=components, explained_variance_ratio=ratio[:k]
    )


def pca_apply(model: PcaModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != model.mean.shape[0]:
        raise ValueError(
            f"input has {x.shape[-1]} features, model expects {model.mean.shape[0]}"
        )
    return (x - model.mean) @ model.components.T


# ---------------------------------------------------------------------------
# Feature cache (saves re-running the Morlet transform across runs; within a
# run, each participant's features are built once and shared by its views).
# Entries are written, like every file, by ``core_data.write_file``.
# ---------------------------------------------------------------------------

CACHE_VERSION = 1


class FeatureCache:
    """npz-backed store keyed by (participant, trial, modality, parameter key)."""

    def __init__(self, directory: "Path | str"):
        self.directory = Path(directory)

    def _path(self, trial_ref: tuple, modality: Modality, param_key: str) -> Path:
        digest = hashlib.sha256(param_key.encode("utf-8")).hexdigest()[:16]
        pid, tid = trial_ref
        return self.directory / f"p{pid:03d}_t{tid:04d}_{modality.value}_{digest}.npz"

    def get(
        self, trial_ref: tuple, modality: Modality, param_key: str, label: int
    ) -> FeatureSequence | None:
        """The stored sequence, or None on a miss: no file, another version or
        key, or a file that cannot be read (cut short, corrupt)."""
        path = self._path(trial_ref, modality, param_key)
        if not path.exists():
            return None
        try:
            with np.load(path) as data:
                if int(data["version"]) != CACHE_VERSION or str(data["key"]) != param_key:
                    return None
                series = TimeSeries(
                    float(data["start_time_s"]), float(data["step_s"]), data["values"]
                )
        except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile):
            return None
        return FeatureSequence(
            modality=modality, series=series, trial_ref=trial_ref, label=label
        )

    def put(self, seq: FeatureSequence, param_key: str) -> None:
        """Store ``seq`` whole through ``write_file``, so a reader never sees
        a half-written entry."""
        buffer = io.BytesIO()
        np.savez(
            buffer,
            version=CACHE_VERSION,
            key=param_key,
            start_time_s=seq.series.start_time_s,
            step_s=seq.series.step_s,
            values=seq.series.values,
        )
        write_file(self._path(seq.trial_ref, seq.modality, param_key), buffer.getvalue())



def cached_eeg_features(
    trial: TrialRecording,
    channels: "list[str]",
    tf: TfSpec,
    log_power: bool,
    cache: FeatureCache | None,
) -> FeatureSequence:
    """``build_eeg_features``, served from ``cache`` when it holds the trial's
    entry and stored there after a build; no cache builds.  The key holds the
    feature parameters and a short hash of the trial's EEG content (samples,
    start time, step, channel names), so that an entry is only served for the
    recording it was built from."""
    if cache is None:
        return build_eeg_features(trial, channels, tf, log_power=log_power)
    eeg = _stream(trial, Modality.EEG)
    digest = hashlib.sha256(eeg.series.values.tobytes())
    digest.update(repr((eeg.series.start_time_s, eeg.series.step_s, eeg.columns)).encode())
    key = tf.cache_key() + f"_ch{'-'.join(channels)}_log{int(log_power)}"
    key += f"_eeg{digest.hexdigest()[:16]}"
    ref = (trial.participant_id, trial.trial_id)
    seq = cache.get(ref, Modality.EEG, key, label_for(trial.condition))
    if seq is None:
        seq = build_eeg_features(trial, channels, tf, log_power=log_power)
        cache.put(seq, key)
    return seq
