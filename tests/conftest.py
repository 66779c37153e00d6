"""Shared builders for small in-memory trials and on-disk datasets, and a
serial sweep of a view."""

from __future__ import annotations

# Imported before numpy on purpose: the package pins OpenBLAS to one thread
# per process, which only takes effect if it runs before numpy loads OpenBLAS.
# Without the pin, the in-process end-to-end runs oversubscribe the CPUs.
import handover_intent  # noqa: F401

import numpy as np
import pytest

from handover_intent.core_data import (
    STREAM_COLUMNS,
    Condition,
    Modality,
    RawStream,
    TimeSeries,
    TrialRecording,
    is_uncorrupted,
)
from handover_intent.evaluation import (
    assemble_timeline,
    evaluate_split,
    gather_windows,
    make_view,
)


def series(start: float, step: float, values) -> TimeSeries:
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    return TimeSeries(start, step, values)


def grid_times(start: float, rate_hz: float, end: float) -> np.ndarray:
    n = int(round((end - start) * rate_hz)) + 1
    return start + np.arange(n) / rate_hz


def make_gaze(
    rng=None,
    rate_hz: float = 25.0,
    start: float = -5.0,
    end: float = 6.0,
    gaze=None,
    ref=None,
) -> RawStream:
    t = grid_times(start, rate_hz, end)
    n = t.shape[0]
    if gaze is None:
        rng = np.random.default_rng(0) if rng is None else rng
        gaze = np.array([960.0, 540.0]) + rng.normal(0, 5, size=(n, 2))
    if ref is None:
        ref = np.tile([960.0, 540.0], (n, 1))
    values = np.hstack([np.asarray(gaze, float), np.asarray(ref, float)])
    return RawStream(series(start, 1.0 / rate_hz, values), STREAM_COLUMNS[Modality.GAZE])


def make_motion(
    rng=None, rate_hz: float = 5.0, start: float = -5.0, end: float = 6.0, xyz=None
) -> RawStream:
    t = grid_times(start, rate_hz, end)
    n = t.shape[0]
    if xyz is None:
        rng = np.random.default_rng(1) if rng is None else rng
        xyz = np.array([0.1, -0.3, 0.9]) + rng.normal(0, 0.01, size=(n, 3))
    return RawStream(series(start, 1.0 / rate_hz, xyz), STREAM_COLUMNS[Modality.MOTION])


def make_eeg(
    rng=None,
    rate_hz: float = 100.0,
    start: float = -5.0,
    end: float = 6.0,
    channels=None,
    values=None,
) -> RawStream:
    """``values`` is time-major, (time, channels)."""
    channels = ["Cz", "C3", "C4", "FC1"] if channels is None else list(channels)
    t = grid_times(start, rate_hz, end)
    if values is None:
        rng = np.random.default_rng(2) if rng is None else rng
        values = rng.normal(0, 10, size=(len(channels), t.shape[0])).T
    return RawStream(series(start, 1.0 / rate_hz, values), channels)


def make_trial(
    participant_id: int = 1,
    trial_id: int = 0,
    condition: Condition = Condition.HANDOVER,
    eeg=None,
    gaze=None,
    motion=None,
) -> TrialRecording:
    streams = {Modality.EEG: eeg, Modality.GAZE: gaze, Modality.MOTION: motion}
    return TrialRecording(
        participant_id=participant_id,
        trial_id=trial_id,
        condition=condition,
        onset_time_s=0.0,
        streams={m: s for m, s in streams.items() if s is not None},
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def complete_trials(trials, modalities) -> list:
    """The trials that pass the corruption rule for every modality in
    ``modalities``: the trials a view with those modalities keeps."""
    return [t for t in trials if all(is_uncorrupted(t, m) for m in modalities)]


def sweep_view(blocks, scheme, grid, late=False):
    """Build the view of ``blocks`` and evaluate it on every window of
    ``grid``, one ``evaluate_split`` task after another, as the pipeline's
    tasks do.  Returns its timeline and each window's ``WindowScore`` in grid
    order (None where the window failed)."""
    view = make_view(blocks, scheme, late)
    columns = [evaluate_split(view, grid, i) for i in range(len(view.splits))]
    results = gather_windows(grid.end_times(), columns)
    return assemble_timeline(view, grid, results), [score for score, _ in results]
