"""Descriptive analyses: gaze zone frequency tables, grand-average event
potentials, and relative band-power change (ERD/ERS) summaries."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core_data import Condition, TimeSeries, TrialRecording, epoch
from .dsp import TfSpec, morlet_tf

ZONE_NAMES = ("Robot", "PosB", "PosC")
DEFAULT_ERP_CHANNELS = ["C3", "C4", "Cz", "CP1", "CP2", "FC1", "FC2"]
DEFAULT_BASELINE_WINDOW = (-5.0, -4.5)

_CANONICAL_BANDS = {"mu": (8.0, 12.0), "beta": (13.0, 30.0), "gamma": (30.0, 40.0)}


@dataclass(frozen=True)
class Rect:
    """Half-open pixel rectangle [x_min, x_max) x [y_min, y_max)."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("rectangle must have positive extent")

    def contains(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return (x >= self.x_min) & (x < self.x_max) & (y >= self.y_min) & (y < self.y_max)

    def intersects(self, other: "Rect") -> bool:
        return (
            self.x_min < other.x_max
            and other.x_min < self.x_max
            and self.y_min < other.y_max
            and other.y_min < self.y_max
        )


@dataclass(frozen=True)
class ZoneMap:
    """Named pixel zones in reference-corrected gaze coordinates; everything
    outside the named zones classifies as Other, so classification is total."""

    zones: dict  # name -> Rect, exactly the three named zones

    def __post_init__(self):
        if tuple(self.zones.keys()) != tuple(ZONE_NAMES):
            raise ValueError(f"zones must be exactly {ZONE_NAMES} in order")
        names = list(self.zones)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                if self.zones[a].intersects(self.zones[b]):
                    raise ValueError(f"zones {a} and {b} overlap")

    def classify(self, xy: np.ndarray) -> np.ndarray:
        """Zone name per row of (n, 2) coordinates."""
        xy = np.asarray(xy, dtype=float)
        out = np.full(xy.shape[0], "Other", dtype=object)
        for name, rect in self.zones.items():
            out[rect.contains(xy[:, 0], xy[:, 1])] = name
        return out


def default_zone_map() -> ZoneMap:
    """Placeholder geometry around the reference point (robot torso at the
    origin of reference-corrected coordinates); replace per setup via a zone
    map file."""
    return ZoneMap(
        zones={
            "Robot": Rect(-150.0, -100.0, 150.0, 350.0),
            "PosB": Rect(-800.0, 100.0, -200.0, 500.0),
            "PosC": Rect(200.0, 100.0, 800.0, 500.0),
        }
    )


def parse_zone_map(path) -> ZoneMap:
    """Zone map file: lines of ``zone <name> <xmin> <ymin> <xmax> <ymax>``."""
    zones = {}
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 6 or parts[0] != "zone":
                raise ValueError(
                    f"{path}:{lineno}: expected 'zone <name> <xmin> <ymin> <xmax> <ymax>'"
                )
            name = parts[1]
            try:
                x0, y0, x1, y1 = (float(v) for v in parts[2:])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            zones[name] = Rect(x0, y0, x1, y1)
    missing = [n for n in ZONE_NAMES if n not in zones]
    if missing:
        raise ValueError(f"{path}: missing zones {missing}")
    return ZoneMap(zones={n: zones[n] for n in ZONE_NAMES})


def write_zone_map(path, zone_map: ZoneMap) -> None:
    lines = ["# reference-corrected gaze zones (pixels)"]
    for name, r in zone_map.zones.items():
        lines.append(f"zone {name} {r.x_min!r} {r.y_min!r} {r.x_max!r} {r.y_max!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class BandSpec:
    name: str
    low_hz: float
    high_hz: float

    def __post_init__(self):
        canon = _CANONICAL_BANDS.get(self.name)
        if canon is None:
            raise ValueError(f"band name must be one of {sorted(_CANONICAL_BANDS)}")
        if (self.low_hz, self.high_hz) != canon:
            raise ValueError(
                f"{self.name} band is fixed at {canon[0]:g}-{canon[1]:g} Hz"
            )

    @classmethod
    def named(cls, name: str) -> "BandSpec":
        low, high = _CANONICAL_BANDS[name]
        return cls(name=name, low_hz=low, high_hz=high)


# ---------------------------------------------------------------------------
# Gaze zones
# ---------------------------------------------------------------------------


def gaze_zone_frequencies(
    items,
    zones: ZoneMap,
    t_start: float,
    t_end: float,
) -> dict:
    """Percentage of gaze samples per zone and condition inside [t_start, t_end).

    ``items`` yields (Condition, gaze FeatureSequence) pairs; the sequences
    carry reference-corrected coordinates.  Percentages per condition sum to
    100 (Other included).
    """
    samples: dict = {c: [] for c in Condition}
    for condition, seq in items:
        window = epoch(seq.series, t_start, t_end)
        samples[condition].append(window.values)
    table = {}
    for condition, chunks in samples.items():
        if not chunks:
            continue
        xy = np.vstack(chunks)
        finite = np.isfinite(xy).all(axis=1)
        xy = xy[finite]
        if xy.shape[0] == 0:
            raise ValueError(f"no usable gaze samples for condition {condition.value}")
        assigned = zones.classify(xy)
        row = {}
        for name in list(ZONE_NAMES) + ["Other"]:
            row[name] = 100.0 * float(np.sum(assigned == name)) / xy.shape[0]
        table[condition] = row
    if not table:
        raise ValueError("no gaze sequences supplied")
    return table


# ---------------------------------------------------------------------------
# Grand-average event-related potential
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrandAverage:
    times_s: np.ndarray
    mean: np.ndarray
    variance: np.ndarray  # across subjects
    n_subjects: int


def _channel_average_trace(
    trial: TrialRecording, channels, window, baseline
) -> TimeSeries:
    eeg = trial.eeg
    available = eeg.channel_names
    missing = [c for c in channels if c not in available]
    if missing:
        raise ValueError(f"channels {missing} not recorded; available: {available}")
    rows = [available.index(c) for c in channels]
    stream = eeg.to_timeseries()
    trace = stream.values[:, rows].mean(axis=1, keepdims=True)
    series = epoch(TimeSeries(stream.start_time_s, stream.step_s, trace), *window)
    base = epoch(series, baseline[0], baseline[1]).values.mean()
    return TimeSeries(series.start_time_s, series.step_s, series.values - base)


def _sorted_trials(trials) -> list:
    """Canonical order so averaging is bit-stable under input permutation."""
    return sorted(trials, key=lambda t: (t.participant_id, t.trial_id))


def erp_grand_average(
    trials_by_subject: dict,
    channels=None,
    window: tuple[float, float] = (-5.0, 6.0),
    baseline: tuple[float, float] = DEFAULT_BASELINE_WINDOW,
) -> GrandAverage:
    """Mean across trials, then across subjects, of the channel-averaged
    voltage, baseline-corrected per trial by the mean over ``baseline``."""
    channels = DEFAULT_ERP_CHANNELS if channels is None else list(channels)
    if not trials_by_subject:
        raise ValueError("no trials supplied")
    subject_means = []
    times = None
    for subject in sorted(trials_by_subject):
        traces = []
        for trial in _sorted_trials(trials_by_subject[subject]):
            ts = _channel_average_trace(trial, channels, window, baseline)
            if times is None:
                times = ts.times()
            traces.append(ts.values[:, 0])
        if not traces:
            raise ValueError(f"subject {subject} has no trials")
        subject_means.append(np.mean(traces, axis=0))
    stack = np.stack(subject_means)
    return GrandAverage(
        times_s=times,
        mean=stack.mean(axis=0),
        variance=stack.var(axis=0),
        n_subjects=stack.shape[0],
    )


# ---------------------------------------------------------------------------
# ERD/ERS (relative band-power change)
# ---------------------------------------------------------------------------


def _band_power_series(
    trial: TrialRecording, band: BandSpec, channel: str, window
) -> TimeSeries:
    eeg = trial.eeg
    if channel not in eeg.channel_names:
        raise ValueError(
            f"channel {channel} not recorded; available: {eeg.channel_names}"
        )
    row = eeg.channel_names.index(channel)
    stream = eeg.to_timeseries()
    chan = TimeSeries(stream.start_time_s, stream.step_s, stream.values[:, [row]])
    freqs = tuple(
        f for f in range(int(band.low_hz), int(band.high_hz) + 1)
        if band.low_hz <= f <= band.high_hz
    )
    tf = morlet_tf(chan, TfSpec(freqs_hz=freqs, n_cycles=3.0, output_step_s=chan.step_s))[0]
    power = tf.power.mean(axis=1, keepdims=True)
    series = TimeSeries(float(tf.times_s[0]), chan.step_s, power)
    return epoch(series, *window)


def erds(
    trials,
    band: BandSpec,
    channel: str,
    baseline: tuple[float, float] = (-5.0, -4.5),
    window: tuple[float, float] = (-5.0, 6.0),
) -> TimeSeries:
    """Relative band-power change (P - P_base) / P_base over the window.

    Power is averaged across trials first, then referenced to the mean power
    over the baseline interval.
    """
    trials = _sorted_trials(trials)
    if not trials:
        raise ValueError("no trials supplied")
    series = [_band_power_series(t, band, channel, window) for t in trials]
    mean_power = np.mean([s.values for s in series], axis=0)
    ref = TimeSeries(series[0].start_time_s, series[0].step_s, mean_power)
    base = epoch(ref, baseline[0], baseline[1]).values.mean()
    if base <= 0.0:
        raise ValueError("baseline power is zero; relative change undefined")
    return TimeSeries(ref.start_time_s, ref.step_s, (mean_power - base) / base)


def trial_band_power_change(
    trial: TrialRecording,
    band: BandSpec,
    channel: str,
    interval: tuple[float, float] = (-2.0, 0.0),
    baseline: tuple[float, float] = (-5.0, -4.5),
) -> float:
    """One trial's mean relative band-power change over ``interval``, with the
    trial's own baseline as the reference."""
    power = _band_power_series(trial, band, channel, (baseline[0], interval[1]))
    base = epoch(power, baseline[0], baseline[1]).values.mean()
    if base <= 0.0:
        raise ValueError("baseline power is zero; relative change undefined")
    window = epoch(power, interval[0], interval[1])
    return float(((window.values - base) / base).mean())


def band_power_condition_test(
    trials,
    band: BandSpec,
    channel: str,
    interval: tuple[float, float] = (-2.0, 0.0),
    baseline: tuple[float, float] = (-5.0, -4.5),
) -> tuple[float, float]:
    """t-test between one subject's handover and non-handover trialwise band
    powers over ``interval``: each trial reduces to its mean relative band
    power, and the two per-condition groups are compared with a two-sample
    Student t (the groups' trial counts differ, so trials cannot be paired)."""
    handover = []
    others = []
    for trial in _sorted_trials(trials):
        value = trial_band_power_change(trial, band, channel, interval, baseline)
        (handover if trial.condition is Condition.HANDOVER else others).append(value)
    if not handover or not others:
        raise ValueError("need trials from both the handover and other conditions")
    return two_sample_t_test(np.asarray(handover), np.asarray(others))


def two_sample_t_test(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Pooled-variance Student t for two independent samples."""
    from scipy import stats as sstats

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise ValueError("need at least two samples per group")
    na, nb = a.shape[0], b.shape[0]
    pooled = ((na - 1) * a.var(ddof=1) + (nb - 1) * b.var(ddof=1)) / (na + nb - 2)
    if pooled == 0.0:
        raise ValueError("pooled variance is zero; t statistic undefined")
    t = (a.mean() - b.mean()) / np.sqrt(pooled * (1.0 / na + 1.0 / nb))
    p = 2.0 * sstats.t.sf(abs(t), df=na + nb - 2)
    return float(t), float(p)


# ---------------------------------------------------------------------------
# CSV tables
# ---------------------------------------------------------------------------


def write_zone_table_csv(path, table: dict) -> None:
    """Rows = zones (Other last), columns = conditions, cells = percentages."""
    conditions = [c for c in Condition if c in table]
    lines = ["zone," + ",".join(c.value for c in conditions)]
    for name in list(ZONE_NAMES) + ["Other"]:
        cells = [f"{table[c][name]:.2f}" for c in conditions]
        lines.append(name + "," + ",".join(cells))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_band_power_csv(path, rows) -> None:
    """rows: (subject, band, t_statistic, p_value) tuples."""
    lines = ["subject,band,t,p"]
    for subject, band, t, p in rows:
        lines.append(f"{subject},{band},{t!r},{p!r}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
