"""Trial data model, dataset ingestion, epoching, class labels, and the
corruption rule that picks each view's complete trials (the pipeline gates a
participant on how many there are).

A dataset on disk is one manifest file plus per-trial CSV files.  Manifest
format (UTF-8, line oriented)::

    # comment
    format_version = 1
    name = my-dataset
    eeg_rate_hz = 250.0          # optional rate declarations, verified on load
    gaze_rate_hz = 25.0
    motion_rate_hz = 5.0
    eeg_channels = Cz,C3,C4      # optional channel declaration, verified
    [trials]
    participant,trial,condition,onset_s,eeg,gaze,motion
    1,0,Handover,0.0,eeg/p01_t000.csv,gaze/p01_t000.csv,-

Paths are relative to the manifest's directory; ``-`` marks an absent
modality.  Trial CSVs have a header row and a first column of onset-relative
time in seconds on a uniform grid:

* EEG:    ``time_s,<channel>,<channel>,...`` (microvolts)
* gaze:   ``time_s,gaze_x,gaze_y,ref_x,ref_y`` (pixels; ``nan`` = missing)
* motion: ``time_s,hand_x,hand_y,hand_z`` (meters)
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

# All analysis windows live inside this onset-relative epoch.
EPOCH_START_S = -5.0
EPOCH_END_S = 6.0

GAZE_COLUMNS = ["gaze_x", "gaze_y", "ref_x", "ref_y"]
MOTION_COLUMNS = ["hand_x", "hand_y", "hand_z"]

_GRID_TOL = 1e-6  # fraction of one step


class DatasetError(Exception):
    """Raised for malformed manifests or trial files."""


class CoverageError(ValueError):
    """Requested window lies (partly) outside the recorded samples."""


class Condition(Enum):
    SOLO = "Solo"
    HANDOVER = "Handover"
    JOINT = "Joint"

    @classmethod
    def parse(cls, text: str) -> "Condition":
        for c in cls:
            if c.value.lower() == text.strip().lower():
                return c
        raise ValueError(f"unknown condition {text!r}")


class Modality(Enum):
    EEG = "eeg"
    GAZE = "gaze"
    MOTION = "motion"


def parse_modalities(text: str) -> tuple:
    """Modalities from a comma-separated list such as ``gaze, motion``."""
    items = [v.strip().lower() for v in text.split(",") if v.strip()]
    if not items:
        raise ValueError("empty modality list")
    return tuple(Modality(v) for v in items)


def label_for(condition: Condition) -> int:
    """Binary class: handover is the positive class, solo/joint the negative."""
    return 1 if condition is Condition.HANDOVER else 0


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled matrix of shape (T, D); row order is temporal."""

    start_time_s: float
    step_s: float
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError(f"values must be 2-D (T, D), got shape {v.shape}")
        if v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError(f"need T >= 1 and D >= 1, got shape {v.shape}")
        if not (self.step_s > 0 and math.isfinite(self.step_s)):
            raise ValueError(f"step_s must be positive, got {self.step_s}")
        object.__setattr__(self, "values", v)
        try:
            v.flags.writeable = False
        except ValueError:
            pass  # view of a foreign buffer; treat as read-only by convention

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    @property
    def end_time_s(self) -> float:
        """Time of the last sample."""
        return self.start_time_s + (self.n_samples - 1) * self.step_s

    def times(self) -> np.ndarray:
        return self.start_time_s + self.step_s * np.arange(self.n_samples)

    def covers(self, window_start_s: float, window_end_s: float) -> bool:
        """True when every grid point of [start, end) is recorded."""
        tol = _GRID_TOL * self.step_s
        return (
            self.start_time_s <= window_start_s + tol
            and self.end_time_s >= window_end_s - self.step_s - tol
        )


def epoch(stream: TimeSeries, window_start_s: float, window_end_s: float) -> TimeSeries:
    """Restrict ``stream`` to the half-open onset-relative window [start, end).

    Selected rows are those whose grid time t satisfies start <= t < end,
    with a small tolerance so on-grid boundaries are classified exactly.
    """
    if not window_start_s < window_end_s:
        raise ValueError(f"empty window [{window_start_s}, {window_end_s})")
    step = stream.step_s
    i_lo = math.ceil((window_start_s - stream.start_time_s) / step - _GRID_TOL)
    i_hi = math.ceil((window_end_s - stream.start_time_s) / step - _GRID_TOL)
    if i_lo < 0 or i_hi > stream.n_samples:
        raise CoverageError(
            f"window [{window_start_s}, {window_end_s}) outside coverage "
            f"[{stream.start_time_s}, {stream.end_time_s}]"
        )
    if i_hi <= i_lo:
        raise ValueError(
            f"window [{window_start_s}, {window_end_s}) contains no samples "
            f"(step {step})"
        )
    return TimeSeries(
        start_time_s=stream.start_time_s + i_lo * step,
        step_s=step,
        values=stream.values[i_lo:i_hi],
    )


@dataclass(frozen=True)
class RawEeg:
    sample_rate_hz: float
    channel_names: list[str]
    samples: np.ndarray  # (channels, time), microvolts
    start_time_s: float
    truncated: bool = False

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 2 or s.shape[0] != len(self.channel_names):
            raise ValueError(
                f"samples shape {s.shape} inconsistent with "
                f"{len(self.channel_names)} channel names"
            )
        if not self.sample_rate_hz > 0:
            raise ValueError("sample_rate_hz must be positive")
        object.__setattr__(self, "samples", s)

    def to_timeseries(self) -> TimeSeries:
        return TimeSeries(self.start_time_s, 1.0 / self.sample_rate_hz, self.samples.T)


@dataclass(frozen=True)
class RawGaze:
    sample_rate_hz: float
    gaze_xy: np.ndarray  # (time, 2), pixels; nan marks missing samples
    reference_xy: np.ndarray  # (time, 2), pixels
    start_time_s: float
    truncated: bool = False

    def __post_init__(self):
        g = np.asarray(self.gaze_xy, dtype=float)
        r = np.asarray(self.reference_xy, dtype=float)
        if g.shape != r.shape or g.ndim != 2 or g.shape[1] != 2:
            raise ValueError(
                f"gaze_xy {g.shape} and reference_xy {r.shape} must both be (T, 2)"
            )
        if not self.sample_rate_hz > 0:
            raise ValueError("sample_rate_hz must be positive")
        object.__setattr__(self, "gaze_xy", g)
        object.__setattr__(self, "reference_xy", r)

    def gaze_series(self) -> TimeSeries:
        return TimeSeries(self.start_time_s, 1.0 / self.sample_rate_hz, self.gaze_xy)

    def reference_series(self) -> TimeSeries:
        return TimeSeries(self.start_time_s, 1.0 / self.sample_rate_hz, self.reference_xy)


@dataclass(frozen=True)
class RawMotion:
    sample_rate_hz: float
    hand_xyz: np.ndarray  # (time, 3), meters, camera frame
    start_time_s: float
    truncated: bool = False

    def __post_init__(self):
        h = np.asarray(self.hand_xyz, dtype=float)
        if h.ndim != 2 or h.shape[1] != 3:
            raise ValueError(f"hand_xyz must be (T, 3), got {h.shape}")
        if not self.sample_rate_hz > 0:
            raise ValueError("sample_rate_hz must be positive")
        object.__setattr__(self, "hand_xyz", h)

    def to_timeseries(self) -> TimeSeries:
        return TimeSeries(self.start_time_s, 1.0 / self.sample_rate_hz, self.hand_xyz)


@dataclass(frozen=True)
class TrialRecording:
    participant_id: int
    trial_id: int
    condition: Condition
    onset_time_s: float  # onset instant on the original recording clock
    eeg: RawEeg | None = None
    gaze: RawGaze | None = None
    motion: RawMotion | None = None

    def __post_init__(self):
        if self.participant_id < 1:
            raise ValueError("participant_id must be >= 1")
        if self.trial_id < 0:
            raise ValueError("trial_id must be >= 0")
        if self.eeg is None and self.gaze is None and self.motion is None:
            raise ValueError(
                f"trial ({self.participant_id}, {self.trial_id}) has no modality stream"
            )

    def stream(self, modality: Modality):
        return {
            Modality.EEG: self.eeg,
            Modality.GAZE: self.gaze,
            Modality.MOTION: self.motion,
        }[modality]


@dataclass(frozen=True)
class LabeledTrial:
    trial: TrialRecording
    label: int

    def __post_init__(self):
        if self.label != label_for(self.trial.condition):
            raise ValueError(
                f"label {self.label} inconsistent with condition "
                f"{self.trial.condition.value}"
            )


def labeled(trials: "list[TrialRecording]") -> "list[LabeledTrial]":
    return [LabeledTrial(t, label_for(t.condition)) for t in trials]


def is_uncorrupted(
    trial: TrialRecording,
    modality: Modality,
    window: tuple[float, float] = (EPOCH_START_S, EPOCH_END_S),
) -> bool:
    """Operational corruption rule: stream present, full window coverage, and
    sound values.

    Gaze gaps (nan runs) are expected and repaired by interpolation, so gaze
    counts as corrupted only when a column has no finite value at all.  EEG
    and motion arrive cleaned, so any non-finite sample marks the trial
    corrupted for that modality.
    """
    stream = trial.stream(modality)
    if stream is None or stream.truncated:
        return False
    if modality is Modality.GAZE:
        series = np.hstack([stream.gaze_xy, stream.reference_xy])
        if not series.shape[0]:
            return False
        if not np.isfinite(series).any(axis=0).all():
            return False
        ok_values = True
        ts = stream.gaze_series()
    elif modality is Modality.EEG:
        ok_values = bool(np.isfinite(stream.samples).all())
        ts = stream.to_timeseries()
    else:
        ok_values = bool(np.isfinite(stream.hand_xyz).all())
        ts = stream.to_timeseries()
    return ok_values and ts.covers(*window)


def complete_trials(
    trials: "list[LabeledTrial]",
    modalities: "set[Modality]",
    window: tuple[float, float] = (EPOCH_START_S, EPOCH_END_S),
) -> "list[LabeledTrial]":
    """The trials that pass the corruption rule for every requested modality."""
    return [
        lt
        for lt in trials
        if all(is_uncorrupted(lt.trial, m, window) for m in modalities)
    ]


# ---------------------------------------------------------------------------
# Sectioned key = value text (run configs, synth profiles); manifest files
# ---------------------------------------------------------------------------


def read_sections(text: str, origin: str, keys: dict, error=ValueError) -> dict:
    """Read ``[section]`` blocks of ``key = value`` lines into {field: value}.

    ``keys`` maps each allowed (section, key) to (field, convert), one field
    per key.  Blank lines and ``#`` comments are skipped.  A line that is not
    ``key = value``, a key outside any section, an unknown or repeated key and
    a failed conversion raise ``error("origin:line: ...")``.
    """
    values: dict = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            continue
        where = f"{origin}:{lineno}"
        if "=" not in line:
            raise error(f"{where}: expected 'key = value'")
        if section is None:
            raise error(f"{where}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        if (section, key) not in keys:
            raise error(f"{where}: unknown key [{section}] {key}")
        name, convert = keys[(section, key)]
        if name in values:
            raise error(f"{where}: duplicate key [{section}] {key}")
        try:
            values[name] = convert(value.strip())
        except (ValueError, KeyError) as exc:
            raise error(f"{where}: [{section}] {key}: {exc}") from exc
    return values


_TRIAL_HEADER = ["participant", "trial", "condition", "onset_s", "eeg", "gaze", "motion"]


@dataclass(frozen=True)
class ManifestEntry:
    participant_id: int
    trial_id: int
    condition: Condition
    onset_s: float
    eeg_path: str | None
    gaze_path: str | None
    motion_path: str | None

    def path_for(self, modality: Modality) -> str | None:
        return {
            Modality.EEG: self.eeg_path,
            Modality.GAZE: self.gaze_path,
            Modality.MOTION: self.motion_path,
        }[modality]


@dataclass(frozen=True)
class Manifest:
    name: str
    rates_hz: dict  # Modality -> float, declared expected rates (may be empty)
    eeg_channels: list[str] | None
    entries: list[ManifestEntry]


def parse_manifest(path: "Path | str") -> Manifest:
    path = Path(path)
    keys: dict[str, str] = {}
    entries: list[ManifestEntry] = []
    in_trials = False
    saw_header = False
    seen_ids: set[tuple[int, int]] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line == "[trials]":
                in_trials = True
                continue
            if not in_trials:
                if "=" not in line:
                    raise DatasetError(f"{path}:{lineno}: expected 'key = value'")
                key, _, value = line.partition("=")
                keys[key.strip()] = value.strip()
                continue
            fields = [f.strip() for f in line.split(",")]
            if not saw_header:
                if fields != _TRIAL_HEADER:
                    raise DatasetError(
                        f"{path}:{lineno}: trial header must be "
                        f"{','.join(_TRIAL_HEADER)}"
                    )
                saw_header = True
                continue
            if len(fields) != len(_TRIAL_HEADER):
                raise DatasetError(
                    f"{path}:{lineno}: expected {len(_TRIAL_HEADER)} fields, "
                    f"got {len(fields)}"
                )
            try:
                entry = ManifestEntry(
                    participant_id=int(fields[0]),
                    trial_id=int(fields[1]),
                    condition=Condition.parse(fields[2]),
                    onset_s=float(fields[3]),
                    eeg_path=None if fields[4] == "-" else fields[4],
                    gaze_path=None if fields[5] == "-" else fields[5],
                    motion_path=None if fields[6] == "-" else fields[6],
                )
            except ValueError as exc:
                raise DatasetError(f"{path}:{lineno}: {exc}") from exc
            key = (entry.participant_id, entry.trial_id)
            if key in seen_ids:
                raise DatasetError(f"{path}:{lineno}: duplicate trial {key}")
            seen_ids.add(key)
            entries.append(entry)
    version = keys.get("format_version")
    if version != "1":
        raise DatasetError(f"{path}: unsupported format_version {version!r}")
    rates = {}
    for modality in Modality:
        key = f"{modality.value}_rate_hz"
        if key in keys:
            rates[modality] = float(keys[key])
    channels = None
    if "eeg_channels" in keys:
        channels = [c.strip() for c in keys["eeg_channels"].split(",") if c.strip()]
    return Manifest(
        name=keys.get("name", path.stem),
        rates_hz=rates,
        eeg_channels=channels,
        entries=entries,
    )


def write_manifest(path: "Path | str", manifest: Manifest) -> None:
    path = Path(path)
    lines = ["format_version = 1", f"name = {manifest.name}"]
    for modality in Modality:
        if modality in manifest.rates_hz:
            lines.append(f"{modality.value}_rate_hz = {manifest.rates_hz[modality]!r}")
    if manifest.eeg_channels:
        lines.append("eeg_channels = " + ",".join(manifest.eeg_channels))
    lines.append("[trials]")
    lines.append(",".join(_TRIAL_HEADER))
    for e in manifest.entries:
        lines.append(
            ",".join(
                [
                    str(e.participant_id),
                    str(e.trial_id),
                    e.condition.value,
                    repr(float(e.onset_s)),
                    e.eeg_path or "-",
                    e.gaze_path or "-",
                    e.motion_path or "-",
                ]
            )
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Trial CSV files
# ---------------------------------------------------------------------------


def _diagnose_bad_rows(path: Path, n_columns: int) -> str:
    """Re-read a numeric CSV slowly to name the first offending row."""
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for rownum, row in enumerate(reader, start=2):
            if len(row) != n_columns:
                return f"{path}:{rownum}: expected {n_columns} columns, got {len(row)}"
            for cell in row:
                try:
                    float(cell)
                except ValueError:
                    return f"{path}:{rownum}: bad numeric value {cell!r}"
    return f"{path}: unreadable numeric data"


def read_trial_csv(path: "Path | str") -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Read one trial file; returns (times, values, column names)."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
    columns = [c.strip() for c in header.split(",")]
    if len(columns) < 2 or columns[0] != "time_s":
        raise DatasetError(f"{path}:1: header must start with time_s, got {header!r}")
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise DatasetError(_diagnose_bad_rows(path, len(columns))) from exc
    if data.shape[1] != len(columns):
        raise DatasetError(
            f"{path}: {data.shape[1]} data columns but {len(columns)} header names"
        )
    if data.shape[0] < 2:
        raise DatasetError(f"{path}: need at least two samples")
    times = data[:, 0]
    if not np.isfinite(times).all():
        raise DatasetError(f"{path}: non-finite entries in the time column")
    steps = np.diff(times)
    step = float(np.median(steps))
    if step <= 0 or np.abs(steps - step).max() > 1e-4 * step:
        row = int(np.abs(steps - step).argmax()) + 2
        raise DatasetError(f"{path}:{row}: time grid is not uniform")
    values = data[:, 1:]
    values.flags.writeable = False
    return times, values, columns[1:]


def write_trial_csv(
    path: "Path | str", times: np.ndarray, values: np.ndarray, columns: "list[str]"
) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["time_s"] + list(columns)) + "\n")
        for t, row in zip(times, np.asarray(values)):
            fh.write(",".join([repr(float(t))] + [repr(float(v)) for v in row]) + "\n")


def _check_rate(
    path: Path, step: float, declared_hz: float | None, context: str
) -> float:
    rate = 1.0 / step
    if declared_hz is not None and abs(rate - declared_hz) > 1e-3 * declared_hz:
        raise DatasetError(
            f"{path}: {context} rate {rate:.6g} Hz does not match manifest "
            f"{declared_hz:.6g} Hz"
        )
    return rate


def _load_stream(
    root: Path,
    entry: ManifestEntry,
    modality: Modality,
    manifest: Manifest,
    window: tuple[float, float],
):
    rel = entry.path_for(modality)
    if rel is None:
        return None
    path = root / rel
    if not path.exists():
        log.warning(
            "trial (%d, %d): missing %s file %s; loading without that modality",
            entry.participant_id,
            entry.trial_id,
            modality.value,
            path,
        )
        return None
    times, values, columns = read_trial_csv(path)
    step = float(np.median(np.diff(times)))
    rate = _check_rate(path, step, manifest.rates_hz.get(modality), modality.value)
    start = float(times[0])
    probe = TimeSeries(start, step, np.zeros((len(times), 1)))
    truncated = not probe.covers(*window)
    if modality is Modality.EEG:
        if manifest.eeg_channels is not None and columns != manifest.eeg_channels:
            raise DatasetError(
                f"{path}: channels {columns} do not match manifest "
                f"{manifest.eeg_channels}"
            )
        return RawEeg(rate, columns, values.T, start, truncated)
    if modality is Modality.GAZE:
        if columns != GAZE_COLUMNS:
            raise DatasetError(f"{path}: gaze columns must be {GAZE_COLUMNS}, got {columns}")
        return RawGaze(rate, values[:, 0:2], values[:, 2:4], start, truncated)
    if columns != MOTION_COLUMNS:
        raise DatasetError(f"{path}: motion columns must be {MOTION_COLUMNS}, got {columns}")
    return RawMotion(rate, values, start, truncated)


def load_dataset(
    root_path: "Path | str",
    manifest: "Manifest | Path | str",
    window: tuple[float, float] = (EPOCH_START_S, EPOCH_END_S),
) -> "list[TrialRecording]":
    """Load every parseable trial listed in the manifest.

    A listed-but-missing file degrades to an absent modality (with a warning);
    malformed numeric content raises ``DatasetError`` naming file and row.
    """
    root = Path(root_path)
    if not isinstance(manifest, Manifest):
        manifest = parse_manifest(manifest)
    trials = []
    for entry in manifest.entries:
        eeg = _load_stream(root, entry, Modality.EEG, manifest, window)
        gaze = _load_stream(root, entry, Modality.GAZE, manifest, window)
        motion = _load_stream(root, entry, Modality.MOTION, manifest, window)
        if eeg is None and gaze is None and motion is None:
            raise DatasetError(
                f"trial ({entry.participant_id}, {entry.trial_id}): "
                "no modality stream could be loaded"
            )
        trials.append(
            TrialRecording(
                participant_id=entry.participant_id,
                trial_id=entry.trial_id,
                condition=entry.condition,
                onset_time_s=entry.onset_s,
                eeg=eeg,
                gaze=gaze,
                motion=motion,
            )
        )
    return trials


# ---------------------------------------------------------------------------
# Converter stub for externally published recordings
# ---------------------------------------------------------------------------


def convert_dataset(source_root: "Path | str", out_root: "Path | str") -> Path:
    """Convert a published-archive layout into the manifest format.

    Expected source layout (adjust here if the archive differs)::

        <source>/sub-<participant>/trial-<trial>_<condition>.<modality>.csv

    where ``<modality>`` is one of ``eeg``/``gaze``/``motion`` and each file
    already follows this package's trial CSV column conventions with
    onset-relative time in the first column.  Trials are indexed by the
    (participant, trial) pair; the manifest records onset_s = 0 because the
    source clocks are already onset-relative.

    Returns the path of the written manifest.
    """
    source = Path(source_root)
    out = Path(out_root)
    subdirs = sorted(source.glob("sub-*"))
    if not subdirs:
        raise DatasetError(
            f"{source}: no sub-* participant directories found; see "
            "convert_dataset's docstring for the expected layout"
        )
    found: dict[tuple[int, int], dict] = {}
    for sub in subdirs:
        pid = int(sub.name.split("-", 1)[1])
        for f in sorted(sub.glob("trial-*.csv")):
            stem = f.name[: -len(".csv")]
            head, _, modality = stem.rpartition(".")
            trial_part, _, condition = head.partition("_")
            trial_id = int(trial_part.split("-", 1)[1])
            rec = found.setdefault(
                (pid, trial_id), {"condition": Condition.parse(condition)}
            )
            rec[Modality(modality)] = f
    entries = []
    for (pid, trial_id), rec in sorted(found.items()):
        paths = {}
        for modality in Modality:
            src = rec.get(modality)
            if src is None:
                paths[modality] = None
                continue
            rel = f"{modality.value}/p{pid:02d}_t{trial_id:03d}.csv"
            dest = out / rel
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_bytes(src.read_bytes())
            paths[modality] = rel
        entries.append(
            ManifestEntry(
                participant_id=pid,
                trial_id=trial_id,
                condition=rec["condition"],
                onset_s=0.0,
                eeg_path=paths[Modality.EEG],
                gaze_path=paths[Modality.GAZE],
                motion_path=paths[Modality.MOTION],
            )
        )
    manifest = Manifest(
        name=source.name, rates_hz={}, eeg_channels=None, entries=entries
    )
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.txt"
    write_manifest(manifest_path, manifest)
    return manifest_path
