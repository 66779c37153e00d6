"""Trial data model, dataset ingestion, epoching, class labels, and the
corruption rule that picks each view's complete trials (the pipeline gates a
participant on how many there are).

A trial is a ``TrialRecording``: its ids, condition and onset plus one
``RawStream`` per recorded modality, keyed by ``Modality``.  Every stream,
whatever its modality, is a time-major ``TimeSeries`` (T x D) with the names
of its D columns; ``STREAM_COLUMNS`` fixes the gaze and motion columns, and
EEG's are its channel names.  A trial's class label is always
``label_for(trial.condition)``.

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

The header accepts only the keys above, each at most once.  Paths are
relative to the manifest's directory; ``-`` marks an absent modality.  Trial
CSVs have a header row and a first column of onset-relative time in seconds
on a uniform grid:

* EEG:    ``time_s,<channel>,<channel>,...`` (microvolts)
* gaze:   ``time_s,gaze_x,gaze_y,ref_x,ref_y`` (pixels; ``nan`` = missing)
* motion: ``time_s,hand_x,hand_y,hand_z`` (meters)

``write_file`` is the one way the program writes a file: trial CSVs, the
manifest, a run's CSVs and metadata, report figures and feature-cache
entries all reach disk whole or not at all.
"""

from __future__ import annotations

import csv
import logging
import math
import os
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

# All analysis windows live inside this onset-relative epoch.
EPOCH_START_S = -5.0
EPOCH_END_S = 6.0

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


def split_items(text: str, what: str) -> list:
    """The non-empty items of a comma-separated list.  A repeated item is an
    error: it would run a view, or count a channel, twice."""
    items = [v.strip() for v in text.split(",") if v.strip()]
    for i, item in enumerate(items):
        if item in items[:i]:
            raise ValueError(f"repeated {what} {item}")
    return items


def parse_channels(text: str) -> tuple:
    """EEG channel names from a comma-separated list; at least one."""
    channels = split_items(text, "channel")
    if not channels:
        raise ValueError("empty channel list")
    return tuple(channels)


def parse_modalities(text: str) -> tuple:
    """Modalities from a comma-separated list such as ``gaze, motion``."""
    items = split_items(text.lower(), "modality")
    if not items:
        raise ValueError("empty modality list")
    return tuple(Modality(v) for v in items)


# The trial CSV columns after time_s of the modalities with fixed columns.
# EEG columns are channel names, checked against the manifest's eeg_channels.
STREAM_COLUMNS = {
    Modality.GAZE: ["gaze_x", "gaze_y", "ref_x", "ref_y"],
    Modality.MOTION: ["hand_x", "hand_y", "hand_z"],
}


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


def epoch_rows(stream: TimeSeries, window_start_s: float, window_end_s: float) -> slice:
    """The rows of ``stream`` in the half-open onset-relative window [start, end).

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
    return slice(i_lo, i_hi)


def epoch(stream: TimeSeries, window_start_s: float, window_end_s: float) -> TimeSeries:
    """Restrict ``stream`` to the window [start, end); see ``epoch_rows``."""
    rows = epoch_rows(stream, window_start_s, window_end_s)
    return TimeSeries(
        start_time_s=stream.start_time_s + rows.start * stream.step_s,
        step_s=stream.step_s,
        values=stream.values[rows],
    )


@dataclass(frozen=True)
class RawStream:
    """One modality's recording of a trial: time-major samples in their
    recorded units (gaze ``nan`` marks a missing sample) and the name of each
    column."""

    series: TimeSeries
    columns: list[str]

    def __post_init__(self):
        if len(self.columns) != self.series.n_features:
            raise ValueError(
                f"{self.series.n_features} columns but {len(self.columns)} names"
            )


def _check_ids(participant_id: int, trial_id: int) -> None:
    if participant_id < 1:
        raise ValueError(f"participant_id must be >= 1, got {participant_id}")
    if trial_id < 0:
        raise ValueError(f"trial_id must be >= 0, got {trial_id}")


@dataclass(frozen=True)
class TrialRecording:
    participant_id: int
    trial_id: int
    condition: Condition
    onset_time_s: float  # onset instant on the original recording clock
    streams: dict  # Modality -> RawStream, the modalities recorded

    def __post_init__(self):
        _check_ids(self.participant_id, self.trial_id)
        if not self.streams:
            raise ValueError(
                f"trial ({self.participant_id}, {self.trial_id}) has no modality stream"
            )


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
    stream = trial.streams.get(modality)
    if stream is None or not stream.series.covers(*window):
        return False
    finite = np.isfinite(stream.series.values)
    if modality is Modality.GAZE:
        return bool(finite.any(axis=0).all())
    return bool(finite.all())


def write_file(path: "Path | str", data: "str | bytes") -> None:
    """Write ``data`` (a ``str`` as UTF-8, newlines as given) to ``path``,
    creating its directory: into ``.<name>.<pid>.tmp`` beside it, with the
    mode the umask allows, then renamed over it, so that no reader and no
    killed run sees a partial file.  The temporary file is removed on error."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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


_TRIAL_HEADER = ["participant", "trial", "condition", "onset_s"] + [m.value for m in Modality]
_HEADER_KEYS = {"format_version", "name", "eeg_channels"} | {
    f"{m.value}_rate_hz" for m in Modality
}


@dataclass(frozen=True)
class ManifestEntry:
    participant_id: int
    trial_id: int
    condition: Condition
    onset_s: float
    paths: dict  # Modality -> trial CSV path relative to the manifest

    def __post_init__(self):
        _check_ids(self.participant_id, self.trial_id)


@dataclass(frozen=True)
class Manifest:
    name: str
    rates_hz: dict  # Modality -> float, declared expected rates (may be empty)
    eeg_channels: list[str] | None
    entries: list[ManifestEntry]


def _rate(text: str, where: str) -> float:
    try:
        rate = float(text)
    except ValueError:
        rate = math.nan
    if not (math.isfinite(rate) and rate > 0):
        raise DatasetError(f"{where}: expected a positive number of Hz, got {text!r}")
    return rate


def parse_manifest(path: "Path | str") -> Manifest:
    path = Path(path)
    keys: dict[str, str] = {}
    entries: list[ManifestEntry] = []
    in_trials = False
    saw_header = False
    seen_ids: set[tuple[int, int]] = set()
    rates: dict = {}
    channels = None
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
                key = key.strip()
                if key not in _HEADER_KEYS:
                    raise DatasetError(f"{path}:{lineno}: unknown key {key}")
                if key in keys:
                    raise DatasetError(f"{path}:{lineno}: duplicate key {key}")
                keys[key] = value.strip()
                if key == "eeg_channels":
                    try:
                        channels = list(parse_channels(keys[key]))
                    except ValueError as exc:
                        raise DatasetError(f"{path}:{lineno}: {key}: {exc}") from exc
                elif key.endswith("_rate_hz"):
                    rates[Modality(key.removesuffix("_rate_hz"))] = _rate(
                        keys[key], f"{path}:{lineno}: {key}"
                    )
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
                    paths={m: f for m, f in zip(Modality, fields[4:]) if f != "-"},
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
    return Manifest(
        name=keys.get("name", path.stem),
        rates_hz=rates,
        eeg_channels=channels,
        entries=entries,
    )


def write_manifest(path: "Path | str", manifest: Manifest) -> None:
    lines = ["format_version = 1", f"name = {manifest.name}"]
    for modality in Modality:
        if modality in manifest.rates_hz:
            lines.append(f"{modality.value}_rate_hz = {manifest.rates_hz[modality]!r}")
    if manifest.eeg_channels:
        lines.append("eeg_channels = " + ",".join(manifest.eeg_channels))
    lines.append("[trials]")
    lines.append(",".join(_TRIAL_HEADER))
    for e in manifest.entries:
        head = [str(e.participant_id), str(e.trial_id), e.condition.value, repr(float(e.onset_s))]
        lines.append(",".join(head + [e.paths.get(m) or "-" for m in Modality]))
    write_file(path, "\n".join(lines) + "\n")


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


def _median(x: np.ndarray) -> float:
    """``np.median`` of a finite 1-D array, to the bit, without its per-call
    overhead: the mean of the middle order statistic or of the two middle
    ones, summed from 0.0 as ``np.mean`` sums them (so -0.0 becomes 0.0)."""
    half = x.shape[0] // 2
    if x.shape[0] % 2:
        return float(0.0 + np.partition(x, half)[half])
    part = np.partition(x, (half - 1, half))
    return float((0.0 + part[half - 1] + part[half]) / 2)


def read_trial_csv(path: "Path | str") -> tuple[float, float, np.ndarray, list[str]]:
    """Read one trial file; returns (first time, time step, values, column
    names), values being (T, D) with time column dropped."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        columns = [c.strip() for c in header.split(",")]
        if len(columns) < 2 or columns[0] != "time_s":
            raise DatasetError(f"{path}:1: header must start with time_s, got {header!r}")
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
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
    step = _median(steps)
    if step <= 0 or np.abs(steps - step).max() > 1e-4 * step:
        row = int(np.abs(steps - step).argmax()) + 3  # line of the later sample
        raise DatasetError(f"{path}:{row}: time grid is not uniform")
    return float(times[0]), step, data[:, 1:], columns[1:]


def write_trial_csv(
    path: "Path | str", times: np.ndarray, values: np.ndarray, columns: "list[str]"
) -> None:
    rows = [",".join(map(repr, row.tolist())) for row in np.column_stack((times, values))]
    write_file(path, "\n".join([",".join(["time_s", *columns]), *rows]) + "\n")


def _load_stream(
    path: Path, entry: ManifestEntry, modality: Modality, manifest: Manifest
) -> RawStream | None:
    if not path.exists():
        log.warning(
            "trial (%d, %d): missing %s file %s; loading without that modality",
            entry.participant_id,
            entry.trial_id,
            modality.value,
            path,
        )
        return None
    start, step, values, columns = read_trial_csv(path)
    rate = 1.0 / step
    declared_hz = manifest.rates_hz.get(modality)
    if declared_hz is not None and abs(rate - declared_hz) > 1e-3 * declared_hz:
        raise DatasetError(
            f"{path}: {modality.value} rate {rate:.6g} Hz does not match manifest "
            f"{declared_hz:.6g} Hz"
        )
    if modality is Modality.EEG:
        expected = manifest.eeg_channels
    else:
        expected = STREAM_COLUMNS[modality]
    if expected is not None and columns != expected:
        raise DatasetError(
            f"{path}: {modality.value} columns {columns} do not match {expected}"
        )
    # The step is 1/rate, which can differ from ``step`` in the last bit, and
    # the Morlet output stride can turn on that bit (see dsp.morlet_tf).
    return RawStream(TimeSeries(start, 1.0 / rate, values), columns)


def load_dataset(
    root_path: "Path | str", manifest: "Manifest | Path | str"
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
        streams = {}
        for modality, rel in entry.paths.items():
            stream = _load_stream(root / rel, entry, modality, manifest)
            if stream is not None:
                streams[modality] = stream
        if not streams:
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
                streams=streams,
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
                continue
            rel = f"{modality.value}/p{pid:02d}_t{trial_id:03d}.csv"
            write_file(out / rel, src.read_bytes())
            paths[modality] = rel
        entries.append(ManifestEntry(pid, trial_id, rec["condition"], 0.0, paths))
    manifest = Manifest(
        name=source.name, rates_hz={}, eeg_channels=None, entries=entries
    )
    manifest_path = out / "manifest.txt"
    write_manifest(manifest_path, manifest)
    return manifest_path
