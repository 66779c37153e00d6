"""Experiment configuration: line-oriented ``key = value`` text in sections.

Example::

    [dataset]
    root = ./data

    [experiment]
    modalities = gaze,motion
    model = lda
    seed = 7
    min_trials = 60

    [cv]
    folds = 10
    repeats = 3

    [windows]
    start_s = -5.0
    first_end_s = -4.75
    last_end_s = 6.0
    step_s = 0.25

    [features]
    standardize_all = false
    eeg_pca_target = 0.99

    [fusion]
    modes = early,late
    modalities = gaze,motion

    [output]
    dir = ./out

Only [dataset] root, [experiment] modalities/model/seed, and [output] dir are
required; [dataset] manifest defaults to ``manifest.txt`` under the root.
Relative paths are taken from the config file's directory.  These keys are
built into the object that uses them, whose constructor holds their rules and
defaults:

* [cv] -> ``evaluation.CvScheme``; each view runs a copy with its own seed,
  nested for an LSTM.  In a participant's view every class needs at least
  folds trials, and for an LSTM at least inner_folds in every outer
  training fold; otherwise the run stops.
* [windows] -> ``features.WindowGrid``, every window in the -5..6 s epoch.
* [features] tf_* but tf_log_power -> ``dsp.TfSpec`` (``dsp.default_tf_spec``),
  over the integer frequencies tf_freq_lo_hz..tf_freq_hi_hz.
* [fusion] -> a ``fusion.FusionSpec`` per mode; no modes, no fusion views.

Every other key is an ``ExperimentConfig`` field, checked in ``_check_values``.
[features] eeg_pca_target is the one PCA variance target of the EEG block, in
every view.  A list (modalities, modes, eeg_channels) may not repeat an item,
and eeg_channels may not be empty.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from .core_data import parse_channels, parse_modalities, read_sections, split_items
from .dsp import TfSpec, default_tf_spec
from .evaluation import CvScheme
from .features import DEFAULT_EEG_CHANNELS, WindowGrid
from .fusion import FusionMode, FusionSpec
from .lda import DEFAULT_SHRINKAGE


class ConfigError(Exception):
    """Malformed or invalid configuration; message carries file:line."""


@dataclass(frozen=True)
class ExperimentConfig:
    dataset_root: Path
    manifest_path: Path
    modalities: tuple  # Modality members, single-modality sweeps to run
    model: str  # "lda" | "lstm"
    seed: int
    out_dir: Path
    min_trials: int = 60
    cv: CvScheme = field(default_factory=CvScheme)  # seed set per view, nested by make_view
    grid: WindowGrid = field(default_factory=WindowGrid)
    eeg_channels: tuple = tuple(DEFAULT_EEG_CHANNELS)
    tf: TfSpec = field(default_factory=default_tf_spec)
    tf_log_power: bool = False
    standardize_all: bool = False
    eeg_pca_target: float = 0.99
    lda_shrinkage: float = DEFAULT_SHRINKAGE
    cache_dir: Path | None = None
    fusion: tuple = ()  # FusionSpec per [fusion] mode; empty = no fusion views


_BOOL = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


def _to_bool(value: str) -> bool:
    if value.lower() not in _BOOL:
        raise ValueError(f"expected a boolean, got {value!r}")
    return _BOOL[value.lower()]


def _to_model(value: str) -> str:
    if value not in ("lda", "lstm"):
        raise ValueError("must be lda or lstm")
    return value


def _to_modes(value: str) -> tuple:
    return tuple(map(FusionMode, split_items(value.lower(), "mode")))


def _fusion_specs(modes: tuple = (), modalities: tuple = ()) -> tuple:
    if modalities and not modes:
        raise ValueError("modalities given without modes")
    return tuple(FusionSpec(mode, modalities) for mode in modes)


# (section, key) -> (target, conversion).  A target "part.arg" is an argument
# of the part's builder in _PARTS; any other target is an ExperimentConfig
# field.
_KEYS = {
    ("dataset", "root"): ("dataset_root", Path),
    ("dataset", "manifest"): ("manifest_path", Path),
    ("experiment", "modalities"): ("modalities", parse_modalities),
    ("experiment", "model"): ("model", _to_model),
    ("experiment", "seed"): ("seed", int),
    ("experiment", "min_trials"): ("min_trials", int),
    ("cv", "folds"): ("cv.k", int),
    ("cv", "repeats"): ("cv.repeats", int),
    ("cv", "inner_folds"): ("cv.inner_k", int),
    ("windows", "start_s"): ("grid.start_s", float),
    ("windows", "first_end_s"): ("grid.first_end_s", float),
    ("windows", "last_end_s"): ("grid.last_end_s", float),
    ("windows", "step_s"): ("grid.step_s", float),
    ("features", "eeg_channels"): ("eeg_channels", parse_channels),
    ("features", "tf_freq_lo_hz"): ("tf.lo_hz", int),
    ("features", "tf_freq_hi_hz"): ("tf.hi_hz", int),
    ("features", "tf_cycles"): ("tf.n_cycles", float),
    ("features", "tf_output_step_s"): ("tf.output_step_s", float),
    ("features", "tf_log_power"): ("tf_log_power", _to_bool),
    ("features", "standardize_all"): ("standardize_all", _to_bool),
    ("features", "eeg_pca_target"): ("eeg_pca_target", float),
    ("features", "lda_shrinkage"): ("lda_shrinkage", float),
    ("features", "cache_dir"): ("cache_dir", Path),
    ("fusion", "modes"): ("fusion.modes", _to_modes),
    ("fusion", "modalities"): ("fusion.modalities", parse_modalities),
    ("output", "dir"): ("out_dir", Path),
}
# ExperimentConfig field -> (its section, the builder that checks its keys);
# a builder called with no arguments gives the field's default.
_PARTS = {
    "cv": ("cv", CvScheme),
    "grid": ("windows", WindowGrid),
    "tf": ("features", default_tf_spec),
    "fusion": ("fusion", _fusion_specs),
}
_REQUIRED = (
    ("dataset", "root"),
    ("experiment", "modalities"),
    ("experiment", "model"),
    ("experiment", "seed"),
    ("output", "dir"),
)
_PATHS = ("dataset_root", "manifest_path", "out_dir", "cache_dir")  # relative to base_dir


def parse_config_text(
    text: str, origin: str = "<config>", base_dir: "Path | None" = None
) -> ExperimentConfig:
    values = read_sections(text, origin, _KEYS, ConfigError)
    for section, key in _REQUIRED:
        if _KEYS[(section, key)][0] not in values:
            raise ConfigError(f"{origin}: missing required key [{section}] {key}")
    base = Path(".") if base_dir is None else Path(base_dir)
    for name in _PATHS:
        if name in values:
            values[name] = base / values[name]  # an absolute path replaces base
    values.setdefault("manifest_path", values["dataset_root"] / "manifest.txt")
    for part, (section, build) in _PARTS.items():
        args = {
            target.partition(".")[2]: values.pop(target)
            for target in list(values)
            if target.startswith(part + ".")
        }
        try:
            values[part] = build(**args)
        except ValueError as exc:
            raise ConfigError(f"{origin}: [{section}] {exc}") from exc
    cfg = ExperimentConfig(**values)
    _check_values(cfg, origin)
    return cfg


def _check_values(cfg: ExperimentConfig, origin: str) -> None:
    """The rules of the plain ExperimentConfig fields; each part's rules are
    its builder's."""
    if cfg.seed < 0:
        raise ConfigError(f"{origin}: [experiment] seed must be >= 0")
    if cfg.min_trials < 1:
        raise ConfigError(f"{origin}: [experiment] min_trials must be >= 1")
    if not 0.0 < cfg.eeg_pca_target <= 1.0:
        raise ConfigError(f"{origin}: [features] eeg_pca_target must be in (0, 1]")
    if not 0.0 <= cfg.lda_shrinkage <= 1.0:
        raise ConfigError(f"{origin}: [features] lda_shrinkage must be in [0, 1]")


def read_config_text(path: Path) -> str:
    """The file's text; a file that cannot be read as UTF-8 is a ConfigError."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def parse_config(path: "Path | str") -> ExperimentConfig:
    path = Path(path)
    return parse_config_text(read_config_text(path), origin=str(path), base_dir=path.parent)


def validate_config(cfg: ExperimentConfig) -> None:
    """Checks that need the filesystem: referenced paths must exist."""
    if not cfg.dataset_root.is_dir():
        raise ConfigError(f"[dataset] root does not exist: {cfg.dataset_root}")
    if not cfg.manifest_path.is_file():
        raise ConfigError(f"[dataset] manifest does not exist: {cfg.manifest_path}")


def config_text_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
