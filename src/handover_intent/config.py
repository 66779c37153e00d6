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
required.  Every other key defaults to the matching field of
``ExperimentConfig`` (of ``WindowGrid`` for [windows]); [dataset] manifest
defaults to ``manifest.txt`` under the root.  Relative paths are taken from
the config file's directory.  [features] eeg_pca_target is the one PCA
variance target of the EEG block, in the eeg view and in every fusion view.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .core_data import parse_modalities, read_sections
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
    cv_folds: int = 10
    cv_repeats: int = 3
    cv_inner_folds: int = 10
    grid: WindowGrid = field(default_factory=WindowGrid)
    eeg_channels: tuple = tuple(DEFAULT_EEG_CHANNELS)
    tf_freq_lo_hz: int = 5
    tf_freq_hi_hz: int = 40
    tf_cycles: float = 3.0
    tf_output_step_s: float = 0.05
    tf_log_power: bool = False
    standardize_all: bool = False
    eeg_pca_target: float = 0.99
    lda_shrinkage: float = DEFAULT_SHRINKAGE
    cache_dir: Path | None = None
    fusion_modes: tuple = ()  # FusionMode members; empty = no fusion pass
    fusion_modalities: tuple = ()

    def fusion_specs(self) -> "list[FusionSpec]":
        return [FusionSpec(mode, self.fusion_modalities) for mode in self.fusion_modes]


_BOOL = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


def _to_bool(value: str) -> bool:
    if value.lower() not in _BOOL:
        raise ValueError(f"expected a boolean, got {value!r}")
    return _BOOL[value.lower()]


def _to_model(value: str) -> str:
    if value not in ("lda", "lstm"):
        raise ValueError("must be lda or lstm")
    return value


def _items(value: str) -> "list[str]":
    return [v.strip() for v in value.split(",") if v.strip()]


# (section, key) -> (ExperimentConfig or WindowGrid field, conversion)
_KEYS = {
    ("dataset", "root"): ("dataset_root", Path),
    ("dataset", "manifest"): ("manifest_path", Path),
    ("experiment", "modalities"): ("modalities", parse_modalities),
    ("experiment", "model"): ("model", _to_model),
    ("experiment", "seed"): ("seed", int),
    ("experiment", "min_trials"): ("min_trials", int),
    ("cv", "folds"): ("cv_folds", int),
    ("cv", "repeats"): ("cv_repeats", int),
    ("cv", "inner_folds"): ("cv_inner_folds", int),
    ("windows", "start_s"): ("start_s", float),
    ("windows", "first_end_s"): ("first_end_s", float),
    ("windows", "last_end_s"): ("last_end_s", float),
    ("windows", "step_s"): ("step_s", float),
    ("features", "eeg_channels"): ("eeg_channels", lambda v: tuple(_items(v))),
    ("features", "tf_freq_lo_hz"): ("tf_freq_lo_hz", int),
    ("features", "tf_freq_hi_hz"): ("tf_freq_hi_hz", int),
    ("features", "tf_cycles"): ("tf_cycles", float),
    ("features", "tf_output_step_s"): ("tf_output_step_s", float),
    ("features", "tf_log_power"): ("tf_log_power", _to_bool),
    ("features", "standardize_all"): ("standardize_all", _to_bool),
    ("features", "eeg_pca_target"): ("eeg_pca_target", float),
    ("features", "lda_shrinkage"): ("lda_shrinkage", float),
    ("features", "cache_dir"): ("cache_dir", Path),
    ("fusion", "modes"): ("fusion_modes", lambda v: tuple(map(FusionMode, _items(v.lower())))),
    ("fusion", "modalities"): ("fusion_modalities", parse_modalities),
    ("output", "dir"): ("out_dir", Path),
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
    window = {f.name: values.pop(f.name) for f in fields(WindowGrid) if f.name in values}
    try:
        values["grid"] = WindowGrid(**window)
    except ValueError as exc:
        raise ConfigError(f"{origin}: [windows] {exc}") from exc
    if values.get("fusion_modes") and len(values.get("fusion_modalities", ())) < 2:
        raise ConfigError(f"{origin}: [fusion] modalities must list at least two modalities")
    cfg = ExperimentConfig(**values)
    _check_values(cfg, origin)
    return cfg


def _check_values(cfg: ExperimentConfig, origin: str) -> None:
    if cfg.min_trials < 1:
        raise ConfigError(f"{origin}: [experiment] min_trials must be >= 1")
    if cfg.cv_folds < 2 or cfg.cv_inner_folds < 2 or cfg.cv_repeats < 1:
        raise ConfigError(f"{origin}: [cv] folds/inner_folds >= 2 and repeats >= 1")
    if not 0 < cfg.tf_freq_lo_hz <= cfg.tf_freq_hi_hz:
        raise ConfigError(f"{origin}: [features] need 0 < tf_freq_lo_hz <= tf_freq_hi_hz")
    if cfg.tf_cycles <= 0 or cfg.tf_output_step_s <= 0:
        raise ConfigError(f"{origin}: [features] tf_cycles and tf_output_step_s must be > 0")
    if not 0.0 < cfg.eeg_pca_target <= 1.0:
        raise ConfigError(f"{origin}: [features] eeg_pca_target must be in (0, 1]")
    if not 0.0 <= cfg.lda_shrinkage <= 1.0:
        raise ConfigError(f"{origin}: [features] lda_shrinkage must be in [0, 1]")
    if cfg.fusion_modes:
        try:
            cfg.fusion_specs()
        except ValueError as exc:
            raise ConfigError(f"{origin}: [fusion] {exc}") from exc


def parse_config(path: "Path | str") -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return parse_config_text(text, origin=str(path), base_dir=path.parent)


def validate_config(cfg: ExperimentConfig) -> None:
    """Checks that need the filesystem: referenced paths must exist."""
    if not cfg.dataset_root.is_dir():
        raise ConfigError(f"[dataset] root does not exist: {cfg.dataset_root}")
    if not cfg.manifest_path.is_file():
        raise ConfigError(f"[dataset] manifest does not exist: {cfg.manifest_path}")


def with_overrides(
    cfg: ExperimentConfig, seed: int | None = None, out_dir: "Path | None" = None
) -> ExperimentConfig:
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    if out_dir is not None:
        cfg = replace(cfg, out_dir=Path(out_dir))
    return cfg


def config_text_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
