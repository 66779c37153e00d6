"""Experiment orchestration: gating, feature build, sweeps, and the run's
outputs (its CSVs through ``evaluation.write_run_csvs``, then its metadata).

``_views`` describes every view, one modality or a fusion, as (tag,
{modality: recipe}, late); one code path gates its trials on those
modalities and builds it with one block per modality, from the features
``features`` builds (or, for EEG, serves from the run's feature cache)."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import BLAS_THREAD_VARS, __version__
from .classifiers import LstmRecipe, lda_recipe_for, lstm_recipe_for
from .config import ExperimentConfig, config_text_hash
from .core_data import (
    DatasetError,
    Modality,
    is_uncorrupted,
    load_dataset,
    parse_manifest,
    write_file,
)
from .evaluation import (
    FIGURES_DIR,
    AucTimeline,
    assemble_timeline,
    figure_path,
    make_view,
    window_result,
    write_run_csvs,
)
from .features import (
    FeatureCache,
    build_gaze_features,
    build_motion_features,
    cached_eeg_features,
)
from .fusion import FusionMode
from .rng import derive_seed

DECISION_FLAGS = {
    "std_convention": "population (divide by N); constant columns map to zero",
    "percentile_convention": "linear interpolation between order statistics",
    "auc_formulation": "rank (Mann-Whitney), ties counted 1/2",
    "late_fusion_weight_metric": "training-fold AUC, normalized",
    "anova_grouping_unit": "participants' per-modality sustained times",
    "tf_output_step": "snapped to the nearest integer multiple of the input step",
    "missing_windows": "fail the sustained-level condition; a nan window breaks a run",
    "eeg_lda_preprocessing": "standardize then PCA, fitted on training folds only",
    "fusion_model": "fusion views always use LDA, whatever [experiment] model is",
    "cv_folds": "each class needs at least k trials, and an LSTM view at least inner_k "
    "training trials per class in every outer split; otherwise the run stops",
}


class PipelineError(RuntimeError):
    """Fatal pipeline failure; the message names the failing stage."""


@dataclass
class RunResult:
    out_dir: Path
    timelines: list
    metadata: dict


def _build_features(cfg, trial, modality, cache):
    """One trial's feature sequence for one modality; EEG through ``cache``."""
    if modality is Modality.GAZE:
        return build_gaze_features(trial)
    if modality is Modality.MOTION:
        return build_motion_features(trial)
    return cached_eeg_features(trial, list(cfg.eeg_channels), cfg.tf, cfg.tf_log_power, cache)


def _recipe(cfg: ExperimentConfig, model: str, modality: Modality):
    """The recipe of ``model`` (``lda`` or ``lstm``) for ``modality``, from
    the config's feature settings."""
    if model == "lda":
        return lda_recipe_for(
            modality,
            standardize_all=cfg.standardize_all,
            eeg_pca_target=cfg.eeg_pca_target,
            shrinkage=cfg.lda_shrinkage,
        )
    return lstm_recipe_for(modality, standardize_all=cfg.standardize_all)


def _views(cfg: ExperimentConfig) -> list:
    """(tag, {modality: recipe}, late) of every view, in output order: the
    single-modality views, with ``cfg.model``'s recipe, then the fusion views,
    with LDA recipes whatever the model (``DECISION_FLAGS["fusion_model"]``).
    A fusion view's dict keeps ``FusionSpec``'s canonical modality order,
    which is the order of its blocks and of its feature-error checks."""
    views = [(m.value, {m: _recipe(cfg, cfg.model, m)}, False) for m in cfg.modalities]
    for spec in cfg.fusion:
        lda = {m: _recipe(cfg, "lda", m) for m in spec.modalities}
        views.append((spec.tag(), lda, spec.mode is FusionMode.LATE))
    return views


@dataclass
class PreparedTrials:
    """What one prepare task returns to the parent process, for a slice of the
    manifest's trials: each trial's (participant, trial) reference and the
    modalities that pass the corruption rule, in manifest order; and the
    feature sequences built and the messages of the builds that failed, both
    keyed by (modality, trial reference)."""

    trials: list = field(default_factory=list)  # (ref, frozenset of Modality)
    features: dict = field(default_factory=dict)
    feature_errors: dict = field(default_factory=dict)


def prepare_trials(cfg: ExperimentConfig, manifest) -> PreparedTrials:
    """Load the trials ``manifest`` lists (a slice of the manifest's entries),
    run the corruption rule once per trial and modality, and build a
    modality's features for every trial that is complete for some view with
    that modality.  A file that cannot be loaded raises.  Gating and aligning
    a view need each participant's whole trial list, so the parent does them,
    from what this returns."""
    trials = load_dataset(cfg.dataset_root, manifest)
    view_modalities = [set(recipes) for _, recipes, _ in _views(cfg)]
    needed = [m for m in Modality if any(m in mods for mods in view_modalities)]
    cache = FeatureCache(cfg.cache_dir) if cfg.cache_dir is not None else None
    out = PreparedTrials()
    for trial in trials:
        ref = (trial.participant_id, trial.trial_id)
        usable = frozenset(m for m in needed if is_uncorrupted(trial, m))
        out.trials.append((ref, usable))
        for m in needed:
            if any(m in mods and mods <= usable for mods in view_modalities):
                try:
                    out.features[(m, ref)] = _build_features(cfg, trial, m, cache)
                except Exception as exc:
                    out.feature_errors[(m, ref)] = str(exc)
    return out


def _slices(entries: list, n: int) -> list:
    """``entries`` cut into ``min(n, len(entries))`` contiguous slices (at
    least one) whose sizes differ by at most one."""
    n = max(1, min(n, len(entries)))
    return [entries[i * len(entries) // n : (i + 1) * len(entries) // n] for i in range(n)]


def prepare_views(cfg: ExperimentConfig, manifest, jobs: int):
    """The prepare phase: load and featurize the manifest's trials, cut into
    up to ``jobs`` contiguous slices, then gate and align each view.  Returns
    (participant, tag, ``evaluation.View``) in output order, the gated
    participants by tag, and the worker count.

    Errors are raised in the order a serial run meets them: the first load
    error in manifest order, then per view a gating error or, participant by
    participant, the first feature error in the view's modality order and
    trial order, or a view that cannot be built (a class with fewer trials
    than its CV folds)."""
    slices = [replace(manifest, entries=part) for part in _slices(manifest.entries, jobs)]
    try:
        prepared, workers = _map(prepare_trials, cfg, slices, jobs)
    except (DatasetError, OSError, ValueError) as exc:
        raise PipelineError(f"dataset load: {exc}") from exc
    features, errors = {}, {}
    trials_by_pid: dict = {}  # pid -> its (ref, usable modalities), in manifest order
    for part in prepared:
        features.update(part.features)
        errors.update(part.feature_errors)
        for ref, usable in part.trials:
            trials_by_pid.setdefault(ref[0], []).append((ref, usable))

    evaluated = []
    participants_by_tag: dict = {}
    for tag, recipes, late in _views(cfg):
        gated = []
        for pid in sorted(trials_by_pid):
            refs = [ref for ref, usable in trials_by_pid[pid] if usable.issuperset(recipes)]
            if len(refs) >= cfg.min_trials:
                gated.append((pid, refs))
        if not gated:
            what = f"{tag} trials" if len(recipes) == 1 else f"trials for {tag}"
            raise PipelineError(
                f"gating: no participant has >= {cfg.min_trials} complete {what}"
            )
        participants_by_tag[tag] = [pid for pid, _ in gated]
        for pid, refs in gated:
            failed = [(m, ref) for m in recipes for ref in refs if (m, ref) in errors]
            if failed:
                raise PipelineError(f"participant {pid}, {tag} features: {errors[failed[0]]}")
            blocks = [
                ([features[(m, ref)] for ref in refs], recipe)
                for m, recipe in recipes.items()
            ]
            scheme = replace(cfg.cv, seed=derive_seed(cfg.seed, "cv", tag, pid))
            try:
                view = make_view(blocks, scheme, late)
            except ValueError as exc:  # e.g. a class with fewer trials than CV folds
                raise PipelineError(f"participant {pid}, {tag} view: {exc}") from exc
            evaluated.append((pid, tag, view))
    return evaluated, participants_by_tag, workers


def _evaluate(shared, task):
    views, grid = shared
    view_index, window_index = task
    return window_result(views[view_index], grid, window_index)


# The ``shared`` argument of ``_map``, set in each pool worker by its
# initializer; the parent process never sets it.
_shared = None


def _install(shared) -> None:
    global _shared
    _shared = shared


def _call(task):
    fn, arg = task
    return fn(_shared, arg)


def _map(fn, shared, tasks: list, jobs: int):
    """``[fn(shared, task) for task in tasks]`` and the worker count,
    ``min(jobs, len(tasks))``.  With one worker the tasks run in this
    process, which forks nothing and imports no process pool.

    Workers are forked, so they inherit the imported modules instead of
    importing them again, and ``shared`` reaches them through the fork rather
    than by pickling; only ``fn``, the tasks and the results are pickled.
    Forking is safe because the pipeline starts no threads of its own, and a
    pool's manager thread is joined when the pool closes.
    """
    workers = max(1, min(jobs, len(tasks)))
    if workers == 1:
        return [fn(shared, task) for task in tasks], 1
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=context, initializer=_install, initargs=(shared,)
    ) as pool:
        return list(pool.map(_call, [(fn, task) for task in tasks])), workers


def run_experiment(
    cfg: ExperimentConfig, jobs: int = 1, config_text: str = ""
) -> RunResult:
    """Execute gating, feature build and sweeps (plus fusion when
    configured); under ``cfg.out_dir``, ``evaluation.write_run_csvs`` writes
    every CSV, then this writes ``run_metadata.json`` last.  Output bytes
    depend only on (dataset, config, seed).

    The run has two phases, each a list of independent tasks that ``_map``
    spreads over up to ``jobs`` worker processes.  Preparing
    (``prepare_views``) cuts the manifest's trials into up to ``jobs``
    contiguous slices, one task each: load, run the corruption rule, build
    features; the parent then gates and aligns each view.  Evaluating is one
    task per (participant, view, window), the longest windows first, since a
    window's cost grows with its end; the parent puts the results back in grid
    order.  Every error of the first phase is raised before the second starts,
    in the order a serial run meets them.  The output directory is made before
    either, so that a path that cannot hold it fails before any work.
    """
    try:
        manifest = parse_manifest(cfg.manifest_path)
    except Exception as exc:
        raise PipelineError(f"dataset load: {exc}") from exc
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. a path under a regular file
        raise PipelineError(f"output: {exc}") from exc
    evaluated, participants_by_tag, prepare_workers = prepare_views(cfg, manifest, jobs)

    views = [view for *_, view in evaluated]
    n_windows = cfg.grid.end_times().shape[0]
    tasks = [(v, i) for i in reversed(range(n_windows)) for v in range(len(views))]
    results, evaluate_workers = _map(_evaluate, (views, cfg.grid), tasks, jobs)
    by_task = dict(zip(tasks, results))
    timelines: list[AucTimeline] = []
    fusion_audits, lstm_audits = [], []
    for v, (pid, tag, view) in enumerate(evaluated):
        in_grid_order = [by_task[(v, i)] for i in range(n_windows)]
        timelines.append(assemble_timeline(view, cfg.grid, in_grid_order, pid, tag))
        scores = [score for score, _ in in_grid_order if score is not None]
        fallbacks = sum(score.weight_fallbacks for score in scores)
        if len(view.blocks) > 1:
            dims = {repr(s.end_time_s): list(s.fused_dims) for s in scores if s.fused_dims}
            records = {"early_fused_dims": dims, "late_weight_fallbacks": fallbacks}
            fusion_audits.append({"participant": pid, "tag": tag, "records": records})
        elif isinstance(view.blocks[0][1], LstmRecipe):
            records = {"ensemble_weight_fallbacks": fallbacks}
            lstm_audits.append({"participant": pid, "tag": tag, "records": records})

    written = write_run_csvs(out, timelines)

    errors = [
        {
            "participant": t.participant_id,
            "tag": t.tag,
            "window_end_s": end,
            "message": message,
        }
        for t in timelines
        for end, message in t.errors
    ]
    metadata = {
        "package_version": __version__,
        "config_text": config_text,
        "config_sha256": config_text_hash(config_text),
        "seed": cfg.seed,
        "model": cfg.model,
        "participants_by_tag": participants_by_tag,
        "decision_flags": DECISION_FLAGS,
        "fusion_audits": fusion_audits,
        "lstm_audits": lstm_audits,
        "window_errors": errors,
        "library_versions": _library_versions(),
        "environment": {
            "cpu_count": os.cpu_count(),
            "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
            "workers": {"prepare": prepare_workers, "evaluate": evaluate_workers},
        },
        "outputs": sorted(path.relative_to(out).as_posix() for path in written),
    }
    _remove_stale_outputs(out, written)
    write_file(out / "run_metadata.json", json.dumps(metadata, indent=2, sort_keys=True) + "\n")
    return RunResult(out_dir=out, timelines=timelines, metadata=metadata)


def _remove_stale_outputs(out: Path, written: list) -> None:
    """Delete ``report``'s default figures in ``out/figures``, drawn from the
    results this run replaces, and each file that the previous run's
    ``run_metadata.json`` in ``out`` lists under ``outputs`` and this run did
    not write.  An absolute path, or one that resolves outside ``out``,
    deletes nothing; nor does metadata without ``outputs``, as older versions
    wrote it."""
    for model in ("lda", "lstm"):
        figure = figure_path(out / FIGURES_DIR, model)
        if figure.is_file():
            figure.unlink()
    try:
        listed = json.loads((out / "run_metadata.json").read_text(encoding="utf-8"))["outputs"]
    except (OSError, ValueError, KeyError, TypeError):  # no earlier run, or no outputs
        return
    root = out.resolve()
    kept = {path.resolve() for path in written}
    for rel in listed:
        if not isinstance(rel, str) or Path(rel).is_absolute():
            continue
        path = (out / rel).resolve()
        if path.is_relative_to(root) and path not in kept and path.is_file():
            path.unlink()


def _library_versions() -> dict:
    import numpy
    import scipy

    return {"numpy": numpy.__version__, "scipy": scipy.__version__}
