"""Experiment orchestration: gating, feature build, sweeps, aggregation,
latency tables, and deterministic result emission."""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import BLAS_THREAD_VARS, __version__
from .classifiers import lda_recipe_for, lstm_recipe_for
from .config import ExperimentConfig, config_text_hash
from .core_data import (
    Modality,
    complete_trials,
    labeled,
    load_dataset,
    parse_manifest,
)
from .dsp import TfSpec
from .evaluation import (
    AucTimeline,
    CvScheme,
    aggregate_participants,
    detection_latency_table,
    sweep,
    write_aggregate_csv,
    write_latency_csv,
    write_results_csv,
    write_timeline_csv,
)
from .features import (
    FeatureCache,
    build_eeg_features,
    build_gaze_features,
    build_motion_features,
)
from .fusion import run_fusion_sweep
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
}


class PipelineError(RuntimeError):
    """Fatal pipeline failure; the message names the failing stage."""


@dataclass
class RunResult:
    out_dir: Path
    timelines: list
    metadata: dict


def _tf_spec(cfg: ExperimentConfig) -> TfSpec:
    return TfSpec(
        freqs_hz=tuple(range(cfg.tf_freq_lo_hz, cfg.tf_freq_hi_hz + 1)),
        n_cycles=cfg.tf_cycles,
        output_step_s=cfg.tf_output_step_s,
    )


def _eeg_digest(eeg) -> str:
    """Short hash of an EEG recording's content, so that a cache entry is
    only served for the recording it was built from."""
    h = hashlib.sha256(eeg.samples.tobytes())
    h.update(repr((eeg.start_time_s, eeg.sample_rate_hz, eeg.channel_names)).encode())
    return h.hexdigest()[:16]


def _build_sequences(cfg, trials, modality, cache, built: dict):
    """The feature sequences of ``trials`` for one modality.  ``built`` holds
    every sequence made so far, keyed by (modality, trial ref), so the views
    that share a modality share its features.  Cached EEG features are keyed
    by the trial's EEG content as well as by the feature parameters."""
    tf = _tf_spec(cfg)
    key = tf.cache_key() + f"_ch{'-'.join(cfg.eeg_channels)}_log{int(cfg.tf_log_power)}"
    out = []
    for lt in trials:
        trial = lt.trial
        ref = (trial.participant_id, trial.trial_id)
        seq = built.get((modality, ref))
        if seq is None:
            if modality is Modality.GAZE:
                seq = build_gaze_features(trial)
            elif modality is Modality.MOTION:
                seq = build_motion_features(trial)
            else:
                if cache is not None:
                    trial_key = f"{key}_eeg{_eeg_digest(trial.eeg)}"
                    seq = cache.get(ref, Modality.EEG, trial_key, lt.label)
                if seq is None:
                    seq = build_eeg_features(
                        trial, list(cfg.eeg_channels), tf, log_power=cfg.tf_log_power
                    )
                    if cache is not None:
                        cache.put(seq, trial_key)
            built[(modality, ref)] = seq
        out.append(seq)
    return out


def _recipe(cfg: ExperimentConfig, modality: Modality):
    if cfg.model == "lda":
        return lda_recipe_for(
            modality,
            standardize_all=cfg.standardize_all,
            eeg_pca_target=cfg.eeg_pca_target,
            shrinkage=cfg.lda_shrinkage,
        )
    return lstm_recipe_for(modality, standardize_all=cfg.standardize_all)


def _scheme(cfg: ExperimentConfig, nested: bool, *seed_labels) -> CvScheme:
    """Only an LSTM sweep draws inner folds; the outer folds do not depend on
    them, since each comes from its own seed substream."""
    return CvScheme(
        k=cfg.cv_folds,
        repeats=cfg.cv_repeats,
        nested=nested,
        inner_k=cfg.cv_inner_folds,
        seed=derive_seed(cfg.seed, "cv", *seed_labels),
    )


def _safe_tag(tag: str) -> str:
    return tag.replace(":", "-")


def _views(cfg: ExperimentConfig) -> list:
    """(tag, modalities, fusion spec or None) of every sweep, in output order:
    the single-modality sweeps, then the fusion sweeps."""
    views = [(m.value, (m,), None) for m in cfg.modalities]
    views += [(spec.tag(), spec.modalities, spec) for spec in cfg.fusion_specs()]
    return views


@dataclass
class ParticipantOutcome:
    """What one participant's task returns to the parent process."""

    participant_id: int
    load_error: str | None = None
    gated: tuple = ()  # tags with >= min_trials complete trials, up to a feature error
    timelines: dict = field(default_factory=dict)  # tag -> AucTimeline
    audits: dict = field(default_factory=dict)  # fusion tag -> audit summary
    feature_error: tuple | None = None  # (tag, message); later tags not run


def run_participant(task) -> ParticipantOutcome:
    """Load one participant's trials and, view by view, gate them on the
    count of complete trials, build each modality's features once, and run
    the sweep.  ``task`` is (config, manifest holding only that participant's
    entries).  Failures come back as messages, so the parent can report them
    in the order a serial run meets them."""
    cfg, manifest = task
    outcome = ParticipantOutcome(manifest.entries[0].participant_id)
    try:
        lts = labeled(load_dataset(cfg.dataset_root, manifest))
    except Exception as exc:
        outcome.load_error = str(exc)
        return outcome
    cache = FeatureCache(cfg.cache_dir) if cfg.cache_dir is not None else None
    built: dict = {}
    pid = outcome.participant_id
    for tag, mods, spec in _views(cfg):
        usable = complete_trials(lts, set(mods))
        if len(usable) < cfg.min_trials:
            continue
        outcome.gated += (tag,)
        try:
            by_modality = {
                m: _build_sequences(cfg, usable, m, cache, built) for m in mods
            }
        except Exception as exc:
            outcome.feature_error = (tag, str(exc))
            break
        if spec is None:
            outcome.timelines[tag] = sweep(
                [(by_modality[mods[0]], _recipe(cfg, mods[0]))],
                _scheme(cfg, cfg.model == "lstm", tag, pid),
                grid=cfg.grid,
                participant_id=pid,
                tag=tag,
            )
            continue
        audit: list = []
        outcome.timelines[tag] = run_fusion_sweep(
            by_modality,
            spec,
            _scheme(cfg, False, tag, pid),  # fusion views are LDA
            grid=cfg.grid,
            standardize_all=cfg.standardize_all,
            eeg_pca_target=cfg.eeg_pca_target,
            shrinkage=cfg.lda_shrinkage,
            audit_out=audit,
        )
        outcome.audits[tag] = _audit_summary(audit)
    return outcome


def run_experiment(
    cfg: ExperimentConfig, jobs: int = 1, config_text: str = ""
) -> RunResult:
    """Execute gating, feature build, sweeps (plus fusion when configured),
    aggregation, and latency tables; write CSVs and run metadata under
    ``cfg.out_dir``.  Output bytes depend only on (dataset, config, seed).

    Each participant is one task.  With ``jobs`` > 1 and more than one
    participant, a pool of worker processes runs the tasks; it is joined
    before the outputs are written.  Errors
    are raised in the order a serial run meets them: a load error of the
    lowest-numbered failing participant, then per view a gating error or the
    feature error of the lowest-numbered failing participant.
    """
    try:
        manifest = parse_manifest(cfg.manifest_path)
    except Exception as exc:
        raise PipelineError(f"dataset load: {exc}") from exc
    pids = sorted({e.participant_id for e in manifest.entries})
    tasks = [
        (cfg, replace(manifest, entries=[e for e in manifest.entries if e.participant_id == p]))
        for p in pids
    ]
    workers = max(1, min(jobs, len(tasks)))
    if workers == 1:
        outcomes = [run_participant(task) for task in tasks]
    else:
        # Forked workers inherit the imported modules instead of importing
        # them again.  Forking is safe because the pipeline starts no threads.
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            outcomes = list(pool.map(run_participant, tasks))
    for outcome in outcomes:
        if outcome.load_error is not None:
            raise PipelineError(f"dataset load: {outcome.load_error}")

    out = Path(cfg.out_dir)
    timeline_dir = out / "timelines"
    timelines: list[AucTimeline] = []
    participants_by_tag: dict = {}
    fusion_audits: list = []
    for tag, _, spec in _views(cfg):
        gated = [o for o in outcomes if tag in o.gated]
        if not gated:
            what = f"{tag} trials" if spec is None else f"trials for {tag}"
            raise PipelineError(
                f"gating: no participant has >= {cfg.min_trials} complete {what}"
            )
        participants_by_tag[tag] = [o.participant_id for o in gated]
        for o in gated:
            if o.feature_error is not None and o.feature_error[0] == tag:
                pid = o.participant_id
                raise PipelineError(f"participant {pid}, {tag} features: {o.feature_error[1]}")
            timelines.append(o.timelines[tag])
            if spec is not None:
                audit = {"participant": o.participant_id, "tag": tag, "records": o.audits[tag]}
                fusion_audits.append(audit)

    for timeline in timelines:
        name = f"p{timeline.participant_id:03d}_{_safe_tag(timeline.tag)}_{timeline.model}.csv"
        write_timeline_csv(timeline_dir / name, timeline)
    write_results_csv(out / "results.csv", timelines)

    by_tag_model: dict = {}
    for timeline in timelines:
        by_tag_model.setdefault((timeline.tag, timeline.model), []).append(timeline)
    aggregates = [aggregate_participants(tls) for tls in by_tag_model.values()]
    write_aggregate_csv(out / "aggregate.csv", aggregates)

    by_model: dict = {}
    for (tag, model), tls in sorted(by_tag_model.items()):
        by_model.setdefault(model, {})[tag] = tls
    for model, by_tag in by_model.items():
        rows = detection_latency_table(by_tag)
        write_latency_csv(out / f"latency_{model}.csv", rows, sorted(by_tag))

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
        "window_errors": errors,
        "library_versions": _library_versions(),
        "environment": {
            "cpu_count": os.cpu_count(),
            "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
            "workers": workers,
        },
    }
    with open(out / "run_metadata.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(metadata, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return RunResult(out_dir=out, timelines=timelines, metadata=metadata)


def _audit_summary(records: list) -> dict:
    """Collapse per-split audit records into compact per-window facts."""
    dims = {}
    fallbacks = 0
    for rec in records:
        if "fused_dim" in rec:
            dims[repr(rec["window_end_s"])] = rec["fused_dim"]
        if rec.get("weight_fallback"):
            fallbacks += 1
    return {"early_fused_dims": dims, "late_weight_fallbacks": fallbacks}


def _library_versions() -> dict:
    import numpy
    import scipy

    return {"numpy": numpy.__version__, "scipy": scipy.__version__}
