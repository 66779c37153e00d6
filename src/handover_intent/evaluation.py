"""ROC/AUC, cross-validation schemes, the window-sweep engine that evaluates
every view (a single modality, early or late fusion, an LSTM) in two stages
per split, the label-free ``prepare_split`` and a label stage that returns
test scores (``score_split`` for LDA, ``_lstm_scores`` for an LSTM), which
``evaluate_window`` alone ranks; sustained-level detection latency, the group
statistics used for the summary tables, and every result CSV:
``write_run_csvs`` writes a run's, ``write_figure_csvs`` a report's figures,
both grouped by ``group_timelines``."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .classifiers import LdaRecipe, LstmRecipe, fit_flat_preprocessing
from .core_data import epoch_rows, write_file
from .features import FeatureSequence, WindowGrid
from .lda import lda_fit, lda_predict_proba
from .lstm import (
    STACK_BYTES,
    LstmModel,
    LstmSpec,
    lstm_train_members,
    member_bytes,
    predict_proba_batch,
)
from .rng import derive_seed, substream

DEFAULT_AUC_LEVELS = (0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90)
ANOVA_ALPHA = 0.05


class EvaluationError(RuntimeError):
    """A fit/score failure, tagged with the split it occurred in."""


def _check_scored(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError(f"scores {scores.shape} and labels {labels.shape} must be 1-D and aligned")
    _check_classes(labels)
    return scores, labels


def _check_classes(labels: np.ndarray) -> None:
    present = np.unique(labels)
    if not np.array_equal(present, [0, 1]):
        raise ValueError(f"need both classes 0 and 1, got labels {present.tolist()}")


def auc_roc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank (Mann-Whitney) formulation: the probability a random positive
    outranks a random negative, counting ties as 1/2."""
    scores, labels = _check_scored(scores, labels)
    if np.isnan(scores).any():
        return float("nan")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = labels.shape[0] - n_pos
    ranks = _average_ranks(scores)
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks, tied values sharing the mean of their ranks (what
    ``scipy.stats.rankdata`` returns, without importing scipy.stats)."""
    order = np.argsort(x, kind="mergesort")
    ordered = x[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.concatenate((starts[1:], [x.shape[0]]))
    ranks = np.empty(x.shape[0])
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends), ends - starts)
    return ranks


# ---------------------------------------------------------------------------
# Cross-validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CvScheme:
    """Repeated stratified k-fold; nested mode (set by ``make_view``) adds inner folds."""

    k: int = 10
    repeats: int = 3
    nested: bool = False
    inner_k: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.k < 2 or self.inner_k < 2:
            raise ValueError("fold counts must be >= 2")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")


@dataclass(frozen=True)
class Split:
    train_idx: np.ndarray
    test_idx: np.ndarray
    inner: tuple | None = None  # ((fit_idx, val_idx), ...) within train_idx


def _stratified_folds(labels, k: int, rng, name="k", trials="trials") -> "list[np.ndarray]":
    """Disjoint folds covering all indices, class counts within +-1 per fold
    (a class's remainder goes to the least-loaded folds).  Each fold holds
    both classes: a class with fewer than k ``trials`` is a ValueError that
    names ``name``, the setting of k."""
    folds: list[list[int]] = [[] for _ in range(k)]
    for cls in (0, 1):
        idx = rng.permutation(np.nonzero(labels == cls)[0])
        if idx.shape[0] < k:
            message = f"class {cls} has {idx.shape[0]} {trials}, fewer than {name}={k} folds"
            raise ValueError(f"{message}; use a smaller {name}")
        base, extra = divmod(idx.shape[0], k)
        by_load = sorted(range(k), key=lambda f: (len(folds[f]), f))
        pos = 0
        for rank, f in enumerate(by_load):
            take = base + (1 if rank < extra else 0)
            folds[f].extend(idx[pos : pos + take].tolist())
            pos += take
    return [np.array(sorted(f), dtype=int) for f in folds]


def make_splits(labels: np.ndarray, scheme: CvScheme) -> "list[Split]":
    """k x repeats outer splits; nested mode adds inner_k (fit, val) folds
    drawn from each outer training set, never touching the outer test fold."""
    labels = np.asarray(labels)
    splits = []
    for repeat in range(scheme.repeats):
        rng = substream(scheme.seed, "cv-outer", repeat)
        folds = _stratified_folds(labels, scheme.k, rng)
        for fold_index, test_idx in enumerate(folds):
            mask = np.ones(labels.shape[0], dtype=bool)
            mask[test_idx] = False
            train_idx = np.nonzero(mask)[0]
            inner = None
            if scheme.nested:
                inner_rng = substream(scheme.seed, "cv-inner", repeat, fold_index)
                trials = f"training trials in split {len(splits)}"
                inner_folds = _stratified_folds(
                    labels[train_idx], scheme.inner_k, inner_rng, "inner_k", trials
                )
                inner = tuple(
                    (
                        np.setdiff1d(train_idx, train_idx[val_local]),
                        train_idx[val_local],
                    )
                    for val_local in inner_folds
                )
            splits.append(Split(train_idx=train_idx, test_idx=test_idx, inner=inner))
    return splits


# ---------------------------------------------------------------------------
# Window evaluation and sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WindowScore:
    """One window's test AUC per CV split, in split order, and what its models
    did: ``fused_dims`` holds each split's LDA input width when the blocks fuse
    early (one block included), and ``weight_fallbacks`` counts the splits
    whose late-fusion or LSTM-ensemble weights fell back to equal weights."""

    end_time_s: float
    split_aucs: tuple
    fused_dims: tuple
    weight_fallbacks: int


def _window(sequences, end_time_s: float, grid: WindowGrid) -> np.ndarray:
    """(trials, time, features): each sequence's rows in [grid.start,
    end_time_s), as ``window_features`` selects them."""
    grid.index_of(end_time_s)  # raises GridError when off the grid
    return np.stack(
        [s.series.values[epoch_rows(s.series, grid.start_s, end_time_s)] for s in sequences]
    )


def _sorted_sequences(sequences) -> "list[FeatureSequence]":
    ordered = sorted(sequences, key=lambda s: s.trial_ref)
    refs = [s.trial_ref for s in ordered]
    if len(set(refs)) != len(refs):
        raise ValueError("duplicate trial_refs in the sequence list")
    return ordered


def late_fusion_weights(member_train_perf) -> tuple[np.ndarray, bool]:
    """Weights proportional to training performance; equal-weight fallback
    (flagged) when every performance is zero.  Weights late-fusion members by
    training-fold AUC and LSTM ensemble members by validation AUC."""
    perf = np.asarray(member_train_perf, dtype=float)
    if perf.ndim != 1 or perf.shape[0] < 2:
        raise ValueError("need >= 2 member performances")
    if (perf < 0).any() or (perf > 1).any():
        raise ValueError("training performances must lie in [0, 1]")
    total = perf.sum()
    if total <= 0.0:
        return np.full_like(perf, 1.0 / perf.shape[0]), True
    return perf / total, False


def fit_lstm_ensemble(spec: LstmSpec, members) -> "list[tuple[LstmModel, float]]":
    """Train ensemble members as one stack; each member is (seed, x_fit,
    y_fit, x_val, y_val), every val set holding both classes.  Returns each
    member's model and validation AUC.  A training error carries the failing
    member's index in ``.member``."""
    seeds, x_fits, y_fits, x_vals, y_vals = zip(*members)
    models = lstm_train_members(
        spec, seeds, list(zip(x_fits, y_fits)), list(zip(x_vals, y_vals))
    )
    return [
        (model, auc_roc(predict_proba_batch(model, x_val), y_val))
        for model, x_val, y_val in zip(models, x_vals, y_vals)
    ]


@dataclass(frozen=True)
class View:
    """What one sweep evaluates, aligned once for all of its windows.

    ``blocks`` holds one (sequences sorted by trial, recipe) pair per
    modality, every block covering the same trials; ``labels`` and ``splits``
    are shared by every window.  LDA blocks fuse early (one LDA on their
    concatenation; a single modality is one block) unless ``late`` (one LDA
    per block, weighted by training AUC).  An LSTM view has one block, and
    only its splits carry inner folds; every fold holds both classes.  Every
    view's splits run through ``prepare_split``, which never reads ``labels``.
    """

    blocks: tuple
    labels: np.ndarray
    splits: tuple
    seed: int  # the CV scheme's; LSTM member seeds derive from it
    late: bool = False


def make_view(blocks, scheme: CvScheme, late: bool = False) -> View:
    """Sort each block's (sequences, recipe) by trial, require every block to
    cover the same (trial, label) pairs, and draw the CV splits, with inner
    folds exactly for an LSTM, whatever ``scheme.nested`` says (they do not
    move the outer folds).  Too few trials of a class is a ValueError."""
    ordered = tuple((_sorted_sequences(seqs), recipe) for seqs, recipe in blocks)
    if not ordered:
        raise ValueError("a view needs at least one block")
    if len(ordered) > 1 and not all(isinstance(r, LdaRecipe) for _, r in ordered):
        raise ValueError("only LDA blocks can be fused")
    keys = [[(s.trial_ref, s.label) for s in seqs] for seqs, _ in ordered]
    if any(key != keys[0] for key in keys[1:]):
        raise ValueError("modalities cover different trials; gate upstream")
    labels = np.array([s.label for s in ordered[0][0]])
    scheme = replace(scheme, nested=isinstance(ordered[0][1], LstmRecipe))
    return View(ordered, labels, tuple(make_splits(labels, scheme)), scheme.seed, late)


def prepare_split(view: View, xs, split: Split) -> list:
    """The label-free stage of every view: each block's (train rows, test
    rows), given its window in ``xs`` ((trials, D) flattened for LDA, (trials,
    T, D) sequences for an LSTM), preprocessed as fitted on the training fold."""
    parts = []
    for x, (_, recipe) in zip(xs, view.blocks):
        prep, x_train = fit_flat_preprocessing(x[split.train_idx], recipe)
        parts.append((x_train, prep.apply(x[split.test_idx])))
    return parts


def score_split(parts, labels: np.ndarray, split: Split, late: bool, shrinkages) -> tuple:
    """The LDA label stage: (test scores, fused width or None, weight
    fallback).  Early fusion scores one LDA on the blocks side by side (first
    block's shrinkage); late fusion, the sum of one LDA per block, weighted by
    its training AUC.  The scores are class-1 probabilities."""
    y_train = labels[split.train_idx]
    members = zip(parts, shrinkages)
    if not late:
        members = [(tuple(map(np.hstack, zip(*parts))), shrinkages[0])]
    perfs, member_scores = [], []
    for (x_train, x_test), shrinkage in members:
        model = lda_fit(x_train, y_train, shrinkage)
        if late:
            perfs.append(auc_roc(lda_predict_proba(model, x_train), y_train))
        member_scores.append(lda_predict_proba(model, x_test))
    if not late:
        return member_scores[0], x_train.shape[1], False
    weights, fallback = late_fusion_weights(perfs)
    return weights @ np.stack(member_scores), None, fallback


def _lstm_scores(view: View, x: np.ndarray, window_index: int):
    """Yield each split's (test scores, None, weight fallback), in split
    order, from an ensemble with one member per inner (fit, val) fold.

    Each split's rows come from ``prepare_split``.  Consecutive members train
    as one stack, filled up to ``STACK_BYTES``, and a split is scored once its
    last member is trained, so only one split's training rows, one stack's
    data and the test rows and models of unfinished splits are held.
    Ensemble weights are the members' validation AUCs, normalized (equal
    weights when every AUC is zero).  Every fold holds both classes, so only
    training can fail: ``EvaluationError`` names the split that serial
    training would have failed in first.
    """
    labels, recipe = view.labels, view.blocks[0][1]
    test_rows, trained = {}, {}  # by split, until it is scored
    pending = []  # (split, seed, x_fit, y_fit, x_val, y_val, bytes)

    def train_pending():
        if not pending:
            return
        owners = [member[0] for member in pending]
        try:
            results = fit_lstm_ensemble(spec, [member[1:6] for member in pending])
        except Exception as exc:
            member = getattr(exc, "member", None)
            where = "window" if member is None else f"split {owners[member]}"
            raise EvaluationError(f"{where}: {exc}") from exc
        pending.clear()
        for owner, result in zip(owners, results):
            trained[owner].append(result)
        for owner in sorted(set(owners)):
            if len(trained[owner]) == len(view.splits[owner].inner):
                models, aucs = zip(*trained.pop(owner))
                weights, fallback = late_fusion_weights(aucs)
                # Each member scores the whole fold; the weighted sum runs in
                # member order, as ``ensemble_predict`` sums one sequence.
                x_test = test_rows.pop(owner)
                scores = sum(w * predict_proba_batch(m, x_test) for m, w in zip(models, weights))
                yield scores, None, fallback

    for split_index, split in enumerate(view.splits):
        seed = derive_seed(view.seed, "lstm", window_index, split_index)
        spec = recipe.spec(input_dim=x.shape[2], seed=seed)
        [(x_train, test_rows[split_index])] = prepare_split(view, [x], split)
        trained[split_index] = []
        for inner_index, (fit_idx, val_idx) in enumerate(split.inner):
            cost = member_bytes(spec, x.shape[1], len(fit_idx), len(val_idx))
            if sum(member[-1] for member in pending) + cost > STACK_BYTES:
                yield from train_pending()
            fit, val = (np.searchsorted(split.train_idx, idx) for idx in (fit_idx, val_idx))
            pending.append(
                (
                    split_index,
                    derive_seed(seed, "member", inner_index),
                    x_train[fit],
                    labels[fit_idx],
                    x_train[val],
                    labels[val_idx],
                    cost,
                )
            )
    yield from train_pending()


def evaluate_window(view: View, grid: WindowGrid, window_index: int) -> WindowScore:
    """Fit and score every CV split of ``view`` on one window of ``grid``:
    build each block's window once, then run ``prepare_split`` per split and
    its label stage (``score_split`` for LDA, ``_lstm_scores`` for an LSTM),
    and rank the test scores it returns: the one place a test AUC is made.
    A failure is tagged with the split it occurred in."""
    end = float(grid.end_times()[window_index])
    try:
        xs = [_window(seqs, end, grid) for seqs, _ in view.blocks]
    except Exception as exc:
        raise EvaluationError(f"window setup: {exc}") from exc
    if isinstance(view.blocks[0][1], LstmRecipe):
        scored = _lstm_scores(view, xs[0], window_index)
    else:
        flat = [x.reshape(x.shape[0], -1) for x in xs]  # time-major, as ``flatten``
        shrinkages = [recipe.shrinkage for _, recipe in view.blocks]
        scored = (
            score_split(prepare_split(view, flat, split), view.labels, split, view.late, shrinkages)
            for split in view.splits
        )
    aucs, dims, fallbacks = [], [], 0
    try:
        for (scores, dim, fallback), split in zip(scored, view.splits):
            aucs.append(auc_roc(scores, view.labels[split.test_idx]))
            if dim is not None:
                dims.append(dim)
            fallbacks += fallback
    except EvaluationError:
        raise
    except Exception as exc:
        raise EvaluationError(f"split {len(aucs)}: {exc}") from exc
    return WindowScore(end, tuple(aucs), tuple(dims), fallbacks)


@dataclass(frozen=True)
class AucTimeline:
    participant_id: int
    tag: str  # modality name or fusion tag like "early:eeg+gaze"
    model: str  # "lda" | "lstm"
    window_end_times_s: np.ndarray
    auc: np.ndarray  # mean across splits; nan where the window failed
    auc_std: np.ndarray
    auc_stderr: np.ndarray
    auc_median: np.ndarray
    auc_q25: np.ndarray
    auc_q75: np.ndarray
    n_splits: int
    errors: tuple = ()  # ((window_end_s, message), ...)

    def __post_init__(self):
        n = np.asarray(self.window_end_times_s).shape[0]
        for name in ("auc", "auc_std", "auc_stderr", "auc_median", "auc_q25", "auc_q75"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise ValueError(f"{name} misaligned with the window grid")
            object.__setattr__(self, name, arr)
        object.__setattr__(
            self, "window_end_times_s", np.asarray(self.window_end_times_s, dtype=float)
        )
        _check_auc(self.auc)


def _check_auc(auc) -> None:  # nan marks a missing window
    auc = np.asarray(auc, dtype=float)
    if not (np.isnan(auc) | ((auc >= 0.0) & (auc <= 1.0))).all():
        raise ValueError("AUC values must lie in [0, 1]")


def window_result(view: View, grid: WindowGrid, window_index: int):
    """(score, None) for one window of ``view``, or (None, message) when it
    fails.  The result depends only on its arguments, so windows can be
    evaluated in any order and in any process."""
    try:
        return evaluate_window(view, grid, window_index), None
    except EvaluationError as exc:
        return None, str(exc)


def assemble_timeline(
    view: View,
    grid: WindowGrid,
    results,
    participant_id: int | None = None,
    tag: str | None = None,
) -> AucTimeline:
    """The timeline of ``view`` from its windows' ``window_result`` values,
    in grid order: each column reduces the rows of a (windows x splits)
    matrix of split AUCs.  A failing window is recorded in ``errors`` and is
    a nan row, missing in every column.  The participant and tag default to
    the first trial's participant and the first block's modality."""
    sequences, recipe = view.blocks[0]
    end_times = grid.end_times()
    if len(results) != end_times.shape[0]:
        raise ValueError("one result per window of the grid is required")
    aucs = np.full((end_times.shape[0], len(view.splits)), np.nan)
    errors = []
    for i, (score, message) in enumerate(results):
        if message is None:
            aucs[i] = score.split_aucs
        else:
            errors.append((float(end_times[i]), message))
    std = aucs.std(axis=1, ddof=1)  # a CvScheme makes at least two splits
    median, q25, q75 = np.percentile(aucs, (50, 25, 75), axis=1)
    return AucTimeline(
        participant_id=sequences[0].trial_ref[0] if participant_id is None else participant_id,
        tag=sequences[0].modality.value if tag is None else tag,
        model=recipe.name,
        window_end_times_s=end_times,
        auc=aucs.mean(axis=1),
        auc_std=std,
        auc_stderr=std / np.sqrt(aucs.shape[1]),
        auc_median=median,
        auc_q25=q25,
        auc_q75=q75,
        n_splits=aucs.shape[1],
        errors=tuple(errors),
    )


def sweep(
    blocks,
    scheme: CvScheme,
    grid: WindowGrid | None = None,
    participant_id: int | None = None,
    tag: str | None = None,
    late: bool = False,
) -> AucTimeline:
    """Evaluate one view on every window end of the grid, serially.

    ``blocks`` is a list of (sequences, recipe), one per modality; ``late``
    is as in ``View``; the other arguments are as in ``assemble_timeline``.
    The blocks are aligned and the CV splits drawn once per sweep.
    """
    grid = WindowGrid() if grid is None else grid
    view = make_view(blocks, scheme, late)
    results = [window_result(view, grid, i) for i in range(grid.end_times().shape[0])]
    return assemble_timeline(view, grid, results, participant_id, tag)


# ---------------------------------------------------------------------------
# Detection latency and aggregation
# ---------------------------------------------------------------------------


def sustained_level_time(
    timeline: AucTimeline, level: float, run_length: int = 3
) -> float | None:
    """Earliest window end time whose AUC stays >= level for run_length
    consecutive grid steps; None when the level is never sustained.  Missing
    (nan) windows fail the condition rather than being skipped over."""
    if run_length < 1:
        raise ValueError("run_length must be >= 1")
    auc = timeline.auc
    ok = np.isfinite(auc) & (auc >= level)
    for i in range(0, auc.shape[0] - run_length + 1):
        if ok[i : i + run_length].all():
            return float(timeline.window_end_times_s[i])
    return None


@dataclass(frozen=True)
class AggregateTimeline:
    tag: str
    model: str
    window_end_times_s: np.ndarray
    auc: np.ndarray  # median across participants, what sustained_level_time reads
    q25: np.ndarray
    q75: np.ndarray
    n_participants: int


def aggregate_participants(timelines) -> AggregateTimeline:
    """Per-window median and quartiles (linear interpolation) across
    participants; windows missing for a participant are left out of that
    window's statistics."""
    timelines = list(timelines)
    if not timelines:
        raise ValueError("no timelines to aggregate")
    first = timelines[0]
    for t in timelines[1:]:
        if not np.array_equal(t.window_end_times_s, first.window_end_times_s):
            raise ValueError("window grids do not match across participants")
        if (t.tag, t.model) != (first.tag, first.model):
            raise ValueError("cannot aggregate across different tags/models")
    stack = np.stack([t.auc for t in timelines])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=RuntimeWarning)  # all-nan windows
        median = np.nanpercentile(stack, 50, axis=0)
        q25 = np.nanpercentile(stack, 25, axis=0)
        q75 = np.nanpercentile(stack, 75, axis=0)
    return AggregateTimeline(
        tag=first.tag,
        model=first.model,
        window_end_times_s=first.window_end_times_s,
        auc=median,
        q25=q25,
        q75=q75,
        n_participants=len(timelines),
    )


median_timeline = aggregate_participants  # the cross-participant median timeline


def group_timelines(timelines) -> dict:
    """``{model: {tag: timelines}}``, models and tags sorted and each tag's
    timelines in ascending participant order: the order of every summary
    (the ANOVA sums depend on it)."""
    grouped: dict = {}
    for t in sorted(timelines, key=lambda t: (t.model, t.tag, t.participant_id)):
        grouped.setdefault(t.model, {}).setdefault(t.tag, []).append(t)
    return grouped


# ---------------------------------------------------------------------------
# Group statistics
# ---------------------------------------------------------------------------


def anova_oneway(groups) -> tuple[float, float]:
    """Classic one-way ANOVA: between/within mean-square ratio, p from F's
    upper tail (``fdtrc``, which ``scipy.stats.f.sf`` calls)."""
    groups = [np.asarray(g, dtype=float) for g in groups]
    if len(groups) < 2 or any(g.ndim != 1 or g.shape[0] < 2 for g in groups):
        raise ValueError("need >= 2 groups with >= 2 samples each")
    all_values = np.concatenate(groups)
    grand = all_values.mean()
    ss_between = sum(g.shape[0] * (g.mean() - grand) ** 2 for g in groups)
    ss_within = sum(((g - g.mean()) ** 2).sum() for g in groups)
    df_between = len(groups) - 1
    df_within = all_values.shape[0] - len(groups)
    if ss_within == 0.0:
        raise ValueError("zero within-group variance; F statistic undefined")
    f = (ss_between / df_between) / (ss_within / df_within)
    from scipy.special import fdtrc

    return float(f), float(fdtrc(df_between, df_within, f))


# ---------------------------------------------------------------------------
# Latency table (sustained times on the median timeline, ANOVA across
# participants' per-modality sustained times)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatencyRow:
    level: float
    times: dict  # tag -> float | None
    anova_f: float | None
    anova_p: float | None
    significant: bool | None


def detection_latency_table(
    timelines_by_tag: dict,
    levels=DEFAULT_AUC_LEVELS,
    run_length: int = 3,
    alpha: float = ANOVA_ALPHA,
) -> "list[LatencyRow]":
    """One row per AUC level.  The reported time per tag comes from the
    cross-participant median timeline; the ANOVA compares participants'
    individual sustained times across tags (participants that never reach the
    level are left out, and the test is skipped when fewer than two groups
    keep two members)."""
    rows = []
    medians = {tag: aggregate_participants(tls) for tag, tls in timelines_by_tag.items()}
    for level in levels:
        times = {
            tag: sustained_level_time(med, level, run_length)
            for tag, med in medians.items()
        }
        groups = []
        for tag, tls in timelines_by_tag.items():
            per_participant = [
                t
                for t in (sustained_level_time(tl, level, run_length) for tl in tls)
                if t is not None
            ]
            if len(per_participant) >= 2:
                groups.append(per_participant)
        anova_f = anova_p = None
        significant = None
        if len(groups) >= 2:
            try:
                anova_f, anova_p = anova_oneway(groups)
                significant = bool(anova_p < alpha)
            except ValueError:
                pass
        rows.append(
            LatencyRow(
                level=float(level),
                times=times,
                anova_f=anova_f,
                anova_p=anova_p,
                significant=significant,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# CSV output (byte-stable: repr floats, \n newlines, fixed column order)
# ---------------------------------------------------------------------------

TIMELINE_COLUMNS = [
    "participant",
    "tag",
    "model",
    "window_end_s",
    "auc_mean",
    "auc_dispersion",
    "auc_stderr",
    "auc_median",
    "auc_q25",
    "auc_q75",
]


def _fmt(x: float) -> str:
    return repr(float(x))


def _safe_tag(tag: str) -> str:  # a view tag as file names and figure columns show it
    return tag.replace(":", "-")


def timeline_rows(timeline: AucTimeline) -> "list[list[str]]":
    t = timeline
    columns = (t.window_end_times_s, t.auc, t.auc_std, t.auc_stderr)
    columns += (t.auc_median, t.auc_q25, t.auc_q75)
    head = [str(t.participant_id), t.tag, t.model]
    return [[*head, *map(_fmt, values)] for values in zip(*columns)]


def write_timeline_csv(path, timeline: AucTimeline) -> None:
    _write_csv(path, TIMELINE_COLUMNS, timeline_rows(timeline))


def write_results_csv(path, timelines) -> None:
    rows = []
    for t in sorted(timelines, key=lambda t: (t.model, t.tag, t.participant_id)):
        rows.extend(timeline_rows(t))
    _write_csv(path, TIMELINE_COLUMNS, rows)


def read_timelines_csv(path) -> "list[AucTimeline]":
    """Read one or more timelines back from a results/timeline CSV."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header != TIMELINE_COLUMNS:
            raise ValueError(f"{path}: unexpected columns {header}")
        grouped: dict = {}
        for lineno, line in enumerate(fh, start=2):
            # Every row is written with its line end, so a row without one, or
            # with too few cells, was cut short, as by an interrupted write.
            if not line.endswith("\n"):
                raise ValueError(f"{path}:{lineno}: row has no line end")
            cells = line[:-1].split(",")
            if len(cells) != len(header):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(header)} columns, got {len(cells)}"
                )
            try:
                key = (int(cells[0]), cells[1], cells[2])
                row = [float(c) for c in cells[3:]]
                _check_auc(row[1])  # auc_mean
                grouped.setdefault(key, []).append(row)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    # A row's columns after the model are AucTimeline's fields, in order.
    return [
        AucTimeline(pid, tag, model, *np.asarray(rows).T, n_splits=0)
        for (pid, tag, model), rows in grouped.items()
    ]


def write_latency_csv(path, rows: "list[LatencyRow]", tags: "list[str]") -> None:
    header = ["level"] + list(tags) + ["anova_f", "anova_p", "significant"]
    body = []
    for row in rows:
        cells = [_fmt(row.level)]
        for tag in tags:
            t = row.times.get(tag)
            cells.append("X" if t is None else _fmt(t))
        cells.append("" if row.anova_f is None else _fmt(row.anova_f))
        cells.append("" if row.anova_p is None else _fmt(row.anova_p))
        cells.append("" if row.significant is None else ("yes" if row.significant else "no"))
        body.append(cells)
    _write_csv(path, header, body)


def write_aggregate_csv(path, aggregates) -> None:
    header = ["tag", "model", "window_end_s", "median", "q25", "q75", "n_participants"]
    rows = []
    for agg in sorted(aggregates, key=lambda a: (a.model, a.tag)):
        columns = (agg.window_end_times_s, agg.auc, agg.q25, agg.q75)
        rows += [
            [agg.tag, agg.model, *map(_fmt, values), str(agg.n_participants)]
            for values in zip(*columns)
        ]
    _write_csv(path, header, rows)


FIGURES_DIR = "figures"  # report's default output directory, inside a run's


def figure_path(out_dir, model: str) -> Path:
    """The figure CSV of ``model`` that ``write_figure_csvs`` writes in ``out_dir``."""
    return Path(out_dir) / f"figure_{model}.csv"


def write_figure_csvs(out_dir, timelines) -> "list[Path]":
    """``figure_<model>.csv`` per model under ``out_dir`` (window_end_s,
    onset_s = 0.0 for the dashed onset marker, then per tag <tag>_q25,
    <tag>_median, <tag>_q75), and the paths, in model order.  Every model's
    tags must share one window grid; all are checked before the first write."""
    tables = {}
    for model, by_tag in group_timelines(timelines).items():
        aggregates = [aggregate_participants(tls) for tls in by_tag.values()]
        ends = aggregates[0].window_end_times_s
        if any(not np.array_equal(agg.window_end_times_s, ends) for agg in aggregates):
            raise ValueError("window grids differ between tags")
        header = ["window_end_s", "onset_s"]
        columns = [ends, np.zeros_like(ends)]
        for agg in aggregates:
            header += [f"{_safe_tag(agg.tag)}_{stat}" for stat in ("q25", "median", "q75")]
            columns += [agg.q25, agg.auc, agg.q75]
        rows = [list(map(_fmt, values)) for values in zip(*columns)]
        tables[figure_path(out_dir, model)] = header, rows
    for path, (header, rows) in tables.items():
        _write_csv(path, header, rows)
    return list(tables)


def write_run_csvs(out_dir, timelines) -> "list[Path]":
    """Every CSV of a run, from its timelines: ``timelines/p###_<tag>_<model>.csv``
    per timeline, ``results.csv``, ``aggregate.csv`` and ``latency_<model>.csv``
    per model; returns the paths written."""
    out = Path(out_dir)
    written = []
    for t in timelines:
        name = f"p{t.participant_id:03d}_{_safe_tag(t.tag)}_{t.model}.csv"
        written.append(out / "timelines" / name)
        write_timeline_csv(written[-1], t)
    written.append(out / "results.csv")
    write_results_csv(written[-1], timelines)
    grouped = group_timelines(timelines)
    aggregates = [aggregate_participants(tls) for g in grouped.values() for tls in g.values()]
    written.append(out / "aggregate.csv")
    write_aggregate_csv(written[-1], aggregates)
    for model, by_tag in grouped.items():
        written.append(out / f"latency_{model}.csv")
        write_latency_csv(written[-1], detection_latency_table(by_tag), list(by_tag))
    return written


def _write_csv(path, header, rows) -> None:
    write_file(path, "".join(",".join(cells) + "\n" for cells in [header, *rows]))
