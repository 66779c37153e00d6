"""Output checks for one run, computed apart from the program.

``check_run`` returns the problems it found (empty when the run is right)
and the number of window evaluations the run reported as failed.  It reads
the files the run wrote with the csv and json modules, and recomputes
the latency table with its own code: the median across participants, the
first run of SUSTAIN_RUN windows at or above each level, and, where groups
allow it, the one-way ANOVA with ``scipy.stats.f_oneway``.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from pathlib import Path

import numpy as np
from scipy.stats import f_oneway

from workloads import ANOVA_ALPHA, AUC_LEVELS, SUSTAIN_RUN

RESULT_COLUMNS = [
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
AUC_COLUMNS = ("auc_mean", "auc_median", "auc_q25", "auc_q75")
# A median within this distance of a level may round either way, depending
# on how the two middle values are averaged; both answers are accepted.
LEVEL_TOLERANCE = 1e-12


def csv_bytes(out_dir: Path) -> dict:
    return {
        str(p.relative_to(out_dir)): p.read_bytes() for p in sorted(out_dir.rglob("*.csv"))
    }


def check_run(out_dir: Path, workload, truth: dict, reference: "dict | None"):
    """(problems, failed windows) of one run; ``reference`` holds the CSV
    bytes of the invocation's first run, or None for the first run itself.

    A window listed in ``window_errors`` counts as failed and is also a
    structure problem: every workload is chosen so that no window fails.
    """
    problems = []
    failed = 0
    try:
        with open(out_dir / "run_metadata.json", encoding="utf-8") as fh:
            failed = len(json.load(fh)["window_errors"])
        if failed:
            problems.append(f"window_errors lists {failed} windows")
        timelines, structure = _read_results(out_dir / "results.csv", workload)
        problems += structure
        if not structure:
            problems += _check_latency(out_dir, workload, timelines)
            problems += _check_ground_truth(workload, timelines, truth)
    except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
        problems.append(f"unreadable output: {exc!r}")
    if reference is not None and csv_bytes(out_dir) != reference:
        problems.append("CSVs differ from the first run of this invocation")
    return problems, failed


def _read_results(path: Path, workload):
    """{tag: {participant: auc array over the window grid}} and structure
    problems: one row per participant x tag x window, AUCs finite in [0, 1]."""
    problems = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    if header != RESULT_COLUMNS:
        return {}, [f"results.csv header {header}"]
    ends = workload.end_times()
    expected = {
        (pid, tag, end)
        for pid in range(1, workload.participants + 1)
        for tag in workload.tags
        for end in ends
    }
    seen = {}
    for row in rows:
        record = dict(zip(RESULT_COLUMNS, row))
        key = (int(record["participant"]), record["tag"], round(float(record["window_end_s"]), 9))
        if key in seen:
            problems.append(f"duplicate row {key}")
        if record["model"] != workload.model:
            problems.append(f"row {key} has model {record['model']}")
        values = [float(record[c]) for c in AUC_COLUMNS]
        if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values):
            problems.append(f"row {key} has an AUC outside [0, 1]: {values}")
        seen[key] = values[0]
    if set(seen) != expected:
        missing = sorted(expected - set(seen))[:3]
        extra = sorted(set(seen) - expected)[:3]
        problems.append(f"rows do not cover the grid: missing {missing}, extra {extra}")
        return {}, problems
    timelines = {
        tag: {
            pid: np.array([seen[(pid, tag, end)] for end in ends])
            for pid in range(1, workload.participants + 1)
        }
        for tag in workload.tags
    }
    return timelines, problems


def _sustained(auc, ends, level):
    ok = auc >= level
    for i in range(len(ends) - SUSTAIN_RUN + 1):
        if ok[i : i + SUSTAIN_RUN].all():
            return ends[i]
    return None


def _median(by_participant: dict) -> np.ndarray:
    return np.median(np.stack(list(by_participant.values())), axis=0)


def _fmt_time(t) -> str:
    return "X" if t is None else repr(float(t))


def _check_latency(out_dir: Path, workload, timelines: dict) -> list:
    path = out_dir / f"latency_{workload.model}.csv"
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    tags = sorted(workload.tags)
    header = ["level"] + tags + ["anova_f", "anova_p", "significant"]
    if rows[0] != header:
        return [f"{path.name} header {rows[0]}, expected {header}"]
    if [float(r[0]) for r in rows[1:]] != list(AUC_LEVELS):
        return [f"{path.name} levels {[r[0] for r in rows[1:]]}"]
    ends = workload.end_times()
    problems = []
    for row, level in zip(rows[1:], AUC_LEVELS):
        for tag, written in zip(tags, row[1:]):
            median = _median(timelines[tag])
            accepted = {
                _fmt_time(_sustained(median, ends, level - LEVEL_TOLERANCE)),
                _fmt_time(_sustained(median, ends, level + LEVEL_TOLERANCE)),
            }
            if written not in accepted:
                problems.append(
                    f"{path.name} level {level} {tag}: {written}, recomputed {sorted(accepted)}"
                )
        problems += _check_anova(path.name, level, row[-3:], timelines, ends)
    return problems


def _check_anova(name, level, written, timelines, ends) -> list:
    groups = []
    for tag in sorted(timelines):
        times = [
            t
            for t in (_sustained(auc, ends, level) for auc in timelines[tag].values())
            if t is not None
        ]
        if len(times) >= 2:
            groups.append(times)
    expected_f = expected_p = None
    if len(groups) >= 2:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # zero within-group variance
            result = f_oneway(*groups)
        if math.isfinite(result.statistic) and math.isfinite(result.pvalue):
            expected_f, expected_p = float(result.statistic), float(result.pvalue)
    f_text, p_text, sig_text = written
    if expected_f is None:
        if (f_text, p_text, sig_text) != ("", "", ""):
            return [f"{name} level {level}: ANOVA {written} where none applies"]
        return []
    if not f_text or not p_text:
        return [f"{name} level {level}: ANOVA missing, recomputed F={expected_f:.6g}"]
    close = math.isclose(float(f_text), expected_f, rel_tol=1e-9) and math.isclose(
        float(p_text), expected_p, rel_tol=1e-6, abs_tol=1e-15
    )
    significant = "yes" if expected_p < ANOVA_ALPHA else "no"
    if not close or sig_text != significant:
        return [
            f"{name} level {level}: ANOVA {written}, recomputed "
            f"F={expected_f!r} p={expected_p!r} {significant}"
        ]
    return []


def _check_ground_truth(workload, timelines: dict, truth: dict) -> list:
    """Before the injection the median AUC stays in the chance band; well
    after it the classes are separable; the sustained-0.75 time lies near
    the injection."""
    ends = np.array(workload.end_times())
    low, high = workload.chance_band
    problems = []
    for tag in workload.tags:
        modalities = tag.split(":")[-1].split("+")
        injection = min(truth["injection_time_s"][m] for m in modalities)
        free_until = injection - workload.pre_injection_margin_s(tag)
        median = _median(timelines[tag])
        pre = median[ends <= free_until + 1e-9]
        if pre.size == 0:
            problems.append(f"{tag}: no window ends before {free_until:.3f} s")
        elif pre.min() < low or pre.max() > high:
            problems.append(
                f"{tag}: pre-injection median AUC in [{pre.min():.3f}, {pre.max():.3f}], "
                f"outside [{low}, {high}]"
            )
        post = median[ends >= injection + workload.separable_after_s - 1e-9]
        if post.size == 0 or post.min() < 0.9:
            problems.append(f"{tag}: median AUC {post} after the injection, not >= 0.9")
        sustained = _sustained(median, list(ends), 0.75)
        earliest = free_until - workload.latency_slack_s
        latest = injection + workload.latency_window_s
        if sustained is None or not earliest - 1e-9 <= sustained <= latest + 1e-9:
            problems.append(
                f"{tag}: sustained-0.75 time {sustained}, outside "
                f"[{earliest:.3f}, {latest:.3f}] s"
            )
    return problems
