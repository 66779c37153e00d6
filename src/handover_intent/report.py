"""Plot-data emission: per-figure CSVs (median line + interquartile band per
modality/fusion tag) consumable by any plotting tool."""

from __future__ import annotations

from pathlib import Path

from .evaluation import _fmt, _safe_tag, _write_csv, aggregate_participants, read_timelines_csv


def write_report(results_dir: "Path | str", out_dir: "Path | str | None" = None) -> "list[Path]":
    """Build one figure-data file per model from ``results.csv``.

    Columns: window_end_s, onset_s (constant 0.0, the dashed onset marker),
    then per tag: <tag>_q25, <tag>_median, <tag>_q75.
    """
    results_dir = Path(results_dir)
    out = results_dir / "figures" if out_dir is None else Path(out_dir)
    results_csv = results_dir / "results.csv"
    if not results_csv.is_file():
        raise FileNotFoundError(
            f"missing input: expected {results_csv} (produced by the run command)"
        )
    timelines = read_timelines_csv(results_csv)
    if not timelines:
        raise ValueError(f"{results_csv}: no rows below the header")
    by_model: dict = {}
    for t in timelines:
        by_model.setdefault(t.model, {}).setdefault(t.tag, []).append(t)

    out.mkdir(parents=True, exist_ok=True)
    written = []
    for model in sorted(by_model):
        tags = sorted(by_model[model])
        aggregates = {tag: aggregate_participants(by_model[model][tag]) for tag in tags}
        ends = aggregates[tags[0]].window_end_times_s
        for agg in aggregates.values():
            if agg.window_end_times_s.shape != ends.shape or (
                agg.window_end_times_s != ends
            ).any():
                raise ValueError("window grids differ between tags")
        header = ["window_end_s", "onset_s"]
        for tag in tags:
            header += [f"{_safe_tag(tag)}_{stat}" for stat in ("q25", "median", "q75")]
        rows = []
        for i, end in enumerate(ends):
            row = [_fmt(end), _fmt(0.0)]
            for tag in tags:
                agg = aggregates[tag]
                row += [_fmt(agg.q25[i]), _fmt(agg.median[i]), _fmt(agg.q75[i])]
            rows.append(row)
        path = out / f"figure_{model}.csv"
        _write_csv(path, header, rows)
        written.append(path)
    return written
