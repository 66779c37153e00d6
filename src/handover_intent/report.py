"""Plot-data emission: ``figures/figure_<model>.csv`` per model (median line
+ interquartile band per modality/fusion tag, written by
``evaluation.write_figure_csvs``), consumable by any plotting tool."""

from __future__ import annotations

from pathlib import Path

from .evaluation import FIGURES_DIR, read_timelines_csv, write_figure_csvs


def write_report(results_dir: "Path | str", out_dir: "Path | str | None" = None) -> "list[Path]":
    """Write ``figure_<model>.csv`` per model from ``results.csv``, with the
    run's grouping and aggregate; the paths written, in model order.  A
    ValueError names ``results.csv``, and nothing is written then."""
    results_dir = Path(results_dir)
    out = results_dir / FIGURES_DIR if out_dir is None else Path(out_dir)
    results_csv = results_dir / "results.csv"
    if not results_csv.is_file():
        raise FileNotFoundError(
            f"missing input: expected {results_csv} (produced by the run command)"
        )
    timelines = read_timelines_csv(results_csv)
    if not timelines:
        raise ValueError(f"{results_csv}: no rows below the header")
    try:
        return write_figure_csvs(out, timelines)
    except ValueError as exc:
        raise ValueError(f"{results_csv}: {exc}") from None
