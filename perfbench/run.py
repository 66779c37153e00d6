"""Benchmark ``handover-intent run`` on one synthetic workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload gaze-lda --seed 1 --seconds 28 --trace 0

The benchmark generates the workload's dataset with ``handover-intent synth``
(seeded by ``--seed``), then repeats ``python -m handover_intent.cli run ...
--jobs 2`` as separate processes until the runs have used up ``--seconds``
(at least two runs).  Before each run it times ``validate-config`` once for
``setup_s``, and tops these timings up to SETUP_REPEATS after the last run,
so that the median of ``setup_s`` samples the same stretch of time as the
runs.  It checks every run's outputs (see checks.py) and prints each metric
by name and unit; the last line of standard output is one JSON object.  With
``--trace 1`` it adds one run under the span tracer (see tracer.py) and
reports the per-layer metrics instead of the end-to-end ones.

The program runs from ``src/`` of this checkout, with OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS removed from its environment, so its own
thread policy is what gets measured.  Generated files go to .perfbench_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_run, csv_bytes
from tracer import OVERHEAD_METRIC, layer_metrics
from workloads import JOBS, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
MIN_RUNS = 2


class BenchmarkError(RuntimeError):
    """The benchmark could not run the workload at all."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(SRC)
    return env


def cli(*args) -> list:
    return [sys.executable, "-m", "handover_intent.cli", *map(str, args)]


def run_child(cmd: list, cwd: Path, log: Path):
    """Run one process to its end; (exit code, wall s, CPU s, peak RSS MiB).

    CPU and peak RSS come from wait4's resource usage of the child, which
    includes every descendant it waited for.
    """
    env = child_env()
    with open(log, "wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=out)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def must_succeed(cmd: list, cwd: Path, log: Path) -> float:
    code, wall, _, _ = run_child(cmd, cwd, log)
    if code != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise BenchmarkError(f"{' '.join(cmd)} exited {code}:\n{tail}")
    return wall


def set_up(workload, seed: int, work: Path) -> dict:
    """Generate the dataset, write the config; return the ground truth."""
    (work / "profile.txt").write_text(workload.profile, encoding="utf-8")
    (work / "config.txt").write_text(workload.config, encoding="utf-8")
    must_succeed(
        cli("synth", "--profile", "profile.txt", "--out", "data", "--seed", seed),
        work,
        work / "synth.log",
    )
    return json.loads((work / "data" / "ground_truth.json").read_text(encoding="utf-8"))


def time_setup(work: Path) -> float:
    """Wall time of validate-config in a fresh interpreter."""
    return must_succeed(cli("validate-config", "--config", "config.txt"), work, work / "setup.log")


class Runs:
    """The untraced and traced runs of one invocation, with their checks."""

    def __init__(self, workload, work: Path, truth: dict):
        self.workload = workload
        self.work = work
        self.truth = truth
        self.reference = None  # CSV bytes of the first successful run
        self.records = []
        self.setup = []  # validate-config wall times
        self.problems = []

    def run(self, label: str, traced: bool = False) -> dict:
        out = self.work / "out" / label
        shutil.rmtree(self.work / "cache", ignore_errors=True)
        args = ["run", "--config", "config.txt", "--jobs", JOBS, "--out", out]
        if traced:
            cmd = [sys.executable, BENCH_DIR / "traced_cli.py", "spans.json", *args]
            cmd = [str(c) for c in cmd]
        else:
            cmd = cli(*args)
        log = self.work / f"{label}.log"
        code, wall, cpu, rss = run_child(cmd, self.work, log)
        attempted = self.workload.windows_per_run()
        record = {"label": label, "run_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
                  "attempted": attempted, "exit": code}
        if code != 0:
            record["failed"] = attempted
            record["problems"] = [f"exit code {code}; see {log}"]
        else:
            record["problems"], record["failed"] = check_run(
                out, self.workload, self.truth, self.reference
            )
            if self.reference is None:
                self.reference = csv_bytes(out)
        self.problems += [f"{label}: {p}" for p in record["problems"]]
        if not traced:
            self.records.append(record)
        report(record)
        return record

    def repeat(self, seconds: float) -> None:
        while True:
            self.setup.append(time_setup(self.work))
            self.run(f"run{len(self.records) + 1}")
            spent = sum(r["run_s"] for r in self.records)
            typical = statistics.median(r["run_s"] for r in self.records)
            if len(self.records) >= MIN_RUNS and spent + typical > seconds:
                break
        while len(self.setup) < SETUP_REPEATS:
            self.setup.append(time_setup(self.work))

    def median(self, key: str) -> float:
        return statistics.median(r[key] for r in self.records if r["exit"] == 0)


def report(record: dict) -> None:
    status = "ok" if not record["problems"] else "; ".join(record["problems"])
    print(
        f"{record['label']}: run_s {record['run_s']:.3f} s, cpu_s {record['cpu_s']:.3f} s, "
        f"peak_rss_mb {record['peak_rss_mb']:.1f} MB, attempted {record['attempted']}, "
        f"failed {record['failed']}, checks {status}",
        flush=True,
    )


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if not (SRC / "handover_intent" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC / 'handover_intent'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    try:
        truth = set_up(workload, args.seed, work)
        runs = Runs(workload, work, truth)
        runs.repeat(args.seconds)
        setup_s = statistics.median(runs.setup)
        print(f"{workload.name} seed {args.seed}: setup_s {setup_s:.3f} s, median of "
              f"{len(runs.setup)} validate-config runs: "
              + " ".join(f"{t:.3f}" for t in runs.setup), flush=True)
        if not any(r["exit"] == 0 for r in runs.records):
            raise BenchmarkError("no run of the workload succeeded")
        traced = runs.run("traced", traced=True) if args.trace else None
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    records = runs.records + ([traced] if traced else [])
    if args.trace:
        if traced["exit"] != 0:
            print("perfbench: the traced run failed", file=sys.stderr)
            return 2
        metrics = {
            name: metric(value, unit)
            for name, (value, unit) in layer_metrics(work / "spans.json").items()
        }
        name, unit = OVERHEAD_METRIC
        metrics[name] = metric(traced["run_s"] - runs.median("run_s"), unit)
    else:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "run_s": metric(runs.median("run_s"), "s"),
            "cpu_s": metric(runs.median("cpu_s"), "s"),
            "peak_rss_mb": metric(runs.median("peak_rss_mb"), "MB"),
        }
    for name, entry in metrics.items():
        value = "not measured" if entry["value"] is None else f"{entry['value']:.6g}"
        print(f"{name} = {value} {entry['unit']}")
    for problem in runs.problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    result = {
        "correct": not runs.problems,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
