"""Every function and method the benchmark's span tracer wraps must exist,
every attribute hook must read the result its function really returns, and a
traced run of the CLI must measure every layer.

The tracer reports a function the program no longer has as not measured, so
renaming or deleting one of them silently blanks per-layer metrics; a hook
that no longer fits its function's return value breaks a traced run.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import handover_intent
from handover_intent.core_data import Modality, TimeSeries, write_trial_csv
from handover_intent.features import FeatureCache, FeatureSequence
from handover_intent.lda import lda_fit
from handover_intent.synth import SynthProfile, generate_dataset

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_and_method_resolves():
    tracer = load_tracer()
    missing = []
    for short, names in tracer.TARGETS.items():
        module = importlib.import_module(f"{tracer.PACKAGE}.{short}")
        missing += [f"{short}.{n}" for n in names if not callable(getattr(module, n, None))]
    for short, classes in tracer.METHODS.items():
        module = importlib.import_module(f"{tracer.PACKAGE}.{short}")
        for cname, methods in classes.items():
            cls = getattr(module, cname, None)
            missing += [
                f"{short}.{cname}.{m}"
                for m in methods
                if cls is None or not callable(vars(cls).get(m))
            ]
    assert not missing, f"perfbench traces names the program lacks: {missing}"


def annotated_calls(tmp_path) -> dict:
    """Traced name -> (args, kwargs, the attributes its hook must report) for
    a real call of each function that has an ``ANNOTATE`` hook."""
    rng = np.random.default_rng(0)
    csv = tmp_path / "trial.csv"
    write_trial_csv(csv, np.arange(5) * 0.04, rng.normal(size=(5, 2)), ["x", "y"])
    cache = FeatureCache(tmp_path / "cache")
    series = TimeSeries(0.0, 0.04, np.ones((5, 2)))
    cache.put(FeatureSequence(Modality.GAZE, series, trial_ref=(1, 0), label=1), "key")
    a, b = rng.normal(size=(2, 20))
    rank_two = np.column_stack([a, b, a + b])
    x = rng.normal(size=(20, 3))
    y = np.array([0, 1] * 10)
    return {
        "core_data.read_trial_csv": ((csv,), {}, {"bytes": csv.stat().st_size}),
        "features.FeatureCache.get": ((cache, (1, 0), Modality.GAZE, "key", 1), {}, {"hit": True}),
        "features.pca_fit": ((rank_two, 1.0), {}, {"k": 2}),
        "lda.lda_fit": ((x, y), {}, {"dim": 3}),
        "lda.lda_predict_proba": ((lda_fit(x, y), x), {}, {"scored": 20, "saturated": 0}),
        "fusion.late_fusion_weights": (([0.6, 0.8],), {}, {"fallback": False}),
    }


def resolve(name: str):
    short, *attrs = name.split(".")
    obj = importlib.import_module(f"{load_tracer().PACKAGE}.{short}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_every_annotate_hook_has_a_real_call(tmp_path):
    assert set(load_tracer().ANNOTATE) == set(annotated_calls(tmp_path))


@pytest.mark.parametrize("name", sorted(load_tracer().ANNOTATE))
def test_annotate_hook_reads_the_real_result(name, tmp_path):
    args, kwargs, expected = annotated_calls(tmp_path)[name]
    result = resolve(name)(*args, **kwargs)
    assert load_tracer().ANNOTATE[name](args, kwargs, result) == expected


def test_importing_the_cli_loads_every_traced_module():
    # The tracer wraps only modules that are loaded when it is installed,
    # right after ``handover_intent.cli`` is imported; a module that the CLI
    # imports later, inside a function, would go unmeasured.
    tracer = load_tracer()
    wanted = {f"{tracer.PACKAGE}.{short}" for short in [*tracer.TARGETS, *tracer.METHODS]}
    src = str(Path(handover_intent.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, handover_intent.cli; print(*sorted(sys.modules))"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert wanted - set(done.stdout.split()) == set()


TINY_RUN = """[dataset]
root = data

[experiment]
modalities = eeg
model = lda
seed = 7
min_trials = 12

[cv]
folds = 2
repeats = 1

[windows]
start_s = -5.0
first_end_s = 0.0
last_end_s = 1.0
step_s = 1.0

[features]
tf_freq_lo_hz = 8
tf_freq_hi_hz = 12
cache_dir = cache

[fusion]
modes = early,late
modalities = eeg,gaze,motion

[output]
dir = out
"""


TINY_LSTM_RUN = """[dataset]
root = data

[experiment]
modalities = motion
model = lstm
seed = 7
min_trials = 12

[cv]
folds = 2
repeats = 1
inner_folds = 2

[windows]
start_s = -5.0
first_end_s = -4.0
last_end_s = -4.0
step_s = 1.0

[output]
dir = out
"""


@pytest.mark.parametrize(
    "config, modalities, counted",
    [
        (TINY_RUN, tuple(Modality), ("lda.lda_fit.calls", "features.pca_fit.calls")),
        (
            TINY_LSTM_RUN,
            (Modality.MOTION,),
            ("evaluation.fit_lstm_ensemble.self_s", "lstm.predict_proba_batch.calls"),
        ),
    ],
    ids=["eeg-fusion-lda", "motion-lstm"],
)
def test_a_traced_run_measures_every_layer(tmp_path, config, modalities, counted):
    # What the benchmark's traced run does, on a tiny dataset at --jobs 1 so
    # that every span is recorded in one process: a traced name the tracer
    # cannot find, or a hook that fails on a real result, would leave the
    # benchmark's result line with null metrics or without a result line.
    generate_dataset(
        SynthProfile(participants=1, trials_per_condition=6, modalities=modalities, seed=3),
        tmp_path / "data",
    )
    (tmp_path / "config.txt").write_text(config)
    src = str(Path(handover_intent.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    args = ["run", "--config", "config.txt", "--jobs", "1", "--out", "out"]
    done = subprocess.run(
        [sys.executable, str(TRACER.parent / "traced_cli.py"), "spans.json", *args],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert spans["missing"] == []
    # evaluation.write_csv.self_s sums over the writers the program has, so it
    # stays measured when one of them is no longer called; every writer and
    # both summary functions must record a span of their own.
    tracer = load_tracer()
    summaries = ("evaluation.aggregate_participants", "evaluation.detection_latency_table")
    called = {span["name"] for span in spans["spans"]}
    assert [name for name in (*tracer.CSV_WRITERS, *summaries) if name not in called] == []
    metrics = tracer.layer_metrics(tmp_path / "spans.json")
    assert [name for name, (value, _) in metrics.items() if value is None] == []
    assert [name for name in counted if not metrics[name][0] > 0] == []
