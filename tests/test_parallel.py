"""The process pools of a run (slices of the manifest's trials, then
windows) and the process-level setup they rely on: one BLAS thread per
process, and no scipy or process-pool import at CLI start-up, no scipy.signal
for EEG features, no scipy.linalg for LDA fits and no scipy.stats for the
latency table's ANOVA."""

import concurrent.futures
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import handover_intent
from handover_intent import BLAS_THREAD_VARS, pipeline
from handover_intent.cli import main
from handover_intent.config import parse_config
from handover_intent.classifiers import lda_recipe_for
from handover_intent.core_data import Modality, load_dataset
from handover_intent.features import build_gaze_features, build_motion_features
from handover_intent.fusion import FusionMode
from handover_intent.rng import derive_seed

from conftest import complete_trials, sweep_view

SRC = Path(handover_intent.__file__).resolve().parents[1]

PROFILE = """[synth]
participants = 3
trials_per_condition = 6
modalities = gaze,motion
seed = 13
"""

CONFIG = """[dataset]
root = ./data

[experiment]
modalities = gaze,motion
model = lda
seed = 5
min_trials = 10

[cv]
folds = 3
repeats = 1

[windows]
first_end_s = 0.0
last_end_s = 2.0
step_s = 1.0

[fusion]
modes = early,late
modalities = gaze,motion

[output]
dir = ./out
"""


def csv_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*.csv"))}


@pytest.fixture
def fusion_dataset(tmp_path):
    (tmp_path / "profile.txt").write_text(PROFILE)
    (tmp_path / "config.txt").write_text(CONFIG)
    synth = ["synth", "--profile", str(tmp_path / "profile.txt"), "--out", str(tmp_path / "data")]
    assert main(synth) == 0
    return tmp_path


def malform(path: Path) -> Path:
    """Corrupt one number on line 6 of a trial CSV."""
    lines = path.read_text().splitlines()
    lines[5] = lines[5].replace(",", ",oops", 1)
    path.write_text("\n".join(lines) + "\n")
    return path


def run(base: Path, jobs: int, out: str) -> int:
    return main(
        ["run", "--config", str(base / "config.txt"), "--jobs", str(jobs), "--out", str(base / out)]
    )


def eeg_dataset(base: Path, participants: int) -> Path:
    """A small EEG dataset whose manifest declares no montage, so that loading
    accepts a recording that lacks a channel, and an EEG LDA config."""
    (base / "profile.txt").write_text(
        f"[synth]\nparticipants = {participants}\ntrials_per_condition = 4\n"
        "modalities = eeg\nseed = 3\n"
    )
    data = base / "data"
    assert main(["synth", "--profile", str(base / "profile.txt"), "--out", str(data)]) == 0
    manifest = data / "manifest.txt"
    lines = manifest.read_text().splitlines()
    manifest.write_text("\n".join(x for x in lines if not x.startswith("eeg_channels")) + "\n")
    (base / "config.txt").write_text(
        "[dataset]\nroot = ./data\n"
        "[experiment]\nmodalities = eeg\nmodel = lda\nseed = 1\nmin_trials = 10\n"
        "[cv]\nfolds = 2\nrepeats = 1\n"
        "[windows]\nfirst_end_s = 0.0\nlast_end_s = 1.0\nstep_s = 1.0\n"
        "[features]\ntf_freq_lo_hz = 8\ntf_freq_hi_hz = 10\n"
        "[output]\ndir = ./out\n"
    )
    return data


def rename_channel(trial: Path, channel: str) -> None:
    """Rename one channel of an EEG trial CSV, so the trial lacks it."""
    header, body = trial.read_text().split("\n", 1)
    names = header.split(",")
    names[names.index(channel)] = channel + "x"
    trial.write_text(",".join(names) + "\n" + body)


class TestParticipantPool:
    def test_jobs_do_not_change_outputs(self, fusion_dataset):
        base = fusion_dataset
        assert run(base, 1, "serial") == 0
        assert run(base, 2, "pooled") == 0
        serial = csv_bytes(base / "serial")
        assert len(serial) == 3 + 3 * 4  # results, aggregate, latency + timelines
        assert serial == csv_bytes(base / "pooled")
        meta = [
            json.loads((base / out / "run_metadata.json").read_text())
            for out in ("serial", "pooled")
        ]
        assert meta[0]["fusion_audits"] == meta[1]["fusion_audits"]
        assert [a["participant"] for a in meta[0]["fusion_audits"]] == [1, 2, 3, 1, 2, 3]
        assert meta[0]["participants_by_tag"] == meta[1]["participants_by_tag"]
        assert [m["environment"]["workers"] for m in meta] == [
            {"prepare": 1, "evaluate": 1},
            {"prepare": 2, "evaluate": 2},
        ]

    def test_malformed_csv_of_one_participant_exits_1_naming_the_file(
        self, fusion_dataset, capsys
    ):
        base = fusion_dataset
        bad = malform(base / "data" / "gaze" / "p02_t003.csv")
        assert run(base, 2, "out") == 1
        err = capsys.readouterr().err
        assert "dataset load" in err and str(bad) in err

    def test_first_load_error_in_manifest_order_is_raised(self, fusion_dataset, capsys):
        # At --jobs 2 the manifest's 54 trials are cut into entries 0-26 and
        # 27-53, so both slices have a bad file and fail, each in its own task.
        base = fusion_dataset
        first = malform(base / "data" / "motion" / "p01_t012.csv")
        malform(base / "data" / "gaze" / "p01_t015.csv")
        later = malform(base / "data" / "gaze" / "p03_t003.csv")
        for jobs in (1, 2):
            assert run(base, jobs, f"out{jobs}") == 1
            err = capsys.readouterr().err
            assert f"dataset load: {first}:6: bad numeric value" in err
            assert str(later) not in err

    def test_feature_error_in_a_worker_names_participant_and_view(self, tmp_path, capsys):
        data = eeg_dataset(tmp_path, participants=2)
        rename_channel(data / "eeg" / "p02_t000.csv", "Cz")
        assert run(tmp_path, 2, "out") == 1
        err = capsys.readouterr().err
        assert "participant 2, eeg features: channels ['Cz'] not in the recording" in err

    def test_feature_errors_in_slices_are_raised_in_trial_order(self, tmp_path, capsys):
        # One participant's 12 trials, cut into trials 0-5 and 6-11 at --jobs 2.
        data = eeg_dataset(tmp_path, participants=1)

        def error_lines():
            lines = []
            for jobs in (1, 2):
                assert run(tmp_path, jobs, "out") == 1
                lines.append(capsys.readouterr().err.strip().splitlines()[-1])
            return lines

        rename_channel(data / "eeg" / "p01_t010.csv", "Cz")
        serial, pooled = error_lines()
        assert serial == pooled
        assert "participant 1, eeg features: channels ['Cz'] not in the recording" in serial
        rename_channel(data / "eeg" / "p01_t004.csv", "C3")  # earlier, in the first slice
        serial, pooled = error_lines()
        assert serial == pooled
        assert "participant 1, eeg features: channels ['C3'] not in the recording" in serial


LSTM_CONFIG = """[dataset]
root = ./data

[experiment]
modalities = motion
model = lstm
seed = 9
min_trials = {min_trials}

[cv]
folds = {folds}
repeats = 1
inner_folds = 2

[windows]
start_s = -0.5
first_end_s = 0.0
last_end_s = 1.0
step_s = 0.5

[output]
dir = ./out
"""


def one_participant_lstm(base: Path, trials_per_condition: int, folds: int) -> Path:
    (base / "profile.txt").write_text(
        "[synth]\nparticipants = 1\nmodalities = motion\nseed = 4\n"
        f"trials_per_condition = {trials_per_condition}\n"
    )
    (base / "config.txt").write_text(
        LSTM_CONFIG.format(min_trials=3 * trials_per_condition, folds=folds)
    )
    assert main(["synth", "--profile", str(base / "profile.txt"), "--out", str(base / "data")]) == 0
    return base


def window_errors_and_workers(out: Path):
    meta = json.loads((out / "run_metadata.json").read_text())
    return meta["window_errors"], meta["environment"]["workers"]


class TestWindowPool:
    def test_jobs_do_not_change_a_one_participant_lstm_run(self, tmp_path):
        base = one_participant_lstm(tmp_path, trials_per_condition=8, folds=2)
        assert run(base, 1, "serial") == 0
        assert run(base, 2, "pooled") == 0
        serial = csv_bytes(base / "serial")
        assert len(serial) == 4  # results, aggregate, latency, one timeline
        assert serial == csv_bytes(base / "pooled")
        errors, workers = window_errors_and_workers(base / "serial")
        assert errors == []
        assert workers == {"prepare": 1, "evaluate": 1}
        errors, workers = window_errors_and_workers(base / "pooled")
        assert errors == []
        # One participant's trials in two slices; two CV splits, so two tasks.
        assert workers == {"prepare": 2, "evaluate": 2}
        audits = [
            json.loads((base / out / "run_metadata.json").read_text())["lstm_audits"]
            for out in ("serial", "pooled")
        ]
        assert audits[0] == audits[1]
        assert [(a["participant"], a["tag"]) for a in audits[0]] == [(1, "motion")]

    def test_windows_that_all_fail_are_reported_in_grid_order(self, tmp_path):
        # Unshrunk, an LDA window (D >= 75 from the epoch start) wider than
        # its training fold (12 trials) has a singular covariance, so every
        # window fails in split 0.
        base = one_participant_lstm(tmp_path, trials_per_condition=6, folds=3)
        config = base / "config.txt"
        text = config.read_text().replace("model = lstm", "model = lda")
        config.write_text(
            text.replace("start_s = -0.5", "start_s = -5.0") + "[features]\nlda_shrinkage = 0\n"
        )
        assert run(base, 1, "serial") == 0
        assert run(base, 2, "pooled") == 0
        assert csv_bytes(base / "serial") == csv_bytes(base / "pooled")
        serial, _ = window_errors_and_workers(base / "serial")
        pooled, _ = window_errors_and_workers(base / "pooled")
        assert pooled == serial
        assert [e["window_end_s"] for e in serial] == [0.0, 0.5, 1.0]
        assert {e["message"] for e in serial} == {
            "split 0: pooled covariance is singular even after shrinkage; "
            "increase the shrinkage fraction"
        }

    def test_pooled_fusion_views_match_sweep(self, fusion_dataset):
        cfg = replace(parse_config(fusion_dataset / "config.txt"), out_dir=fusion_dataset / "out")
        result = pipeline.run_experiment(cfg, jobs=2)
        pooled = {(t.participant_id, t.tag): t for t in result.timelines}
        trials = load_dataset(cfg.dataset_root, cfg.manifest_path)
        expected_audits = []
        for spec in cfg.fusion:
            tag = spec.tag()
            for pid in (1, 2, 3):
                usable = complete_trials(
                    [t for t in trials if t.participant_id == pid], set(spec.modalities)
                )
                sequences = {
                    Modality.GAZE: [build_gaze_features(t) for t in usable],
                    Modality.MOTION: [build_motion_features(t) for t in usable],
                }
                scheme = replace(cfg.cv, seed=derive_seed(cfg.seed, "cv", tag, pid))
                blocks = [(sequences[m], lda_recipe_for(m)) for m in spec.modalities]
                late = spec.mode is FusionMode.LATE
                swept, scores = sweep_view(blocks, scheme, cfg.grid, late)
                got = pooled[(pid, tag)]
                for name in ("window_end_times_s", "auc", "auc_std", "auc_stderr",
                             "auc_median", "auc_q25", "auc_q75"):
                    np.testing.assert_array_equal(getattr(got, name), getattr(swept, name))
                assert (got.model, got.n_splits, got.errors) == (
                    swept.model, swept.n_splits, swept.errors
                )
                assert None not in scores
                assert all(len(s.fused_dims) == (0 if late else got.n_splits) for s in scores)
                dims = {repr(s.end_time_s): list(s.fused_dims) for s in scores if not late}
                fallbacks = sum(s.weight_fallbacks for s in scores)
                records = {"early_fused_dims": dims, "late_weight_fallbacks": fallbacks}
                expected_audits.append({"participant": pid, "tag": tag, "records": records})
        assert result.metadata["fusion_audits"] == expected_audits

    def test_one_job_starts_no_process(self, fusion_dataset, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was created with --jobs 1")

        # ``pipeline._map`` imports the pool from ``concurrent.futures`` when it forks.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert run(fusion_dataset, 1, "out") == 0


def python(code: str, **env_vars) -> str:
    """Standard output of ``python -c code`` in a fresh interpreter with the
    BLAS thread variables removed, then ``env_vars`` set."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(env_vars)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


class TestProcessSetup:
    def test_cli_import_loads_no_scipy(self):
        code = (
            "import sys, handover_intent.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert python(code) == "[]"

    def test_cli_import_loads_no_process_pool(self):
        # Only a run that forks needs the pool; validate-config, synth,
        # report and --jobs 1 runs never pay for its import.
        code = (
            "import sys, handover_intent.cli\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m in ('concurrent.futures.process', 'multiprocessing')))"
        )
        assert python(code) == "[]"

    def test_latency_table_anova_loads_no_scipy_stats(self):
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from handover_intent.evaluation import AucTimeline, detection_latency_table\n"
            "def timeline(pid, tag, reach_at):\n"
            "    auc = np.full(8, 0.5)\n"
            "    auc[reach_at:] = 0.9\n"
            "    ends = np.arange(8.0)\n"
            "    return AucTimeline(pid, tag, 'lda', ends, auc, auc * 0, auc * 0, auc, auc,\n"
            "                       auc, n_splits=2)\n"
            "tags = {tag: [timeline(pid, tag, at + pid % 2) for pid in (1, 2, 3)]\n"
            "        for tag, at in (('gaze', 1), ('motion', 4))}\n"
            "[row] = detection_latency_table(tags, levels=(0.8,))\n"
            "print(row.anova_p is not None)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
        )
        assert python(code).splitlines() == ["True", "[]"]

    def test_cli_import_loads_every_package_module(self):
        # A module the CLI never imports is code no run can reach.
        code = (
            "import pkgutil, sys, handover_intent, handover_intent.cli\n"
            "print(sorted(m.name for m in pkgutil.iter_modules(handover_intent.__path__)\n"
            "             if f'handover_intent.{m.name}' not in sys.modules))"
        )
        assert python(code) == "[]"

    def test_eeg_features_load_no_scipy_signal(self):
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from handover_intent.core_data import (\n"
            "    Condition, Modality, RawStream, TimeSeries, TrialRecording)\n"
            "from handover_intent.features import DEFAULT_EEG_CHANNELS, build_eeg_features\n"
            "samples = np.random.default_rng(0).normal(size=(12, 2751))\n"
            "eeg = RawStream(TimeSeries(-5.5, 1.0 / 250.0, samples.T), DEFAULT_EEG_CHANNELS)\n"
            "trial = TrialRecording(1, 0, Condition.HANDOVER, 0.0, {Modality.EEG: eeg})\n"
            "print(build_eeg_features(trial).series.values.shape)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.signal')))"
        )
        assert python(code).splitlines() == ["(212, 36)", "[]"]

    def test_lda_sweep_loads_no_scipy_linalg(self):
        # A scipy.linalg import costs every pool worker about 0.2 s.  The
        # windows cover both sides of D = n_train, with and without PCA.
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import handover_intent.cli\n"
            "from handover_intent.classifiers import LdaRecipe\n"
            "from handover_intent.core_data import Modality, TimeSeries\n"
            "from handover_intent.evaluation import CvScheme, sweep\n"
            "from handover_intent.features import FeatureSequence, WindowGrid\n"
            "rng = np.random.default_rng(0)\n"
            "seqs = [FeatureSequence(Modality.EEG, TimeSeries(-1.0, 0.1, rng.normal(size=(20, 4))),\n"
            "                        (1, i), i % 2) for i in range(12)]\n"
            "grid = WindowGrid(start_s=-1.0, first_end_s=-0.9, last_end_s=0.1, step_s=0.5)\n"
            "for recipe in (LdaRecipe(), LdaRecipe(standardize=True, pca_variance_target=0.99)):\n"
            "    timeline = sweep([(seqs, recipe)], CvScheme(k=2, repeats=1, seed=0), grid=grid)\n"
            "    print(np.isfinite(timeline.auc).all())\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))"
        )
        assert python(code).splitlines() == ["True", "True", "[]"]

    def test_import_pins_blas_threads_to_one(self):
        code = (
            "import os, handover_intent\n"
            "print(','.join(os.environ[v] for v in handover_intent.BLAS_THREAD_VARS))"
        )
        assert python(code) == "1,1,1"

    def test_a_value_already_set_is_kept(self):
        code = (
            "import os, handover_intent\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])"
        )
        assert python(code, OPENBLAS_NUM_THREADS="3") == "3 1"
