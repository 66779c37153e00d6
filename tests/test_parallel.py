"""The participant process pool and the process-level setup it relies on:
one BLAS thread per process, and no scipy import at CLI start-up or for EEG
features."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import handover_intent
from handover_intent import BLAS_THREAD_VARS
from handover_intent.cli import main

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


def run(base: Path, jobs: int, out: str) -> int:
    return main(
        ["run", "--config", str(base / "config.txt"), "--jobs", str(jobs), "--out", str(base / out)]
    )


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
        assert [m["environment"]["workers"] for m in meta] == [1, 2]

    def test_malformed_csv_of_one_participant_exits_1_naming_the_file(
        self, fusion_dataset, capsys
    ):
        base = fusion_dataset
        bad = base / "data" / "gaze" / "p02_t003.csv"
        assert bad.is_file()
        lines = bad.read_text().splitlines()
        lines[5] = lines[5].replace(",", ",oops", 1)
        bad.write_text("\n".join(lines) + "\n")
        assert run(base, 2, "out") == 1
        err = capsys.readouterr().err
        assert "dataset load" in err and str(bad) in err

    def test_feature_error_in_a_worker_names_participant_and_view(self, tmp_path, capsys):
        (tmp_path / "profile.txt").write_text(
            "[synth]\nparticipants = 2\ntrials_per_condition = 4\nmodalities = eeg\nseed = 3\n"
        )
        data = tmp_path / "data"
        assert main(["synth", "--profile", str(tmp_path / "profile.txt"), "--out", str(data)]) == 0
        # Undeclare the montage so that loading accepts a recording that
        # lacks a channel, then drop Cz from one of participant 2's trials.
        manifest = data / "manifest.txt"
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(x for x in lines if not x.startswith("eeg_channels")) + "\n")
        trial = data / "eeg" / "p02_t000.csv"
        header, body = trial.read_text().split("\n", 1)
        trial.write_text(header.replace(",Cz,", ",Cx,") + "\n" + body)
        (tmp_path / "config.txt").write_text(
            "[dataset]\nroot = ./data\n"
            "[experiment]\nmodalities = eeg\nmodel = lda\nseed = 1\nmin_trials = 10\n"
            "[cv]\nfolds = 2\nrepeats = 1\n"
            "[windows]\nfirst_end_s = 0.0\nlast_end_s = 1.0\nstep_s = 1.0\n"
            "[features]\ntf_freq_lo_hz = 8\ntf_freq_hi_hz = 10\n"
            "[output]\ndir = ./out\n"
        )
        assert run(tmp_path, 2, "out") == 1
        err = capsys.readouterr().err
        assert "participant 2, eeg features: channels ['Cz'] not in the recording" in err


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
            "from handover_intent.core_data import Condition, RawEeg, TrialRecording\n"
            "from handover_intent.features import DEFAULT_EEG_CHANNELS, build_eeg_features\n"
            "samples = np.random.default_rng(0).normal(size=(12, 2751))\n"
            "eeg = RawEeg(250.0, DEFAULT_EEG_CHANNELS, samples, -5.5)\n"
            "trial = TrialRecording(1, 0, Condition.HANDOVER, 0.0, eeg=eeg)\n"
            "print(build_eeg_features(trial).series.values.shape)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.signal')))"
        )
        assert python(code).splitlines() == ["(212, 36)", "[]"]

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
