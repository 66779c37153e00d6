import json
import sys

import numpy as np
import pytest

from handover_intent import config
from handover_intent.cli import main
from handover_intent.config import (
    ConfigError,
    parse_config,
    parse_config_text,
    validate_config,
    with_overrides,
)
from handover_intent.core_data import Modality, complete_trials, load_dataset, labeled
from handover_intent.fusion import FusionMode
from handover_intent.synth import SynthProfile, generate_dataset, parse_profile

MINIMAL_CONFIG = """
[dataset]
root = ./data

[experiment]
modalities = gaze
model = lda
seed = 7

[output]
dir = ./out
"""

# Every key set to the default the dataclasses define, except the keys whose
# default is "not set", which no value can write.
EVERY_KEY_AT_ITS_DEFAULT = """
[dataset]
root = ./data
manifest = ./data/manifest.txt

[experiment]
modalities = gaze
model = lda
seed = 7
min_trials = 60

[cv]
folds = 10
repeats = 3
inner_folds = 10

[windows]
start_s = -5.0
first_end_s = -4.75
last_end_s = 6.0
step_s = 0.25

[features]
eeg_channels = Cz,C3,C4,FC1,FC2,FC5,FC6,CP1,CP2,F3,F4,Fz
tf_freq_lo_hz = 5
tf_freq_hi_hz = 40
tf_cycles = 3.0
tf_output_step_s = 0.05
tf_log_power = false
standardize_all = false
eeg_pca_target = 0.99
lda_shrinkage = 1e-4

[fusion]
modes =

[output]
dir = ./out
"""
UNSET_BY_DEFAULT = {
    ("features", "cache_dir"),
    ("fusion", "modalities"),
}


def written_keys(text):
    keys, section = set(), None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line.strip("[]")
        elif "=" in line:
            keys.add((section, line.partition("=")[0].strip()))
    return keys


class TestConfigParsing:
    def test_minimal_config_and_defaults(self, tmp_path):
        cfg = parse_config_text(MINIMAL_CONFIG, base_dir=tmp_path)
        assert cfg.modalities == (Modality.GAZE,)
        assert cfg.model == "lda"
        assert cfg.seed == 7
        assert cfg.min_trials == 60
        assert (cfg.cv_folds, cfg.cv_repeats) == (10, 3)
        assert cfg.grid.end_times().shape[0] == 44
        assert cfg.dataset_root == tmp_path / "data"
        assert cfg.fusion_modes == ()

    def test_every_key_at_its_default_equals_the_minimal_config(self, tmp_path):
        assert written_keys(EVERY_KEY_AT_ITS_DEFAULT) | UNSET_BY_DEFAULT == set(config._KEYS)
        full = parse_config_text(EVERY_KEY_AT_ITS_DEFAULT, base_dir=tmp_path)
        assert full == parse_config_text(MINIMAL_CONFIG, base_dir=tmp_path)

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match=r"\[experiment\] seed"):
            parse_config_text(MINIMAL_CONFIG.replace("seed = 7", ""))

    def test_unknown_key_reports_line_number(self):
        text = MINIMAL_CONFIG + "\n[experiment]\nbogus = 1\n"
        with pytest.raises(ConfigError, match=r":\d+: unknown key \[experiment\] bogus"):
            parse_config_text(text)

    def test_removed_fusion_pca_target_is_an_unknown_key(self):
        # EEG PCA has one target, [features] eeg_pca_target, for every view,
        # and it is range-checked.
        text = MINIMAL_CONFIG + "\n[fusion]\neeg_pca_target = 0.9\n"
        line = text.splitlines().index("eeg_pca_target = 0.9") + 1
        with pytest.raises(
            ConfigError, match=rf"^<config>:{line}: unknown key \[fusion\] eeg_pca_target"
        ):
            parse_config_text(text)
        out_of_range = MINIMAL_CONFIG + "\n[features]\neeg_pca_target = 0.0\n"
        with pytest.raises(ConfigError, match=r"\[features\] eeg_pca_target must be in"):
            parse_config_text(out_of_range)

    def test_bad_value_reports_line_number(self):
        text = MINIMAL_CONFIG.replace("seed = 7", "seed = banana")
        with pytest.raises(ConfigError, match=r":\d+: \[experiment\] seed"):
            parse_config_text(text)

    def test_invalid_window_grid_names_the_section(self):
        text = MINIMAL_CONFIG + "\n[windows]\nstep_s = -1.0\n"
        with pytest.raises(ConfigError, match=r"\[windows\]"):
            parse_config_text(text)

    def test_model_restricted(self):
        with pytest.raises(ConfigError, match="lda or lstm"):
            parse_config_text(MINIMAL_CONFIG.replace("model = lda", "model = svm"))

    def test_fusion_section(self):
        text = MINIMAL_CONFIG + "\n[fusion]\nmodes = early,late\nmodalities = gaze,motion\n"
        cfg = parse_config_text(text)
        assert cfg.fusion_modes == (FusionMode.EARLY, FusionMode.LATE)
        specs = cfg.fusion_specs()
        assert [s.tag() for s in specs] == ["early:gaze+motion", "late:gaze+motion"]

    def test_fusion_needs_two_modalities(self):
        text = MINIMAL_CONFIG + "\n[fusion]\nmodes = late\nmodalities = gaze\n"
        with pytest.raises(ConfigError, match="two modalities"):
            parse_config_text(text)

    def test_validate_config_checks_paths(self, tmp_path):
        cfg = parse_config_text(MINIMAL_CONFIG, base_dir=tmp_path)
        with pytest.raises(ConfigError, match="root does not exist"):
            validate_config(cfg)
        (tmp_path / "data").mkdir()
        with pytest.raises(ConfigError, match="manifest"):
            validate_config(cfg)

    def test_overrides(self, tmp_path):
        cfg = parse_config_text(MINIMAL_CONFIG, base_dir=tmp_path)
        cfg2 = with_overrides(cfg, seed=99, out_dir=tmp_path / "elsewhere")
        assert cfg2.seed == 99
        assert cfg2.out_dir == tmp_path / "elsewhere"
        assert cfg.seed == 7  # original untouched

    def test_duplicate_key_rejected(self):
        text = MINIMAL_CONFIG + "\n[experiment]\nseed = 8\n"
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text(text)


class TestSynth:
    def test_profile_parsing(self, tmp_path):
        path = tmp_path / "profile.txt"
        path.write_text(
            "[synth]\nparticipants = 3\ntrials_per_condition = 4\n"
            "modalities = gaze,motion\nseed = 5\n"
            "[gaze]\ninjection_time_s = 0.5\neffect_px = 25.0\n"
        )
        profile = parse_profile(path)
        assert profile.participants == 3
        assert profile.modalities == (Modality.GAZE, Modality.MOTION)
        assert profile.gaze_injection_time_s == 0.5
        assert profile.gaze_effect_px == 25.0

    def test_unknown_profile_key_rejected(self, tmp_path):
        path = tmp_path / "profile.txt"
        path.write_text("[synth]\nwat = 1\n")
        with pytest.raises(ValueError, match="unknown key"):
            parse_profile(path)

    def test_duplicate_profile_key_names_its_line(self, tmp_path):
        path = tmp_path / "profile.txt"
        path.write_text("[synth]\nseed = 1\n\n[synth]\nseed = 2\n")
        with pytest.raises(ValueError, match=r"profile\.txt:5: duplicate key \[synth\] seed"):
            parse_profile(path)

    def test_generated_dataset_is_loadable_and_gated(self, tmp_path):
        profile = SynthProfile(
            participants=2, trials_per_condition=4, seed=3,
            modalities=(Modality.GAZE, Modality.MOTION),
        )
        manifest = generate_dataset(profile, tmp_path)
        trials = load_dataset(tmp_path, manifest)
        assert len(trials) == 2 * 12
        for pid in (1, 2):
            own = [lt for lt in labeled(trials) if lt.trial.participant_id == pid]
            assert len(complete_trials(own, {Modality.GAZE, Modality.MOTION})) == 12
        truth = json.loads((tmp_path / "ground_truth.json").read_text())
        assert truth["injection_time_s"]["gaze"] == 1.0
        assert truth["seed"] == 3

    def test_eeg_generation_round_trips(self, tmp_path):
        profile = SynthProfile(
            participants=1, trials_per_condition=1, seed=1, modalities=(Modality.EEG,)
        )
        manifest = generate_dataset(profile, tmp_path)
        trials = load_dataset(tmp_path, manifest)
        assert trials[0].eeg is not None
        assert trials[0].eeg.sample_rate_hz == pytest.approx(250.0)
        assert len(trials[0].eeg.channel_names) == 12

    def test_two_seeds_differ(self, tmp_path):
        a = generate_dataset(SynthProfile(participants=1, trials_per_condition=1, seed=1),
                             tmp_path / "a")
        b = generate_dataset(SynthProfile(participants=1, trials_per_condition=1, seed=2),
                             tmp_path / "b")
        ga = (tmp_path / "a/gaze/p01_t000.csv").read_text()
        gb = (tmp_path / "b/gaze/p01_t000.csv").read_text()
        assert ga != gb


def write_experiment(tmp_path, extra=""):
    profile = tmp_path / "profile.txt"
    profile.write_text(
        "[synth]\nparticipants = 2\ntrials_per_condition = 6\nmodalities = gaze\nseed = 11\n"
        "[gaze]\ninjection_time_s = 1.0\neffect_px = 40.0\n"
    )
    config = tmp_path / "config.txt"
    config.write_text(
        "[dataset]\nroot = ./data\n"
        "[experiment]\nmodalities = gaze\nmodel = lda\nseed = 7\nmin_trials = 10\n"
        "[cv]\nfolds = 3\nrepeats = 1\n"
        "[windows]\nfirst_end_s = -4.75\nlast_end_s = 6.0\nstep_s = 0.25\n"
        "[output]\ndir = ./out\n" + extra
    )
    return profile, config


class TestCli:
    def test_full_run_produces_expected_files(self, tmp_path, capsys):
        profile, config = write_experiment(tmp_path)
        assert main(["synth", "--profile", str(profile), "--out", str(tmp_path / "data")]) == 0
        assert main(["run", "--config", str(config)]) == 0
        out = tmp_path / "out"
        assert (out / "results.csv").is_file()
        assert (out / "aggregate.csv").is_file()
        assert (out / "latency_lda.csv").is_file()
        assert (out / "run_metadata.json").is_file()
        timelines = sorted((out / "timelines").glob("*.csv"))
        assert len(timelines) == 2  # one per participant
        for path in timelines:
            assert len(path.read_text().splitlines()) == 45  # header + 44 windows

    def test_invalid_config_exits_2_and_names_the_field(self, tmp_path, capsys):
        profile, config = write_experiment(tmp_path, extra="[windows]\nstep_s = 0.3\n")
        code = main(["run", "--config", str(config)])
        err = capsys.readouterr().err
        assert code == 2
        assert "duplicate key" in err or "windows" in err

    def test_missing_dataset_exits_2(self, tmp_path, capsys):
        _, config = write_experiment(tmp_path)
        assert main(["run", "--config", str(config)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_validate_config_subcommand(self, tmp_path, capsys):
        profile, config = write_experiment(tmp_path)
        main(["synth", "--profile", str(profile), "--out", str(tmp_path / "data")])
        assert main(["validate-config", "--config", str(config)]) == 0
        bad = tmp_path / "bad.txt"
        bad.write_text("[experiment]\nmodel = lda\n")
        assert main(["validate-config", "--config", str(bad)]) == 2

    def test_gating_failure_exits_1(self, tmp_path, capsys):
        profile, config = write_experiment(tmp_path)
        main(["synth", "--profile", str(profile), "--out", str(tmp_path / "data")])
        strict = tmp_path / "strict.txt"
        strict.write_text(
            config.read_text().replace("min_trials = 10", "min_trials = 1000")
        )
        assert main(["run", "--config", str(strict)]) == 1
        assert "gating" in capsys.readouterr().err

    def test_report_emits_figure_data_with_ordered_bands(self, tmp_path):
        profile, config = write_experiment(tmp_path)
        main(["synth", "--profile", str(profile), "--out", str(tmp_path / "data")])
        main(["run", "--config", str(config)])
        assert main(["report", "--results", str(tmp_path / "out")]) == 0
        fig = tmp_path / "out/figures/figure_lda.csv"
        lines = fig.read_text().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["window_end_s", "onset_s"]
        assert header[2:] == ["gaze_q25", "gaze_median", "gaze_q75"]
        for line in lines[1:]:
            cells = [float(c) for c in line.split(",")]
            assert cells[1] == 0.0
            q25, med, q75 = cells[2], cells[3], cells[4]
            assert q25 <= med <= q75

    def test_report_missing_inputs_exits_1(self, tmp_path, capsys):
        assert main(["report", "--results", str(tmp_path)]) == 1
        assert "results.csv" in capsys.readouterr().err

    def test_convert_dataset_subcommand(self, tmp_path, capsys):
        src = tmp_path / "src/sub-1"
        src.mkdir(parents=True)
        from handover_intent.core_data import MOTION_COLUMNS, write_trial_csv
        from conftest import grid_times

        t = grid_times(-5.0, 2.0, 6.0)
        write_trial_csv(src / "trial-0_Handover.motion.csv", t,
                        np.ones((t.shape[0], 3)), MOTION_COLUMNS)
        assert main(["convert-dataset", "--source", str(tmp_path / "src"),
                     "--out", str(tmp_path / "converted")]) == 0
        assert (tmp_path / "converted/manifest.txt").is_file()
        assert main(["convert-dataset", "--source", str(tmp_path / "empty"),
                     "--out", str(tmp_path / "x")]) == 1

    def test_seed_override_changes_results(self, tmp_path):
        profile, config = write_experiment(tmp_path)
        main(["synth", "--profile", str(profile), "--out", str(tmp_path / "data")])
        main(["run", "--config", str(config), "--out", str(tmp_path / "o1")])
        main(["run", "--config", str(config), "--out", str(tmp_path / "o2"),
              "--seed", "123"])
        a = (tmp_path / "o1/results.csv").read_text()
        b = (tmp_path / "o2/results.csv").read_text()
        assert a != b

    def test_metadata_replay_reproduces_results_byte_for_byte(self, tmp_path):
        profile, config = write_experiment(tmp_path)
        main(["synth", "--profile", str(profile), "--out", str(tmp_path / "data")])
        main(["run", "--config", str(config), "--out", str(tmp_path / "o1")])
        metadata = json.loads((tmp_path / "o1/run_metadata.json").read_text())
        replay_cfg = tmp_path / "replay.txt"
        replay_cfg.write_text(metadata["config_text"])
        main(["run", "--config", str(replay_cfg), "--out", str(tmp_path / "o2")])
        assert (tmp_path / "o1/results.csv").read_bytes() == (
            tmp_path / "o2/results.csv"
        ).read_bytes()
        assert (tmp_path / "o1/latency_lda.csv").read_bytes() == (
            tmp_path / "o2/latency_lda.csv"
        ).read_bytes()


class TestLstmPipeline:
    def test_lstm_run_with_nested_cv(self, tmp_path):
        profile = tmp_path / "profile.txt"
        profile.write_text(
            "[synth]\nparticipants = 1\ntrials_per_condition = 6\n"
            "modalities = gaze\nseed = 8\n"
            "[gaze]\ninjection_time_s = -5.0\neffect_px = 60.0\n"
        )
        config = tmp_path / "config.txt"
        config.write_text(
            "[dataset]\nroot = ./data\n"
            "[experiment]\nmodalities = gaze\nmodel = lstm\nseed = 3\nmin_trials = 10\n"
            "[cv]\nfolds = 2\nrepeats = 1\ninner_folds = 2\n"
            "[windows]\nfirst_end_s = -4.0\nlast_end_s = -4.0\nstep_s = 0.25\n"
            "[output]\ndir = ./out\n"
        )
        assert main(["synth", "--profile", str(profile), "--out", str(tmp_path / "data")]) == 0
        assert main(["run", "--config", str(config)]) == 0
        text = (tmp_path / "out/results.csv").read_text()
        lines = text.splitlines()
        assert len(lines) == 2  # header + the single window
        cells = lines[1].split(",")
        assert cells[1] == "gaze" and cells[2] == "lstm"
        auc = float(cells[4])
        assert auc > 0.8  # signal present from the epoch start


class TestFusionPipeline:
    def test_fusion_run_writes_tagged_outputs(self, tmp_path):
        profile = tmp_path / "profile.txt"
        profile.write_text(
            "[synth]\nparticipants = 1\ntrials_per_condition = 6\n"
            "modalities = gaze,motion\nseed = 4\n"
        )
        config = tmp_path / "config.txt"
        config.write_text(
            "[dataset]\nroot = ./data\n"
            "[experiment]\nmodalities = gaze,motion\nmodel = lda\nseed = 2\nmin_trials = 10\n"
            "[cv]\nfolds = 3\nrepeats = 1\n"
            "[windows]\nfirst_end_s = 0.0\nlast_end_s = 2.0\nstep_s = 1.0\n"
            "[fusion]\nmodes = early,late\nmodalities = gaze,motion\n"
            "[output]\ndir = ./out\n"
        )
        assert main(["synth", "--profile", str(profile), "--out", str(tmp_path / "data")]) == 0
        assert main(["run", "--config", str(config)]) == 0
        text = (tmp_path / "out/results.csv").read_text()
        assert "early:gaze+motion" in text
        assert "late:gaze+motion" in text
        metadata = json.loads((tmp_path / "out/run_metadata.json").read_text())
        tags = set(metadata["participants_by_tag"])
        assert {"gaze", "motion", "early:gaze+motion", "late:gaze+motion"} <= tags
        audits = metadata["fusion_audits"]
        assert any(a["records"]["early_fused_dims"] for a in audits)

    def test_make_splits_runs_once_per_participant_and_view(self, tmp_path, monkeypatch):
        import handover_intent.evaluation as evaluation

        original = evaluation.make_splits
        seeds = []

        def counting(labels, scheme):
            seeds.append(scheme.seed)
            return original(labels, scheme)

        for name, module in list(sys.modules.items()):
            bound = getattr(module, "make_splits", None)
            if name.startswith("handover_intent") and bound is original:
                monkeypatch.setattr(module, "make_splits", counting)
        profile = tmp_path / "profile.txt"
        profile.write_text(
            "[synth]\nparticipants = 2\ntrials_per_condition = 6\n"
            "modalities = gaze,motion\nseed = 4\n"
        )
        config = tmp_path / "config.txt"
        config.write_text(
            "[dataset]\nroot = ./data\n"
            "[experiment]\nmodalities = gaze\nmodel = lda\nseed = 2\nmin_trials = 10\n"
            "[cv]\nfolds = 3\nrepeats = 1\n"
            "[windows]\nfirst_end_s = 0.0\nlast_end_s = 3.0\nstep_s = 1.0\n"
            "[fusion]\nmodes = early,late\nmodalities = gaze,motion\n"
            "[output]\ndir = ./out\n"
        )
        assert main(["synth", "--profile", str(profile), "--out", str(tmp_path / "data")]) == 0
        assert main(["run", "--config", str(config), "--jobs", "1"]) == 0
        # gaze, early:gaze+motion and late:gaze+motion for each of 2 participants,
        # each with its own CV seed.
        assert len(seeds) == len(set(seeds)) == 2 * 3

    def test_corruption_rule_runs_once_per_trial_and_view(self, tmp_path, monkeypatch):
        import handover_intent.core_data as core_data

        original = core_data.is_uncorrupted
        calls = []

        def counting(trial, modality, *args):
            calls.append((trial.trial_id, modality))
            return original(trial, modality, *args)

        monkeypatch.setattr(core_data, "is_uncorrupted", counting)
        profile = tmp_path / "profile.txt"
        profile.write_text(
            "[synth]\nparticipants = 1\ntrials_per_condition = 6\n"
            "modalities = gaze,motion\nseed = 4\n"
        )
        config = tmp_path / "config.txt"
        config.write_text(
            "[dataset]\nroot = ./data\n"
            "[experiment]\nmodalities = gaze,motion\nmodel = lda\nseed = 2\nmin_trials = 10\n"
            "[cv]\nfolds = 3\nrepeats = 1\n"
            "[windows]\nfirst_end_s = 0.0\nlast_end_s = 1.0\nstep_s = 1.0\n"
            "[fusion]\nmodes = early,late\nmodalities = gaze,motion\n"
            "[output]\ndir = ./out\n"
        )
        assert main(["synth", "--profile", str(profile), "--out", str(tmp_path / "data")]) == 0
        assert main(["run", "--config", str(config), "--jobs", "1"]) == 0
        # 18 trials; views gaze, motion, early:gaze+motion and late:gaze+motion
        # check one, one, two and two modalities per trial, once each.
        assert len(calls) == 18 * (1 + 1 + 2 + 2)
