import json
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from handover_intent import config
from handover_intent.cli import main
from handover_intent.config import (
    ConfigError,
    ExperimentConfig,
    parse_config,
    parse_config_text,
    validate_config,
)
from handover_intent.core_data import Modality, load_dataset, parse_manifest, write_manifest
from handover_intent.dsp import default_tf_spec
from handover_intent.evaluation import TIMELINE_COLUMNS, CvScheme
from handover_intent.fusion import FusionMode
from handover_intent.synth import SynthProfile, generate_dataset, parse_profile

from conftest import complete_trials

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
        assert (cfg.cv.k, cfg.cv.repeats) == (10, 3)
        assert cfg.grid.end_times().shape[0] == 44
        assert cfg.dataset_root == tmp_path / "data"
        assert cfg.fusion == ()

    def test_every_key_at_its_default_equals_the_minimal_config(self, tmp_path):
        assert written_keys(EVERY_KEY_AT_ITS_DEFAULT) | UNSET_BY_DEFAULT == set(config._KEYS)
        full = parse_config_text(EVERY_KEY_AT_ITS_DEFAULT, base_dir=tmp_path)
        assert full == parse_config_text(MINIMAL_CONFIG, base_dir=tmp_path)

    def test_unset_parts_take_the_dataclass_defaults(self, tmp_path):
        # Each built part has one default: its builder called with no keys.
        cfg = parse_config_text(MINIMAL_CONFIG, base_dir=tmp_path)
        bare = ExperimentConfig(
            dataset_root=tmp_path / "data",
            manifest_path=tmp_path / "data" / "manifest.txt",
            modalities=(Modality.GAZE,),
            model="lda",
            seed=7,
            out_dir=tmp_path / "out",
        )
        assert cfg == bare
        assert cfg.cv == CvScheme()
        assert cfg.tf == default_tf_spec()
        assert cfg.tf.freqs_hz == tuple(float(f) for f in range(5, 41))

    def test_docstring_example_parses(self, tmp_path):
        doc = config.__doc__
        lines = doc[doc.index("Example::") :].splitlines()[2:]
        end = next(i for i, t in enumerate(lines) if t and not t.startswith("    "))
        example = textwrap.dedent("\n".join(lines[:end]))
        cfg = parse_config_text(example, base_dir=tmp_path)
        assert cfg.out_dir == tmp_path / "out"  # the example's last line
        assert (cfg.cv.k, cfg.cv.repeats) == (10, 3)
        assert [s.tag() for s in cfg.fusion] == ["early:gaze+motion", "late:gaze+motion"]

    @pytest.mark.parametrize(
        "section, keys, message",
        [
            ("cv", "folds = 1", "fold counts must be >= 2"),
            ("cv", "inner_folds = 1", "fold counts must be >= 2"),
            ("cv", "repeats = 0", "repeats must be >= 1"),
            ("windows", "step_s = -1.0", "step_s must be positive"),
            ("windows", "last_end_s = 5.9", "last_end_s must lie on the end-time grid"),
            ("features", "tf_freq_lo_hz = 0", "freqs_hz must be non-empty and positive"),
            (
                "features",
                "tf_freq_lo_hz = 12\ntf_freq_hi_hz = 8",
                "freqs_hz must be non-empty and positive",
            ),
            ("features", "tf_cycles = 0", "n_cycles must be positive"),
            ("features", "tf_output_step_s = -0.05", "output_step_s must be positive"),
            ("fusion", "modes = late\nmodalities = gaze", "fusion needs at least two modalities"),
            ("fusion", "modes = early", "fusion needs at least two modalities"),
            # Without modes no fusion view would run, and nothing would say so.
            ("fusion", "modalities = gaze,motion", "modalities given without modes"),
        ],
    )
    def test_bad_part_value_names_the_origin_and_section(self, section, keys, message):
        # The rule of each built part lives in its constructor, whose
        # ValueError is reported against the config file and section.
        with pytest.raises(ConfigError) as info:
            parse_config_text(MINIMAL_CONFIG + f"\n[{section}]\n{keys}\n", origin="c.txt")
        assert str(info.value) == f"c.txt: [{section}] {message}"

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

    @pytest.mark.parametrize(
        "window, got",
        [
            ("start_s = -6.0\nfirst_end_s = -5.5\nlast_end_s = 6.0", "-6.0, -5.5, 6.0"),
            ("last_end_s = 6.5", "-5.0, -4.75, 6.5"),
        ],
        ids=["starts-early", "ends-late"],
    )
    def test_window_grid_outside_the_epoch_is_rejected(self, tmp_path, capsys, window, got):
        # Every such window would fail its coverage check, so the run would
        # write a table of missing windows.
        text = MINIMAL_CONFIG + f"\n[windows]\n{window}\n"
        message = (
            "[windows] need -5.0 <= start < first_end <= last_end <= 6.0 (the epoch), got " + got
        )
        with pytest.raises(ConfigError) as info:
            parse_config_text(text)
        assert str(info.value) == f"<config>: {message}"
        path = tmp_path / "config.txt"
        path.write_text(text)
        assert main(["validate-config", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_model_restricted(self):
        with pytest.raises(ConfigError, match="lda or lstm"):
            parse_config_text(MINIMAL_CONFIG.replace("model = lda", "model = svm"))

    def test_fusion_section(self):
        text = MINIMAL_CONFIG + "\n[fusion]\nmodes = early,late\nmodalities = gaze,motion\n"
        cfg = parse_config_text(text)
        assert [s.mode for s in cfg.fusion] == [FusionMode.EARLY, FusionMode.LATE]
        assert [s.tag() for s in cfg.fusion] == ["early:gaze+motion", "late:gaze+motion"]

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
        cfg2 = replace(cfg, seed=99, out_dir=tmp_path / "elsewhere")
        assert cfg2.seed == 99
        assert cfg2.out_dir == tmp_path / "elsewhere"
        assert cfg.seed == 7  # original untouched

    def test_duplicate_key_rejected(self):
        text = MINIMAL_CONFIG + "\n[experiment]\nseed = 8\n"
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text(text)

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("experiment", "modalities", "gaze,GAZE", "repeated modality gaze"),
            ("fusion", "modalities", "gaze,gaze,motion", "repeated modality gaze"),
            ("fusion", "modes", "early,late,early", "repeated mode early"),
            ("features", "eeg_channels", "Cz,C3,Cz", "repeated channel Cz"),
            ("features", "eeg_channels", "", "empty channel list"),
        ],
    )
    def test_repeated_or_missing_list_item_names_its_line(self, section, key, value, message):
        # A repeated modality or mode would run its view twice, a repeated
        # channel would count twice in the channel average.
        if section == "experiment":
            text = MINIMAL_CONFIG.replace("modalities = gaze", f"modalities = {value}")
        else:
            text = MINIMAL_CONFIG + f"\n[{section}]\n{key} = {value}\n"
        line = max(i for i, t in enumerate(text.splitlines(), 1) if t.startswith(f"{key} ="))
        with pytest.raises(ConfigError) as info:
            parse_config_text(text)
        assert str(info.value) == f"<config>:{line}: [{section}] {key}: {message}"


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

    def test_repeated_profile_modality_names_its_line(self, tmp_path):
        path = tmp_path / "profile.txt"
        path.write_text("[synth]\nseed = 1\nmodalities = gaze,motion,gaze\n")
        with pytest.raises(
            ValueError, match=r"profile\.txt:3: \[synth\] modalities: repeated modality gaze$"
        ):
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
            own = [t for t in trials if t.participant_id == pid]
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
        eeg = trials[0].streams[Modality.EEG]
        assert 1.0 / eeg.series.step_s == pytest.approx(250.0)
        assert len(eeg.columns) == 12

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


def write_three_modality_gaze_experiment(tmp_path):
    """``write_experiment``'s gaze-only config over one participant's synthetic
    EEG, gaze and motion recordings; returns the config and the data directory."""
    profile, config = write_experiment(tmp_path)
    profile.write_text(
        profile.read_text()
        .replace("participants = 2", "participants = 1")
        .replace("modalities = gaze", "modalities = eeg,gaze,motion")
    )
    data = tmp_path / "data"
    assert main(["synth", "--profile", str(profile), "--out", str(data)]) == 0
    return config, data


# One well-formed results.csv row: participant 1, gaze, lda, the window ending at 0.25 s.
ROW = "1,gaze,lda,0.25,0.5,0.1,0.1,0.5,0.4,0.6\n"


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

    @pytest.mark.parametrize("command", ["run", "validate-config"])
    @pytest.mark.parametrize(
        "make, message",
        [
            # A directory cannot be read whatever the user's rights.
            (lambda path: path.mkdir(), "Is a directory"),
            (lambda path: path.write_bytes(b"[dataset]\nroot = \xff\n"), "can't decode"),
        ],
        ids=["directory", "not-utf8"],
    )
    def test_unreadable_config_exits_2(self, tmp_path, capsys, command, make, message):
        config = tmp_path / "config.txt"
        make(config)
        assert main([command, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {config}: ") and message in err

    def test_run_reads_its_config_once_and_records_that_text(self, tmp_path, monkeypatch):
        profile, config = write_experiment(tmp_path)
        main(["synth", "--profile", str(profile), "--out", str(tmp_path / "data")])
        reads = []
        original = Path.read_text

        def counting(self, *args, **kwargs):
            if self == config:
                reads.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting)
        assert main(["run", "--config", str(config)]) == 0
        assert len(reads) == 1
        metadata = json.loads((tmp_path / "out" / "run_metadata.json").read_text())
        assert metadata["config_text"] == config.read_text()

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

    def test_gating_error_names_a_single_modality_or_a_fusion_view(self, tmp_path, capsys):
        profile, config = write_experiment(tmp_path)
        main(["synth", "--profile", str(profile), "--out", str(tmp_path / "data")])
        strict = tmp_path / "strict.txt"
        strict.write_text(config.read_text().replace("min_trials = 10", "min_trials = 1000"))
        assert main(["run", "--config", str(strict)]) == 1
        assert capsys.readouterr().err == (
            "pipeline error: gating: no participant has >= 1000 complete gaze trials\n"
        )
        # The dataset has no motion, so the gaze view passes and the fusion view fails.
        fused = tmp_path / "fused.txt"
        fused.write_text(config.read_text() + "[fusion]\nmodes = late\nmodalities = gaze,motion\n")
        assert main(["run", "--config", str(fused)]) == 1
        assert capsys.readouterr().err == (
            "pipeline error: gating: no participant has >= 10 complete trials for late:gaze+motion\n"
        )

    def test_a_gaze_run_reads_no_eeg_or_motion_file(self, tmp_path):
        config, data = write_three_modality_gaze_experiment(tmp_path)
        # The reference: the same trials with no EEG or motion file listed.
        manifest = parse_manifest(data / "manifest.txt")
        entries = [
            replace(e, paths={Modality.GAZE: e.paths[Modality.GAZE]}) for e in manifest.entries
        ]
        write_manifest(data / "gaze_only.txt", replace(manifest, entries=entries))
        reference = tmp_path / "reference.txt"
        reference.write_text(
            config.read_text()
            .replace("root = ./data\n", "root = ./data\nmanifest = ./data/gaze_only.txt\n")
            .replace("dir = ./out", "dir = ./reference")
        )
        assert main(["run", "--config", str(reference)]) == 0
        # EEG files whose channels and rate differ from the manifest's, and
        # motion files that do not parse.
        for path in (data / "eeg").glob("*.csv"):
            path.write_text("time_s,X\n0.0,1.0\n0.5,1.0\n")
        for path in (data / "motion").glob("*.csv"):
            path.write_text("time_s,hand_x,hand_y,hand_z\n0.0,oops\n")
        assert main(["run", "--config", str(config)]) == 0
        results = (tmp_path / "out" / "results.csv").read_bytes()
        assert results == (tmp_path / "reference" / "results.csv").read_bytes()

    def test_a_trial_with_every_listed_file_missing_stops_a_gaze_run(self, tmp_path, capsys):
        config, data = write_three_modality_gaze_experiment(tmp_path)
        for path in data.glob("*/p01_t003.csv"):
            path.unlink()
        assert main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err.endswith(
            "pipeline error: dataset load: trial (1, 3): no modality stream could be loaded\n"
        )

    def test_repeated_modality_exits_2_before_running(self, tmp_path, capsys):
        profile, config = write_experiment(tmp_path)
        main(["synth", "--profile", str(profile), "--out", str(tmp_path / "data")])
        config.write_text(config.read_text().replace("modalities = gaze", "modalities = gaze,gaze"))
        assert main(["run", "--config", str(config)]) == 2
        assert "repeated modality gaze" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
        # Each band cell is the run's aggregate.csv cell, string for string.
        aggregate = (tmp_path / "out/aggregate.csv").read_text().splitlines()
        assert aggregate[0] == "tag,model,window_end_s,median,q25,q75,n_participants"
        expected = {}
        for line in aggregate[1:]:
            tag, model, end, median, q25, q75, _ = line.split(",")
            if model == "lda":
                expected[(tag, end)] = {"q25": q25, "median": median, "q75": q75}
        figure = {}
        for line in lines[1:]:
            cells = line.split(",")
            for column, cell in zip(header[2:], cells[2:]):
                tag, stat = column.rsplit("_", 1)
                figure.setdefault((tag, cells[0]), {})[stat] = cell
        assert figure == expected

    @pytest.mark.parametrize(
        "command, prefix",
        [("run", "pipeline error: output: "), ("report", "report error: "),
         ("synth", "synth error: ")],
        ids=["run", "report", "synth"],
    )
    def test_output_under_a_regular_file_fails_with_one_line(
        self, tmp_path, capsys, monkeypatch, command, prefix
    ):
        from handover_intent import pipeline

        profile, config = write_experiment(tmp_path)
        assert main(["synth", "--profile", str(profile), "--out", str(tmp_path / "data")]) == 0
        (tmp_path / "results.csv").write_text(",".join(TIMELINE_COLUMNS) + "\n" + ROW)
        (tmp_path / "file").write_text("")
        out = str(tmp_path / "file" / "out")
        monkeypatch.setattr(pipeline, "prepare_views", lambda *args: pytest.fail("work began"))
        capsys.readouterr()
        argv = {
            "run": ["run", "--config", str(config), "--out", out],
            "report": ["report", "--results", str(tmp_path), "--out", out],
            "synth": ["synth", "--profile", str(profile), "--out", out],
        }[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(prefix) and "Not a directory" in err
        assert err.count("\n") == 1

    def test_report_missing_inputs_exits_1(self, tmp_path, capsys):
        assert main(["report", "--results", str(tmp_path)]) == 1
        assert "results.csv" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("1,gaze\n", ":2: expected 10 columns, got 2"),
            ("", ": no rows below the header"),
            (ROW + "1,gaze,lda,0.5,0.5,0.1,0.1,0.5,0.4,0.", ":3: row has no line end"),
            ("1,gaze,lda,0.25,0.5,0.1,0.1,0.5,0.4,\n", ":2: could not convert string to float: ''"),
            ("x" + ROW[1:], ":2: invalid literal for int() with base 10: 'x'"),
            (ROW + ROW.replace("gaze", "motion").replace("0.25", "0.5", 1),
             ": window grids differ between tags"),
            (ROW + ROW.replace("1", "2", 1).replace("0.25", "0.5", 1),
             ": window grids do not match across participants"),
            # The lda rows are sound and come first; no figure is written.
            (ROW + ROW.replace("lda", "lstm") + ROW.replace("gaze,lda,0.25", "motion,lstm,0.5"),
             ": window grids differ between tags"),
            ("1,gaze,lda,0.25,1.5,0.1,0.1,0.5,0.4,0.6\n", ":2: AUC values must lie in [0, 1]"),
        ],
        ids=[
            "cut-short-row",
            "header-only",
            "last-row-without-line-end",
            "empty-cell",
            "participant-not-a-number",
            "tag-grids-differ",
            "participant-grids-differ",
            "second-model-grids-differ",
            "auc-out-of-range",
        ],
    )
    def test_report_on_an_interrupted_results_csv_exits_1(self, tmp_path, capsys, rows, message):
        results = tmp_path / "results.csv"
        results.write_text(",".join(TIMELINE_COLUMNS) + "\n" + rows)
        assert main(["report", "--results", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"report error: {results}{message}\n"
        assert not (tmp_path / "figures").exists()

    def test_negative_seeds_exit_2_before_any_work(self, tmp_path, capsys):
        # numpy's SeedSequence rejects them only once a run or synth is under way.
        profile, config = write_experiment(tmp_path)
        assert main(["synth", "--profile", str(profile), "--out", str(tmp_path / "data")]) == 0
        capsys.readouterr()
        bad_config = tmp_path / "bad_config.txt"
        bad_config.write_text(config.read_text().replace("seed = 7", "seed = -3"))
        bad_profile = tmp_path / "bad_profile.txt"
        bad_profile.write_text(profile.read_text().replace("seed = 11", "seed = -2"))
        cases = [
            (["validate-config", "--config", str(bad_config)],
             f"config error: {bad_config}: [experiment] seed must be >= 0"),
            (["run", "--config", str(bad_config)],
             f"config error: {bad_config}: [experiment] seed must be >= 0"),
            (["run", "--config", str(config), "--seed", "-1"],
             "config error: --seed must be >= 0, got -1"),
            (["synth", "--profile", str(bad_profile), "--out", str(tmp_path / "s1")],
             f"profile error: {bad_profile}: [synth] seed must be >= 0"),
            (["synth", "--profile", str(profile), "--out", str(tmp_path / "s2"), "--seed", "-2"],
             "profile error: --seed must be >= 0, got -2"),
        ]
        for argv, message in cases:
            assert main(argv) == 2, argv
            assert capsys.readouterr().err == message + "\n"
        assert not any((tmp_path / name).exists() for name in ("out", "s1", "s2"))

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_1_exit_2_before_any_work(self, tmp_path, capsys, jobs):
        profile, config = write_experiment(tmp_path)
        assert main(["synth", "--profile", str(profile), "--out", str(tmp_path / "data")]) == 0
        capsys.readouterr()
        assert main(["run", "--config", str(config), "--jobs", jobs]) == 2
        assert capsys.readouterr().err == f"config error: --jobs must be >= 1, got {jobs}\n"
        assert not (tmp_path / "out").exists()

    def test_convert_dataset_subcommand(self, tmp_path, capsys):
        src = tmp_path / "src/sub-1"
        src.mkdir(parents=True)
        from handover_intent.core_data import STREAM_COLUMNS, write_trial_csv
        from conftest import grid_times

        t = grid_times(-5.0, 2.0, 6.0)
        write_trial_csv(src / "trial-0_Handover.motion.csv", t,
                        np.ones((t.shape[0], 3)), STREAM_COLUMNS[Modality.MOTION])
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

    def test_ensemble_weight_fallbacks_are_written_per_lstm_view(self, tmp_path, monkeypatch):
        # Every validation fold holds both classes, so a split's ensemble
        # falls back to equal weights only when all of its members score 0,
        # as they do here.
        import handover_intent.evaluation as evaluation

        fit = evaluation.fit_lstm_ensemble
        monkeypatch.setattr(
            evaluation,
            "fit_lstm_ensemble",
            lambda spec, members: [(model, 0.0) for model, _ in fit(spec, members)],
        )
        profile = tmp_path / "profile.txt"
        profile.write_text(
            "[synth]\nparticipants = 1\ntrials_per_condition = 6\n"
            "modalities = gaze\nseed = 8\n"
        )
        config = tmp_path / "config.txt"
        config.write_text(
            "[dataset]\nroot = ./data\n"
            "[experiment]\nmodalities = gaze\nmodel = lstm\nseed = 3\nmin_trials = 10\n"
            "[cv]\nfolds = 2\nrepeats = 1\ninner_folds = 3\n"
            "[windows]\nfirst_end_s = -4.5\nlast_end_s = -4.5\nstep_s = 0.25\n"
            "[output]\ndir = ./out\n"
        )
        assert main(["synth", "--profile", str(profile), "--out", str(tmp_path / "data")]) == 0
        assert main(["run", "--config", str(config)]) == 0
        metadata = json.loads((tmp_path / "out/run_metadata.json").read_text())
        assert metadata["window_errors"] == []
        assert metadata["fusion_audits"] == []
        assert metadata["lstm_audits"] == [
            {"participant": 1, "tag": "gaze", "records": {"ensemble_weight_fallbacks": 2}}
        ]

    @pytest.mark.parametrize(
        "modality, trials, model, cv, message",
        [
            ("gaze", 6, "lda", "folds = 40",
             "class 0 has 12 trials, fewer than k=40 folds; use a smaller k"),
            ("gaze", 6, "lstm", "folds = 2\ninner_folds = 20",
             "class 0 has 6 training trials in split 0, fewer than inner_k=20 folds; "
             "use a smaller inner_k"),
            ("motion", 4, "lda", "folds = 5",
             "class 1 has 4 trials, fewer than k=5 folds; use a smaller k"),
            ("motion", 4, "lstm", "folds = 2\ninner_folds = 3",
             "class 1 has 2 training trials in split 0, fewer than inner_k=3 folds; "
             "use a smaller inner_k"),
        ],
        ids=["outer-folds", "inner-folds", "outer-class", "inner-class"],
    )
    def test_too_many_folds_is_a_pipeline_error(
        self, tmp_path, capsys, modality, trials, model, cv, message
    ):
        # 3 * trials trials, of which trials handovers (class 1).
        profile = tmp_path / "profile.txt"
        profile.write_text(
            f"[synth]\nparticipants = 1\ntrials_per_condition = {trials}\n"
            f"modalities = {modality}\nseed = 8\n"
        )
        config = tmp_path / "config.txt"
        config.write_text(
            "[dataset]\nroot = ./data\n"
            f"[experiment]\nmodalities = {modality}\nmodel = {model}\nseed = 3\n"
            "min_trials = 10\n"
            f"[cv]\n{cv}\nrepeats = 1\n"
            "[windows]\nfirst_end_s = -4.0\nlast_end_s = -4.0\nstep_s = 0.25\n"
            "[output]\ndir = ./out\n"
        )
        assert main(["synth", "--profile", str(profile), "--out", str(tmp_path / "data")]) == 0
        assert main(["validate-config", "--config", str(config)]) == 0
        capsys.readouterr()
        assert main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err == (
            f"pipeline error: participant 1, {modality} view: {message}\n"
        )
        # The run makes its output directory before any work and writes nothing into it.
        assert not any((tmp_path / "out").iterdir())

    @staticmethod
    def one_window_run(tmp_path):
        """A 1-participant motion dataset, and a function that runs one window
        of it with the given model into ``tmp_path / "out"``."""
        profile = tmp_path / "profile.txt"
        profile.write_text(
            "[synth]\nparticipants = 1\ntrials_per_condition = 6\n"
            "modalities = motion\nseed = 8\n"
        )
        assert main(["synth", "--profile", str(profile), "--out", str(tmp_path / "data")]) == 0
        config = tmp_path / "config.txt"
        text = (
            "[dataset]\nroot = ./data\n"
            "[experiment]\nmodalities = motion\nmodel = {model}\nseed = 3\nmin_trials = 10\n"
            "[cv]\nfolds = 2\nrepeats = 1\ninner_folds = 2\n"
            "[windows]\nfirst_end_s = -4.0\nlast_end_s = -4.0\nstep_s = 0.25\n"
            "[output]\ndir = ./out\n"
        )

        def run(model):
            config.write_text(text.format(model=model))
            assert main(["run", "--config", str(config)]) == 0

        return run

    def test_a_rerun_removes_only_the_previous_runs_outputs(self, tmp_path):
        run = self.one_window_run(tmp_path)
        run("lda")
        out = tmp_path / "out"
        metadata = json.loads((out / "run_metadata.json").read_text())
        assert metadata["outputs"] == [
            "aggregate.csv", "latency_lda.csv", "results.csv", "timelines/p001_motion_lda.csv"
        ]
        # Metadata from before ``outputs`` existed deletes nothing.
        older = {k: v for k, v in metadata.items() if k != "outputs"}
        (out / "run_metadata.json").write_text(json.dumps(older))
        run("lstm")
        assert (out / "latency_lda.csv").exists()

        (out / "notes.txt").write_text("mine")
        outside = tmp_path / "x"
        outside.write_text("not the run's")
        # Hand-edited: a path outside ``out`` and an absolute one.
        metadata["outputs"] += ["../x", str(out / "notes.txt")]
        (out / "run_metadata.json").write_text(json.dumps(metadata))
        run("lstm")
        assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*.*")) == [
            "aggregate.csv",
            "latency_lstm.csv",
            "notes.txt",
            "results.csv",
            "run_metadata.json",
            "timelines/p001_motion_lstm.csv",
        ]
        assert outside.read_text() == "not the run's"
        assert json.loads((out / "run_metadata.json").read_text())["outputs"] == [
            "aggregate.csv", "latency_lstm.csv", "results.csv", "timelines/p001_motion_lstm.csv"
        ]

    def test_a_run_removes_the_figures_drawn_from_the_results_it_replaces(self, tmp_path):
        run = self.one_window_run(tmp_path)
        out = tmp_path / "out"
        figures = out / "figures"
        run("lda")
        assert main(["report", "--results", str(out)]) == 0
        (figures / "notes.txt").write_text("mine")
        run("lstm")
        assert sorted(p.name for p in figures.iterdir()) == ["notes.txt"]
        assert main(["report", "--results", str(out)]) == 0
        assert sorted(p.name for p in figures.iterdir()) == ["figure_lstm.csv", "notes.txt"]
        assert (figures / "notes.txt").read_text() == "mine"

    def test_fusion_views_use_lda_in_an_lstm_run(self, tmp_path):
        profile = tmp_path / "profile.txt"
        profile.write_text(
            "[synth]\nparticipants = 1\ntrials_per_condition = 6\n"
            "modalities = gaze,motion\nseed = 8\n"
            "[gaze]\ninjection_time_s = -5.0\neffect_px = 60.0\n"
        )
        config = tmp_path / "config.txt"
        config.write_text(
            "[dataset]\nroot = ./data\n"
            "[experiment]\nmodalities = gaze\nmodel = lstm\nseed = 3\nmin_trials = 10\n"
            "[cv]\nfolds = 2\nrepeats = 1\ninner_folds = 2\n"
            "[windows]\nfirst_end_s = -4.0\nlast_end_s = -4.0\nstep_s = 0.25\n"
            "[fusion]\nmodes = early\nmodalities = gaze,motion\n"
            "[output]\ndir = ./out\n"
        )
        assert main(["synth", "--profile", str(profile), "--out", str(tmp_path / "data")]) == 0
        assert main(["run", "--config", str(config)]) == 0
        out = tmp_path / "out"
        rows = [line.split(",") for line in (out / "results.csv").read_text().splitlines()[1:]]
        assert sorted((cells[1], cells[2]) for cells in rows) == [
            ("early:gaze+motion", "lda"),
            ("gaze", "lstm"),
        ]
        assert sorted(p.name for p in out.glob("latency_*.csv")) == [
            "latency_lda.csv",
            "latency_lstm.csv",
        ]


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

    def test_corruption_rule_runs_once_per_trial_and_modality(self, tmp_path, monkeypatch):
        from handover_intent import pipeline

        original = pipeline.is_uncorrupted
        calls = []
        streams = set()

        def counting(trial, modality, *args):
            calls.append((trial.trial_id, modality))
            streams.update(trial.streams)
            return original(trial, modality, *args)

        monkeypatch.setattr(pipeline, "is_uncorrupted", counting)
        profile = tmp_path / "profile.txt"
        profile.write_text(
            "[synth]\nparticipants = 1\ntrials_per_condition = 6\n"
            "modalities = eeg,gaze,motion\nseed = 4\n"
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
        # 18 trials, each checked once for gaze and once for motion, which
        # serve the views gaze, motion, early:gaze+motion and late:gaze+motion.
        assert len(calls) == 18 * 2
        assert set(calls) == {(t, m) for t in range(18) for m in (Modality.GAZE, Modality.MOTION)}
        # The manifest lists EEG files, but no view uses EEG, so none is read.
        assert streams == {Modality.GAZE, Modality.MOTION}
