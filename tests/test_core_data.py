from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handover_intent.config import ConfigError, parse_config_text
from handover_intent.core_data import (
    Condition,
    CoverageError,
    DatasetError,
    GAZE_COLUMNS,
    LabeledTrial,
    Manifest,
    ManifestEntry,
    Modality,
    MOTION_COLUMNS,
    TimeSeries,
    TrialRecording,
    complete_trials,
    convert_dataset,
    epoch,
    is_uncorrupted,
    label_for,
    labeled,
    load_dataset,
    parse_manifest,
    read_sections,
    read_trial_csv,
    write_manifest,
    write_trial_csv,
)

from conftest import grid_times, make_gaze, make_motion, make_trial, series


def enumerate_window(start, step, n, a, b):
    """Oracle: explicit list of grid times falling in the half-open window."""
    times = start + step * np.arange(n)
    return [t for t in times if a - 1e-9 * step <= t < b - 1e-9 * step]


class TestLabels:
    def test_mapping_total_and_deterministic(self):
        assert label_for(Condition.HANDOVER) == 1
        assert label_for(Condition.SOLO) == 0
        assert label_for(Condition.JOINT) == 0

    def test_labeled_trial_rejects_mismatch(self):
        trial = make_trial(condition=Condition.SOLO, gaze=make_gaze())
        with pytest.raises(ValueError):
            LabeledTrial(trial, 1)
        assert LabeledTrial(trial, 0).label == 0

    def test_condition_parse(self):
        assert Condition.parse("handover") is Condition.HANDOVER
        with pytest.raises(ValueError):
            Condition.parse("walk")


class TestEpoch:
    def test_full_window_at_250hz_has_2750_rows(self):
        # Oracle: enumerate 250 Hz grid points in [-5, 6).
        ts = series(-5.0, 0.004, np.zeros(2751))
        expected = len(enumerate_window(-5.0, 0.004, 2751, -5.0, 6.0))
        assert expected == 2750
        assert epoch(ts, -5.0, 6.0).n_samples == 2750

    def test_quarter_second_window_at_25hz_has_7_rows(self):
        ts = series(-5.0, 0.04, np.arange(276))
        oracle = enumerate_window(-5.0, 0.04, 276, -5.0, -4.75)
        assert len(oracle) == 7  # -5.00, -4.96, ..., -4.76
        out = epoch(ts, -5.0, -4.75)
        assert out.n_samples == 7
        assert out.values[:, 0].tolist() == list(range(7))

    def test_window_equal_to_extent_is_identity(self):
        ts = series(0.0, 0.1, np.arange(10))
        out = epoch(ts, 0.0, 1.0)
        assert np.array_equal(out.values, ts.values)
        assert out.start_time_s == ts.start_time_s

    def test_preserves_grid_and_start(self):
        ts = series(-5.0, 0.2, np.arange(56))
        out = epoch(ts, -1.0, 1.0)
        assert out.step_s == 0.2
        assert out.start_time_s == pytest.approx(-1.0)
        assert out.n_samples == 10

    @given(
        n=st.integers(5, 60),
        step=st.sampled_from([0.04, 0.2, 0.004, 0.25]),
        lo=st.integers(0, 3),
        hi=st.integers(4, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, n, step, lo, hi):
        ts = series(-1.0, step, np.arange(n))
        a = -1.0 + lo * step
        b = min(-1.0 + hi * step, -1.0 + n * step)
        once = epoch(ts, a, b)
        twice = epoch(once, a, b)
        assert np.array_equal(once.values, twice.values)
        assert twice.start_time_s == once.start_time_s

    def test_outside_coverage_reports_available_range(self):
        ts = series(-5.0, 0.04, np.zeros(276))
        with pytest.raises(CoverageError, match=r"-5\.0"):
            epoch(ts, -6.0, 0.0)
        with pytest.raises(CoverageError):
            epoch(ts, 0.0, 8.0)

    def test_empty_and_degenerate_windows(self):
        ts = series(0.0, 1.0, np.arange(5))
        with pytest.raises(ValueError):
            epoch(ts, 2.0, 2.0)
        with pytest.raises(ValueError):
            epoch(ts, 0.4, 0.6)  # between grid points


class TestTimeSeries:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeSeries(0.0, 0.1, np.zeros((0, 2)))
        with pytest.raises(ValueError):
            TimeSeries(0.0, -0.1, np.zeros((3, 2)))
        with pytest.raises(ValueError):
            TimeSeries(0.0, 0.1, np.zeros(3))

    def test_values_become_read_only(self):
        ts = series(0.0, 0.1, np.arange(4))
        with pytest.raises(ValueError):
            ts.values[0, 0] = 99.0

    def test_covers_half_open(self):
        ts = series(-5.0, 0.04, np.zeros(276))  # covers [-5, 6.0]
        assert ts.covers(-5.0, 6.0)
        assert not ts.covers(-5.2, 6.0)
        assert not ts.covers(-5.0, 6.2)


class TestTrialRecording:
    def test_requires_a_stream(self):
        with pytest.raises(ValueError):
            make_trial(gaze=None, motion=None, eeg=None)

    def test_id_validation(self):
        with pytest.raises(ValueError):
            make_trial(participant_id=0, gaze=make_gaze())
        with pytest.raises(ValueError):
            make_trial(trial_id=-1, gaze=make_gaze())


def _labeled_trials(spec_rows):
    """spec_rows: (participant, n_trials, modalities per trial) tuples."""
    out = []
    for pid, count, mods in spec_rows:
        for tid in range(count):
            condition = [Condition.SOLO, Condition.HANDOVER, Condition.JOINT][tid % 3]
            out.append(
                make_trial(
                    participant_id=pid,
                    trial_id=tid,
                    condition=condition,
                    gaze=make_gaze() if "gaze" in mods else None,
                    motion=make_motion() if "motion" in mods else None,
                )
            )
    return labeled(out)


def complete_counts(trials, modalities):
    """Per participant, the number of trials complete in ``modalities``."""
    return Counter(lt.trial.participant_id for lt in complete_trials(trials, modalities))


def gated(trials, modalities, min_trials):
    """Participants the pipeline runs a view for: at least ``min_trials``
    complete trials."""
    return {pid for pid, n in complete_counts(trials, modalities).items() if n >= min_trials}


class TestGating:
    def test_joint_completeness_excludes_partial_participants(self):
        # Mirrors the published trial counts: one participant holds 80 gaze
        # trials but only 29 of them also carry motion.
        trials = _labeled_trials(
            [(2, 29, ("gaze", "motion")), (2, 51, ("gaze",)), (3, 90, ("gaze", "motion"))]
        )
        # re-id the 51 gaze-only trials to avoid duplicate ids
        fixed = []
        seen = {}
        for lt in trials:
            pid = lt.trial.participant_id
            seen[pid] = seen.get(pid, -1) + 1
            fixed.append(
                LabeledTrial(
                    TrialRecording(
                        participant_id=pid,
                        trial_id=seen[pid],
                        condition=lt.trial.condition,
                        onset_time_s=0.0,
                        gaze=lt.trial.gaze,
                        motion=lt.trial.motion,
                    ),
                    lt.label,
                )
            )
        both = gated(fixed, {Modality.GAZE, Modality.MOTION}, 60)
        assert both == {3}
        gaze_only = gated(fixed, {Modality.GAZE}, 60)
        assert gaze_only == {2, 3}

    def test_59_trials_misses_a_60_trial_gate(self):
        trials = _labeled_trials([(1, 59, ("gaze",)), (5, 90, ("gaze",))])
        assert complete_counts(trials, {Modality.GAZE}) == {1: 59, 5: 90}
        assert gated(trials, {Modality.GAZE}, 60) == {5}
        assert gated(trials, {Modality.GAZE}, 59) == {1, 5}

    def test_empty_input(self):
        assert complete_trials([], {Modality.GAZE}) == []

    def test_min_trials_validation(self):
        # The gate's threshold is checked where it is read, in the run config.
        text = (
            "[dataset]\nroot = d\n[experiment]\nmodalities = gaze\nmodel = lda\n"
            "seed = 1\nmin_trials = 0\n[output]\ndir = o\n"
        )
        with pytest.raises(ConfigError, match=r"\[experiment\] min_trials must be >= 1"):
            parse_config_text(text)

    def test_truncated_stream_counts_as_corrupted(self):
        short = make_gaze(end=2.0)  # covers [-5, 2] only
        trials = labeled([make_trial(gaze=short)])
        assert complete_trials(trials, {Modality.GAZE}) == []
        assert short.truncated is False  # loader sets the flag from coverage

    def test_monotone_in_min_trials_and_modalities(self):
        trials = _labeled_trials(
            [(1, 70, ("gaze",)), (2, 70, ("gaze", "motion")), (3, 40, ("gaze", "motion"))]
        )
        for low, high in [(1, 30), (30, 60), (60, 71)]:
            a = gated(trials, {Modality.GAZE}, low)
            b = gated(trials, {Modality.GAZE}, high)
            assert b <= a
        single = complete_trials(trials, {Modality.GAZE})
        joint = complete_trials(trials, {Modality.GAZE, Modality.MOTION})
        assert all(lt in single for lt in joint)
        assert gated(trials, {Modality.GAZE, Modality.MOTION}, 30) <= gated(
            trials, {Modality.GAZE}, 30
        )

    def test_nonfinite_motion_is_corrupted_but_gaze_gaps_are_not(self):
        xyz = np.tile([0.1, 0.2, 0.3], (56, 1))
        xyz[10, 2] = np.nan
        bad_motion = make_motion(xyz=xyz)
        trial = make_trial(motion=bad_motion)
        assert not is_uncorrupted(trial, Modality.MOTION)

        gaze_vals = np.tile([960.0, 540.0], (276, 1))
        gaze_vals[50:52] = np.nan  # interior blink
        gappy = make_gaze(gaze=gaze_vals)
        assert is_uncorrupted(make_trial(gaze=gappy), Modality.GAZE)

        all_gone = np.full((276, 2), np.nan)
        assert not is_uncorrupted(
            make_trial(gaze=make_gaze(gaze=all_gone)), Modality.GAZE
        )


def _write_dataset(root, entries_spec, rates=True):
    """entries_spec: (pid, tid, condition, modalities dict) tuples."""
    entries = []
    for pid, tid, condition, mods in entries_spec:
        paths = {}
        if "gaze" in mods:
            rel = f"gaze/p{pid}_t{tid}.csv"
            t = grid_times(-5.0, 5.0, 6.0)
            vals = np.hstack(
                [
                    np.tile([960.0, 540.0], (t.shape[0], 1)),
                    np.tile([900.0, 500.0], (t.shape[0], 1)),
                ]
            )
            write_trial_csv(root / rel, t, vals, GAZE_COLUMNS)
            paths["gaze"] = rel
        if "motion" in mods:
            rel = f"motion/p{pid}_t{tid}.csv"
            t = grid_times(-5.0, 2.0, 6.0)
            write_trial_csv(root / rel, t, np.ones((t.shape[0], 3)), MOTION_COLUMNS)
            paths["motion"] = rel
        entries.append(
            ManifestEntry(
                participant_id=pid,
                trial_id=tid,
                condition=Condition.parse(condition),
                onset_s=0.0,
                eeg_path=None,
                gaze_path=paths.get("gaze"),
                motion_path=paths.get("motion"),
            )
        )
    manifest = Manifest(
        name="t",
        rates_hz={Modality.GAZE: 5.0, Modality.MOTION: 2.0} if rates else {},
        eeg_channels=None,
        entries=entries,
    )
    write_manifest(root / "manifest.txt", manifest)
    return root / "manifest.txt"


class TestLoadDataset:
    def test_loads_all_listed_trials_with_all_streams(self, tmp_path):
        spec = [
            (3, tid, ["Solo", "Handover", "Joint"][tid % 3], ("gaze", "motion"))
            for tid in range(90)
        ]
        manifest = _write_dataset(tmp_path, spec)
        trials = load_dataset(tmp_path, manifest)
        assert len(trials) == 90
        assert all(t.participant_id == 3 for t in trials)
        assert all(t.gaze is not None and t.motion is not None for t in trials)

    def test_manifest_absent_modality_loads_as_none(self, tmp_path):
        manifest = _write_dataset(tmp_path, [(14, 0, "Handover", ("gaze",))])
        trials = load_dataset(tmp_path, manifest)
        assert trials[0].motion is None
        assert trials[0].gaze is not None

    def test_missing_file_degrades_to_absent_stream(self, tmp_path):
        manifest_path = _write_dataset(
            tmp_path, [(1, 0, "Solo", ("gaze", "motion"))]
        )
        (tmp_path / "motion/p1_t0.csv").unlink()
        trials = load_dataset(tmp_path, manifest_path)
        assert trials[0].motion is None and trials[0].gaze is not None

    def test_empty_manifest_gives_empty_list(self, tmp_path):
        manifest = _write_dataset(tmp_path, [])
        assert load_dataset(tmp_path, manifest) == []

    def test_malformed_value_names_file_and_row(self, tmp_path):
        manifest = _write_dataset(tmp_path, [(1, 0, "Solo", ("gaze",))])
        path = tmp_path / "gaze/p1_t0.csv"
        lines = path.read_text().splitlines()
        lines[3] = lines[3].replace(lines[3].split(",")[1], "oops", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match=r"p1_t0\.csv:4"):
            load_dataset(tmp_path, manifest)

    def test_rate_mismatch_is_an_error(self, tmp_path):
        manifest = _write_dataset(tmp_path, [(1, 0, "Solo", ("gaze",))])
        text = (tmp_path / "manifest.txt").read_text()
        (tmp_path / "manifest.txt").write_text(
            text.replace("gaze_rate_hz = 5.0", "gaze_rate_hz = 25.0")
        )
        with pytest.raises(DatasetError, match="rate"):
            load_dataset(tmp_path, tmp_path / "manifest.txt")

    def test_duplicate_trial_rejected(self, tmp_path):
        manifest = _write_dataset(tmp_path, [(1, 0, "Solo", ("gaze",))])
        text = manifest.read_text()
        last = text.strip().splitlines()[-1]
        manifest.write_text(text + last + "\n")
        with pytest.raises(DatasetError, match="duplicate"):
            parse_manifest(manifest)

    def test_truncated_column_flagged(self, tmp_path):
        manifest = _write_dataset(tmp_path, [(1, 0, "Solo", ("gaze",))])
        path = tmp_path / "gaze/p1_t0.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:20]) + "\n")  # ends around -1.2 s
        trials = load_dataset(tmp_path, manifest)
        assert trials[0].gaze.truncated

    def test_header_must_name_time_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        with pytest.raises(DatasetError, match="time_s"):
            read_trial_csv(path)

    def test_nonuniform_grid_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,hand_x,hand_y,hand_z\n0.0,1,1,1\n0.2,1,1,1\n0.5,1,1,1\n")
        with pytest.raises(DatasetError, match="uniform"):
            read_trial_csv(path)


class TestReadSections:
    KEYS = {("a", "n"): ("n", int), ("a", "s"): ("s", str), ("b", "n"): ("b_n", int)}

    def test_reads_fields_and_skips_blanks_and_comments(self):
        text = "# comment\n[a]\nn = 3\n\ns = x = y\n[ b ]\nn=4\n"
        assert read_sections(text, "t", self.KEYS) == {"n": 3, "s": "x = y", "b_n": 4}

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[a]\nn 3\n", "t:2: expected 'key = value'"),
            ("n = 3\n", "t:1: key outside any [section]"),
            ("[a]\nm = 3\n", "t:2: unknown key [a] m"),
            ("[a]\nn = 3\n[b]\nn = 1\n[a]\nn = 4\n", "t:6: duplicate key [a] n"),
            ("[a]\nn = x\n", "t:2: [a] n: invalid literal"),
            ("[a]\nn = x\nm = 1\n", "t:2: [a] n: "),  # the first bad line wins
        ],
    )
    def test_errors_name_the_line(self, text, message):
        with pytest.raises(ValueError) as info:
            read_sections(text, "t", self.KEYS)
        assert str(info.value).startswith(message)

    def test_raises_the_callers_error_class(self):
        class Custom(Exception):
            pass

        with pytest.raises(Custom, match="unknown key"):
            read_sections("[a]\nm = 1\n", "t", self.KEYS, Custom)


class TestManifestFormat:
    def test_round_trip(self, tmp_path):
        manifest = Manifest(
            name="demo",
            rates_hz={Modality.GAZE: 25.0},
            eeg_channels=["Cz", "C3"],
            entries=[
                ManifestEntry(1, 0, Condition.HANDOVER, 0.0, None, "g.csv", None),
                ManifestEntry(1, 1, Condition.JOINT, 1.5, "e.csv", None, "m.csv"),
            ],
        )
        write_manifest(tmp_path / "m.txt", manifest)
        back = parse_manifest(tmp_path / "m.txt")
        assert back == manifest

    def test_version_required(self, tmp_path):
        (tmp_path / "m.txt").write_text("name = x\n[trials]\n")
        with pytest.raises(DatasetError, match="format_version"):
            parse_manifest(tmp_path / "m.txt")

    def test_bad_row_reports_line_number(self, tmp_path):
        (tmp_path / "m.txt").write_text(
            "format_version = 1\n[trials]\n"
            "participant,trial,condition,onset_s,eeg,gaze,motion\n"
            "1,0,Nope,0.0,-,-,-\n"
        )
        with pytest.raises(DatasetError, match="m.txt:4"):
            parse_manifest(tmp_path / "m.txt")


class TestConverter:
    def test_converts_documented_layout(self, tmp_path):
        src = tmp_path / "src"
        t = grid_times(-5.0, 2.0, 6.0)
        for pid in (1, 2):
            d = src / f"sub-{pid}"
            d.mkdir(parents=True)
            for tid, condition in [(0, "Handover"), (1, "Solo")]:
                write_trial_csv(
                    d / f"trial-{tid}_{condition}.motion.csv",
                    t,
                    np.ones((t.shape[0], 3)),
                    MOTION_COLUMNS,
                )
        out = tmp_path / "out"
        manifest_path = convert_dataset(src, out)
        trials = load_dataset(out, manifest_path)
        assert len(trials) == 4
        assert {t.condition for t in trials} == {Condition.HANDOVER, Condition.SOLO}

    def test_unknown_layout_is_an_error(self, tmp_path):
        (tmp_path / "whatever").mkdir()
        with pytest.raises(DatasetError, match="sub-"):
            convert_dataset(tmp_path, tmp_path / "out")
