import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handover_intent.cli import main
from handover_intent.core_data import Condition, Modality
from handover_intent import features
from handover_intent.dsp import TfSpec, default_tf_spec, interpolate_gaps
from handover_intent.features import (
    DEFAULT_EEG_CHANNELS,
    FeatureCache,
    FeatureSequence,
    GridError,
    ModalityAbsentError,
    WindowGrid,
    build_eeg_features,
    build_gaze_features,
    build_motion_features,
    cached_eeg_features,
    flatten,
    pca_apply,
    pca_fit,
    window_features,
)

from conftest import grid_times, make_eeg, make_gaze, make_motion, make_trial, series


class TestGazeFeatures:
    def test_reference_subtraction(self):
        n = 276
        gaze = np.tile([960.0, 540.0], (n, 1))
        ref = np.tile([900.0, 500.0], (n, 1))
        seq = build_gaze_features(make_trial(gaze=make_gaze(gaze=gaze, ref=ref)))
        assert np.allclose(seq.series.values, [60.0, 40.0])
        assert seq.modality is Modality.GAZE
        assert seq.series.n_features == 2

    def test_gaze_equal_to_reference_gives_zeros(self):
        n = 276
        xy = np.tile([800.0, 450.0], (n, 1))
        seq = build_gaze_features(make_trial(gaze=make_gaze(gaze=xy.copy(), ref=xy.copy())))
        assert np.all(seq.series.values == 0.0)

    def test_gap_is_interpolated_before_subtraction(self):
        # Oracle by hand: gaze gap midpoint (958+962)/2 = 960; ref constant.
        n = 276
        gaze = np.tile([960.0, 540.0], (n, 1))
        gaze[10] = [958.0, 538.0]
        gaze[12] = [962.0, 542.0]
        gaze[11] = np.nan
        ref = np.tile([900.0, 500.0], (n, 1))
        seq = build_gaze_features(make_trial(gaze=make_gaze(gaze=gaze, ref=ref)))
        assert seq.series.values[11].tolist() == [60.0, 40.0]

    def test_gaps_in_different_rows_match_separate_repair(self, rng):
        # Gaze and reference lose different samples, including a leading and
        # a trailing run; filling the four columns at once must equal filling
        # each pair on its own, bit for bit.
        n = 276
        gaze = np.array([960.0, 540.0]) + rng.normal(0, 5, size=(n, 2))
        ref = np.array([900.0, 500.0]) + rng.normal(0, 1, size=(n, 2))
        gaze[0:3] = np.nan
        gaze[40:44, 0] = np.nan
        gaze[100, 1] = np.nan
        ref[70:75] = np.nan
        ref[200, 0] = np.nan
        ref[n - 2 :, 1] = np.nan
        seq = build_gaze_features(make_trial(gaze=make_gaze(gaze=gaze, ref=ref)))
        gaze_filled = interpolate_gaps(series(-5.0, 0.04, gaze)).values
        ref_filled = interpolate_gaps(series(-5.0, 0.04, ref)).values
        assert np.array_equal(seq.series.values, gaze_filled - ref_filled)

    def test_absent_gaze_raises(self):
        with pytest.raises(ModalityAbsentError):
            build_gaze_features(make_trial(motion=make_motion()))

    def test_label_carried(self):
        seq = build_gaze_features(
            make_trial(condition=Condition.SOLO, gaze=make_gaze())
        )
        assert seq.label == 0


class TestMotionFeatures:
    def test_constant_pose(self):
        xyz = np.tile([0.2, -0.1, 0.8], (56, 1))
        seq = build_motion_features(make_trial(motion=make_motion(xyz=xyz)))
        assert np.allclose(seq.series.values, [0.2, -0.1, 0.8])
        assert seq.series.n_features == 3

    def test_many_trials_keep_dimension(self):
        seqs = [
            build_motion_features(make_trial(trial_id=i, motion=make_motion()))
            for i in range(9)
        ]
        assert all(s.series.n_features == 3 for s in seqs)

    def test_single_sample_stream(self):
        seq = build_motion_features(
            make_trial(motion=make_motion(end=-5.0, xyz=[[1.0, 2.0, 3.0]]))
        )
        assert seq.series.n_samples == 1

    def test_absent_motion_raises(self):
        with pytest.raises(ModalityAbsentError):
            build_motion_features(make_trial(gaze=make_gaze()))


class TestEegFeatures:
    def test_default_channels_on_32_channel_montage(self, rng):
        extra = [f"X{i}" for i in range(20)]
        channels = DEFAULT_EEG_CHANNELS + extra
        eeg = make_eeg(rng=rng, rate_hz=100.0, channels=channels)
        seq = build_eeg_features(make_trial(eeg=eeg))
        assert seq.modality is Modality.EEG
        assert seq.series.n_features == 36  # integer grid 5..40 Hz
        assert seq.series.start_time_s == pytest.approx(-5.0)

    def test_missing_channel_lists_available(self):
        eeg = make_eeg(channels=["Cz", "C3", "C4", "FC1"])
        with pytest.raises(ValueError, match="available"):
            build_eeg_features(make_trial(eeg=eeg), channels=["Cz", "Pz"])

    def test_zero_input_gives_zero_features(self):
        channels = ["Cz", "C3"]
        t = grid_times(-5.0, 100.0, 6.0)
        eeg = make_eeg(channels=channels, values=np.zeros((t.shape[0], 2)))
        seq = build_eeg_features(make_trial(eeg=eeg), channels=channels)
        assert np.all(seq.series.values == 0.0)

    def test_log_power_switch(self, rng):
        channels = ["Cz", "C3"]
        eeg = make_eeg(rng=rng, channels=channels)
        raw = build_eeg_features(make_trial(eeg=eeg), channels=channels)
        logged = build_eeg_features(make_trial(eeg=eeg), channels=channels, log_power=True)
        assert np.allclose(logged.series.values, np.log10(raw.series.values + 1e-20))

    def test_channel_average_matches_singles(self, rng):
        channels = ["Cz", "C3", "C4"]
        eeg = make_eeg(rng=rng, channels=channels)
        combined = build_eeg_features(make_trial(eeg=eeg), channels=channels)
        singles = [
            build_eeg_features(make_trial(eeg=eeg), channels=[c]).series.values
            for c in channels
        ]
        assert np.allclose(combined.series.values, np.mean(singles, axis=0))


class TestWindowing:
    def test_grid_has_exactly_44_end_times(self):
        # Oracle: enumerate -4.75 + 0.25 k until 6.0.
        ends = WindowGrid().end_times()
        oracle = []
        e = -4.75
        while e <= 6.0 + 1e-9:
            oracle.append(round(e, 2))
            e += 0.25
        assert len(oracle) == 44
        assert ends.shape[0] == 44
        assert np.allclose(ends, oracle)

    def test_shortest_gaze_window_has_7_rows(self):
        seq = build_gaze_features(make_trial(gaze=make_gaze()))
        w = window_features(seq, -4.75)
        assert w.series.n_samples == 7

    def test_full_window_is_identity_on_the_epoch(self):
        seq = build_gaze_features(make_trial(gaze=make_gaze()))
        w = window_features(seq, 6.0)
        assert w.series.n_samples == 275  # 11 s x 25 Hz, half-open
        assert np.array_equal(w.series.values, seq.series.values[:275])

    def test_off_grid_end_rejected(self):
        seq = build_gaze_features(make_trial(gaze=make_gaze()))
        with pytest.raises(GridError):
            window_features(seq, -4.60)
        with pytest.raises(GridError):
            window_features(seq, 6.25)

    def test_nested_windows_compose(self):
        seq = build_gaze_features(make_trial(gaze=make_gaze()))
        outer = window_features(seq, 3.0)
        inner_direct = window_features(seq, 1.5)
        inner_nested = window_features(outer, 1.5)
        assert np.array_equal(inner_direct.series.values, inner_nested.series.values)

    def test_custom_grid(self):
        grid = WindowGrid(start_s=-1.0, first_end_s=0.0, last_end_s=1.0, step_s=0.5)
        assert grid.end_times().tolist() == [0.0, 0.5, 1.0]
        with pytest.raises(ValueError):
            WindowGrid(start_s=0.0, first_end_s=0.0, last_end_s=1.0, step_s=0.5)
        for outside_the_epoch in ({"start_s": -5.25}, {"last_end_s": 6.25}):
            with pytest.raises(ValueError, match="the epoch"):
                WindowGrid(**outside_the_epoch)


class TestFlatten:
    def test_time_major_order(self):
        seq = FeatureSequence(
            modality=Modality.GAZE,
            series=series(0.0, 1.0, [[1.0, 2.0], [3.0, 4.0]]),
            trial_ref=(1, 0),
            label=1,
        )
        assert flatten(seq).tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_single_row(self):
        seq = FeatureSequence(
            modality=Modality.MOTION,
            series=series(0.0, 1.0, [[7.0, 8.0, 9.0]]),
            trial_ref=(1, 0),
            label=0,
        )
        assert flatten(seq).tolist() == [7.0, 8.0, 9.0]

    def test_round_trip(self, rng):
        vals = rng.normal(size=(5, 3))
        seq = FeatureSequence(
            modality=Modality.MOTION,
            series=series(0.0, 1.0, vals),
            trial_ref=(1, 0),
            label=0,
        )
        flat = flatten(seq)
        assert np.array_equal(flat.reshape(5, 3), vals)

    def test_dimension_validation(self):
        with pytest.raises(ValueError, match="D=2"):
            FeatureSequence(
                modality=Modality.GAZE,
                series=series(0.0, 1.0, [[1.0, 2.0, 3.0]]),
                trial_ref=(1, 0),
                label=1,
            )


def eig_oracle(x):
    """Oracle: eigen-decomposition of the sample covariance (population)."""
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / x.shape[0]
    values, vectors = np.linalg.eigh(cov)
    order = np.argsort(values)[::-1]
    return values[order], vectors[:, order]


class TestPca:
    def test_rank_one_line_needs_one_component(self, rng):
        direction = np.array([1.0, 2.0, -1.0]) / np.sqrt(6.0)
        x = np.outer(rng.normal(size=40), direction) + 5.0
        model = pca_fit(x, 0.99)
        assert model.components.shape[0] == 1
        assert model.explained_variance_ratio[0] >= 0.999

    def test_isotropic_2d_needs_both_components(self, rng):
        x = rng.normal(size=(500, 2))
        values, _ = eig_oracle(x)
        # oracle: neither eigenvalue carries 99% alone for isotropic data
        assert values[0] / values.sum() < 0.99
        model = pca_fit(x, 0.99)
        assert model.components.shape[0] == 2

    def test_full_variance_target_keeps_rank(self, rng):
        x = rng.normal(size=(8, 20))
        model = pca_fit(x, 1.0)
        assert model.components.shape[0] == min(8 - 1, 20)
        x2 = rng.normal(size=(50, 4))
        assert pca_fit(x2, 1.0).components.shape[0] == 4

    def test_explained_ratio_matches_projected_variance(self, rng):
        # Oracle: recompute each ratio from the variance of the projected
        # fitting data (normalizations cancel in the ratio).
        x = rng.normal(size=(60, 5)) @ np.diag([3.0, 2.0, 1.0, 0.5, 0.1])
        model = pca_fit(x, 1.0)
        projected = pca_apply(model, x)
        recomputed = projected.var(axis=0) / ((x - x.mean(0)) ** 2).mean(0).sum()
        assert np.abs(recomputed - model.explained_variance_ratio).max() < 1e-9

    def test_replicated_mean_projects_to_zero(self):
        x = np.array([[1.0, 2.0], [3.0, 1.0], [2.0, 1.5]])
        model = pca_fit(x, 1.0)
        rep = np.tile(x.mean(axis=0), (4, 1))
        assert np.abs(pca_apply(model, rep)).max() < 1e-12

    def test_components_orthonormal_and_projection_diagonal(self, rng):
        x = rng.normal(size=(80, 6)) * np.array([4.0, 3.0, 2.0, 1.0, 0.5, 0.25])
        model = pca_fit(x, 1.0)
        gram = model.components @ model.components.T
        assert np.abs(gram - np.eye(gram.shape[0])).max() < 1e-8
        projected = pca_apply(model, x)
        cov = np.cov(projected, rowvar=False)
        off = cov - np.diag(np.diag(cov))
        assert np.abs(off).max() < 1e-8

    def test_distances_preserved_at_full_retention(self, rng):
        x = rng.normal(size=(30, 4))
        model = pca_fit(x, 1.0)
        assert model.components.shape[0] == 4
        projected = pca_apply(model, x)
        d_orig = np.linalg.norm(x[:, None] - x[None, :], axis=-1)
        d_proj = np.linalg.norm(projected[:, None] - projected[None, :], axis=-1)
        assert np.abs(d_orig - d_proj).max() < 1e-8

    def test_ratio_nonincreasing_property(self, rng):
        for _ in range(5):
            x = rng.normal(size=(25, 6))
            model = pca_fit(x, 1.0)
            ratio = model.explained_variance_ratio
            assert np.all(np.diff(ratio) <= 1e-12)
            assert ratio.sum() <= 1.0 + 1e-9

    def test_input_validation(self):
        with pytest.raises(ValueError):
            pca_fit(np.ones((1, 3)), 0.99)
        with pytest.raises(ValueError):
            pca_fit(np.ones((5, 3)), 0.0)
        model = pca_fit(np.random.default_rng(0).normal(size=(10, 3)), 1.0)
        with pytest.raises(ValueError):
            pca_apply(model, np.ones((2, 5)))

    @pytest.mark.parametrize("shape", [(6, 3), (6, 40)])
    def test_zero_variance_gets_one_dummy_component(self, shape):
        model = pca_fit(np.full(shape, 2.5), 0.99)
        expected = np.zeros((1, shape[1]))
        expected[0, 0] = 1.0
        assert np.array_equal(model.components, expected)
        assert model.explained_variance_ratio.tolist() == [1.0]

    @pytest.mark.parametrize("shape", [(10, 3), (10, 40)])
    def test_non_finite_input_rejected(self, shape):
        x = np.random.default_rng(0).normal(size=shape)
        x[2, 1] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            pca_fit(x, 0.99)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_smallest_k_reaching_target(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(20, 5)) * rng.uniform(0.1, 4.0, size=5)
        target = rng.uniform(0.3, 1.0)
        model = pca_fit(x, target)
        values, _ = eig_oracle(x)
        cum = np.cumsum(values) / values.sum()
        oracle_k = int(np.searchsorted(cum, target - 1e-12) + 1)
        assert model.components.shape[0] == oracle_k


class TestFeatureCache:
    def test_round_trip_and_key_sensitivity(self, tmp_path):
        seq = build_gaze_features(make_trial(gaze=make_gaze()))
        cache = FeatureCache(tmp_path)
        assert cache.get((1, 0), Modality.GAZE, "k1", 1) is None
        cache.put(seq, "k1")
        back = cache.get((1, 0), Modality.GAZE, "k1", 1)
        assert back is not None
        assert np.array_equal(back.series.values, seq.series.values)
        assert back.series.start_time_s == seq.series.start_time_s
        assert cache.get((1, 0), Modality.GAZE, "other-key", 1) is None
        assert cache.get((2, 0), Modality.GAZE, "k1", 1) is None

    def test_truncated_file_is_a_miss_and_rewritten_whole(self, tmp_path):
        seq = build_gaze_features(make_trial(gaze=make_gaze()))
        cache = FeatureCache(tmp_path)
        cache.put(seq, "k1")
        [path] = tmp_path.iterdir()
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert cache.get((1, 0), Modality.GAZE, "k1", 1) is None
        cache.put(seq, "k1")
        back = cache.get((1, 0), Modality.GAZE, "k1", 1)
        assert np.array_equal(back.series.values, seq.series.values)
        assert list(tmp_path.iterdir()) == [path]  # no temporary file left behind

    def test_eeg_cache_key_is_unchanged(self, tmp_path):
        # Entries written under this key by earlier versions must still hit.
        values = (np.arange(2 * 1101) % 7).reshape(2, 1101).T.astype(float)
        trial = make_trial(eeg=make_eeg(channels=["Cz", "C3"], values=values))
        cached_eeg_features(trial, ["Cz", "C3"], default_tf_spec(8, 12), True,
                            FeatureCache(tmp_path))
        [path] = tmp_path.iterdir()
        assert path.name == "p001_t0000_eeg_53972df69c9c04d5.npz"
        with np.load(path) as data:
            key = str(data["key"])
        assert key == "f8-9-10-11-12_c3_s0.05_chCz-C3_log1_eegd0cc516f2f07e217"

    def test_eeg_features_are_built_once_then_served(self, tmp_path, monkeypatch):
        trial = make_trial(trial_id=3, eeg=make_eeg(channels=["Cz", "C3"]))
        spec = default_tf_spec(8, 12)
        built = build_eeg_features(trial, ["Cz", "C3"], spec)
        cache = FeatureCache(tmp_path)
        first = cached_eeg_features(trial, ["Cz", "C3"], spec, False, cache)
        assert np.array_equal(first.series.values, built.series.values)

        def no_build(*args, **kwargs):
            raise AssertionError("a cached trial was built again")

        monkeypatch.setattr(features, "build_eeg_features", no_build)
        served = cached_eeg_features(trial, ["Cz", "C3"], spec, False, cache)
        assert np.array_equal(served.series.values, built.series.values)
        assert (served.trial_ref, served.label) == ((1, 3), built.label)
        assert len(list(tmp_path.iterdir())) == 1

    def test_dataset_rewritten_in_place_gets_fresh_eeg_features(self, tmp_path):
        profile = tmp_path / "profile.txt"
        profile.write_text(
            "[synth]\nparticipants = 2\ntrials_per_condition = 5\nmodalities = eeg\n"
        )
        data, other = tmp_path / "data", tmp_path / "other"
        for root, seed in ((data, 3), (other, 4)):
            synth = ["synth", "--profile", str(profile), "--out", str(root), "--seed", str(seed)]
            assert main(synth) == 0
        config = (
            f"[dataset]\nroot = {data}\n"
            "[experiment]\nmodalities = eeg\nmodel = lda\nseed = 1\nmin_trials = 10\n"
            "[cv]\nfolds = 2\nrepeats = 1\n"
            "[windows]\nfirst_end_s = 0.0\nlast_end_s = 1.0\nstep_s = 0.5\n"
            "[features]\ntf_freq_lo_hz = 8\ntf_freq_hi_hz = 12\n{cache}"
            "[output]\ndir = ./out\n"
        )
        cached, uncached = tmp_path / "cached.txt", tmp_path / "uncached.txt"
        cached.write_text(config.format(cache=f"cache_dir = {tmp_path / 'cache'}\n"))
        uncached.write_text(config.format(cache=""))

        def run(cfg, out):
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / out)]) == 0
            return (tmp_path / out / "results.csv").read_bytes()

        before = run(cached, "before")
        # Regenerate participant 2's EEG in place: same file names, new content.
        rewritten = sorted((other / "eeg").glob("p02_*.csv"))
        assert rewritten
        for path in rewritten:
            (data / "eeg" / path.name).write_bytes(path.read_bytes())
        fresh = run(uncached, "fresh")
        assert fresh != before
        assert run(cached, "after") == fresh


class TestDeterminism:
    def test_identical_trial_bytes_give_identical_features(self, rng):
        values = rng.normal(size=(2, 1101)).T
        eeg_a = make_eeg(channels=["Cz", "C3"], values=values.copy())
        eeg_b = make_eeg(channels=["Cz", "C3"], values=values.copy())
        spec = TfSpec(freqs_hz=(8.0, 12.0, 20.0), n_cycles=3.0, output_step_s=0.05)
        a = build_eeg_features(make_trial(eeg=eeg_a), channels=["Cz", "C3"], tf=spec)
        b = build_eeg_features(make_trial(eeg=eeg_b), channels=["Cz", "C3"], tf=spec)
        ha = hashlib.sha256(a.series.values.tobytes()).hexdigest()
        hb = hashlib.sha256(b.series.values.tobytes()).hexdigest()
        assert ha == hb
