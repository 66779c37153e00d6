import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handover_intent.dsp import (
    Standardization,
    TfSpec,
    apply_filter,
    band_pass,
    butterworth_magnitude,
    default_tf_spec,
    interpolate_gaps,
    low_pass,
    morlet_tf,
    morlet_wavelet,
    standardize,
)

from conftest import series


def sine(freq_hz, rate_hz, seconds, amplitude=1.0, phase=0.0):
    t = np.arange(0.0, seconds, 1.0 / rate_hz)
    return series(0.0, 1.0 / rate_hz, amplitude * np.sin(2 * np.pi * freq_hz * t + phase))


def measured_gain_and_phase(x, y, freq_hz, rate_hz):
    """Projection onto the quadrature pair over the steady middle third."""
    n = x.n_samples
    mid = slice(n // 3, 2 * n // 3)
    t = x.times()[mid]
    basis = np.stack([np.sin(2 * np.pi * freq_hz * t), np.cos(2 * np.pi * freq_hz * t)])
    def coef(v):
        return 2.0 / t.shape[0] * basis @ v
    cx, cy = coef(x.values[mid, 0]), coef(y.values[mid, 0])
    gain = np.hypot(*cy) / np.hypot(*cx)
    phase = np.arctan2(cy[1], cy[0]) - np.arctan2(cx[1], cx[0])
    return gain, (phase + np.pi) % (2 * np.pi) - np.pi


class TestFilter:
    def test_dc_rejected_by_band_pass(self):
        # Oracle: the band-pass response at 0 Hz is exactly zero.
        assert butterworth_magnitude(band_pass(1.0, 100.0), np.array([0.0]))[0] == 0.0
        x = series(0.0, 1e-3, np.ones(3000))
        y = apply_filter(x, band_pass(1.0, 100.0))
        assert np.abs(y.values[1000:2000]).max() < 1e-3

    def test_zero_signal_stays_zero(self):
        x = series(0.0, 0.004, np.zeros((500, 2)))
        y = apply_filter(x, low_pass(40.0))
        assert np.allclose(y.values, 0.0)

    def test_pass_band_sinusoid_amplitude_and_phase(self):
        # Oracle: analytic Butterworth magnitude at 10 Hz, squared for the
        # forward-backward pass; phase is zero by construction.
        x = sine(10.0, 250.0, 8.0)
        y = apply_filter(x, low_pass(40.0))
        gain, phase = measured_gain_and_phase(x, y, 10.0, 250.0)
        analytic = butterworth_magnitude(low_pass(40.0), np.array([10.0]))[0] ** 2
        assert abs(gain - analytic) < 0.01
        assert abs(gain - 1.0) < 0.01
        assert abs(phase) < 0.01

    def test_linearity(self, rng):
        x = series(0.0, 0.004, rng.normal(size=500))
        y = series(0.0, 0.004, rng.normal(size=500))
        spec = band_pass(2.0, 40.0)
        lhs = apply_filter(series(0.0, 0.004, 3.0 * x.values - 2.0 * y.values), spec)
        rhs = 3.0 * apply_filter(x, spec).values - 2.0 * apply_filter(y, spec).values
        scale = np.abs(rhs).max()
        assert np.abs(lhs.values - rhs).max() < 1e-9 * scale

    def test_zero_phase_keeps_pulse_peak(self):
        t = np.arange(1000) * 0.004
        pulse = np.exp(-0.5 * ((t - 2.0) / 0.1) ** 2)
        x = series(0.0, 0.004, pulse)
        y = apply_filter(x, low_pass(30.0))
        assert np.argmax(y.values[:, 0]) == np.argmax(x.values[:, 0])

    def test_cutoff_at_nyquist_rejected(self):
        x = series(0.0, 0.01, np.zeros(100))  # 100 Hz
        with pytest.raises(ValueError, match="Nyquist"):
            apply_filter(x, low_pass(50.0))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            band_pass(100.0, 1.0)
        with pytest.raises(ValueError):
            low_pass(-1.0)


class TestInterpolateGaps:
    def test_midpoint(self):
        x = series(0.0, 1.0, [1.0, np.nan, 3.0])
        assert interpolate_gaps(x).values[:, 0].tolist() == [1.0, 2.0, 3.0]

    def test_no_gaps_identity(self):
        x = series(0.0, 1.0, [1.0, 4.0, 9.0])
        assert np.array_equal(interpolate_gaps(x).values, x.values)

    def test_two_point_interior_gap(self):
        # Oracle: solve the line through (0, 0) and (3, 3) at points 1, 2.
        x = series(0.0, 1.0, [0.0, np.nan, np.nan, 3.0])
        assert interpolate_gaps(x).values[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_edges_take_nearest_value(self):
        x = series(0.0, 1.0, [np.nan, 2.0, 5.0, np.nan, np.nan])
        assert interpolate_gaps(x).values[:, 0].tolist() == [2.0, 2.0, 5.0, 5.0, 5.0]

    def test_all_missing_column_names_the_column(self):
        vals = np.stack([np.ones(4), np.full(4, np.nan)], axis=1)
        with pytest.raises(ValueError, match="column 1"):
            interpolate_gaps(series(0.0, 1.0, vals))

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_idempotent(self, data):
        n = data.draw(st.integers(3, 20))
        vals = np.array(
            data.draw(
                st.lists(
                    st.floats(-100, 100),
                    min_size=n,
                    max_size=n,
                )
            )
        )
        gaps = data.draw(st.lists(st.integers(0, n - 1), max_size=n // 2))
        vals[list(set(gaps))] = np.nan
        if not np.isfinite(vals).any():
            vals[0] = 0.0
        once = interpolate_gaps(series(0.0, 1.0, vals))
        twice = interpolate_gaps(once)
        assert np.array_equal(once.values, twice.values)
        present = np.isfinite(vals)
        assert np.array_equal(once.values[present, 0], vals[present])


class TestStandardize:
    def test_population_convention(self):
        out, stats = standardize(np.array([[2.0], [4.0]]))
        assert out[:, 0].tolist() == [-1.0, 1.0]
        assert stats.std[0] == pytest.approx(1.0)  # population std of [2, 4]

    def test_fit_then_apply_gives_zero_mean_unit_std(self, rng):
        x = rng.normal(3.0, 7.0, size=(40, 5))
        out, _ = standardize(x)
        assert np.abs(out.mean(axis=0)).max() < 1e-9
        assert np.abs(out.std(axis=0) - 1.0).max() < 1e-9

    def test_idempotent_on_fitted_data(self, rng):
        x = rng.normal(size=(30, 3))
        once, _ = standardize(x)
        twice, _ = standardize(once)
        assert np.abs(twice - once).max() < 1e-9

    def test_constant_column_maps_to_zero(self):
        out, _ = standardize(np.array([[5.0], [5.0], [5.0]]))
        assert out[:, 0].tolist() == [0.0, 0.0, 0.0]

    def test_held_out_data_uses_fitted_stats_only(self, rng):
        train = rng.normal(0.0, 1.0, size=(50, 2))
        test = rng.normal(5.0, 3.0, size=(20, 2))
        _, stats = standardize(train)
        out = stats.apply(test)
        # means stay far from zero because the test stats were never refit
        assert np.abs(out.mean(axis=0)).min() > 1.0

    def test_dimension_mismatch(self):
        _, stats = standardize(np.ones((3, 2)))
        with pytest.raises(ValueError):
            stats.apply(np.ones((3, 5)))


def direct_convolution_power(values, wavelet):
    """Oracle: explicit same-mode complex convolution, squared magnitude."""
    full = np.convolve(values, wavelet, mode="full")
    start = (len(wavelet) - 1) // 2
    coef = full[start : start + len(values)]
    return np.abs(coef) ** 2


def assert_matches_oracle(values, spec, stride, step=0.004):
    """Every channel's power equals the oracle's at every ``stride``-th sample,
    to 1e-12 of the oracle's largest value at that frequency."""
    times, power = morlet_tf(series(0.0, step, values), spec)
    kept = -(-values.shape[0] // stride)
    assert power.shape == (values.shape[1], kept, len(spec.freqs_hz))
    assert np.allclose(times, step * stride * np.arange(kept))
    for ch in range(values.shape[1]):
        for j, f in enumerate(spec.freqs_hz):
            wavelet = morlet_wavelet(f, spec.n_cycles, step)
            oracle = direct_convolution_power(values[:, ch], wavelet)[::stride]
            assert np.abs(power[ch, :, j] - oracle).max() <= 1e-12 * oracle.max()


class TestMorlet:
    def test_wavelet_shape_and_center_gain(self):
        w = morlet_wavelet(10.0, 3.0, 0.004)
        sigma_t = 3.0 / (2 * np.pi * 10.0)
        assert len(w) == 2 * int(np.ceil(5 * sigma_t / 0.004)) + 1
        assert np.abs(w).sum() == pytest.approx(1.0)
        # unit gain at the center frequency
        t = np.arange(len(w)) * 0.004
        tone = np.exp(2j * np.pi * 10.0 * t)
        assert abs(np.abs(np.vdot(w, tone)) - 1.0) < 1e-6

    def test_pure_tone_peaks_at_true_frequency(self):
        spec = default_tf_spec()
        for freq in (7.0, 12.0, 25.0, 38.0):
            power = morlet_tf(sine(freq, 250.0, 3.0), spec)[1][0]
            peak = spec.freqs_hz[np.argmax(power.mean(axis=0))]
            assert abs(peak - freq) <= 1.0

    def test_matches_direct_convolution_oracle(self, rng):
        x = rng.normal(size=300)
        spec = TfSpec(freqs_hz=(6.0, 11.0, 19.0), n_cycles=3.0, output_step_s=0.004)
        power = morlet_tf(series(0.0, 0.004, x), spec)[1][0]
        for j, f in enumerate(spec.freqs_hz):
            oracle = direct_convolution_power(x, morlet_wavelet(f, 3.0, 0.004))
            assert np.abs(power[:, j] - oracle).max() < 1e-9 * oracle.max()

    @pytest.mark.parametrize("stride", [2, 7, 12])
    def test_strided_output_matches_oracle(self, rng, stride):
        x = rng.normal(size=(503, 1))  # 503 is a multiple of none of the strides
        spec = TfSpec(freqs_hz=(6.0, 11.0, 19.0), n_cycles=3.0, output_step_s=0.004 * stride)
        assert_matches_oracle(x, spec, stride)

    def test_twelve_channels_match_oracle(self, rng):
        x = rng.normal(size=(400, 12)) * rng.uniform(0.5, 20.0, size=12)
        spec = TfSpec(freqs_hz=(8.0, 13.0, 30.0), n_cycles=3.0, output_step_s=0.012)
        assert_matches_oracle(x, spec, 3)

    def test_wavelets_of_different_lengths_match_oracle(self, rng):
        spec = TfSpec(freqs_hz=(5.0, 5.5, 7.0, 12.5, 23.0, 40.0), n_cycles=3.0,
                      output_step_s=0.02)
        lengths = [len(morlet_wavelet(f, 3.0, 0.004)) for f in spec.freqs_hz]
        assert len(set(lengths)) == len(lengths)
        assert_matches_oracle(rng.normal(size=(700, 2)), spec, 5)

    def test_signal_as_long_as_the_longest_wavelet_matches_oracle(self, rng):
        spec = TfSpec(freqs_hz=(5.0, 9.0, 40.0), n_cycles=3.0, output_step_s=0.008)
        longest = len(morlet_wavelet(5.0, 3.0, 0.004))
        assert_matches_oracle(rng.normal(size=(longest, 3)), spec, 2)
        with pytest.raises(ValueError, match="at least"):
            morlet_tf(series(0.0, 0.004, np.zeros(longest - 1)), spec)

    def test_zero_signal_zero_power(self):
        _, power = morlet_tf(series(0.0, 0.004, np.zeros(600)), default_tf_spec())
        assert np.all(power == 0.0)

    def test_power_is_quadratic_in_amplitude(self):
        spec = TfSpec(freqs_hz=(8.0, 14.0), n_cycles=3.0, output_step_s=0.02)
        _, base = morlet_tf(sine(10.0, 250.0, 2.0), spec)
        _, doubled = morlet_tf(sine(10.0, 250.0, 2.0, amplitude=2.0), spec)
        assert np.allclose(doubled, 4.0 * base, rtol=1e-9)

    def test_sign_flip_invariance(self, rng):
        x = rng.normal(size=400)
        spec = TfSpec(freqs_hz=(9.0, 21.0), n_cycles=3.0, output_step_s=0.01)
        _, a = morlet_tf(series(0.0, 0.004, x), spec)
        _, b = morlet_tf(series(0.0, 0.004, -x), spec)
        assert np.allclose(a, b)

    def test_short_signal_error_states_minimum_length(self):
        with pytest.raises(ValueError, match="at least"):
            morlet_tf(series(0.0, 0.004, np.zeros(50)), default_tf_spec())

    def test_output_step_snaps_to_grid(self):
        times, _ = morlet_tf(sine(10.0, 250.0, 3.0), default_tf_spec())
        step = times[1] - times[0]
        assert step == pytest.approx(0.052)  # nearest multiple of 4 ms to 50 ms
        assert np.allclose(np.diff(times), step)

    def test_half_step_tie_is_broken_by_float_noise_in_the_step(self):
        # 50 ms is 12.5 steps of 4 ms.  An exact 1/250 s step rounds up; the
        # median spacing of a time column parsed from CSV lands a hair above
        # 4 ms and rounds down.
        for step, expected in ((1.0 / 250.0, 0.052), (0.0040000000000000036, 0.048)):
            times, _ = morlet_tf(series(0.0, step, np.zeros(600)), default_tf_spec())
            assert times[1] - times[0] == pytest.approx(expected)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TfSpec(freqs_hz=())
        with pytest.raises(ValueError):
            TfSpec(freqs_hz=(10.0, 5.0))
        spec = TfSpec(freqs_hz=(5.0, 40.0))
        with pytest.raises(ValueError, match="Nyquist"):
            spec.validate_at(60.0)
