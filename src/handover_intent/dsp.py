"""Signal conditioning: IIR filtering, gap interpolation,
standardization, and the Morlet time-frequency transform, whose power comes
back as one (channels, times, frequencies) array."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core_data import TimeSeries


class FilterKind(Enum):
    BAND_PASS = "band_pass"
    LOW_PASS = "low_pass"


@dataclass(frozen=True)
class FilterSpec:
    kind: FilterKind
    high_cut_hz: float
    low_cut_hz: float | None = None
    order: int = 4
    zero_phase: bool = True

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if self.kind is FilterKind.BAND_PASS:
            if self.low_cut_hz is None or not 0 < self.low_cut_hz < self.high_cut_hz:
                raise ValueError(
                    f"band-pass needs 0 < low ({self.low_cut_hz}) < high "
                    f"({self.high_cut_hz})"
                )
        elif self.low_cut_hz is not None:
            raise ValueError("low_cut_hz only applies to band-pass filters")
        if not self.high_cut_hz > 0:
            raise ValueError("high_cut_hz must be positive")

    def validate_at(self, sample_rate_hz: float) -> None:
        nyquist = sample_rate_hz / 2.0
        if self.high_cut_hz >= nyquist:
            raise ValueError(
                f"cutoff {self.high_cut_hz} Hz >= Nyquist {nyquist} Hz"
            )


def band_pass(low_hz: float, high_hz: float, order: int = 4) -> FilterSpec:
    return FilterSpec(FilterKind.BAND_PASS, high_hz, low_hz, order)


def low_pass(high_hz: float, order: int = 4) -> FilterSpec:
    return FilterSpec(FilterKind.LOW_PASS, high_hz, order=order)


def _design(spec: FilterSpec, sample_rate_hz: float) -> np.ndarray:
    from scipy import signal as sps

    spec.validate_at(sample_rate_hz)
    if spec.kind is FilterKind.BAND_PASS:
        return sps.butter(
            spec.order,
            [spec.low_cut_hz, spec.high_cut_hz],
            btype="bandpass",
            fs=sample_rate_hz,
            output="sos",
        )
    return sps.butter(
        spec.order, spec.high_cut_hz, btype="lowpass", fs=sample_rate_hz, output="sos"
    )


def apply_filter(x: TimeSeries, spec: FilterSpec) -> TimeSeries:
    """Butterworth IIR filter along time; forward-backward when zero_phase."""
    from scipy import signal as sps

    sos = _design(spec, 1.0 / x.step_s)
    if spec.zero_phase:
        padlen = min(x.n_samples - 1, 3 * (2 * len(sos) + 1))
        out = sps.sosfiltfilt(sos, x.values, axis=0, padlen=padlen)
    else:
        out = sps.sosfilt(sos, x.values, axis=0)
    return TimeSeries(x.start_time_s, x.step_s, out)


def butterworth_magnitude(spec: FilterSpec, freq_hz: np.ndarray) -> np.ndarray:
    """Analytic magnitude response of the underlying analog prototype.

    For zero-phase application the effective magnitude is this squared.
    Used by verification code as an independent reference; the filter itself
    is realized digitally (bilinear transform), which matches this closely
    inside the pass band.
    """
    f = np.asarray(freq_hz, dtype=float)
    n = spec.order
    if spec.kind is FilterKind.LOW_PASS:
        return 1.0 / np.sqrt(1.0 + (f / spec.high_cut_hz) ** (2 * n))
    f1, f2 = spec.low_cut_hz, spec.high_cut_hz
    with np.errstate(divide="ignore"):
        ratio = np.where(f > 0, (f**2 - f1 * f2) / (f * (f2 - f1)), np.inf)
    return 1.0 / np.sqrt(1.0 + ratio ** (2 * n))


def interpolate_gaps(x: TimeSeries) -> TimeSeries:
    """Replace nan runs per column by linear interpolation between the nearest
    present neighbors; leading/trailing gaps take the nearest present value.

    Present values are untouched, so the operation is idempotent.
    """
    values = np.array(x.values, dtype=float)
    idx = np.arange(values.shape[0], dtype=float)
    for col in range(values.shape[1]):
        column = values[:, col]
        present = np.isfinite(column)
        if present.all():
            continue
        if not present.any():
            raise ValueError(f"column {col} has no present samples to interpolate from")
        # np.interp clamps outside the known range = nearest-value extension.
        values[:, col] = np.interp(idx, idx[present], column[present])
    return TimeSeries(x.start_time_s, x.step_s, values)


@dataclass(frozen=True)
class Standardization:
    """Per-column statistics fitted on training data only."""

    mean: np.ndarray
    std: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.mean.shape[0]:
            raise ValueError(
                f"feature count {x.shape[-1]} does not match fitted {self.mean.shape[0]}"
            )
        return (x - self.mean) / self.std


def standardize(x: np.ndarray) -> tuple[np.ndarray, Standardization]:
    """Zero-mean, unit-std columns (population std; constant columns map to 0),
    and the fitted statistics, whose ``apply`` maps held-out data."""
    x = np.asarray(x, dtype=float)
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    stats = Standardization(mean=mean, std=std)
    return stats.apply(x), stats


@dataclass(frozen=True)
class TfSpec:
    freqs_hz: tuple
    n_cycles: float = 3.0
    output_step_s: float = 0.05

    def __post_init__(self):
        freqs = tuple(float(f) for f in self.freqs_hz)
        if not freqs or any(f <= 0 for f in freqs):
            raise ValueError("freqs_hz must be non-empty and positive")
        if list(freqs) != sorted(freqs):
            raise ValueError("freqs_hz must be ascending")
        if self.n_cycles <= 0:
            raise ValueError("n_cycles must be positive")
        if self.output_step_s <= 0:
            raise ValueError("output_step_s must be positive")
        object.__setattr__(self, "freqs_hz", freqs)

    def validate_at(self, sample_rate_hz: float) -> None:
        nyquist = sample_rate_hz / 2.0
        if self.freqs_hz[-1] >= nyquist:
            raise ValueError(
                f"max frequency {self.freqs_hz[-1]} Hz >= Nyquist {nyquist} Hz"
            )
        if self.output_step_s < 1.0 / sample_rate_hz - 1e-12:
            raise ValueError("output_step_s must be >= the input step")

    def cache_key(self) -> str:
        return (
            "f" + "-".join(f"{f:g}" for f in self.freqs_hz)
            + f"_c{self.n_cycles:g}_s{self.output_step_s:g}"
        )


def default_tf_spec(lo_hz: int = 5, hi_hz: int = 40, **rest) -> TfSpec:
    """The integer lo_hz..hi_hz Hz grid, 5..40 Hz unless given; ``rest`` sets
    the other ``TfSpec`` fields (3-cycle wavelets, ~20 Hz feature rate)."""
    return TfSpec(freqs_hz=tuple(range(lo_hz, hi_hz + 1)), **rest)


def morlet_wavelet(freq_hz: float, n_cycles: float, step_s: float) -> np.ndarray:
    """Complex Morlet wavelet sampled at ``step_s``; sigma_t = n_cycles/(2 pi f),
    support cut off at +-5 sigma_t.

    Normalized to unit envelope L1 norm, i.e. unit gain at the wavelet's own
    center frequency.  (Unit-energy normalization would tilt the response to
    an equal-amplitude tone by 1/f, dragging the spectral peak of few-cycle
    wavelets below the true frequency.)
    """
    sigma_t = n_cycles / (2.0 * math.pi * freq_hz)
    half = int(math.ceil(5.0 * sigma_t / step_s))
    t = np.arange(-half, half + 1) * step_s
    envelope = np.exp(-(t**2) / (2.0 * sigma_t**2))
    wavelet = envelope * np.exp(2j * math.pi * freq_hz * t)
    return wavelet / envelope.sum()


def morlet_tf(x: TimeSeries, spec: TfSpec) -> "tuple[np.ndarray, np.ndarray]":
    """Morlet time-frequency power of every channel of ``x``: the output
    times (T',) and the power (channels, T', F), nonnegative.

    Power is the squared magnitude of the same-mode convolution with each
    wavelet, kept every ``stride`` input samples starting at the first; only
    the kept samples are computed.  The stride is the output step in input
    samples, rounded to the nearest integer, so the emitted grid stays
    strictly uniform.  A request that falls halfway between two multiples
    of the input step is a tie that float noise in the step breaks: 50 ms
    on a 250 Hz input yields 52 ms when the step is exactly 1/250 s, but
    48 ms on a recording loaded from CSV, whose step (the median spacing of
    the parsed time column) lands a hair above 4 ms.
    """
    rate = 1.0 / x.step_s
    spec.validate_at(rate)
    stride = max(1, int(math.floor(spec.output_step_s / x.step_s + 0.5)))
    wavelets = [morlet_wavelet(f, spec.n_cycles, x.step_s) for f in spec.freqs_hz]
    longest = max(len(w) for w in wavelets)
    if longest > x.n_samples:
        raise ValueError(
            f"signal of {x.n_samples} samples shorter than the longest wavelet "
            f"({longest} samples at {spec.freqs_hz[0]:g} Hz); need at least "
            f"{longest} samples"
        )
    # Same-mode convolution at sample i is the dot product of the input
    # window centred on i with the time-reversed wavelet.  Every wavelet has
    # odd length, so centring each one in ``longest`` rows lets one sliding
    # window serve them all; real parts fill the first F columns, imaginary
    # parts the last F.  The windows of every channel, (channels, T', longest),
    # meet the bank in one product.
    half = (longest - 1) // 2
    bank = np.zeros((longest, len(wavelets)), dtype=complex)
    for j, wavelet in enumerate(wavelets):
        lo = half - (len(wavelet) - 1) // 2
        bank[lo : lo + len(wavelet), j] = wavelet[::-1]
    bank = np.hstack([bank.real, bank.imag])
    padded = np.pad(x.values.T, ((0, 0), (half, half)))
    coef = sliding_window_view(padded, longest, axis=1)[:, ::stride] @ bank
    n_freqs = len(wavelets)
    power = coef[..., :n_freqs] ** 2 + coef[..., n_freqs:] ** 2
    return x.times()[::stride], power
