"""Unit tests for trace synthesis."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.phy.signal import (
    Emission,
    Trace,
    concatenate_traces,
    received_amplitude_v,
    synthesize_trace,
)


class TestEmission:
    def test_end_time(self):
        e = Emission(start_s=1.0, duration_s=0.5, amplitude_v=0.2)
        assert e.end_s == 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            Emission(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            Emission(0.0, 1.0, -1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["start_s", "duration_s", "amplitude_v"])
    def test_non_finite_field_rejected(self, field, value):
        fields = {"start_s": 0.0, "duration_s": 1e-5, "amplitude_v": 0.5}
        fields[field] = value
        with pytest.raises(ValueError, match=f"emission {field} must be finite"):
            Emission(**fields)


class TestTrace:
    def test_duration(self):
        t = Trace(samples=np.zeros(100), sample_rate_hz=100.0)
        assert t.duration_s == pytest.approx(1.0)

    def test_times_absolute(self):
        t = Trace(samples=np.zeros(10), sample_rate_hz=10.0, start_s=5.0)
        times = t.times()
        assert times[0] == 5.0
        assert times[-1] == pytest.approx(5.9)

    def test_slice(self):
        t = Trace(samples=np.arange(100, dtype=float), sample_rate_hz=100.0)
        s = t.slice(0.25, 0.50)
        assert s.samples.size == 25
        assert s.start_s == pytest.approx(0.25)
        assert s.samples[0] == 25.0

    def test_slice_outside_raises(self):
        t = Trace(samples=np.zeros(10), sample_rate_hz=10.0)
        with pytest.raises(ValueError):
            t.slice(5.0, 6.0)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Trace(samples=np.zeros(10), sample_rate_hz=0.0)


class TestSynthesis:
    def test_frame_visible_above_noise(self):
        em = Emission(start_s=0.3e-3, duration_s=0.2e-3, amplitude_v=0.5)
        trace = synthesize_trace([em], duration_s=1e-3, noise_floor_v=0.01,
                                 rng=np.random.default_rng(0))
        mid = trace.slice(0.35e-3, 0.45e-3)
        quiet = trace.slice(0.0, 0.2e-3)
        assert np.mean(mid.samples) > 10 * np.mean(quiet.samples)

    def test_amplitude_preserved_in_plateau(self):
        em = Emission(start_s=0.2e-3, duration_s=0.5e-3, amplitude_v=0.8)
        trace = synthesize_trace([em], duration_s=1e-3, noise_floor_v=0.0,
                                 rng=np.random.default_rng(0))
        mid = trace.slice(0.35e-3, 0.55e-3)
        assert np.median(mid.samples) == pytest.approx(0.8, rel=0.02)

    def test_overlapping_emissions_combine_rss(self):
        a = Emission(0.0, 1e-3, amplitude_v=0.3)
        b = Emission(0.0, 1e-3, amplitude_v=0.4)
        trace = synthesize_trace([a, b], duration_s=1e-3, noise_floor_v=0.0,
                                 rng=np.random.default_rng(0))
        mid = trace.slice(0.4e-3, 0.6e-3)
        assert np.median(mid.samples) == pytest.approx(0.5, rel=0.02)

    def test_emission_outside_window_clipped(self):
        em = Emission(start_s=2.0, duration_s=1.0, amplitude_v=1.0)
        trace = synthesize_trace([em], duration_s=1e-3, noise_floor_v=0.0)
        assert np.all(trace.samples == 0.0)

    def test_noise_floor_level(self):
        trace = synthesize_trace([], duration_s=1e-3, noise_floor_v=0.02,
                                 rng=np.random.default_rng(1))
        # Rayleigh with scale 0.02 -> mean ~ 0.0251.
        assert np.mean(trace.samples) == pytest.approx(0.0251, rel=0.05)

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            synthesize_trace([], duration_s=0.0)

    @pytest.mark.parametrize("kwargs, message", [
        pytest.param({"duration_s": math.nan},
                     "duration must be finite and positive", id="duration-nan"),
        pytest.param({"duration_s": math.inf},
                     "duration must be finite and positive", id="duration-inf"),
        pytest.param({"duration_s": -1e-3},
                     "duration must be finite and positive", id="duration-negative"),
        pytest.param({"sample_rate_hz": 0.0},
                     "sample rate must be finite and positive", id="rate-zero"),
        pytest.param({"sample_rate_hz": -1e8},
                     "sample rate must be finite and positive", id="rate-negative"),
        pytest.param({"sample_rate_hz": math.inf},
                     "sample rate must be finite and positive", id="rate-inf"),
        pytest.param({"sample_rate_hz": math.nan},
                     "sample rate must be finite and positive", id="rate-nan"),
        pytest.param({"noise_floor_v": -0.01},
                     "noise floor must be finite and non-negative", id="noise-negative"),
        pytest.param({"noise_floor_v": math.nan},
                     "noise floor must be finite and non-negative", id="noise-nan"),
        pytest.param({"noise_floor_v": math.inf},
                     "noise floor must be finite and non-negative", id="noise-inf"),
    ])
    def test_invalid_scalar_argument(self, kwargs, message):
        args = {"duration_s": 1e-3, **kwargs}
        with pytest.raises(ValueError, match=message):
            synthesize_trace([], rng=np.random.default_rng(0), **args)


def dense_reference(emissions, duration_s, sample_rate_hz, noise_floor_v, rng,
                    ramp_fraction, start_s=0.0):
    """The full-length formula: every sample is sqrt(power + noise**2)."""
    n = int(round(duration_s * sample_rate_hz))
    power = np.zeros(n)
    end_s = start_s + duration_s
    for em in emissions:
        if em.end_s <= start_s or em.start_s >= end_s:
            continue
        i0 = max(0, int(round((em.start_s - start_s) * sample_rate_hz)))
        i1 = min(n, int(round((em.end_s - start_s) * sample_rate_hz)))
        if i1 <= i0:
            continue
        length = i1 - i0
        envelope = np.full(length, em.amplitude_v)
        ramp = max(1, int(ramp_fraction * length))
        if 2 * ramp < length:
            up = np.linspace(0.0, 1.0, ramp, endpoint=False)
            envelope[:ramp] *= up
            envelope[length - ramp:] *= up[::-1]
        power[i0:i1] += envelope**2
    if noise_floor_v > 0:
        noise = rng.rayleigh(scale=noise_floor_v, size=n)
    else:
        noise = np.zeros(n)
    return np.sqrt(power + noise**2)


# 200 samples at 1 MS/s; emissions may start before and end after it.
_RATE_HZ = 1e6
_WINDOW_S = 200e-6
_emission = st.builds(
    Emission,
    start_s=st.floats(-60e-6, 240e-6),
    duration_s=st.floats(0.5e-6, 150e-6),
    amplitude_v=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
)
_STACK = [Emission(40e-6, 100e-6, 0.3), Emission(60e-6, 70e-6, 0.7),
          Emission(50e-6, 30e-6, 0.11), Emission(55e-6, 90e-6, 0.0)]
_STRADDLE = [Emission(-20e-6, 50e-6, 0.4), Emission(180e-6, 60e-6, 0.9),
             Emission(-10e-6, 230e-6, 0.05)]


class TestSparseSynthesisMatchesDense:
    @settings(max_examples=150, deadline=None)
    @given(
        emissions=st.lists(_emission, max_size=10),
        noise_floor_v=st.sampled_from([0.0, 0.01, 0.003, 0.5]),
        ramp_fraction=st.sampled_from([0.0, 0.02, 0.3]),
        seed=st.integers(0, 2**16),
    )
    @example(emissions=_STACK, noise_floor_v=0.01, ramp_fraction=0.3, seed=1)
    @example(emissions=_STACK, noise_floor_v=0.0, ramp_fraction=0.0, seed=1)
    @example(emissions=_STRADDLE, noise_floor_v=0.01, ramp_fraction=0.0, seed=2)
    @example(emissions=_STRADDLE, noise_floor_v=0.0, ramp_fraction=0.3, seed=2)
    def test_bit_identical(self, emissions, noise_floor_v, ramp_fraction, seed):
        trace = synthesize_trace(
            emissions, duration_s=_WINDOW_S, sample_rate_hz=_RATE_HZ,
            noise_floor_v=noise_floor_v, rng=np.random.default_rng(seed),
            ramp_fraction=ramp_fraction,
        )
        expected = dense_reference(
            emissions, _WINDOW_S, _RATE_HZ, noise_floor_v,
            np.random.default_rng(seed), ramp_fraction,
        )
        assert trace.samples.tobytes() == expected.tobytes()


class TestConcatenation:
    def test_contiguous_segments(self):
        a = Trace(samples=np.ones(10), sample_rate_hz=10.0, start_s=0.0)
        b = Trace(samples=np.zeros(10), sample_rate_hz=10.0, start_s=1.0)
        merged = concatenate_traces([a, b])
        assert merged.samples.size == 20
        assert merged.end_s == pytest.approx(2.0)

    def test_gap_rejected(self):
        a = Trace(samples=np.ones(10), sample_rate_hz=10.0, start_s=0.0)
        b = Trace(samples=np.zeros(10), sample_rate_hz=10.0, start_s=2.0)
        with pytest.raises(ValueError):
            concatenate_traces([a, b])

    def test_rate_mismatch_rejected(self):
        a = Trace(samples=np.ones(10), sample_rate_hz=10.0)
        b = Trace(samples=np.ones(10), sample_rate_hz=20.0, start_s=1.0)
        with pytest.raises(ValueError):
            concatenate_traces([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            concatenate_traces([])


class TestAmplitudeMapping:
    def test_reference_point(self):
        assert received_amplitude_v(-30.0) == pytest.approx(1.0)

    def test_square_root_power_scaling(self):
        # -20 dB of power is a factor 10 in amplitude.
        assert received_amplitude_v(-50.0) == pytest.approx(0.1)

    def test_monotone(self):
        assert received_amplitude_v(-40.0) < received_amplitude_v(-35.0)
