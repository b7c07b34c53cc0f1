"""Synthesis of oscilloscope amplitude traces.

The paper's measurement rig never decodes 60 GHz frames: the Vubiq
down-converter's analog I/Q output is undersampled at 1e8 samples per
second, which destroys the modulation but preserves *timing and
amplitude* of each frame (Section 3.1).  All of the paper's frame-level
results are extracted from those amplitude envelopes.

This module synthesizes exactly that kind of trace: a list of
:class:`Emission` events (frame on air from ``start_s`` for
``duration_s`` with envelope amplitude ``amplitude_v``) becomes a noisy
sampled waveform.  The analysis pipeline in :mod:`repro.core.frames`
then recovers the frames with the same threshold-based detection the
authors used, closing the loop: we validate the *analysis* code against
traces whose ground truth we know.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.analysis.dbmath import db_to_amplitude_scalar
from repro.seeding import fallback_rng

#: Sample rate used in most of the paper's captures (Section 3.1).
DEFAULT_SAMPLE_RATE_HZ = 1.0e8


@dataclass(frozen=True)
class Emission:
    """One frame observed on the air at the measurement antenna.

    Attributes:
        start_s: Absolute start time of the frame.
        duration_s: Frame on-air duration.
        amplitude_v: Envelope amplitude at the measurement receiver, in
            volts at the scope input.  Encodes distance, antenna
            patterns, and TX power — the Vubiq device computes it.
        source: Free-form label of the transmitting device ("laptop",
            "dock", "wihd-tx", ...), carried for ground-truth checks.
        kind: Frame kind label ("data", "ack", "beacon", "discovery",
            "rts", "cts"), also ground truth only.
    """

    start_s: float
    duration_s: float
    amplitude_v: float
    source: str = ""
    kind: str = ""

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("emission duration must be positive")
        if self.amplitude_v < 0:
            raise ValueError("emission amplitude must be non-negative")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


@dataclass(frozen=True)
class Trace:
    """A sampled amplitude-envelope capture.

    Attributes:
        samples: Envelope magnitude per sample, volts (non-negative).
        sample_rate_hz: Sampling rate.
        start_s: Absolute time of the first sample.
    """

    samples: np.ndarray
    sample_rate_hz: float
    start_s: float = 0.0

    def __post_init__(self) -> None:
        if self.sample_rate_hz <= 0:
            raise ValueError("sample rate must be positive")

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def times(self) -> np.ndarray:
        """Absolute time of every sample."""
        return self.start_s + np.arange(self.samples.size) / self.sample_rate_hz

    def slice(self, t0: float, t1: float) -> "Trace":
        """Sub-trace covering [t0, t1) in absolute time."""
        if t1 <= t0:
            raise ValueError("need t1 > t0")
        i0 = max(0, int(round((t0 - self.start_s) * self.sample_rate_hz)))
        i1 = min(self.samples.size, int(round((t1 - self.start_s) * self.sample_rate_hz)))
        if i1 <= i0:
            raise ValueError("slice window does not overlap the trace")
        return Trace(
            samples=self.samples[i0:i1].copy(),
            sample_rate_hz=self.sample_rate_hz,
            start_s=self.start_s + i0 / self.sample_rate_hz,
        )


def synthesize_trace(
    emissions: Iterable[Emission],
    duration_s: float,
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ,
    start_s: float = 0.0,
    noise_floor_v: float = 0.01,
    rng: Optional[np.random.Generator] = None,
    ramp_fraction: float = 0.02,
) -> Trace:
    """Render emissions into a noisy sampled amplitude trace.

    Overlapping emissions (collisions!) combine root-sum-square, which
    is what an envelope detector sees for uncorrelated signals — so a
    weak WiHD frame under a strong D5000 frame shows up as the "elevated
    noise floor" of Figure 21a.

    Args:
        emissions: Frames on the air (any order; may extend outside the
            capture window and will be clipped).
        duration_s: Capture length.
        sample_rate_hz: Sampling rate (default matches the paper).
        start_s: Absolute time of the first sample.
        noise_floor_v: RMS amplitude of the receiver noise.
        rng: Randomness source for the noise.
        ramp_fraction: Fraction of each frame's duration spent ramping
            the envelope up/down, modeling TX spectral shaping.  Keeps
            edges slightly soft like real captures.
    """
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    if noise_floor_v < 0:
        raise ValueError("noise floor must be non-negative")
    # Without rng, draw a distinct deterministic fallback stream (noise
    # in separately synthesized traces must stay independent) and warn
    # so callers that forget to thread a campaign seed are surfaced.
    rng = rng if rng is not None else fallback_rng("synthesize_trace")
    n = int(round(duration_s * sample_rate_hz))
    power = np.zeros(n)  # accumulate in power domain (V^2)
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
    samples = np.sqrt(power + noise**2)
    return Trace(samples=samples, sample_rate_hz=sample_rate_hz, start_s=start_s)


def concatenate_traces(traces: Sequence[Trace]) -> Trace:
    """Concatenate back-to-back captures into one trace.

    Used to stitch oscilloscope record segments; the segments must be
    contiguous in time and share a sample rate.
    """
    if not traces:
        raise ValueError("nothing to concatenate")
    rate = traces[0].sample_rate_hz
    parts: List[np.ndarray] = []
    expected_start = traces[0].start_s
    for tr in traces:
        if tr.sample_rate_hz != rate:
            raise ValueError("sample rates differ between segments")
        if abs(tr.start_s - expected_start) > 1.0 / rate:
            raise ValueError("segments are not contiguous in time")
        parts.append(tr.samples)
        expected_start = tr.end_s
    return Trace(samples=np.concatenate(parts), sample_rate_hz=rate, start_s=traces[0].start_s)


def received_amplitude_v(power_dbm: float, reference_dbm: float = -30.0, reference_v: float = 1.0) -> float:
    """Map received RF power to a scope envelope amplitude in volts.

    The down-converter + scope chain is linear over its useful range;
    we anchor it so that ``reference_dbm`` produces ``reference_v`` at
    the scope.  Amplitude scales with the square root of power.
    """
    return reference_v * db_to_amplitude_scalar(power_dbm - reference_dbm)
