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

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

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
        # A NaN amplitude would pass the sign checks and fill the trace
        # with NaN samples; a NaN start would fail later, far from here.
        for name, value in (
            ("start_s", self.start_s),
            ("duration_s", self.duration_s),
            ("amplitude_v", self.amplitude_v),
        ):
            if not math.isfinite(value):
                raise ValueError(f"emission {name} must be finite, got {value!r}")
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

    Every sample is ``sqrt(power + noise**2)``, where ``power`` sums the
    squared envelopes of the emissions covering it (in emission order)
    and ``noise`` is one Rayleigh draw per sample.  The sum is taken
    only over the merged spans the emissions cover; every other sample
    is the noise draw itself.  That is bit-identical to the formula:
    a correctly rounded square followed by a correctly rounded square
    root returns ``|n|`` exactly in binary64 unless ``n**2`` underflows,
    which no noise floor above ~1e-145 V produces.  Frames cover a small
    share of a typical capture, so the full-length work is only the
    noise draw.

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
    if not (math.isfinite(duration_s) and duration_s > 0):
        raise ValueError(f"duration must be finite and positive, got {duration_s!r}")
    if not (math.isfinite(sample_rate_hz) and sample_rate_hz > 0):
        raise ValueError(
            f"sample rate must be finite and positive, got {sample_rate_hz!r}"
        )
    if not (math.isfinite(noise_floor_v) and noise_floor_v >= 0):
        raise ValueError(
            f"noise floor must be finite and non-negative, got {noise_floor_v!r}"
        )
    # Without rng, draw a distinct deterministic fallback stream (noise
    # in separately synthesized traces must stay independent) and warn
    # so callers that forget to thread a campaign seed are surfaced.
    rng = rng if rng is not None else fallback_rng("synthesize_trace")
    n = int(round(duration_s * sample_rate_hz))
    # Accumulate in the power domain (V^2).  np.zeros maps pages lazily,
    # so memory no emission touches is never written.
    power = np.zeros(n)
    spans: List[Tuple[int, int]] = []
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
        # Overlaps are summed in emission order: with three or more the
        # rounding depends on it.
        power[i0:i1] += envelope**2
        spans.append((i0, i1))
    if noise_floor_v > 0:
        samples = rng.rayleigh(scale=noise_floor_v, size=n)
    else:
        samples = np.zeros(n)
    for i0, i1 in _merge_spans(spans):
        noise = samples[i0:i1]
        np.sqrt(power[i0:i1] + noise**2, out=noise)
    return Trace(samples=samples, sample_rate_hz=sample_rate_hz, start_s=start_s)


def _merge_spans(spans: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Union of half-open index spans, as sorted disjoint spans."""
    merged: List[Tuple[int, int]] = []
    for i0, i1 in sorted(spans):
        if merged and i0 <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], i1))
        else:
            merged.append((i0, i1))
    return merged


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
