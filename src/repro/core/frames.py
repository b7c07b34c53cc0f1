"""Frame extraction and classification from amplitude traces.

The measurement rig cannot decode frames (undersampled I/Q), so the
paper recovers frame-level structure purely from the envelope:

* a frame is a contiguous run of samples above a detection threshold;
* frames from different devices are separated by their average
  amplitude (Section 3.2: the notebook's direct-path frames are
  stronger than the dock's reflected ones);
* frame periodicity identifies beacons and discovery sweeps (Table 1);
* gaps between frames group them into bursts (the 2 ms TXOPs).

This module implements those steps.  It is deliberately independent of
the simulator: it consumes :class:`~repro.phy.signal.Trace` objects and
nothing else, exactly like the authors' Matlab scripts consumed scope
exports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.phy.signal import Trace


@dataclass(frozen=True)
class DetectedFrame:
    """A frame recovered from a trace by threshold detection."""

    start_s: float
    duration_s: float
    mean_amplitude_v: float
    peak_amplitude_v: float

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


class FrameDetector:
    """Threshold-based frame extraction.

    Args:
        threshold_v: Detection threshold.  When None, it is set
            automatically to ``auto_factor`` times the trace's median
            amplitude — the median is dominated by noise samples as
            long as the medium is not saturated.
        auto_factor: Multiplier for the automatic threshold.
        min_duration_s: Discard detections shorter than this (noise
            spikes).
        merge_gap_s: Merge detections separated by less than this —
            envelope ripple inside one frame must not split it.
    """

    def __init__(
        self,
        threshold_v: Optional[float] = None,
        auto_factor: float = 4.0,
        min_duration_s: float = 1.0e-6,
        merge_gap_s: float = 0.5e-6,
    ):
        if threshold_v is not None and threshold_v <= 0:
            raise ValueError("threshold must be positive")
        if auto_factor <= 1.0:
            raise ValueError("auto_factor must exceed 1")
        self.threshold_v = threshold_v
        self.auto_factor = auto_factor
        self.min_duration_s = min_duration_s
        self.merge_gap_s = merge_gap_s

    def resolve_threshold(self, trace: Trace) -> float:
        """The detection threshold used for a given trace."""
        if self.threshold_v is not None:
            return self.threshold_v
        return self.auto_factor * float(np.median(trace.samples))

    def detect(self, trace: Trace) -> List[DetectedFrame]:
        """Extract frames from a trace."""
        threshold = self.resolve_threshold(trace)
        above = trace.samples >= threshold
        if not above.any():
            return []
        # Run boundaries of the boolean mask: edge k lies between
        # samples k and k + 1.
        edges = np.flatnonzero(above[1:] != above[:-1])
        starts = list(edges[~above[edges]] + 1)
        ends = list(edges[above[edges]] + 1)
        if above[0]:
            starts.insert(0, 0)
        if above[-1]:
            ends.append(above.size)
        rate = trace.sample_rate_hz
        merge_gap_samples = int(round(self.merge_gap_s * rate))
        merged: List[Tuple[int, int]] = []
        for s, e in zip(starts, ends):
            if merged and s - merged[-1][1] <= merge_gap_samples:
                merged[-1] = (merged[-1][0], e)
            else:
                merged.append((s, e))
        min_samples = max(1, int(round(self.min_duration_s * rate)))
        frames = []
        for s, e in merged:
            if e - s < min_samples:
                continue
            chunk = trace.samples[s:e]
            frames.append(
                DetectedFrame(
                    start_s=trace.start_s + s / rate,
                    duration_s=(e - s) / rate,
                    mean_amplitude_v=float(np.mean(chunk)),
                    peak_amplitude_v=float(np.max(chunk)),
                )
            )
        return frames


def split_sources_by_amplitude(
    frames: Sequence[DetectedFrame],
    iterations: int = 20,
) -> Tuple[List[DetectedFrame], List[DetectedFrame]]:
    """Separate frames of two devices by mean amplitude (2-means).

    Reproduces the paper's trick of placing the down-converter so the
    notebook arrives on the direct path and the dock via a reflection:
    "the average amplitude of the notebook frames is larger ... and we
    can easily separate them."

    Returns:
        ``(strong, weak)`` — frames of the higher- and lower-amplitude
        cluster respectively.  If all frames have identical amplitude,
        everything lands in ``strong``.
    """
    if not frames:
        return [], []
    amps = np.array([f.mean_amplitude_v for f in frames])
    lo, hi = float(amps.min()), float(amps.max())
    if math.isclose(lo, hi, rel_tol=1e-9, abs_tol=1e-12):
        return list(frames), []
    c_low, c_high = lo, hi
    for _ in range(iterations):
        assign_high = np.abs(amps - c_high) < np.abs(amps - c_low)
        if assign_high.all() or (~assign_high).all():
            break
        new_high = float(amps[assign_high].mean())
        new_low = float(amps[~assign_high].mean())
        if math.isclose(new_high, c_high) and math.isclose(new_low, c_low):
            break
        c_high, c_low = new_high, new_low
    assign_high = np.abs(amps - c_high) < np.abs(amps - c_low)
    strong = [f for f, is_hi in zip(frames, assign_high) if is_hi]
    weak = [f for f, is_hi in zip(frames, assign_high) if not is_hi]
    return strong, weak


def estimate_periodicity_s(
    frames: Sequence[DetectedFrame],
    tolerance: float = 0.25,
) -> Optional[float]:
    """Estimate the repeat interval of a periodic frame stream.

    Takes the median inter-start gap and validates that the majority of
    gaps are within ``tolerance`` (relative) of it; returns None if the
    stream is not convincingly periodic.  This is how the Table 1
    periodicities are extracted from captures of idle links.
    """
    if len(frames) < 3:
        return None
    starts = np.array(sorted(f.start_s for f in frames))
    gaps = np.diff(starts)
    median = float(np.median(gaps))
    if median <= 0:
        return None
    close = np.abs(gaps - median) <= tolerance * median
    if close.mean() < 0.5:
        return None
    return float(np.mean(gaps[close]))


def group_bursts(
    frames: Sequence[DetectedFrame],
    gap_threshold_s: float = 50e-6,
) -> List[List[DetectedFrame]]:
    """Group frames into bursts separated by idle gaps.

    The WiGig data phase is burst-structured (max 2 ms per burst,
    Section 4.1); a gap longer than ``gap_threshold_s`` ends a burst.
    """
    if gap_threshold_s <= 0:
        raise ValueError("gap threshold must be positive")
    ordered = sorted(frames, key=lambda f: f.start_s)
    bursts: List[List[DetectedFrame]] = []
    for frame in ordered:
        if bursts and frame.start_s - bursts[-1][-1].end_s <= gap_threshold_s:
            bursts[-1].append(frame)
        else:
            bursts.append([frame])
    return bursts


def burst_durations_s(bursts: Sequence[Sequence[DetectedFrame]]) -> List[float]:
    """On-air span of each burst (first frame start to last frame end)."""
    return [b[-1].end_s - b[0].start_s for b in bursts if b]


def classify_detected_frames(
    frames: Sequence[DetectedFrame],
    timing=None,
) -> List[str]:
    """Label detected frames by duration, the way the paper did by eye.

    The WiGig frame classes occupy separable duration bands:

    * ``"ack"`` — ~2 us acknowledgments;
    * ``"control"`` — 3-8 us: RTS/CTS, beacons, single-MPDU data (the
      envelope cannot tell these apart; the paper used position within
      the burst and periodicity for the final call);
    * ``"data"`` — 8-30 us aggregated data frames;
    * ``"discovery"`` — ~1 ms sweeps;
    * ``"unknown"`` — anything else.

    Returns one label per input frame, in order.
    """
    from repro.mac.frames import WIGIG_TIMING

    timing = timing if timing is not None else WIGIG_TIMING
    labels = []
    for frame in frames:
        d = frame.duration_s
        if d < 0.6 * timing.beacon_frame_s:
            labels.append("ack")
        elif d <= timing.min_data_frame_s + 3e-6:
            labels.append("control")
        elif d <= timing.max_data_frame_s * 1.25:
            labels.append("data")
        elif abs(d - timing.discovery_frame_s) <= 0.4 * timing.discovery_frame_s:
            labels.append("discovery")
        else:
            labels.append("unknown")
    return labels
