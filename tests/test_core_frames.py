"""Unit tests for trace-based frame detection and classification."""

from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.frames import (
    DetectedFrame,
    FrameDetector,
    burst_durations_s,
    estimate_periodicity_s,
    group_bursts,
    split_sources_by_amplitude,
)
from repro.phy.signal import Emission, Trace, synthesize_trace


def trace_of(emissions, duration=1e-3, noise=0.01, seed=0):
    return synthesize_trace(
        emissions, duration_s=duration, noise_floor_v=noise,
        rng=np.random.default_rng(seed),
    )


class TestDetection:
    def test_single_frame_recovered(self):
        em = Emission(200e-6, 50e-6, 0.5)
        frames = FrameDetector(threshold_v=0.1).detect(trace_of([em]))
        assert len(frames) == 1
        f = frames[0]
        assert f.start_s == pytest.approx(200e-6, abs=3e-6)
        assert f.duration_s == pytest.approx(50e-6, rel=0.1)
        assert f.mean_amplitude_v == pytest.approx(0.5, rel=0.1)

    def test_multiple_frames_in_order(self):
        ems = [Emission(i * 100e-6, 30e-6, 0.4) for i in range(5)]
        frames = FrameDetector(threshold_v=0.1).detect(trace_of(ems))
        assert len(frames) == 5
        starts = [f.start_s for f in frames]
        assert starts == sorted(starts)

    def test_noise_only_yields_nothing(self):
        frames = FrameDetector(threshold_v=0.1).detect(trace_of([]))
        assert frames == []

    def test_auto_threshold_from_noise(self):
        em = Emission(300e-6, 80e-6, 0.5)
        frames = FrameDetector().detect(trace_of([em]))
        assert len(frames) == 1

    def test_min_duration_filters_spikes(self):
        em = Emission(100e-6, 0.5e-6, 0.5)  # half-microsecond blip
        frames = FrameDetector(threshold_v=0.1, min_duration_s=2e-6).detect(trace_of([em]))
        assert frames == []

    def test_merge_gap_rejoins_split_frames(self):
        # Two bumps 0.3 us apart merge into one frame.
        ems = [Emission(100e-6, 10e-6, 0.5), Emission(110.3e-6, 10e-6, 0.5)]
        frames = FrameDetector(threshold_v=0.1, merge_gap_s=0.5e-6).detect(trace_of(ems))
        assert len(frames) == 1

    def test_distinct_frames_not_merged(self):
        ems = [Emission(100e-6, 10e-6, 0.5), Emission(150e-6, 10e-6, 0.5)]
        frames = FrameDetector(threshold_v=0.1, merge_gap_s=0.5e-6).detect(trace_of(ems))
        assert len(frames) == 2

    def test_frame_touching_trace_edges(self):
        em = Emission(-5e-6, 20e-6, 0.5)  # starts before the capture
        frames = FrameDetector(threshold_v=0.1).detect(trace_of([em], duration=100e-6))
        assert len(frames) == 1
        assert frames[0].start_s == pytest.approx(0.0, abs=2e-6)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            FrameDetector(threshold_v=0.0)
        with pytest.raises(ValueError):
            FrameDetector(auto_factor=1.0)


def diff_detect_reference(detector, trace):
    """``FrameDetector.detect`` with run edges found by ``np.diff``."""
    threshold = detector.resolve_threshold(trace)
    above = trace.samples >= threshold
    if not above.any():
        return []
    edges = np.flatnonzero(np.diff(above.astype(np.int8)))
    starts = list(edges[~above[edges]] + 1)
    ends = list(edges[above[edges]] + 1)
    if above[0]:
        starts.insert(0, 0)
    if above[-1]:
        ends.append(above.size)
    rate = trace.sample_rate_hz
    merge_gap_samples = int(round(detector.merge_gap_s * rate))
    merged: List[Tuple[int, int]] = []
    for s, e in zip(starts, ends):
        if merged and s - merged[-1][1] <= merge_gap_samples:
            merged[-1] = (merged[-1][0], e)
        else:
            merged.append((s, e))
    min_samples = max(1, int(round(detector.min_duration_s * rate)))
    frames = []
    for s, e in merged:
        if e - s < min_samples:
            continue
        chunk = trace.samples[s:e]
        frames.append(DetectedFrame(
            start_s=trace.start_s + s / rate,
            duration_s=(e - s) / rate,
            mean_amplitude_v=float(np.mean(chunk)),
            peak_amplitude_v=float(np.max(chunk)),
        ))
    return frames


# Runs of (level, samples) at 10 MS/s: the merge gaps 0.5 us and 5 us
# are 5 and 50 samples, the default minimum duration 10.
_runs = st.lists(
    st.tuples(st.floats(0.0, 1.0), st.integers(1, 80)), min_size=1, max_size=24,
)


class TestEdgeFinderMatchesDiff:
    @settings(max_examples=300, deadline=None)
    @given(
        runs=_runs,
        threshold_v=st.sampled_from([None, 0.05, 0.3]),
        merge_gap_s=st.sampled_from([0.5e-6, 5e-6]),
        start_s=st.sampled_from([0.0, 1.25e-3]),
    )
    @example(runs=[(0.5, 30), (0.0, 20), (0.6, 4)], threshold_v=0.05,
             merge_gap_s=0.5e-6, start_s=0.0)
    @example(runs=[(0.0, 30), (0.5, 20), (0.0, 4)], threshold_v=None,
             merge_gap_s=5e-6, start_s=0.0)
    @example(runs=[(0.5, 30)], threshold_v=0.05, merge_gap_s=0.5e-6, start_s=0.0)
    def test_same_frames(self, runs, threshold_v, merge_gap_s, start_s):
        samples = np.repeat([level for level, _ in runs], [k for _, k in runs])
        trace = Trace(samples=samples, sample_rate_hz=1e7, start_s=start_s)
        detector = FrameDetector(threshold_v=threshold_v, merge_gap_s=merge_gap_s)
        assert detector.detect(trace) == diff_detect_reference(detector, trace)

    def test_noisy_capture(self):
        ems = [Emission(i * 37e-6, (3 + i % 7) * 2e-6, 0.05 + 0.1 * (i % 3))
               for i in range(25)]
        trace = trace_of(ems, seed=4)
        for detector in (FrameDetector(threshold_v=0.1), FrameDetector(),
                         FrameDetector(threshold_v=0.1, merge_gap_s=5e-6)):
            assert detector.detect(trace) == diff_detect_reference(detector, trace)


class TestSourceSeparation:
    def test_two_amplitude_clusters(self):
        ems = [Emission(i * 50e-6, 20e-6, 0.8 if i % 2 else 0.2) for i in range(10)]
        frames = FrameDetector(threshold_v=0.05).detect(trace_of(ems))
        strong, weak = split_sources_by_amplitude(frames)
        assert len(strong) == 5 and len(weak) == 5
        assert min(f.mean_amplitude_v for f in strong) > max(
            f.mean_amplitude_v for f in weak
        )

    def test_identical_amplitudes_single_cluster(self):
        frames = [DetectedFrame(i * 1e-4, 1e-5, 0.5, 0.5) for i in range(4)]
        strong, weak = split_sources_by_amplitude(frames)
        assert len(strong) == 4 and weak == []

    def test_empty_input(self):
        assert split_sources_by_amplitude([]) == ([], [])


class TestPeriodicity:
    def _periodic(self, period, n=10, jitter=0.0, seed=0):
        rng = np.random.default_rng(seed)
        return [
            DetectedFrame(i * period + rng.normal(0, jitter), 5e-6, 0.5, 0.5)
            for i in range(n)
        ]

    def test_exact_period_recovered(self):
        frames = self._periodic(1.1e-3)
        assert estimate_periodicity_s(frames) == pytest.approx(1.1e-3)

    def test_jittered_period_recovered(self):
        frames = self._periodic(102.4e-3, jitter=1e-3)
        assert estimate_periodicity_s(frames) == pytest.approx(102.4e-3, rel=0.05)

    def test_aperiodic_returns_none(self):
        rng = np.random.default_rng(1)
        starts = np.cumsum(rng.exponential(1e-3, size=20))
        frames = [DetectedFrame(s, 5e-6, 0.5, 0.5) for s in starts]
        assert estimate_periodicity_s(frames) is None

    def test_too_few_frames_returns_none(self):
        assert estimate_periodicity_s(self._periodic(1e-3, n=2)) is None

    def test_order_independent(self):
        frames = self._periodic(0.224e-3)
        shuffled = list(reversed(frames))
        assert estimate_periodicity_s(shuffled) == pytest.approx(0.224e-3)


class TestBursts:
    def test_gap_splits_bursts(self):
        frames = [
            DetectedFrame(0.0, 10e-6, 0.5, 0.5),
            DetectedFrame(15e-6, 10e-6, 0.5, 0.5),
            DetectedFrame(500e-6, 10e-6, 0.5, 0.5),
        ]
        bursts = group_bursts(frames, gap_threshold_s=50e-6)
        assert [len(b) for b in bursts] == [2, 1]

    def test_single_burst(self):
        frames = [DetectedFrame(i * 20e-6, 10e-6, 0.5, 0.5) for i in range(5)]
        bursts = group_bursts(frames, gap_threshold_s=50e-6)
        assert len(bursts) == 1

    def test_burst_durations(self):
        frames = [
            DetectedFrame(0.0, 10e-6, 0.5, 0.5),
            DetectedFrame(20e-6, 10e-6, 0.5, 0.5),
        ]
        (duration,) = burst_durations_s(group_bursts(frames))
        assert duration == pytest.approx(30e-6)

    def test_empty_input(self):
        assert group_bursts([]) == []

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            group_bursts([], gap_threshold_s=0.0)
