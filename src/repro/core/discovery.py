"""Discovery-frame analysis: sub-element splitting (Figures 3 and 16).

The D5000's device discovery frame lasts about 1 ms and consists of 32
sub-elements, each transmitted over a different quasi omni-directional
antenna pattern.  Because the sub-element order is identical in every
discovery frame, the paper measures the beam pattern of each
sub-element by averaging its amplitude across many frames and
positions.

This module performs the splitting step: given a trace (or a detected
frame within one) containing a discovery frame, cut it into its
sub-elements and return per-sub-element amplitude statistics.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.analysis.dbmath import amplitude_to_db
from repro.core.frames import DetectedFrame
from repro.mac.frames import DISCOVERY_SUBELEMENTS
from repro.phy.signal import Trace


def split_discovery_subelements(
    trace: Trace,
    frame: DetectedFrame,
    num_subelements: int = DISCOVERY_SUBELEMENTS,
) -> List[Trace]:
    """Cut a detected discovery frame into equal-length sub-traces.

    Args:
        trace: The capture containing the frame.
        frame: The detected discovery frame (from
            :class:`~repro.core.frames.FrameDetector`).
        num_subelements: Sub-elements per frame (32 for the D5000).

    Returns:
        One sub-trace per sub-element, in transmission order.
    """
    if num_subelements < 1:
        raise ValueError("need at least one sub-element")
    sub_duration = frame.duration_s / num_subelements
    subs = []
    for i in range(num_subelements):
        t0 = frame.start_s + i * sub_duration
        subs.append(trace.slice(t0, t0 + sub_duration))
    return subs


def subelement_amplitudes(
    trace: Trace,
    frame: DetectedFrame,
    num_subelements: int = DISCOVERY_SUBELEMENTS,
    trim_fraction: float = 0.15,
) -> np.ndarray:
    """Mean envelope amplitude of each sub-element of a discovery frame.

    ``trim_fraction`` drops the edges of each sub-element before
    averaging, so pattern-switching transients between sub-elements do
    not bias the means.
    """
    if not 0.0 <= trim_fraction < 0.5:
        raise ValueError("trim_fraction must be in [0, 0.5)")
    subs = split_discovery_subelements(trace, frame, num_subelements)
    means = []
    for sub in subs:
        n = sub.samples.size
        k = int(n * trim_fraction)
        core = sub.samples[k: n - k] if n - 2 * k >= 1 else sub.samples
        means.append(float(np.mean(core)))
    return np.asarray(means)


def is_discovery_frame(
    frame: DetectedFrame,
    expected_duration_s: float = 1.0e-3,
    tolerance: float = 0.3,
) -> bool:
    """Heuristic discovery-frame classifier by duration.

    Discovery frames (~1 ms) are far longer than any data frame
    (<= 25 us) or beacon (~6 us); duration alone identifies them, as it
    did for the authors' manual inspection.
    """
    return abs(frame.duration_s - expected_duration_s) <= tolerance * expected_duration_s


def subelement_variation_db(amplitudes: Sequence[float]) -> float:
    """Peak-to-trough spread of sub-element amplitudes, in dB.

    A perfectly omni-directional sweep (seen from one fixed direction)
    would be flat; the measured sweeps vary by many dB because each
    quasi-omni pattern has different gaps — the Figure 3 staircase.
    """
    arr = np.asarray(list(amplitudes), dtype=float)
    if arr.size == 0:
        raise ValueError("no amplitudes supplied")
    positive = arr[arr > 0]
    if positive.size == 0:
        return 0.0
    # Array-variant helper: numpy's log10, bit-identical to the inline
    # 20*np.log10 this historically was (math.log10 can differ by 1 ULP,
    # which would change campaign rows and figures bit for bit).
    return float(amplitude_to_db(positive.max() / positive.min()))
