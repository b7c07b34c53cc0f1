"""Beam-pattern measurement on the outdoor semicircle (Figures 16/17).

Section 3.2 describes the procedure this module reproduces:

1. place the device under test at the center of a 3.2 m semicircle on
   a large outdoor space (no reflections);
2. move the Vubiq + 25 dBi horn through 100 equally spaced positions,
   aiming at the device, and capture one minute of traffic at each;
3. keep only *data* frames — periodic control frames use wider
   patterns and higher power and would contaminate the measurement;
4. average the received signal strength of the filtered frames to get
   the pattern value at that angle.

Manual repositioning wobble ("small deviations are inevitable") is
modeled with optional position jitter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.analysis.dbmath import linear_to_db_scalar, power_average_db
from repro.devices.base import RadioDevice
from repro.devices.rotation import semicircle_positions
from repro.devices.vubiq import VubiqReceiver
from repro.geometry.vec import Vec2
from repro.mac.frames import FrameKind
from repro.phy.antenna import AntennaPattern, standard_horn_25dbi
from repro.phy.channel import LinkBudget


@dataclass(frozen=True)
class MeasuredPattern:
    """A beam pattern as measured on the semicircle.

    ``bearings_rad`` are global bearings from the device under test to
    each measurement position; ``power_dbm`` is the averaged data-frame
    power there.  ``relative_db`` normalizes to the strongest position
    (how the paper's polar plots are drawn).
    """

    bearings_rad: np.ndarray
    power_dbm: np.ndarray

    def __post_init__(self) -> None:
        if self.bearings_rad.shape != self.power_dbm.shape:
            raise ValueError("bearing and power arrays must align")

    @property
    def relative_db(self) -> np.ndarray:
        return self.power_dbm - float(np.max(self.power_dbm))

    def as_pattern(self) -> AntennaPattern:
        """Convert to an :class:`AntennaPattern` for metric extraction.

        Positions outside the measured semicircle are filled with the
        minimum measured value, so HPBW/side-lobe metrics operate on
        the measured arc only.
        """
        full_az = np.linspace(-math.pi, math.pi, 720, endpoint=False)
        fill = float(np.min(self.power_dbm))
        gains = np.full(full_az.size, fill)
        order = np.argsort(self.bearings_rad)
        az_sorted = self.bearings_rad[order]
        p_sorted = self.power_dbm[order]
        inside = (full_az >= az_sorted[0]) & (full_az <= az_sorted[-1])
        gains[inside] = np.interp(full_az[inside], az_sorted, p_sorted)
        return AntennaPattern(full_az, gains)

    def peak_bearing_rad(self) -> float:
        """Bearing of the strongest measured direction."""
        return float(self.bearings_rad[int(np.argmax(self.power_dbm))])


class BeamPatternCampaign:
    """One semicircle measurement campaign around a device under test.

    Args:
        device: The transmitter being characterized.  Its *current*
            active beam is measured — train it first.
        radius_m: Semicircle radius (3.2 m in the paper).
        positions: Number of measurement positions (100 in the paper).
        budget: Link budget for power computation.
        extra_gain_db: Vubiq front-end gain (the rotated-dock
            measurement needed +10 dB).
        position_jitter_m: 1-sigma manual placement error.
        seed: Seed for the jitter.
    """

    def __init__(
        self,
        device: RadioDevice,
        radius_m: float = 3.2,
        positions: int = 100,
        budget: LinkBudget = LinkBudget(),
        extra_gain_db: float = 0.0,
        position_jitter_m: float = 0.0,
        seed: int = 0,
    ):
        if positions < 8:
            raise ValueError("need a reasonable number of positions")
        self.device = device
        self.radius_m = radius_m
        self.positions = positions
        self.budget = budget
        self.extra_gain_db = extra_gain_db
        self.position_jitter_m = position_jitter_m
        self._rng = np.random.default_rng(seed)

    def _measurement_points(self) -> List[Vec2]:
        pts = semicircle_positions(
            self.device.position,
            radius_m=self.radius_m,
            count=self.positions,
            facing_rad=self.device.orientation_rad,
        )
        out = []
        for pos, _bearing in pts:
            if self.position_jitter_m > 0:
                jitter = Vec2(
                    float(self._rng.normal(0.0, self.position_jitter_m)),
                    float(self._rng.normal(0.0, self.position_jitter_m)),
                )
                pos = pos + jitter
            out.append(pos)
        return out

    def measure(
        self,
        kind: FrameKind = FrameKind.DATA,
        subelement: Optional[int] = None,
        frames_per_position: int = 30,
        amplitude_noise_std_db: float = 0.3,
    ) -> MeasuredPattern:
        """Run the campaign for one frame kind.

        At each position a Vubiq with the 25 dBi horn aims at the
        device; ``frames_per_position`` frame powers (with small
        per-frame measurement noise) are averaged in the linear domain,
        as in the paper.  ``subelement`` selects one quasi-omni pattern
        of the discovery sweep, enabling the Figure 16 measurement.
        """
        bearings = []
        powers = []
        for pos in self._measurement_points():
            vubiq = VubiqReceiver(
                position=pos,
                antenna=standard_horn_25dbi(),
                budget=self.budget,
                extra_gain_db=self.extra_gain_db,
            ).pointed_at(self.device.position)
            nominal = vubiq.received_power_dbm(self.device, kind, subelement)
            draws = nominal + self._rng.normal(0.0, amplitude_noise_std_db, frames_per_position)
            powers.append(power_average_db(draws))
            bearings.append((pos - self.device.position).angle())
        return MeasuredPattern(
            bearings_rad=np.asarray(bearings),
            power_dbm=np.asarray(powers),
        )

    def measure_from_traces(
        self,
        records,
        devices,
        positions: int = 16,
        capture_s: float = 2e-3,
        capture_start_s: float = 0.0,
        detector: Optional["FrameDetector"] = None,
        seed: int = 0,
    ) -> MeasuredPattern:
        """The full trace-based measurement of Section 3.2.

        For each semicircle position, render the Vubiq capture of a
        running link, detect frames, **discard periodic control
        frames** ("transmitted with higher power and wider antenna
        patterns"), keep the device under test's data frames (the
        strong amplitude cluster — the horn points at it), and average
        their amplitude.

        Much slower than :meth:`measure` (one capture per position);
        used to validate that the analytic campaign and the paper's
        actual pipeline agree.

        Args:
            records: Ground-truth frame timeline of a running link
                involving the device under test.
            devices: Station-name -> RadioDevice map for rendering.
            positions: Semicircle positions to capture at.
            capture_s: Capture length per position.
            capture_start_s: Capture window start within the timeline.
            detector: Frame detector.  The default threshold (0.06 V)
                sits ~15 dB above the scope noise so Rayleigh spikes in
                SIFS gaps cannot bridge adjacent frames into one giant
                detection.
            seed: Noise seed.
        """
        from repro.core.frames import (
            FrameDetector,
            classify_detected_frames,
            split_sources_by_amplitude,
        )

        rng = np.random.default_rng(seed)
        detector = detector if detector is not None else FrameDetector(
            threshold_v=0.06, min_duration_s=1.5e-6
        )
        saved_positions = self.positions
        try:
            self.positions = positions
            points = self._measurement_points()
        finally:
            self.positions = saved_positions
        bearings = []
        powers = []
        window = [
            r for r in records
            if r.start_s < capture_start_s + capture_s and r.end_s > capture_start_s
        ]
        for pos in points:
            vubiq = VubiqReceiver(
                position=pos,
                antenna=standard_horn_25dbi(),
                budget=self.budget,
                extra_gain_db=self.extra_gain_db + 45.0,
            ).pointed_at(self.device.position)
            trace = vubiq.capture(
                window, devices, duration_s=capture_s,
                start_s=capture_start_s, rng=rng,
            )
            frames = detector.detect(trace)
            labels = classify_detected_frames(frames)
            data_like = [
                f for f, label in zip(frames, labels)
                if label in ("data", "control")
            ]
            if not data_like:
                bearings.append((pos - self.device.position).angle())
                powers.append(float("-inf"))
                continue
            strong, weak = split_sources_by_amplitude(data_like)
            chosen = strong if strong else data_like
            amps = np.array([f.mean_amplitude_v for f in chosen])
            # Amplitude -> power (relative): average in the linear
            # power domain as the paper does.
            power = linear_to_db_scalar(float(np.mean(amps**2)))
            bearings.append((pos - self.device.position).angle())
            powers.append(power)
        power_arr = np.asarray(powers)
        floor = power_arr[np.isfinite(power_arr)].min() if np.isfinite(power_arr).any() else -120.0
        power_arr[~np.isfinite(power_arr)] = floor - 10.0
        return MeasuredPattern(
            bearings_rad=np.asarray(bearings), power_dbm=power_arr
        )
