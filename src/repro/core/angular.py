"""Angular energy profiles and reflection-lobe analysis (Figures 18-20).

Section 3.2: at each room location, the Vubiq receiver with a highly
directional horn is rotated through all directions on a programmable
stage; the incident signal strength per direction assembles into an
*angular profile*.  Lobes that point at neither the transmitter nor the
receiver of the link indicate wall reflections — the paper's evidence
that 60 GHz spatial reuse assumptions break.

:class:`AngularProfile` holds one such sweep; :func:`find_lobes`
extracts its lobes; :func:`classify_lobes` attributes each lobe to the
TX, the RX, or a reflection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.devices.base import RadioDevice
from repro.devices.rotation import RotationStage
from repro.devices.vubiq import VubiqReceiver
from repro.geometry.vec import Vec2, angle_between, normalize_angle
from repro.mac.frames import FrameKind
from repro.analysis.dbmath import linear_to_db_scalar, power_sum_db


@dataclass(frozen=True)
class AngularProfile:
    """Received power versus horn orientation at one location."""

    orientations_rad: np.ndarray
    power_dbm: np.ndarray
    location: Optional[Vec2] = None

    def __post_init__(self) -> None:
        if self.orientations_rad.shape != self.power_dbm.shape:
            raise ValueError("orientation and power arrays must align")
        if self.orientations_rad.size < 8:
            raise ValueError("angular profile too coarse")

    @property
    def relative_db(self) -> np.ndarray:
        """Profile normalized to its strongest direction."""
        return self.power_dbm - float(np.max(self.power_dbm))

    def power_toward(self, bearing_rad: float) -> float:
        """Measured power in the direction closest to a bearing."""
        diffs = np.abs(
            np.vectorize(normalize_angle)(self.orientations_rad - bearing_rad)
        )
        return float(self.power_dbm[int(np.argmin(diffs))])


@dataclass(frozen=True)
class Lobe:
    """One lobe of an angular profile."""

    bearing_rad: float
    power_dbm: float
    relative_db: float
    attribution: str = ""  # filled by classify_lobes

    @property
    def bearing_deg(self) -> float:
        return math.degrees(self.bearing_rad)


def measure_angular_profile(
    location: Vec2,
    devices: Sequence[RadioDevice],
    vubiq_factory,
    stage: Optional[RotationStage] = None,
    kind: FrameKind = FrameKind.DATA,
) -> AngularProfile:
    """Sweep a horn through all directions at a room location.

    Args:
        location: Where the rotating receiver stands.
        devices: Every transmitter active in the room (data frames from
            all of them contribute — the paper's profiles show both TX
            and RX lobes because ACKs flow back).
        vubiq_factory: Callable ``(position, boresight_rad) ->
            VubiqReceiver``; lets the caller wire in a ray tracer and
            budget once.
        stage: Rotation stage (default: 72 steps, i.e. 5-degree
            resolution).
        kind: Frame kind whose power is integrated.

    Returns:
        The assembled :class:`AngularProfile`.
    """
    stage = stage if stage is not None else RotationStage(steps=72)
    orientations = []
    powers = []
    for orientation in stage.orientations():
        vubiq: VubiqReceiver = vubiq_factory(location, orientation)
        contributions = [vubiq.received_power_dbm(dev, kind) for dev in devices]
        orientations.append(orientation)
        powers.append(power_sum_db(contributions))
    return AngularProfile(
        orientations_rad=np.asarray(orientations),
        power_dbm=np.asarray(powers),
        location=location,
    )


def measure_angular_profile_from_traces(
    location: Vec2,
    records,
    devices: Mapping[str, RadioDevice],
    vubiq_factory,
    stage: Optional[RotationStage] = None,
    capture_s: float = 1.5e-3,
    capture_start_s: float = 0.0,
    detector=None,
    extra_gain_db: float = 45.0,
    seed: int = 0,
) -> AngularProfile:
    """The paper's actual angular-profile pipeline, trace by trace.

    For every orientation of the rotation stage, render the Vubiq
    capture of a running link, detect frames, keep the data-class
    detections, and average their power — assembling the profile the
    way Section 3.2 describes ("measure the incident signal strength in
    each direction and assemble the result to an angular profile").

    Slower than :func:`measure_angular_profile` (one capture per
    orientation); tests validate the two agree.

    Args:
        location: Where the rotating receiver stands.
        records: Ground-truth frame timeline of the running link.
        devices: Station-name -> device map for rendering.
        vubiq_factory: ``(position, boresight_rad) -> VubiqReceiver``.
        stage: Rotation stage (default 72 steps).
        capture_s: Capture length per orientation.
        capture_start_s: Window start within the timeline.
        detector: Frame detector; the default threshold sits well above
            the scope noise.
        extra_gain_db: Additional front-end gain applied on top of the
            factory's receiver (angular sweeps need headroom for weak
            directions).
        seed: Noise seed.
    """
    import numpy as np

    from repro.core.frames import FrameDetector, classify_detected_frames

    stage = stage if stage is not None else RotationStage(steps=72)
    detector = detector if detector is not None else FrameDetector(
        threshold_v=0.06, min_duration_s=1.5e-6
    )
    rng = np.random.default_rng(seed)
    window = [
        r for r in records
        if r.start_s < capture_start_s + capture_s and r.end_s > capture_start_s
    ]
    orientations = []
    powers = []
    for orientation in stage.orientations():
        vubiq = vubiq_factory(location, orientation)
        vubiq.extra_gain_db += extra_gain_db
        trace = vubiq.capture(
            window, devices, duration_s=capture_s,
            start_s=capture_start_s, rng=rng,
        )
        vubiq.extra_gain_db -= extra_gain_db
        frames = detector.detect(trace)
        labels = classify_detected_frames(frames)
        kept = [f for f, l in zip(frames, labels) if l in ("data", "control", "ack")]
        orientations.append(orientation)
        if not kept:
            powers.append(float("nan"))
            continue
        amps = np.array([f.mean_amplitude_v for f in kept])
        powers.append(linear_to_db_scalar(float(np.mean(amps**2))))
    power_arr = np.asarray(powers)
    finite = np.isfinite(power_arr)
    floor = power_arr[finite].min() - 10.0 if finite.any() else -120.0
    power_arr[~finite] = floor
    return AngularProfile(
        orientations_rad=np.asarray(orientations),
        power_dbm=power_arr,
        location=location,
    )


def find_lobes(
    profile: AngularProfile,
    min_relative_db: float = -8.0,
    min_separation_rad: float = math.radians(15.0),
) -> List[Lobe]:
    """Extract the lobes of an angular profile.

    A lobe is a local maximum within ``min_relative_db`` of the profile
    peak; maxima closer than ``min_separation_rad`` to a stronger lobe
    are absorbed into it.  -8 dB matches the dynamic range of the
    paper's polar plots (their legends stop at -8 dB).
    """
    order = np.argsort(profile.orientations_rad)
    az = profile.orientations_rad[order]
    p = profile.power_dbm[order]
    rel = p - float(np.max(p))
    n = p.size
    candidates = []
    for i in range(n):
        left, right = p[(i - 1) % n], p[(i + 1) % n]
        if p[i] >= left and p[i] >= right and rel[i] >= min_relative_db:
            candidates.append(i)
    candidates.sort(key=lambda i: -p[i])
    lobes: List[Lobe] = []
    for i in candidates:
        if any(
            angle_between(az[i], lobe.bearing_rad) < min_separation_rad
            for lobe in lobes
        ):
            continue
        lobes.append(Lobe(bearing_rad=float(az[i]), power_dbm=float(p[i]), relative_db=float(rel[i])))
    return lobes


def classify_lobes(
    lobes: Sequence[Lobe],
    location: Vec2,
    endpoints: Mapping[str, Vec2],
    tolerance_rad: float = math.radians(15.0),
) -> List[Lobe]:
    """Attribute each lobe to a link endpoint or to a reflection.

    Args:
        lobes: Lobes from :func:`find_lobes`.
        location: The measurement location.
        endpoints: Named positions of the link devices, e.g.
            ``{"tx": ..., "rx": ...}``.
        tolerance_rad: Angular slack for matching a lobe to a device.

    Returns:
        New :class:`Lobe` objects with ``attribution`` set to the
        endpoint name, or ``"reflection"`` when no endpoint matches —
        the paper's indicator that walls are redirecting energy.
    """
    classified = []
    for lobe in lobes:
        attribution = "reflection"
        best = tolerance_rad
        for name, pos in endpoints.items():
            bearing = (pos - location).angle()
            diff = angle_between(lobe.bearing_rad, bearing)
            if diff <= best:
                attribution = name
                best = diff
        classified.append(
            Lobe(
                bearing_rad=lobe.bearing_rad,
                power_dbm=lobe.power_dbm,
                relative_db=lobe.relative_db,
                attribution=attribution,
            )
        )
    return classified


def reflection_lobes(classified: Sequence[Lobe]) -> List[Lobe]:
    """Just the lobes attributed to reflections."""
    return [lobe for lobe in classified if lobe.attribution == "reflection"]
