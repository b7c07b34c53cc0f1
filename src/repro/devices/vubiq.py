"""The Vubiq down-converter + oscilloscope measurement receiver.

The paper's methodology (Section 3.1): a Vubiq V60WGD03 60 GHz
development system feeds an Agilent MSO-X 3034A oscilloscope; traces of
the analog I/Q output are undersampled at 1e8 S/s, which prevents
decoding but preserves frame timing and amplitude.  A WR-15 waveguide
port takes either a 25 dBi horn (beam-pattern and angular-profile
measurements) or the open waveguide (wide pattern, protocol analysis).

:class:`VubiqReceiver` converts the MAC simulator's ground-truth
:class:`~repro.mac.frames.FrameRecord` timeline into the
:class:`~repro.phy.signal.Emission` list a receiver at its position and
orientation would see — accounting for each transmitter's per-frame
antenna pattern (including the 32 quasi-omni sub-elements of a
discovery frame) and, when a ray tracer is supplied, for every
reflected path — and renders it into a sampled :class:`Trace`.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.devices.base import RadioDevice
from repro.geometry.vec import Vec2
from repro.mac.frames import DISCOVERY_SUBELEMENTS, FrameKind, FrameRecord
from repro.phy.antenna import HornAntenna, standard_horn_25dbi
from repro.phy.channel import LinkBudget
from repro.phy.raytracing import RayTracer
from repro.phy.signal import (
    DEFAULT_SAMPLE_RATE_HZ,
    Emission,
    Trace,
    received_amplitude_v,
    synthesize_trace,
)
from repro.analysis.dbmath import power_sum_db_rows

#: Received power below this is indistinguishable from the noise floor
#: and not rendered as an emission.
MIN_DETECTABLE_DBM = -78.0


class VubiqReceiver:
    """The measurement receiver overhearing 60 GHz links.

    Args:
        position: Receiver location, meters.
        boresight_rad: Global direction the horn points at.
        antenna: Horn (or open waveguide) on the WR-15 port.
        budget: Link-budget parameters for power computation.
        extra_gain_db: Front-end gain setting.  The paper had to raise
            it by 10 dB to measure the rotated dock (Section 4.2) —
            the setting shifts all received amplitudes.
        tracer: Optional ray tracer; when present, reflected paths
            contribute to (and can dominate) the received power, which
            is the basis of the angular-profile measurements.
    """

    def __init__(
        self,
        position: Vec2,
        boresight_rad: float = 0.0,
        antenna: Optional[HornAntenna] = None,
        budget: LinkBudget = LinkBudget(),
        extra_gain_db: float = 0.0,
        tracer: Optional[RayTracer] = None,
    ):
        self.position = position
        self.boresight_rad = boresight_rad
        self.antenna = antenna if antenna is not None else standard_horn_25dbi()
        self.budget = budget
        self.extra_gain_db = extra_gain_db
        self.tracer = tracer

    # -- power computation ------------------------------------------------

    def received_power_dbm(
        self,
        device: RadioDevice,
        kind: FrameKind = FrameKind.DATA,
        subelement: Optional[int] = None,
    ) -> float:
        """Power received from a device transmitting a frame kind.

        With a ray tracer, powers of all resolvable paths add; without
        one, the free-space LOS path is used.  The single-boresight case
        of :meth:`received_power_sweep_dbm`.
        """
        return self.received_power_sweep_dbm(
            device, (self.boresight_rad,), kind, subelement
        )[0]

    def received_power_sweep_dbm(
        self,
        device: RadioDevice,
        boresights_rad: Sequence[float],
        kind: FrameKind = FrameKind.DATA,
        subelement: Optional[int] = None,
    ) -> List[float]:
        """:meth:`received_power_dbm` with the horn at each boresight.

        Only the horn's orientation changes between the returned powers,
        so the room is traced, and each path's transmit gain, length,
        propagation loss, extra loss and arrival bearing computed, once
        for the whole sweep.  The transmit pattern is interpolated at
        every path's departure bearing in one array query.

        With a tracer, the powers are one float64 array with a row per
        boresight and a column per path.  It is evaluated in the
        left-to-right order of :meth:`LinkBudget.received_power_dbm`,
        then the TX power offset is added, with
        :meth:`HornAntenna.gain_toward_array` for the horn.  Each row is
        power-summed along the C-contiguous last axis
        (:func:`power_sum_db_rows`).  Every returned power is therefore
        bit-equal to evaluating each path with
        :meth:`PropagationPath.received_power_dbm` and summing with
        :func:`power_sum_db` one boresight at a time.  Without a tracer
        the single LOS path needs no power sum and is evaluated per
        boresight.

        Raises:
            ValueError: If a boresight is NaN or infinite.
        """
        if not all(map(math.isfinite, boresights_rad)):
            raise ValueError("boresights must be finite")
        tx_power_offset = device.tx_power_for(kind) - self.budget.tx_power_dbm
        if self.tracer is None:
            distance = device.position.distance_to(self.position)
            tx_gain = device.tx_gain_dbi(self.position, kind, subelement)
            bearing = (device.position - self.position).angle()
            gain_toward = self.antenna.gain_toward
            return [
                self.budget.received_power_dbm(
                    distance, tx_gain, gain_toward(bearing - boresight)
                )
                + tx_power_offset
                + self.extra_gain_db
                for boresight in boresights_rad
            ]
        paths = self.tracer.trace(device.position, self.position)
        if not paths:
            return [-300.0] * len(boresights_rad)
        budget = self.budget
        # Per path: EIRP at the departure angle, propagation loss, extra
        # loss and arrival bearing.  Each path's device-local departure
        # bearing takes the scalar steps of RadioDevice.tx_gain_dbi; the
        # pattern is then read once for all paths.
        bearings = np.array(
            [
                device.bearing_to(device.position + Vec2.unit(path.departure_angle_rad()))
                for path in paths
            ]
        )
        eirp = budget.tx_power_dbm + device.pattern_for_kind(kind, subelement).gain_dbi(bearings)
        loss = np.array([budget.propagation_loss_db(path.length_m()) for path in paths])
        extra_loss = np.array([path.extra_loss_db() for path in paths])
        arrival = np.array([path.arrival_angle_rad() for path in paths])
        # (boresight × path)
        rx_gain = self.antenna.gain_toward_array(
            arrival - np.asarray(boresights_rad, dtype=float)[:, np.newaxis]
        )
        powers = (
            (eirp + rx_gain)
            - loss
            - budget.implementation_loss_db
            - extra_loss
            + tx_power_offset
        )
        return (power_sum_db_rows(powers) + self.extra_gain_db).tolist()

    # -- trace generation ------------------------------------------------

    def emissions_for(
        self,
        records: Iterable[FrameRecord],
        devices: Mapping[str, RadioDevice],
    ) -> List[Emission]:
        """Convert ground-truth frames into what this receiver sees.

        Frames from stations not present in ``devices`` are skipped
        (e.g. wired endpoints).  Discovery frames are expanded into
        their quasi-omni sub-elements so the rendered trace has the
        staircase amplitude structure of Figure 3.
        """
        out: List[Emission] = []
        # A frame's power depends only on (source, kind, sub-element).
        powers: Dict[Tuple[str, FrameKind, Optional[int]], float] = {}

        def power_of(
            device: RadioDevice, rec: FrameRecord, subelement: Optional[int] = None
        ) -> float:
            key = (rec.source, rec.kind, subelement)
            if key not in powers:
                powers[key] = self.received_power_dbm(device, rec.kind, subelement)
            return powers[key]

        for rec in records:
            device = devices.get(rec.source)
            if device is None:
                continue
            if rec.kind == FrameKind.DISCOVERY:
                n = DISCOVERY_SUBELEMENTS
                sub_duration = rec.duration_s / n
                for i in range(n):
                    power = power_of(device, rec, i)
                    if power < MIN_DETECTABLE_DBM:
                        continue
                    out.append(
                        Emission(
                            start_s=rec.start_s + i * sub_duration,
                            duration_s=sub_duration,
                            amplitude_v=received_amplitude_v(power),
                            source=rec.source,
                            kind=f"{rec.kind.value}[{i}]",
                        )
                    )
                continue
            power = power_of(device, rec)
            if power < MIN_DETECTABLE_DBM:
                continue
            out.append(
                Emission(
                    start_s=rec.start_s,
                    duration_s=rec.duration_s,
                    amplitude_v=received_amplitude_v(power),
                    source=rec.source,
                    kind=rec.kind.value,
                )
            )
        return out

    def capture(
        self,
        records: Iterable[FrameRecord],
        devices: Mapping[str, RadioDevice],
        duration_s: float,
        start_s: float = 0.0,
        sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ,
        noise_floor_v: float = 0.01,
        rng: Optional[np.random.Generator] = None,
    ) -> Trace:
        """Render a sampled oscilloscope trace of the observed frames."""
        emissions = self.emissions_for(records, devices)
        return synthesize_trace(
            emissions,
            duration_s=duration_s,
            sample_rate_hz=sample_rate_hz,
            start_s=start_s,
            noise_floor_v=noise_floor_v,
            rng=rng,
        )

    # -- convenience -----------------------------------------------------

    def pointed_at(self, target: Vec2) -> "VubiqReceiver":
        """Copy of this receiver with the horn aimed at a point."""
        bearing = (target - self.position).angle()
        return VubiqReceiver(
            position=self.position,
            boresight_rad=bearing,
            antenna=self.antenna,
            budget=self.budget,
            extra_gain_db=self.extra_gain_db,
            tracer=self.tracer,
        )
