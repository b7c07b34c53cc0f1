"""Coupling models that connect the MAC simulator to the PHY substrate.

:class:`DeviceCoupling` computes station-to-station path gains from the
actual :class:`~repro.devices.base.RadioDevice` models — their trained
beams, control patterns, and positions — optionally through a
:class:`~repro.phy.raytracing.RayTracer` so that blockage and wall
reflections shape the MAC-level interference, as in the reflection-
interference experiment (Figure 7/23).

Couplings are cached per (tx, rx, control) triple: device geometry is
static within an experiment and ray tracing is the expensive step.
Whoever moves or retrains a device, or changes its power, calls
:meth:`DeviceCoupling.invalidate`.  That drops the cached couplings and
also clears the link-power memo of every :class:`~repro.mac.simulator.Medium`
built on this coupling (through ``CouplingModel.changed``), so the next
frame sees the new geometry.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from repro.analysis.dbmath import power_sum_db
from repro.devices.base import RadioDevice
from repro.geometry.vec import Vec2
from repro.mac.frames import FrameKind
from repro.mac.simulator import CouplingModel, Station
from repro.phy.channel import LinkBudget
from repro.phy.raytracing import RayTracer


class DeviceCoupling(CouplingModel):
    """Path gain between stations backed by full device models.

    Args:
        devices: Station-name -> device map.  Every station that will
            transmit or receive must be present.
        budget: Link-budget parameters (implementation loss etc.).
        tracer: Optional ray tracer.  Without one, free space with the
            devices' patterns is used.  With one, all LOS/reflected
            paths contribute and blockage penetration losses apply.
        isolation_db: Coupling assigned when no propagation path exists
            at all (e.g. fully shielded).
    """

    def __init__(
        self,
        devices: Mapping[str, RadioDevice],
        budget: LinkBudget = LinkBudget(),
        tracer: Optional[RayTracer] = None,
        isolation_db: float = -200.0,
    ):
        super().__init__()
        self._devices = dict(devices)
        self._budget = budget
        self._tracer = tracer
        self._isolation = isolation_db
        self._cache: Dict[Tuple[str, str, bool], float] = {}

    def invalidate(self, *device_names: str) -> None:
        """Drop cached couplings after moving or retraining devices.

        With device names, only entries involving those devices are
        dropped — unrelated pairs keep their (expensive, ray-traced)
        couplings.  With no arguments everything is cleared, which is
        what scenario-wide changes (an outage flag, a budget swap)
        need.  Either way the watching media forget all their memoized
        link powers.
        """
        if not device_names:
            self._cache.clear()
        else:
            names = set(device_names)
            stale = [key for key in self._cache if key[0] in names or key[1] in names]
            for key in stale:
                del self._cache[key]
        self.changed()

    @property
    def cached_pair_count(self) -> int:
        """Number of (tx, rx, control) entries currently cached."""
        return len(self._cache)

    def _device_gain(
        self, device: RadioDevice, toward: Vec2, control: bool
    ) -> float:
        kind = FrameKind.BEACON if control else FrameKind.DATA
        return device.tx_gain_dbi(toward, kind)

    def _compute(self, tx_dev: RadioDevice, rx_dev: RadioDevice, control: bool) -> float:
        if self._tracer is None:
            distance = tx_dev.position.distance_to(rx_dev.position)
            if distance <= 0:
                raise ValueError("devices are co-located")
            return (
                self._device_gain(tx_dev, rx_dev.position, control)
                + self._device_gain(rx_dev, tx_dev.position, control)
                - self._budget.propagation_loss_db(distance)
                - self._budget.implementation_loss_db
            )
        paths = self._tracer.trace(tx_dev.position, rx_dev.position)
        if not paths:
            return self._isolation
        contributions = []
        for path in paths:
            departure_point = tx_dev.position + Vec2.unit(path.departure_angle_rad())
            arrival_point = rx_dev.position + Vec2.unit(path.arrival_angle_rad())
            tx_gain = self._device_gain(tx_dev, departure_point, control)
            rx_gain = self._device_gain(rx_dev, arrival_point, control)
            loss = self._budget.propagation_loss_db(path.length_m())
            loss += path.extra_loss_db()
            contributions.append(
                tx_gain + rx_gain - loss - self._budget.implementation_loss_db
            )
        total = power_sum_db(contributions)
        return total if total > self._isolation else self._isolation

    def coupling_db(self, tx: Station, rx: Station, control: bool = False) -> float:
        """CouplingModel interface used by the medium."""
        key = (tx.name, rx.name, control)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        try:
            tx_dev = self._devices[tx.name]
            rx_dev = self._devices[rx.name]
        except KeyError as exc:
            raise KeyError(f"no device model registered for station {exc}") from None
        value = self._compute(tx_dev, rx_dev, control)
        self._cache[key] = value
        return value

    def snr_db(self, tx_name: str, rx_name: str, control: bool = False) -> float:
        """Convenience: SNR of a (tx, rx) pair under this coupling."""
        tx_dev = self._devices[tx_name]
        rx_dev = self._devices[rx_name]
        power = tx_dev.tx_power_for(FrameKind.BEACON if control else FrameKind.DATA)
        coupling = self._compute(tx_dev, rx_dev, control)
        return power + coupling - self._budget.noise_floor_dbm()
