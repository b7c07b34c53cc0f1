"""Shared scenario builders for the experiment harnesses.

Most experiments start from the same ingredients: a dock/laptop WiGig
pair (or an Air-3c WiHD pair) placed on a floor plan, trained toward
each other, registered on a shared medium, and loaded with traffic.
The builders here do that wiring once so the per-figure harnesses stay
readable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.devices.air3c import make_air3c_receiver, make_air3c_transmitter
from repro.devices.base import RadioDevice
from repro.devices.d5000 import make_d5000_dock, make_e7440_laptop
from repro.geometry.vec import Vec2
from repro.mac.coupling import DeviceCoupling
from repro.mac.simulator import Medium, Simulator
from repro.mac.tcp import IperfFlow, TcpParameters
from repro.mac.wigig import WiGigLink
from repro.mac.wihd import WiHDLink
from repro.phy.channel import LinkBudget
from repro.phy.raytracing import RayTracer


@dataclass
class WiGigLinkSetup:
    """A wired-up WiGig link scenario ready to run."""

    sim: Simulator
    medium: Medium
    coupling: DeviceCoupling
    dock: RadioDevice
    laptop: RadioDevice
    link: WiGigLink
    flow: Optional[IperfFlow]
    devices: Dict[str, RadioDevice] = field(default_factory=dict)

    def run(self, duration_s: float) -> None:
        """Advance the simulation by a duration."""
        self.sim.run_until(self.sim.now + duration_s)


@dataclass
class WiHDLinkSetup:
    """A wired-up WiHD streaming scenario ready to run."""

    sim: Simulator
    medium: Medium
    coupling: DeviceCoupling
    tx: RadioDevice
    rx: RadioDevice
    link: WiHDLink
    devices: Dict[str, RadioDevice] = field(default_factory=dict)

    def run(self, duration_s: float) -> None:
        self.sim.run_until(self.sim.now + duration_s)


def train_pair(a: RadioDevice, b: RadioDevice, tracer: Optional[RayTracer] = None) -> None:
    """Beam-train two devices toward each other.

    With a ray tracer, each side aims at the departure angle of the
    strongest propagation path (which may be a reflection when the LOS
    is blocked — the paper's range-extension case); otherwise at the
    straight line between them.
    """
    if tracer is None:
        a.train_toward(b.position)
        b.train_toward(a.position)
        return
    for src, dst in ((a, b), (b, a)):
        best = tracer.strongest_path(src.position, dst.position, LinkBudget())
        if best is None:
            src.train_toward(dst.position)
        else:
            aim = src.position + Vec2.unit(best.departure_angle_rad())
            src.train_toward(aim)


def build_wigig_link_setup(
    distance_m: float = 2.0,
    window_bytes: Optional[float] = 128 * 1024,
    rate_limit_bps: Optional[float] = None,
    aimd: bool = False,
    seed: int = 1,
    dock_orientation_offset_rad: float = 0.0,
    tracer: Optional[RayTracer] = None,
    budget: LinkBudget = LinkBudget(),
    dock_position: Vec2 = Vec2(0.0, 0.0),
    laptop_position: Optional[Vec2] = None,
    send_beacons: bool = True,
) -> WiGigLinkSetup:
    """Build the canonical dock <-> laptop link with TCP traffic.

    Data flows laptop -> dock (the Figure 5/23 direction).  The dock
    faces +x toward the laptop unless ``dock_orientation_offset_rad``
    misaligns it (the 70-degree "rotated" setups).

    ``window_bytes=None`` creates the link without a traffic source
    (idle link: beacons only).
    """
    if laptop_position is None:
        laptop_position = Vec2(dock_position.x + distance_m, dock_position.y)
    dock = make_d5000_dock(
        position=dock_position,
        orientation_rad=dock_orientation_offset_rad,
    )
    bearing_back = (dock_position - laptop_position).angle()
    laptop = make_e7440_laptop(position=laptop_position, orientation_rad=bearing_back)
    train_pair(dock, laptop, tracer)

    devices = {dock.name: dock, laptop.name: laptop}
    sim = Simulator(seed=seed)
    coupling = DeviceCoupling(devices, budget=budget, tracer=tracer)
    medium = Medium(sim, coupling, budget=budget)
    st_dock = dock.make_station()
    st_laptop = laptop.make_station()
    medium.register(st_dock)
    medium.register(st_laptop)

    snr = coupling.snr_db(laptop.name, dock.name)
    link = WiGigLink(
        sim,
        medium,
        transmitter=st_laptop,
        receiver=st_dock,
        snr_hint_db=snr,
        send_beacons=send_beacons,
    )
    flow = None
    if window_bytes is not None:
        flow = IperfFlow(
            sim,
            link,
            TcpParameters(
                window_bytes=window_bytes,
                rate_limit_bps=rate_limit_bps,
                aimd=aimd,
            ),
        )
    return WiGigLinkSetup(
        sim=sim,
        medium=medium,
        coupling=coupling,
        dock=dock,
        laptop=laptop,
        link=link,
        flow=flow,
        devices=devices,
    )


def build_wihd_link_setup(
    distance_m: float = 8.0,
    video_rate_bps: float = 3.0e9,
    seed: int = 2,
    tx_position: Vec2 = Vec2(0.0, 0.0),
    rx_position: Optional[Vec2] = None,
    tracer: Optional[RayTracer] = None,
    budget: LinkBudget = LinkBudget(),
) -> WiHDLinkSetup:
    """Build the Air-3c HDMI streaming pair (8 m apart by default)."""
    if rx_position is None:
        rx_position = Vec2(tx_position.x + distance_m, tx_position.y)
    tx = make_air3c_transmitter(position=tx_position, orientation_rad=(rx_position - tx_position).angle())
    rx = make_air3c_receiver(position=rx_position, orientation_rad=(tx_position - rx_position).angle())
    train_pair(tx, rx, tracer)

    devices = {tx.name: tx, rx.name: rx}
    sim = Simulator(seed=seed)
    coupling = DeviceCoupling(devices, budget=budget, tracer=tracer)
    medium = Medium(sim, coupling, budget=budget)
    st_tx = tx.make_station()
    st_rx = rx.make_station()
    medium.register(st_tx)
    medium.register(st_rx)
    link = WiHDLink(sim, medium, transmitter=st_tx, receiver=st_rx, video_rate_bps=video_rate_bps)
    return WiHDLinkSetup(
        sim=sim,
        medium=medium,
        coupling=coupling,
        tx=tx,
        rx=rx,
        link=link,
        devices=devices,
    )


def misalignment_70deg() -> float:
    """The 70-degree dock misalignment used in Sections 4.2/4.4."""
    return math.radians(70.0)


def derive_seed(base: int, *components) -> int:
    """A stable sub-seed from a base seed plus distinguishing labels.

    Sub-streams of one cell (e.g. the sweep RNG of a mobility run)
    must stay deterministic across processes, so ad-hoc arithmetic
    like ``seed + 1000`` (collision-prone) won't do.  This
    hashes the base and components (ints or strings) through SHA-256
    and returns a 31-bit seed — the same inputs give the same seed on
    every platform and process.
    """
    import hashlib

    text = ":".join([str(int(base))] + [str(c) for c in components])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF
