"""NLOS range extension over a wall reflection (Figures 5/20).

Setup (Figure 5): a dock and a laptop 2.5 m apart, parallel to a
reflecting wall 1 m away, with an obstacle blocking the line of sight.
The paper validates with an angular energy profile that *all* energy
arrives via the wall reflection (Figure 20), then measures 550 Mbps
(+-18 with 95% confidence) of TCP throughput — "more than half of what
we measure on line-of-sight links".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.stats import ConfidenceInterval, mean_confidence_interval
from repro.core.angular import AngularProfile, Lobe, classify_lobes, find_lobes, measure_angular_profile
from repro.devices.rotation import RotationStage
from repro.devices.vubiq import VubiqReceiver
from repro.experiments.common import build_wigig_link_setup
from repro.geometry.room import Obstacle, Room
from repro.geometry.segments import Segment
from repro.geometry.vec import Vec2
from repro.geometry.materials import Material
from repro.phy.antenna import standard_horn_25dbi
from repro.phy.raytracing import RayTracer

#: Geometry of Figure 5 (meters).  The link runs along y = 0; the
#: reflecting wall is 1 m below; the obstacle sits between the devices.
DOCK_POSITION = Vec2(0.0, 0.0)
LAPTOP_POSITION = Vec2(2.5, 0.0)
WALL_Y = -1.0


#: The Figure 5 wall: painted masonry hit far off the specular sweet
#: spot.  8 dB per bounce lands the NLOS link in the QPSK MCS range,
#: matching the paper's 550 Mbps ("more than half of line-of-sight").
ROUGH_WALL = Material(
    "painted-masonry", reflection_loss_db=8.0, penetration_loss_db=40.0
)


def build_reflection_room(blocked: bool = True) -> Room:
    """The Figure 5 floor plan: one reflecting wall, one obstacle."""
    wall = Segment(
        Vec2(-2.0, WALL_Y),
        Vec2(5.0, WALL_Y),
        ROUGH_WALL,
        name="reflecting-wall",
    )
    room = Room([wall])
    if blocked:
        # The blockage element between dock and laptop, spanning enough
        # of the line of sight to fully obstruct it without clipping
        # the reflected path.
        room.add_obstacle(
            Obstacle.plate(Vec2(1.25, -0.35), Vec2(1.25, 0.6), material="absorber", name="blockage")
        )
    return room


@dataclass
class NlosLinkResult:
    """Outcome of the NLOS range-extension experiment."""

    profile: AngularProfile
    lobes: List[Lobe]
    los_blocked: bool
    nlos_throughput: ConfidenceInterval
    los_throughput_bps: float

    @property
    def nlos_over_los(self) -> float:
        """NLOS share of the LOS throughput (paper: > 0.5)."""
        if self.los_throughput_bps <= 0:
            return 0.0
        return self.nlos_throughput.mean / self.los_throughput_bps


def measure_dock_angular_profile(
    room: Optional[Room] = None,
    steps: int = 90,
) -> AngularProfile:
    """The Figure 20 validation sweep at the docking station.

    Only the laptop transmits toward the dock; the rotating horn at the
    dock's position must show no LOS lobe and a dominant lobe toward
    the wall.
    """
    room = room if room is not None else build_reflection_room(blocked=True)
    tracer = RayTracer(room, max_order=2)
    setup = build_wigig_link_setup(
        window_bytes=None,
        dock_position=DOCK_POSITION,
        laptop_position=LAPTOP_POSITION,
        tracer=tracer,
    )
    setup.sim.close()  # only the trained laptop is used

    def vubiq_factory(position: Vec2, boresight: float) -> VubiqReceiver:
        return VubiqReceiver(
            position=position,
            boresight_rad=boresight,
            antenna=standard_horn_25dbi(),
            tracer=tracer,
        )

    return measure_angular_profile(
        DOCK_POSITION,
        devices=[setup.laptop],
        vubiq_factory=vubiq_factory,
        stage=RotationStage(steps=steps),
    )


def run_nlos_throughput(
    duration_s: float = 0.3,
    intervals: int = 6,
    seed: int = 7,
) -> NlosLinkResult:
    """The full Figure 5/20 experiment.

    1. Verify blockage: the angular profile at the dock has no lobe on
       the LOS bearing, and its strongest lobe points at the wall.
    2. Measure Iperf TCP throughput over the reflection, reported as a
       mean with a 95% confidence interval over measurement intervals.
    3. Compare against the LOS throughput of the same link without the
       obstacle.

    Both simulations are closed before the result is returned.
    """
    room = build_reflection_room(blocked=True)
    tracer = RayTracer(room, max_order=2)

    profile = measure_dock_angular_profile(room)
    lobes = classify_lobes(
        find_lobes(profile),
        DOCK_POSITION,
        {"laptop": LAPTOP_POSITION},
    )
    los_blocked = all(lobe.attribution != "laptop" for lobe in lobes)

    # NLOS throughput: several consecutive Iperf intervals.
    samples = []
    setup = build_wigig_link_setup(
        window_bytes=256 * 1024,
        dock_position=DOCK_POSITION,
        laptop_position=LAPTOP_POSITION,
        tracer=tracer,
        seed=seed,
    )
    setup.run(0.05)  # warm-up
    for _ in range(max(2, intervals)):
        setup.flow.reset_counters()
        setup.run(duration_s / max(2, intervals))
        samples.append(setup.flow.throughput_bps())
    setup.sim.close()
    nlos_ci = mean_confidence_interval(samples, confidence=0.95)

    # LOS baseline: same geometry, no obstacle.
    los_room = build_reflection_room(blocked=False)
    los_setup = build_wigig_link_setup(
        window_bytes=256 * 1024,
        dock_position=DOCK_POSITION,
        laptop_position=LAPTOP_POSITION,
        tracer=RayTracer(los_room, max_order=2),
        seed=seed + 1,
    )
    los_setup.run(0.05)
    los_setup.flow.reset_counters()
    los_setup.run(duration_s)
    los_setup.sim.close()
    los_tput = los_setup.flow.throughput_bps()

    return NlosLinkResult(
        profile=profile,
        lobes=lobes,
        los_blocked=los_blocked,
        nlos_throughput=nlos_ci,
        los_throughput_bps=los_tput,
    )
