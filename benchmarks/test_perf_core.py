"""Performance benchmarks of the core substrates.

Unlike the per-figure benchmarks (one pedantic round each), these
measure the library's hot paths with real repetition so regressions in
simulation speed show up:

* pattern synthesis (array factor + clutter on a 720-point grid);
* codebook construction (64 patterns);
* ray tracing in the conference room (LOS + 1st + 2nd order);
* the discrete-event MAC (simulated-seconds per wall-second), on one
  saturated link and on the six-station Fig 22 interference scenario;
* trace synthesis + frame detection round trip;
* one ray-traced angular profile (Fig 18, location A).

``test_perf_core_events_per_sec`` additionally writes the simulator's
speed on the saturated link to ``benchmarks/results/BENCH_core.json``
(unified :mod:`repro.obs.bench` schema) — the baseline number any
event-engine change is measured against.  The gated figure is
simulated seconds per wall second: events per second is reported but
not gated, because a change that folds many light events into fewer,
heavier ones (as replaying the TCP pacing did) lowers it while the
simulation gets faster.  The six-station run gates the medium's
multi-transmitter path (interference, carrier sensing, NAV) the same
way.  The capture round trip gates the measurement pipeline:
``capture_samples_per_s`` renders and detects a 10 ms, 1e8 S/s capture
with sparse frames, the shape of the protocol captures behind Table 1
and Figs 3, 8 and 15.  ``angular_orientations_per_s`` gates the angular
sweeps of Figs 18/19: one 72-step profile of the D5000 pair at location
A, traced to second order.  ``room_traces_per_s`` gates the tracer
alone: the second-order conference-room trace set of Fig 18, from each
of the D5000 pair to each of the six locations A..F.
``closed_run_garbage_objects`` counts what the cyclic garbage collector
finds after one finished ``run_wigig_tcp`` result is dropped: a closed
run must be freed by reference counting alone, so the test asserts 0.
It deliberately avoids the pytest-benchmark fixture so CI can run it
with plain pytest.
"""

import gc
import math
import pathlib
import time

import numpy as np
import pytest

from repro.core.frames import FrameDetector
from repro.geometry.room import conference_room
from repro.geometry.vec import Vec2
from repro.obs.bench import bench_entry, write_bench
from repro.phy.antenna import PhaseShifterModel, UniformRectangularArray
from repro.phy.codebook import Codebook
from repro.phy.raytracing import RayTracer
from repro.phy.signal import Emission, synthesize_trace

RESULTS = pathlib.Path(__file__).parent / "results" / "BENCH_core.json"


def run_50ms():
    """A saturated WiGig link: 50 ms of DES time, ~1 Gbit/s of TCP."""
    from repro.mac.simulator import Medium, Simulator, Station, StaticCoupling
    from repro.mac.tcp import IperfFlow, TcpParameters
    from repro.mac.wigig import WiGigLink

    sim = Simulator(seed=1)
    medium = Medium(
        sim,
        StaticCoupling({("tx", "rx"): -40.0, ("rx", "tx"): -40.0}),
        capture_history=False,
    )
    tx = Station("tx", Vec2(0, 0))
    rx = Station("rx", Vec2(2, 0))
    medium.register(tx)
    medium.register(rx)
    link = WiGigLink(sim, medium, transmitter=tx, receiver=rx,
                     snr_hint_db=35.0, send_beacons=False)
    flow = IperfFlow(sim, link, TcpParameters(window_bytes=256 * 1024))
    sim.run_until(0.05)
    return sim, flow


def run_interference_20ms():
    """Fig 22's six stations (WiHD 1 m off): 20 ms of DES time.

    Returns the scenario and the wall seconds of the run alone; the
    device builds are set-up.
    """
    from repro.experiments.interference import build_interference_scenario

    scenario = build_interference_scenario(wihd_offset_m=1.0)
    t0 = time.perf_counter()
    scenario.run(0.02)
    return scenario, time.perf_counter() - t0


def closed_run_garbage():
    """Objects ``gc.collect()`` finds once a closed saturated-link run
    (64 KB window, 0.05 s warm-up, 0.1 s run) is dropped."""
    from repro.experiments.frame_level import run_wigig_tcp

    def run():
        run_wigig_tcp(window_bytes=64 * 1024, duration_s=0.1, warmup_s=0.05)

    run()  # fill the per-process device caches
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


def capture_round_trip():
    """10 ms at 1e8 S/s with 18 frames on air, synthesized and detected."""
    emissions = [Emission(i * 550e-6 + 40e-6, 20e-6, 0.5) for i in range(18)]
    trace = synthesize_trace(
        emissions, duration_s=10e-3, noise_floor_v=0.01,
        rng=np.random.default_rng(0),
    )
    frames = FrameDetector(threshold_v=0.1, merge_gap_s=5e-6).detect(trace)
    return trace, frames


def angular_profile_setup():
    """Fig 18 at location A: the location, the D5000 pair and a factory.

    Also returns the profile :func:`measure_room_profiles` measured
    there, which the timed sweep must reproduce.
    """
    from repro.devices.vubiq import VubiqReceiver
    from repro.experiments.reflections import measure_room_profiles
    from repro.geometry.room import measurement_locations
    from repro.phy.antenna import standard_horn_25dbi

    location = measurement_locations()[0]
    result = measure_room_profiles("d5000", steps=72, max_order=2, locations=[location])
    tracer = RayTracer(result.room, max_order=2)

    def factory(position, boresight):
        return VubiqReceiver(
            position, boresight, antenna=standard_horn_25dbi(), tracer=tracer
        )

    return location, [result.tx, result.rx], factory, result.profiles["A"]


def room_trace_legs(devices):
    """Fig 18's trace set: ``(device position, location)`` for each
    device at each of the six locations A..F."""
    from repro.geometry.room import measurement_locations

    return [
        (device.position, location)
        for location in measurement_locations()
        for device in devices
    ]


@pytest.fixture(scope="module")
def array():
    return UniformRectangularArray(
        2, 8, 60.48e9, phase_shifter=PhaseShifterModel(2),
        rng=np.random.default_rng(0),
    )


def test_perf_pattern_synthesis(benchmark, array):
    result = benchmark(lambda: array.steered_pattern(math.radians(17.0)))
    assert result.peak_gain_dbi() > 10.0


def test_perf_codebook_build(benchmark, array):
    result = benchmark.pedantic(
        lambda: Codebook.build(array, num_directional=32, num_quasi_omni=32),
        rounds=3,
        iterations=1,
    )
    assert len(result.directional_entries) == 32


def test_perf_ray_tracing(benchmark):
    room = conference_room()
    tracer = RayTracer(room, max_order=2)
    tx, rx = Vec2(6.5, 2.9), Vec2(0.6, 0.55)
    paths = benchmark(lambda: tracer.trace(tx, rx))
    assert len(paths) >= 3


def test_perf_mac_simulation(benchmark):
    """Simulated time per wall-clock: a saturated WiGig link."""
    _, flow = benchmark.pedantic(run_50ms, rounds=3, iterations=1)
    assert flow.throughput_bps() > 0.8e9


def test_perf_core_events_per_sec():
    """Simulator speed baseline, written to BENCH_core.json."""
    run_50ms()  # warm imports and allocator before timing

    best_s = math.inf
    events = 0
    for _ in range(3):
        t0 = time.perf_counter()
        sim, flow = run_50ms()
        elapsed = time.perf_counter() - t0
        if elapsed < best_s:
            best_s = elapsed
            events = sim.events_processed
    assert events > 1_000, "scenario no longer exercises the event loop"
    assert flow.throughput_bps() > 0.8e9
    events_per_s = events / best_s

    run_interference_20ms()
    interference_s = math.inf
    for _ in range(3):
        scenario, elapsed = run_interference_20ms()
        interference_s = min(interference_s, elapsed)
    assert len(scenario.medium.history) > 1_000

    capture_round_trip()
    capture_s = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        trace, frames = capture_round_trip()
        capture_s = min(capture_s, time.perf_counter() - t0)
    assert trace.samples.size == 1_000_000 and len(frames) == 18

    from repro.core.angular import measure_angular_profile
    from repro.devices.rotation import RotationStage

    location, devices, factory, expected = angular_profile_setup()
    angular_s = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        profile = measure_angular_profile(
            location, devices, factory, stage=RotationStage(steps=72)
        )
        angular_s = min(angular_s, time.perf_counter() - t0)
    assert profile.power_dbm.tobytes() == expected.power_dbm.tobytes()

    tracer = RayTracer(conference_room(), max_order=2)
    legs = room_trace_legs(devices)
    repeats = 20
    traces_s = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(repeats):
            paths = [tracer.trace(tx, rx) for tx, rx in legs]
        traces_s = min(traces_s, time.perf_counter() - t0)
    assert any(p.order == 2 for leg in paths for p in leg)

    garbage = closed_run_garbage()

    write_bench(RESULTS, "core", [
        # The headline number.  Wide tolerance — CI machines vary;
        # the gate only flags order-of-magnitude regressions.
        bench_entry("sim_seconds_per_wall_s", round(0.05 / best_s, 4), "s/s",
                    "higher", tolerance=5.0),
        bench_entry("sim_events_per_s", round(events_per_s), "events/s",
                    "info"),
        bench_entry("scenario_events", events, "events", "info"),
        bench_entry("scenario_wall_s", round(best_s, 5), "s", "info"),
        bench_entry("interference_sim_seconds_per_wall_s",
                    round(0.02 / interference_s, 4), "s/s", "higher",
                    tolerance=5.0),
        bench_entry("capture_samples_per_s",
                    round(trace.samples.size / capture_s), "samples/s",
                    "higher", tolerance=5.0),
        bench_entry("angular_orientations_per_s",
                    round(profile.orientations_rad.size / angular_s), "orientations/s",
                    "higher", tolerance=5.0),
        bench_entry("room_traces_per_s",
                    round(len(legs) * repeats / traces_s), "traces/s",
                    "higher", tolerance=5.0),
        bench_entry("closed_run_garbage_objects", garbage, "objects", "lower"),
    ])

    print(
        f"\ncore perf: {events} events in {best_s * 1e3:.1f} ms "
        f"-> {events_per_s / 1e6:.2f}M events/s; six stations: "
        f"{0.02 / interference_s:.3f} sim s per wall s; capture: "
        f"{capture_s * 1e3:.1f} ms per 1e6 samples; angular profile: "
        f"{angular_s * 1e3:.1f} ms per 72 orientations; room traces: "
        f"{traces_s / (len(legs) * repeats) * 1e6:.0f} us per trace; "
        f"{garbage} garbage objects after a closed run"
    )
    assert garbage == 0, "a closed run left reference cycles behind"


def test_perf_trace_pipeline(benchmark):
    emissions = [
        Emission(i * 30e-6, 20e-6, 0.5) for i in range(300)
    ]

    def round_trip():
        trace = synthesize_trace(
            emissions, duration_s=10e-3, noise_floor_v=0.01,
            rng=np.random.default_rng(0),
        )
        return FrameDetector(threshold_v=0.1).detect(trace)

    frames = benchmark.pedantic(round_trip, rounds=3, iterations=1)
    assert len(frames) == 300
