"""Device-build cost: cold unit synthesis vs a memoized build.

A device factory (``make_d5000_dock`` and friends) builds a unit's
phased array and codebook once per process per ``(unit_seed,
frequency_hz, pattern_points)`` and hands every later call the same
read-only unit with a fresh pose.  This benchmark writes both costs
for the paper's WiGig pair (default D5000 dock + E7440 notebook) to
``benchmarks/results/BENCH_devices.json`` (unified
:mod:`repro.obs.bench` schema):

* ``cold_build_s`` — best of 3 pair builds right after
  :func:`repro.devices.clear_unit_cache`: 128 pattern syntheses;
* ``warm_build_s`` — best of 3 batches, per pair build, with the units
  cached: the gated number;
* ``warm_build_pattern_syntheses`` — syntheses counted during one
  more warm pair build, which must be 0.

It avoids the pytest-benchmark fixture so CI can run it with plain
pytest.
"""

import math
import pathlib
import time

from repro import obs
from repro.devices import clear_unit_cache, make_d5000_dock, make_e7440_laptop
from repro.obs.bench import bench_entry, write_bench

RESULTS = pathlib.Path(__file__).parent / "results" / "BENCH_devices.json"

ROUNDS = 3
WARM_BATCH = 200


def build_pair():
    return make_d5000_dock(), make_e7440_laptop()


def test_perf_device_builds():
    build_pair()  # warm imports before timing

    cold_s = math.inf
    for _ in range(ROUNDS):
        clear_unit_cache()
        t0 = time.perf_counter()
        build_pair()
        cold_s = min(cold_s, time.perf_counter() - t0)

    warm_s = math.inf
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        for _ in range(WARM_BATCH):
            build_pair()
        warm_s = min(warm_s, (time.perf_counter() - t0) / WARM_BATCH)

    obs.reset()
    obs.enable(metrics=True)
    try:
        build_pair()
        counters = obs.metrics_snapshot()["counters"]
    finally:
        obs.disable()
        obs.reset()
    warm_syntheses = counters.get("phy.antenna.pattern_syntheses", 0)

    assert warm_syntheses == 0, "a cached build re-synthesized patterns"
    assert warm_s < cold_s

    write_bench(RESULTS, "devices", [
        bench_entry("cold_build_s", round(cold_s, 5), "s", "info"),
        # Wide tolerance — CI machines vary; the gate only flags
        # order-of-magnitude regressions.
        bench_entry("warm_build_s", round(warm_s, 7), "s", "lower", tolerance=5.0),
        bench_entry("warm_build_pattern_syntheses", warm_syntheses, "patterns", "info"),
    ])

    print(
        f"\ndevice builds: cold {cold_s * 1e3:.1f} ms, "
        f"warm {warm_s * 1e6:.1f} us per dock + laptop pair"
    )
