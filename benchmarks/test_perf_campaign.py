"""Campaign engine performance: parallel + cached vs the serial path.

Runs the (shrunk) beam-pattern semicircle campaign three ways —
serial/cold, parallel/cold, serial/warm-cache — and demonstrates:

* the cached path short-circuits essentially all compute (the >= 10x
  assertion is conservative; in practice it is orders of magnitude);
* the parallel path produces bit-for-bit the serial results, and on
  multi-core hosts beats the serial wall-clock;
* the run telemetry carries the numbers (worker time, wall-clock,
  cache hits) that back those claims.
"""

import os
import time

from repro.campaign.cache import ResultCache
from repro.campaign.registry import get_campaign
from repro.campaign.runner import run_campaign

POSITIONS = 48
SEEDS = (0, 1)


def _spec():
    return get_campaign("beam-patterns").with_overrides(
        {"positions": POSITIONS}, seeds=SEEDS
    )


def test_perf_campaign_parallel_and_cached(tmp_path):
    cache = ResultCache(tmp_path / "cache")

    t0 = time.perf_counter()
    serial = run_campaign(_spec(), workers=1)
    serial_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = run_campaign(_spec(), workers=2, cache=cache)
    parallel_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    cached = run_campaign(_spec(), workers=1, cache=cache)
    cached_wall = time.perf_counter() - t0

    total = serial.telemetry.scenarios_total
    print(
        f"\ncampaign perf ({total} cells, {POSITIONS} positions): "
        f"serial {serial_wall:.2f} s, parallel(2) {parallel_wall:.2f} s, "
        f"cached {cached_wall:.3f} s"
    )

    # Parallel equals serial bit-for-bit; worker count is invisible.
    assert serial.results() == parallel.results()
    assert parallel.telemetry.completed == total

    # Warm cache: nothing recomputed, and dramatically faster.
    assert cached.telemetry.cached == total
    assert cached.telemetry.completed == 0
    assert cached_wall < serial_wall / 10.0
    assert cached.results() == serial.results()

    # Parallel speedup needs actual cores; on multi-core hosts the two
    # workers must overlap their compute.
    if (os.cpu_count() or 1) >= 2:
        assert parallel.telemetry.speedup_vs_serial() > 1.2


def test_perf_campaign_engine_overhead():
    """Engine bookkeeping stays negligible next to cell compute."""
    result = run_campaign(_spec(), workers=1)
    t = result.telemetry
    overhead = t.wall_clock_s - t.worker_time_s
    assert overhead < 0.25 + 0.1 * t.scenarios_total
