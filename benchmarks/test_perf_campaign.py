"""Campaign engine performance: parallel vs the serial path.

Runs the (shrunk) beam-pattern semicircle campaign twice — serial and
on two workers — and demonstrates:

* the parallel path produces bit-for-bit the serial results, and on
  multi-core hosts beats the serial wall-clock;
* the run telemetry carries the numbers (worker time, wall-clock)
  that back those claims.
"""

import os
import time

from repro.campaign.runner import run_campaign
from repro.campaign.spec import CampaignSpec, grid_cells
from repro.experiments.beam_patterns import PATTERN_SETUPS

POSITIONS = 48
SEEDS = (0, 1)


def _spec():
    return CampaignSpec("beam-patterns", grid_cells(
        "beam_pattern", {"positions": POSITIONS}, {"setup": PATTERN_SETUPS}, seeds=SEEDS
    ))


def test_perf_campaign_parallel():
    t0 = time.perf_counter()
    serial = run_campaign(_spec(), workers=1)
    serial_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = run_campaign(_spec(), workers=2)
    parallel_wall = time.perf_counter() - t0

    total = serial.telemetry.scenarios_total
    print(
        f"\ncampaign perf ({total} cells, {POSITIONS} positions): "
        f"serial {serial_wall:.2f} s, parallel(2) {parallel_wall:.2f} s"
    )

    # Parallel equals serial bit-for-bit; worker count is invisible.
    assert serial.results() == parallel.results()
    assert parallel.telemetry.completed == total

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
