"""Observability overhead on the core MAC scenario.

The obs subsystem's contract is "zero overhead when disabled": an
instrumented hot site costs one attribute load and a falsy check.  This
benchmark holds that contract numerically on the same saturated WiGig
scenario as ``test_perf_core.py``:

* **disabled** — the estimated cost of every instrumented site that the
  scenario crosses (guarded counter updates, the always-on per-frame
  counters and no-op spans, measured by micro-timing the disabled-path
  primitives and counting how often an enabled run fires them) must
  stay under 2% of the scenario runtime;
* **enabled** — actually recording metrics must stay under 10%.

Per-frame metrics are plain integers that the MAC publishes once per
``run_until``, so the check that the scenario is instrumented at all is
exact: the published ``mac.medium.frames`` must equal the frames put
on air, and ``mac.wigig.data_frames`` the link's data frames.

The disabled bound is computed analytically (per-call cost x call
count) rather than by differencing two wall-clock runs, because a
sub-2% delta on a ~100 ms scenario is far below container scheduling
jitter.  The enabled bound is a direct ratio of the fastest run with
metrics on to the fastest with them off, over rounds that alternate
the two: timed as two blocks, one after the other, a burst of load
from the host's neighbours that hits only one block moved the ratio by
more than its 10% ceiling.

Numbers land in ``benchmarks/results/BENCH_obs.json`` in the unified
:mod:`repro.obs.bench` schema so ``repro obs bench report`` / ``check``
can track them PR-over-PR.
"""

import math
import pathlib
import time

from repro import obs
from repro.geometry.vec import Vec2
from repro.obs.bench import bench_entry, write_bench

RESULTS = pathlib.Path(__file__).parent / "results" / "BENCH_obs.json"

#: Contract ceilings: disabled instrumentation < 2% of scenario time,
#: metrics recording < 10% (with headroom for CI jitter on the ratio).
DISABLED_OVERHEAD_CEILING = 0.02
ENABLED_OVERHEAD_CEILING = 0.10

#: Alternating rounds of the enabled-overhead timing, each running the
#: scenario once with metrics off and once with them on.
ROUNDS = 15
MICRO_ITERS = 200_000


def run_50ms():
    """The test_perf_core saturated-link scenario (50 ms of DES time)."""
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
    sim.close()
    return flow


def timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def best_off_and_on(fn, rounds=ROUNDS):
    """Fastest run of ``fn`` with metrics off and with metrics on.

    The rounds alternate the two settings, so both see the same host
    load; returns ``(off_s, on_s)`` and leaves observability off.
    """
    off_s = on_s = math.inf
    for _ in range(rounds):
        obs.disable()
        off_s = min(off_s, timed(fn))
        obs.enable(metrics=True)
        on_s = min(on_s, timed(fn))
    obs.disable()
    return off_s, on_s


def guarded_site():
    # The exact disabled-path shape of an instrumented counter site.
    if obs.STATE.metrics:
        obs.add("bench.obs.counter")


def micro_cost(fn, iters=MICRO_ITERS):
    t0 = time.perf_counter()
    for _ in range(iters):
        fn()
    return (time.perf_counter() - t0) / iters


def test_perf_obs_overhead():
    try:
        obs.disable()
        obs.reset()
        run_50ms()  # warm imports and allocator before timing

        # Count how many instrumented sites one run crosses.
        obs.enable(metrics=True, trace=True)
        obs.begin_cell()
        flow = run_50ms()
        metric_ops = obs.registry().ops
        counters = obs.registry().counters
        link = flow.link
        frames_on_air = link.medium.frames_sent
        data_frames = link.stats.data_frames_sent
        _, spans, _ = obs.collect_cell()
        span_count = len(spans)
        # Per-frame counts are plain integers published once per
        # run_until; what is published must be every frame put on air.
        assert frames_on_air > 1000, "scenario no longer puts frames on air"
        assert counters.get("mac.medium.frames") == frames_on_air
        assert counters.get("mac.wigig.data_frames") == data_frames
        assert flow.throughput_bps() > 0.8e9

        obs.disable()
        obs.reset()
        disabled_s, enabled_s = best_off_and_on(run_50ms)
        # Signed: timing noise can make the enabled run the faster one.
        enabled_fraction = enabled_s / disabled_s - 1.0

        guard_s = micro_cost(guarded_site)
        noop_span_s = micro_cost(lambda: obs.span("bench.obs.span"))
        # The always-on frame counters (one per frame, one per data
        # frame) are charged at the price of a guarded site.
        counted_sites = metric_ops + frames_on_air + data_frames
        estimated_disabled_s = counted_sites * guard_s + span_count * noop_span_s
        disabled_fraction = estimated_disabled_s / disabled_s
    finally:
        obs.disable()
        obs.reset()

    write_bench(RESULTS, "obs", [
        # The two contract numbers: overhead fractions, lower is better.
        # Wide per-entry tolerance — the hard ceilings are asserted
        # above; the gate only flags order-of-magnitude drift.
        bench_entry("disabled_overhead_fraction", round(disabled_fraction, 5),
                    "fraction", "lower", tolerance=5.0),
        bench_entry("enabled_overhead_fraction", round(enabled_fraction, 5),
                    "fraction", "lower", tolerance=5.0),
        # Context: raw timings and per-run site counts.  Machine-
        # dependent micro-timings are info (never regression-gated);
        # the site counts are deterministic properties of the scenario.
        bench_entry("scenario_disabled_s", round(disabled_s, 5), "s", "info"),
        bench_entry("scenario_metrics_s", round(enabled_s, 5), "s", "info"),
        bench_entry("metric_ops_per_run", metric_ops, "ops", "info"),
        bench_entry("frames_on_air_per_run", frames_on_air, "frames", "info"),
        bench_entry("spans_per_run", span_count, "spans", "info"),
        bench_entry("disabled_site_cost_ns", round(guard_s * 1e9, 1),
                    "ns", "info"),
        bench_entry("noop_span_cost_ns", round(noop_span_s * 1e9, 1),
                    "ns", "info"),
    ])

    print(
        f"\nobs perf: scenario {disabled_s * 1e3:.1f} ms, "
        f"{counted_sites} sites -> disabled overhead "
        f"{disabled_fraction:.3%} (< {DISABLED_OVERHEAD_CEILING:.0%}), "
        f"metrics on {enabled_s * 1e3:.1f} ms "
        f"({enabled_fraction:+.1%}, < {ENABLED_OVERHEAD_CEILING:.0%})"
    )

    assert disabled_fraction < DISABLED_OVERHEAD_CEILING
    assert enabled_fraction < ENABLED_OVERHEAD_CEILING
