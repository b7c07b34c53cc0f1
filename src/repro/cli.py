"""Command-line interface: quick looks at the paper's experiments.

Usage::

    python -m repro patterns [--rotated 70]
    python -m repro sweep
    python -m repro range [--runs 10]
    python -m repro interference [--distances 0 1 2 3]
    python -m repro nlos
    python -m repro blockage [--no-failover] [--no-wall]
    python -m repro mobility [--speeds 50 70 110]
    python -m repro campaign list
    python -m repro campaign run beam-patterns --workers 4
    python -m repro campaign verify beam-patterns --workers 4
    python -m repro campaign run beam-patterns --trace --profile
    python -m repro obs report campaign_runs/beam-patterns [--json]
    python -m repro obs diff <run_a> <run_b>
    python -m repro obs bench report
    python -m repro obs bench check --baseline <dir>

Each subcommand runs a time-scaled version of the corresponding
measurement (Section 3.2 setups) and prints the headline rows.  The
full, asserted reproductions live in ``benchmarks/``.  Every
subcommand takes ``--seed`` so runs are reproducible from the command
line; the defaults match the historical per-experiment seeds.

``campaign`` drives the parallel engine (:mod:`repro.campaign`):
``list`` shows the built-in campaigns; ``run`` computes every cell of
one across worker processes and writes ``results.jsonl`` plus a
``manifest.json`` run manifest; ``verify`` proves the engine's
determinism claim — workers=1 and workers=N with shuffled submission
must merge to byte-identical result stores.  A campaign name or
``--set`` key the cell does not accept exits 2 before any cell runs.

``obs`` reads run directories: ``report`` renders a run's metrics,
handler and span tables and checks its ``trace.json`` (exit 1 when
the trace is invalid); ``diff`` compares two runs' count-derived
fields (exit 1 when they differ); ``bench report``/``bench check``
read the committed benchmark results.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys
from typing import Optional, Sequence


def _cmd_patterns(args: argparse.Namespace) -> int:
    from repro.experiments.beam_patterns import (
        PatternMetrics,
        measure_dock_pattern,
        measure_laptop_pattern,
    )

    print("Beam pattern campaign (3.2 m semicircle, 100 positions)...")
    rows = [
        PatternMetrics.from_measurement(
            "laptop", measure_laptop_pattern(seed=args.seed)
        ),
        PatternMetrics.from_measurement(
            "dock aligned", measure_dock_pattern(0.0, seed=args.seed + 1)
        ),
    ]
    if args.rotated:
        rows.append(
            PatternMetrics.from_measurement(
                f"dock rotated {args.rotated:.0f}",
                measure_dock_pattern(math.radians(args.rotated), seed=args.seed + 1),
            )
        )
    for row in rows:
        print("  " + row.row())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.frame_level import aggregation_sweep

    print("TCP operating-point sweep (Figures 9-11)...")
    for report in aggregation_sweep(
        duration_s=args.duration, warmup_s=0.04, seed=args.seed
    ):
        print("  " + report.row())
    return 0


def _cmd_range(args: argparse.Namespace) -> int:
    from repro.experiments.range_vs_distance import (
        cliff_statistics,
        throughput_vs_distance,
    )

    runs, average = throughput_vs_distance(runs=args.runs, seed=args.seed)
    print(f"Throughput vs distance ({args.runs} runs, Figure 13):")
    for d, avg in zip(runs[0].distances_m, average):
        bar = "#" * int(avg / 940e6 * 40)
        print(f"  {d:4.0f} m {avg / 1e6:7.0f} mbps |{bar}")
    lo, hi = cliff_statistics(runs)
    print(f"  link-break cliffs span {lo:.0f}-{hi:.0f} m (paper: 10-17 m)")
    return 0


def _cmd_interference(args: argparse.Namespace) -> int:
    from repro.experiments.interference import (
        interference_free_baseline,
        run_interference_point,
    )

    base = interference_free_baseline(duration_s=args.duration, seed=args.seed + 89)
    print(f"baseline: util {base.utilization * 100:.0f}%, "
          f"rate {base.link_rate_bps / 1e9:.2f} Gbps")
    print(f"{'d (m)':>6} {'util %':>7} {'rate Gbps':>10} {'retx':>6}")
    for i, d in enumerate(args.distances):
        p = run_interference_point(d, duration_s=args.duration, seed=args.seed + i)
        print(f"{d:6.1f} {p.utilization * 100:7.1f} "
              f"{p.link_rate_bps / 1e9:10.2f} {p.retransmissions:6d}")
    return 0


def _cmd_nlos(args: argparse.Namespace) -> int:
    from repro.experiments.reflection_range import run_nlos_throughput

    result = run_nlos_throughput(duration_s=0.24, intervals=4, seed=args.seed)
    print(f"LOS blocked: {result.los_blocked}")
    print(f"NLOS: {result.nlos_throughput.mean / 1e6:.0f} mbps "
          f"(+-{result.nlos_throughput.half_width / 1e6:.0f})")
    print(f"LOS:  {result.los_throughput_bps / 1e6:.0f} mbps "
          f"(NLOS/LOS = {result.nlos_over_los:.2f}; paper: 550 mbps, 'more than half')")
    return 0


def _cmd_blockage(args: argparse.Namespace) -> int:
    from repro.experiments.blockage import run_blockage_crossing

    result = run_blockage_crossing(
        failover=not args.no_failover,
        with_wall=not args.no_wall,
        seed=args.seed,
    )
    print(f"failover={'off' if args.no_failover else 'on'}, "
          f"wall={'absent' if args.no_wall else 'present'}:")
    print(f"  retrains: {result.retrain_count}")
    print(f"  outage:   {result.outage_s(20e-3) * 1e3:.0f} ms")
    print(f"  min rate: {result.min_rate_bps() / 1e9:.2f} Gbps")
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    from repro.experiments.link_recovery import run_break_and_recover

    result = run_break_and_recover(outage_duration_s=args.outage, seed=args.seed)
    print(f"outage: {result.outage_start_s:.2f} - {result.outage_end_s:.2f} s")
    if result.break_detected_s is None:
        print("link survived (no break declared)")
        return 0
    print(f"break detected:  {result.break_detected_s:.3f} s "
          f"(+{result.detection_delay_s * 1e3:.0f} ms)")
    print(f"re-associated:   {result.reassociated_s:.3f} s")
    print(f"traffic resumed: {result.traffic_resumed_s:.3f} s")
    print(f"protocol share of downtime: "
          f"{result.protocol_recovery_s * 1e3:.0f} ms "
          f"(mostly waiting for the 102.4 ms discovery sweep)")
    return 0


def _cmd_mobility(args: argparse.Namespace) -> int:
    from repro.experiments.mobility import (
        contact_time_by_policy,
        retraining_overhead_vs_speed,
    )

    print("Vehicular pass: throughput and re-training overhead vs speed")
    print(f"{'km/h':>6} {'goodput mbps':>13} {'retrains':>9} "
          f"{'sweep ms':>9} {'overhead %':>11}")
    for row in retraining_overhead_vs_speed(
        speeds_kmh=args.speeds, seed=args.seed
    ):
        print(f"{row['speed_kmh']:6.0f} {row['goodput_bps'] / 1e6:13.0f} "
              f"{row['retrains']:9d} {row['retrain_airtime_s'] * 1e3:9.2f} "
              f"{row['overhead_fraction'] * 100:11.2f}")
    print("Corridor walk: handover policies and AP contact time")
    for policy, row in contact_time_by_policy(
        policies=args.policies, seed=args.seed
    ).items():
        contact = ", ".join(
            f"{ap} {t:.1f}s" for ap, t in row["contact_time_s"].items()
        )
        print(f"  {policy:<10} handovers={row['handovers']} "
              f"goodput={row['mean_goodput_bps'] / 1e6:.0f} mbps "
              f"outage={row['outage_fraction'] * 100:.1f}%  [{contact}]")
    return 0


def _cmd_spatial(args: argparse.Namespace) -> int:
    import math

    from repro.core.spatial import Link, conflict_graph, greedy_schedule
    from repro.devices.d5000 import make_d5000_dock, make_e7440_laptop
    from repro.geometry.vec import Vec2
    from repro.mac.coupling import DeviceCoupling
    from repro.phy.channel import LinkBudget

    links = []
    devices = {}
    for i in range(args.links):
        y = 2.5 * i
        dock = make_d5000_dock(
            name=f"dock-{i}", position=Vec2(0, y), unit_seed=args.seed + i
        )
        laptop = make_e7440_laptop(name=f"laptop-{i}", position=Vec2(3, y),
                                   orientation_rad=math.pi,
                                   unit_seed=args.seed + 69 + i)
        dock.train_toward(laptop.position)
        laptop.train_toward(dock.position)
        links.append(Link(tx=laptop, rx=dock))
        devices[dock.name] = dock
        devices[laptop.name] = laptop
    coupling = DeviceCoupling(devices, budget=LinkBudget())
    edges = conflict_graph(links, coupling)
    groups = greedy_schedule(links, coupling)
    print(f"{args.links} parallel links, 2.5 m row spacing")
    print(f"conflicts: {edges or 'none'}")
    print(f"schedule:  {groups} ({len(groups)}x airtime division)")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.experiments.frame_level import run_idle_wigig, run_unassociated_dock
    from repro.mac.frames import FrameKind

    idle = run_idle_wigig(duration_s=0.02, seed=args.seed)
    beacons = sorted(
        r.start_s
        for r in idle.medium.history
        if r.kind == FrameKind.BEACON and r.source == idle.dock.name
    )
    unassoc = run_unassociated_dock(duration_s=0.45, seed=args.seed + 1)
    disc = sorted(
        r.start_s for r in unassoc.medium.history if r.kind == FrameKind.DISCOVERY
    )
    print("Table 1 (D5000 side):")
    print(f"  beacon interval:    {np.median(np.diff(beacons)) * 1e3:.3f} ms (paper 1.1)")
    print(f"  discovery interval: {np.median(np.diff(disc)) * 1e3:.3f} ms (paper 102.4)")
    return 0


def _parse_override(text: str):
    """Parse a ``--set key=value`` override (int/float/bool/str)."""
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"override {text!r} must look like key=value")
    key, _, raw = text.partition("=")
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return key, lowered == "true"
    for cast in (int, float):
        try:
            return key, cast(raw)
        except ValueError:
            pass
    return key, raw


class _CampaignInputError(Exception):
    """A campaign name or ``--set`` key no cell accepts (exit 2)."""


def _check_overrides(spec, overrides) -> None:
    """Reject ``--set`` keys the campaign's cell has no keyword for."""
    import inspect

    from repro.campaign import resolve_cell

    if "seed" in overrides:
        raise _CampaignInputError("seed is not a --set parameter; use --seed N")
    params = inspect.signature(resolve_cell(spec.experiment)).parameters
    accepted = sorted(name for name in params if name != "seed")
    for key in overrides:
        if key not in accepted:
            raise _CampaignInputError(
                f"campaign {spec.name} has no parameter {key!r} "
                f"(accepted: {', '.join(accepted)})"
            )


def _campaign_spec_from_args(args: argparse.Namespace):
    from repro.campaign import get_campaign

    try:
        spec = get_campaign(args.name)
    except KeyError as exc:
        raise _CampaignInputError(exc.args[0]) from None
    overrides = dict(args.set or [])
    _check_overrides(spec, overrides)
    seeds = None
    if args.seed is not None:
        seeds = tuple(args.seed + i for i in range(len(spec.seeds)))
    if overrides or seeds is not None:
        spec = spec.with_overrides(overrides, seeds)
    return spec


def _cmd_campaign_list(args: argparse.Namespace) -> int:
    from repro.campaign import builtin_campaigns

    print(f"{'name':<20} {'cells':>6}  description")
    for name, spec in sorted(builtin_campaigns().items()):
        print(f"{name:<20} {spec.scenario_count():>6}  {spec.description}")
    return 0


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignRunner, write_run

    spec = _campaign_spec_from_args(args)
    runner = CampaignRunner(
        spec,
        workers=args.workers,
        timeout_s=args.timeout,
        trace=args.trace,
        profile=args.profile,
    )
    print(f"campaign {spec.name}: {spec.scenario_count()} cells, "
          f"{args.workers} worker(s)"
          f"{', tracing on' if args.trace else ''}"
          f"{', profiling on' if args.profile else ''}")
    result = runner.run()
    out_dir = pathlib.Path(args.output) if args.output else (
        pathlib.Path("campaign_runs") / spec.name
    )
    write_run(result, out_dir)
    t = result.telemetry
    print(f"done: {t.summary()}")
    eps = t.events_per_second()
    if t.events_simulated and eps is not None:
        print(f"DES: {t.events_simulated} events, {eps:,.0f} events/s")
    for failure in t.failures:
        print(f"FAILED {failure['digest'][:12]} {failure['experiment']}: "
              f"{failure['error']}")
    print(f"results: {out_dir / 'results.jsonl'}")
    print(f"manifest: {out_dir / 'manifest.json'}")
    if t.spans_file:
        print(f"trace: {out_dir / t.spans_file} "
              f"(open in https://ui.perfetto.dev or via 'repro obs report')")
    if t.profile:
        print(f"profile: merged into manifest "
              f"(inspect via 'repro obs report {out_dir}')")
    return 0 if any(o.ok for o in result.outcomes) else 1


def _run_manifest(run_dir: pathlib.Path) -> Optional[dict]:
    """A run directory's manifest, or None after a one-line stderr error.

    A missing ``manifest.json``, one of another schema version and one
    that is not JSON all print ``error: ...`` naming ``run_dir``.
    """
    from repro.campaign.store import load_manifest

    if not (run_dir / "manifest.json").is_file():
        print(f"error: no manifest.json in {run_dir}", file=sys.stderr)
        return None
    try:
        return load_manifest(run_dir)
    except ValueError as exc:
        print(f"error: {run_dir}: {exc}", file=sys.stderr)
        return None


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.obs.report import render_report, render_report_json, report_run

    run_dir = pathlib.Path(args.run_dir)
    manifest = _run_manifest(run_dir)
    if manifest is None:
        return 2
    doc = report_run(run_dir, manifest)
    if args.json:
        print(render_report_json(doc), end="")
    else:
        print(render_report(doc))
    problems = doc["trace"]["problems"] if doc["trace"] else []
    for problem in problems:
        print(f"invalid: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    from repro.obs.prof import diff_manifests, render_diff

    manifests = []
    for run_dir in (args.run_a, args.run_b):
        manifest = _run_manifest(pathlib.Path(run_dir))
        if manifest is None:
            return 2
        manifests.append(manifest)
    diff = diff_manifests(manifests[0], manifests[1])
    if args.json:
        print(json.dumps(diff, indent=2, sort_keys=True))
    else:
        print(render_diff(diff, show_all=args.all))
    return 0 if diff["counted_changed"] == 0 else 1


def _cmd_obs_bench_report(args: argparse.Namespace) -> int:
    from repro.obs.bench import load_results, render_report

    try:
        results = load_results(args.results)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_report(results))
    return 0


def _cmd_obs_bench_check(args: argparse.Namespace) -> int:
    from repro.obs.bench import (
        DEFAULT_TOLERANCE,
        check_results,
        load_results,
        render_check,
    )

    try:
        current = load_results(args.results)
        baseline = load_results(args.baseline)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not baseline:
        print(f"error: no BENCH_*.json in baseline dir {args.baseline}",
              file=sys.stderr)
        return 2
    tolerance = DEFAULT_TOLERANCE if args.tolerance is None else args.tolerance
    rows = check_results(current, baseline, tolerance=tolerance)
    print(render_check(rows))
    return 0 if all(row["ok"] for row in rows) else 1


def _cmd_obs(args: argparse.Namespace) -> int:
    return args.obs_func(args)


def _cmd_campaign_verify(args: argparse.Namespace) -> int:
    from repro.campaign.verify import render_report, verify_campaign

    spec = _campaign_spec_from_args(args)
    report = verify_campaign(
        spec, workers=args.workers, shuffle_seed=args.shuffle_seed
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_report(report))
    return 0 if report.ok else 1


def _cmd_campaign(args: argparse.Namespace) -> int:
    try:
        return args.campaign_func(args)
    except _CampaignInputError as exc:
        print(f"repro campaign: {exc}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction toolkit for 'Boon and Bane of 60 GHz Networks'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def seed_option(p: argparse.ArgumentParser, default: int) -> None:
        p.add_argument("--seed", type=int, default=default,
                       help=f"base RNG seed (default {default})")

    p = sub.add_parser("patterns", help="beam pattern metrics (Figure 17)")
    p.add_argument("--rotated", type=float, default=70.0,
                   help="also measure the dock misaligned by DEG (0 to skip)")
    seed_option(p, 0)
    p.set_defaults(func=_cmd_patterns)

    p = sub.add_parser("sweep", help="TCP aggregation sweep (Figures 9-11)")
    p.add_argument("--duration", type=float, default=0.1,
                   help="simulated seconds per operating point")
    seed_option(p, 1)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("range", help="throughput vs distance (Figure 13)")
    p.add_argument("--runs", type=int, default=10)
    seed_option(p, 5)
    p.set_defaults(func=_cmd_range)

    p = sub.add_parser("interference", help="side-lobe interference sweep (Figure 22)")
    p.add_argument("--distances", type=float, nargs="+", default=[0.0, 1.0, 2.0, 3.0])
    p.add_argument("--duration", type=float, default=0.25)
    seed_option(p, 10)
    p.set_defaults(func=_cmd_interference)

    p = sub.add_parser("nlos", help="NLOS reflection link (Figures 5/20)")
    seed_option(p, 7)
    p.set_defaults(func=_cmd_nlos)

    p = sub.add_parser("blockage", help="human blockage crossing + SLS fail-over")
    p.add_argument("--no-failover", action="store_true")
    p.add_argument("--no-wall", action="store_true")
    seed_option(p, 0)
    p.set_defaults(func=_cmd_blockage)

    p = sub.add_parser("recover", help="link break + re-association lifecycle")
    p.add_argument("--outage", type=float, default=0.25,
                   help="obstruction duration in seconds")
    seed_option(p, 20)
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser(
        "mobility",
        help="vehicular drive-by overhead + corridor handover figures",
    )
    p.add_argument("--speeds", type=float, nargs="+", default=[50.0, 70.0, 110.0],
                   help="vehicle speeds in km/h")
    p.add_argument("--policies", nargs="+",
                   default=["sticky", "hysteresis", "wifi"],
                   help="handover policies (sticky, hysteresis, wifi)")
    seed_option(p, 0)
    p.set_defaults(func=_cmd_mobility)

    p = sub.add_parser("spatial", help="conflict graph / schedule for N links")
    p.add_argument("--links", type=int, default=3)
    seed_option(p, 1)
    p.set_defaults(func=_cmd_spatial)

    p = sub.add_parser("table1", help="frame periodicities (Table 1)")
    seed_option(p, 3)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser(
        "campaign",
        help="parallel campaign engine (list/run/verify)",
    )
    csub = p.add_subparsers(dest="campaign_command", required=True)

    c = csub.add_parser("list", help="available campaigns")
    c.set_defaults(func=_cmd_campaign, campaign_func=_cmd_campaign_list)

    def campaign_target_options(c: argparse.ArgumentParser) -> None:
        c.add_argument("name", help="campaign name (see 'campaign list')")
        c.add_argument("--seed", type=int, default=None,
                       help="base seed replacing the campaign's seed list")
        c.add_argument("--set", type=_parse_override, action="append",
                       metavar="KEY=VALUE",
                       help="override a base parameter or pin a grid axis")

    c = csub.add_parser("run", help="execute a campaign")
    campaign_target_options(c)
    c.add_argument("--workers", type=int, default=1,
                   help="worker processes (1 = serial in-process)")
    c.add_argument("--timeout", type=float, default=None,
                   help="per-scenario timeout in seconds")
    c.add_argument("--output", default=None,
                   help="run directory (default campaign_runs/<name>)")
    c.add_argument("--trace", action="store_true",
                   help="record obs spans; writes trace.json (Perfetto) "
                        "and the span table of the manifest's profile")
    c.add_argument("--profile", action="store_true",
                   help="attribute DES event wall time per handler; "
                        "writes the handler table of the manifest's "
                        "profile (inspect with 'repro obs report')")
    c.set_defaults(func=_cmd_campaign, campaign_func=_cmd_campaign_run)

    c = csub.add_parser(
        "verify",
        help="prove workers=1 ≡ workers=N with shuffled submission",
    )
    campaign_target_options(c)
    c.add_argument("--workers", type=int, default=4,
                   help="pool size for the parallel leg (default 4)")
    c.add_argument("--shuffle-seed", type=int, default=1,
                   help="seed for the shuffled submission order")
    c.add_argument("--json", action="store_true",
                   help="machine-readable report")
    c.set_defaults(func=_cmd_campaign, campaign_func=_cmd_campaign_verify)

    p = sub.add_parser(
        "obs",
        help="observability: run reports, run diffs, benchmarks",
    )
    osub = p.add_subparsers(dest="obs_command", required=True)

    o = osub.add_parser(
        "report",
        help="a run's metrics, handler and span tables; checks its "
             "trace.json (exit 1 when invalid)",
    )
    o.add_argument("run_dir", help="campaign run directory (manifest.json)")
    o.add_argument("--json", action="store_true",
                   help="byte-deterministic machine-readable report")
    o.set_defaults(func=_cmd_obs, obs_func=_cmd_obs_report)

    o = osub.add_parser(
        "diff",
        help="compare two run manifests (stable order, signed deltas; "
             "exit 1 when count-derived fields differ)",
    )
    o.add_argument("run_a", help="first run directory (manifest.json)")
    o.add_argument("run_b", help="second run directory (manifest.json)")
    o.add_argument("--all", action="store_true",
                   help="show unchanged fields too")
    o.add_argument("--json", action="store_true",
                   help="machine-readable diff")
    o.set_defaults(func=_cmd_obs, obs_func=_cmd_obs_diff)

    o = osub.add_parser(
        "bench",
        help="benchmark trajectory report / regression gate",
    )
    bsub = o.add_subparsers(dest="bench_command", required=True)

    b = bsub.add_parser("report", help="trajectory table over BENCH_*.json")
    b.add_argument("--results", default="benchmarks/results",
                   help="results directory (default benchmarks/results)")
    b.set_defaults(func=_cmd_obs, obs_func=_cmd_obs_bench_report)

    b = bsub.add_parser(
        "check",
        help="fail when a gated benchmark regressed past the tolerance",
    )
    b.add_argument("--results", default="benchmarks/results",
                   help="current results directory (default benchmarks/results)")
    b.add_argument("--baseline", required=True,
                   help="baseline results directory to compare against")
    b.add_argument("--tolerance", type=float, default=None,
                   help="default allowed degradation ratio "
                        "(default 3.0; per-entry 'tolerance' overrides)")
    b.set_defaults(func=_cmd_obs, obs_func=_cmd_obs_bench_check)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
