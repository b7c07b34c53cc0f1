"""End-to-end benchmark of the 60 GHz reproduction: four seeded workloads.

Usage (from the root of a checkout)::

    python3 benchmarks/e2e/run.py --seed N [--workload NAME]... [--seconds S]
                                  [--trace [0|1]] [--out FILE]

Every workload (all four when ``--workload`` is not given) runs in
fresh child processes, strictly one at a time, so nothing is shared
between rounds and the two cores are not contended:

* untraced (the default): ``ROUNDS`` rounds, each timing ops for an
  equal share of ``--seconds`` (default ``run_seconds`` of
  ``BENCHMARK.json``) and at least the workload's counted ops.  Prints
  the ``end_to_end`` metrics.
* ``--trace``: the counted ops once untraced and once traced.  Prints a
  per-boundary table and the ``per_layer`` metrics, and writes the
  spans as a Chrome trace under ``benchmarks/e2e/out/``.

Output: one ``workload metric value unit`` line per metric, each
workload's sample count and ``results_digest``, and as the last line a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--out`` also writes everything, digests and exact counts included, as
JSON for ``compare.py``.

An op fails when it raises or breaks its workload's invariant, and
every op of a round whose outputs differ from the first round's fails.
Failed ops are counted, never fatal.  Without the repo's ``src/repro``
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from child import MAX_OPS
from layers import chrome_trace, layer_metrics, layer_table
from workloads import ROOT, WORKLOADS, op_digest, use_repo_sources

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
TRACE_DIR = HERE / "out"

#: Untraced rounds per workload; set-up is the median of these.
ROUNDS = 3

#: Wall-clock limit for all children of one workload.
WORKLOAD_TIMEOUT_S = 170.0


class RoundError(RuntimeError):
    """A child process crashed or timed out."""


def spawn(name: str, seed: int, budget_s: float, min_ops: int, max_ops: int,
          traced: bool, deadline: float) -> dict:
    """Run one round in a fresh interpreter and return its result."""
    args = {
        "workload": name,
        "seed": seed,
        "budget_s": budget_s,
        "min_ops": min_ops,
        "max_ops": max_ops,
        "traced": traced,
    }
    # Byte-compiling from source every time keeps set-up independent of
    # what an earlier run left in __pycache__; a fixed hash seed gives
    # every round the same dict and set layouts.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), json.dumps(args)],
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=env,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired as exc:
        raise RoundError(f"{name}: round timed out") from exc
    if proc.returncode != 0:
        raise RoundError(f"{name}: round exited {proc.returncode}\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result.pop("ready") - spawned
    return result


def _failed_ops(rounds: List[dict]) -> int:
    """Failed ops; a round whose op outputs differ from round 1's fails whole."""
    base = rounds[0]["op_digests"]
    failed = 0
    for r in rounds:
        common = min(len(base), len(r["op_digests"]))
        if r["op_digests"][:common] != base[:common]:
            failed += r["attempted"]
        else:
            failed += len(r["failures"])
    return failed


def load_spec() -> dict:
    """The checkout's ``BENCHMARK.json``: metric names, units, bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _with_units(values: Dict[str, float], section: str) -> Dict[str, dict]:
    spec = {m["name"]: m["unit"] for m in load_spec()[section]}
    if set(values) != set(spec):
        raise RuntimeError(
            f"{section} metrics {sorted(values)} do not match BENCHMARK.json {sorted(spec)}"
        )
    return {name: {"value": values[name], "unit": spec[name]} for name in spec}


def block_rates(latencies: List[float], block_ops: int) -> List[float]:
    """Ops per second of each whole block of consecutive ops.

    The median over blocks, not ops over total time, is the reported
    throughput: the host's bursts of slowdown last a few seconds, and
    the median ignores the blocks they hit as long as they are few.
    """
    return [
        block_ops / sum(latencies[i:i + block_ops])
        for i in range(0, len(latencies) - block_ops + 1, block_ops)
    ]


def measure(name: str, seed: int, seconds: float) -> dict:
    """The untraced run: ``ROUNDS`` rounds and the end-to-end metrics."""
    workload = WORKLOADS[name]
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    rounds = [
        spawn(name, seed, seconds / ROUNDS, workload.counted_ops, MAX_OPS, False, deadline)
        for _ in range(ROUNDS)
    ]
    latencies = [x for r in rounds for x in r["latencies"]]
    metrics = {
        "ops_per_s": statistics.median(
            rate for r in rounds for rate in block_rates(r["latencies"], workload.block_ops)
        ),
        "op_p50_s": statistics.median(latencies),
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    return {
        "metrics": _with_units(metrics, "end_to_end"),
        "samples": len(latencies),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": _failed_ops(rounds),
        "results_digest": rounds[0]["counted_digest"],
        "counts": rounds[0]["counts"],
        "failures": [f for r in rounds for f in r["failures"]][:10],
        "rounds": [
            {k: r[k] for k in ("setup_s", "peak_rss_mb", "latencies")} for r in rounds
        ],
    }


def exact_counts(traced: dict) -> dict:
    """Every count of a traced round; they repeat exactly across runs."""
    return {
        "obs_counters": traced["obs"].get("counters", {}),
        "handler_calls": {h: e["calls"] for h, e in sorted(traced["handlers"].items())},
        "span_calls": {s: e[0] for s, e in sorted(traced["span_stats"].items())},
        "tallies": dict(sorted(traced["tallies"].items())),
    }


def trace(name: str, seed: int) -> dict:
    """The traced run: the counted ops untraced, then traced."""
    k = WORKLOADS[name].counted_ops
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    reference = spawn(name, seed, 0.0, k, k, False, deadline)
    traced = spawn(name, seed, 0.0, k, k, True, deadline)
    for row in layer_table(traced["span_stats"]):
        print(f"{name} | {row}")
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{name}-seed{seed}.json"
    path.write_text(json.dumps(chrome_trace(traced["spans"], traced["span_stats"])))
    print(f"{name} chrome_trace {os.path.relpath(path, ROOT)}")
    exact = exact_counts(traced)
    return {
        "metrics": _with_units(layer_metrics(traced, reference), "per_layer"),
        "samples": len(traced["latencies"]),
        "attempted": reference["attempted"] + traced["attempted"],
        "failed": _failed_ops([reference, traced]),
        "results_digest": traced["counted_digest"],
        "counts": dict(traced["counts"], exact_sha256=op_digest(exact)),
        "exact": exact,
        "failures": (reference["failures"] + traced["failures"])[:10],
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=float(load_spec()["run_seconds"]))
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    try:
        use_repo_sources()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOADS)
    results = {}
    try:
        for name in names:
            result = trace(name, args.seed) if args.trace else measure(name, args.seed, args.seconds)
            for metric, m in result["metrics"].items():
                print(f"{name} {metric} {m['value']!r} {m['unit']}")
            print(f"{name} samples {result['samples']}")
            print(f"{name} results_digest {result['results_digest']}")
            for index, why in result["failures"]:
                print(f"{name} failed_op {index} {why}", file=sys.stderr)
            results[name] = result
    except RoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "trace": args.trace, "workloads": results},
            indent=1,
        ))
    failed = sum(r["failed"] for r in results.values())
    metrics = {
        (metric if len(names) == 1 else f"{name}.{metric}"): m
        for name, r in results.items()
        for metric, m in r["metrics"].items()
    }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
