"""One round of a workload, in a fresh interpreter.

``run.py`` starts this script once per round, strictly one at a time,
with one JSON argument::

    python3 benchmarks/e2e/child.py '{"workload": "room_profiles", "seed": 1,
                                      "budget_s": 6.0, "min_ops": 8,
                                      "max_ops": 5000, "traced": false}'

The round imports ``repro`` from the checkout and runs the workload's
untimed warm-up ops (one op of each kind), so lazy caches filled on
first use, and the first allocations of each op kind, land in set-up.
It then records the monotonic clock (``run.py`` measures set-up from
the spawn to that instant) and times ops one after another until
``budget_s`` is spent, ending on a block boundary, running at least
``min_ops`` and at most ``max_ops``.  A traced round wraps the layers
(see ``layers.py``) after the warm-up.  The last stdout line is the
round's result as JSON.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from typing import List, Optional, Tuple

from layers import LayerTracer
from workloads import WORKLOADS, Workload, op_digest, use_repo_sources

#: Upper bound on ops per round; the time budget ends rounds long before.
MAX_OPS = 5000


def _attempt(workload: Workload, op: dict) -> Tuple[Optional[dict], Optional[str]]:
    """Run one op; returns (output, why it failed or None)."""
    try:
        out = workload.run_op(op)
        return out, workload.violation(out)
    except Exception as exc:  # a failing op is counted, never fatal
        return None, f"{type(exc).__name__}: {exc}"


def run_round(
    workload: Workload,
    seed: int,
    budget_s: float,
    min_ops: Optional[int] = None,
    max_ops: int = MAX_OPS,
    tracer: Optional[LayerTracer] = None,
) -> dict:
    """Warm up, then time ops; see the module docstring."""
    min_ops = workload.counted_ops if min_ops is None else min_ops
    all_ops = workload.ops(seed, workload.warmup_ops + max_ops)
    warmup, ops = all_ops[: workload.warmup_ops], all_ops[workload.warmup_ops:]
    # Warm-up failures are numbered -warmup_ops .. -1.
    failures: List[list] = []
    for index, op in enumerate(warmup, start=-workload.warmup_ops):
        _, problem = _attempt(workload, op)
        if problem is not None:
            failures.append([index, problem])
    ready = time.monotonic()
    latencies: List[float] = []
    digests: List[str] = []
    counts: dict = {}
    if tracer is not None:
        from repro import obs

        obs.reset()
        obs.enable(metrics=True, profile=True)
        tracer.install()
    try:
        deadline = time.perf_counter() + budget_s
        for index, op in enumerate(ops):
            if (
                index >= min_ops
                and index % workload.block_ops == 0
                and time.perf_counter() >= deadline
            ):
                break
            frame = tracer.begin_op(index) if tracer is not None else None
            t0 = time.perf_counter()
            out, problem = _attempt(workload, op)
            latencies.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.end_op(frame)
            if problem is not None:
                failures.append([index, problem])
            digests.append(op_digest(out))
            if index < min_ops and out is not None:
                for key, value in out["counts"].items():
                    counts[key] = counts.get(key, 0) + value
    finally:
        if tracer is not None:
            tracer.uninstall()
            obs.disable()
    result = {
        "ready": ready,
        "attempted": len(latencies) + workload.warmup_ops,
        "latencies": latencies,
        "op_digests": digests,
        "counted_digest": op_digest(digests[:min_ops]),
        "counts": counts,
        "failures": failures,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result.update(
            span_stats=tracer.stats,
            spans=tracer.spans,
            tallies=tracer.tallies,
            obs=obs.metrics_snapshot() or {},
            handlers=(obs.profile_snapshot() or {}).get("handlers", {}),
        )
    return result


def main(argv: List[str]) -> int:
    args = json.loads(argv[1])
    use_repo_sources()
    result = run_round(
        WORKLOADS[args["workload"]],
        seed=args["seed"],
        budget_s=args["budget_s"],
        min_ops=args["min_ops"],
        max_ops=args["max_ops"],
        tracer=LayerTracer() if args["traced"] else None,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
