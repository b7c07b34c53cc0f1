"""Compare two sets of untraced benchmark runs, metric by metric.

Usage::

    python3 benchmarks/e2e/compare.py A1.json A2.json ... -- B1.json B2.json ...

Each file is a ``run.py --out`` result.  A is the baseline (the parent
commit), B the change; run both with the same seeds and ``--seconds``.
For every (workload, end-to-end metric) it prints each set's median and
quartiles, the fraction of pairs (A_i, B_i) that B wins, and a verdict
using the bounds in ``BENCHMARK.json``:

* ``unresolved`` — a set's spread (quartile distance over median)
  exceeds the bound, unless every B run beats every A run (``better``)
  or loses to every A run by more than the bound (``worse``);
* ``worse`` — B's median is worse than A's by more than the bound;
* ``better`` — B wins at least 9 in 10 pairs and the medians differ by
  more than the quartile distance of A's runs;
* ``unchanged`` — anything else.

It then lists every results digest or exact count that is not the same
in all runs.  Digests are compared between runs, never with a committed
reference, so a fix that changes behaviour shows up here and nowhere
else.  Exits 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]

#: Share of pairs the change must win before it counts as better.
WIN_SHARE = 0.9


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: List[float], b: List[float], bound: float, higher_is_better: bool) -> Tuple[str, float]:
    """(verdict, share of pairs B wins) for one metric; see the module docstring."""
    sign = 1.0 if higher_is_better else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0) / len(pairs)
    gain = sign * (b_med - a_med) / abs(a_med)
    spread = max((a_q3 - a_q1) / abs(a_med), (b_q3 - b_q1) / abs(b_med))
    if spread > bound:
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "better", wins
        if gain < -bound and all(sign * (y - x) < 0 for x in a for y in b):
            return "worse", wins
        return "unresolved", wins
    if gain < -bound:
        return "worse", wins
    if wins >= WIN_SHARE and abs(b_med - a_med) > a_q3 - a_q1 and gain > 0:
        return "better", wins
    return "unchanged", wins


def _load(paths: List[str]) -> List[dict]:
    runs = [json.loads(Path(p).read_text()) for p in paths]
    for path, run in zip(paths, runs):
        if run.get("trace"):
            raise SystemExit(f"{path}: a traced run; compare needs untraced runs")
    return runs


def _differences(runs: List[dict], workload: str) -> List[str]:
    """Digest and exact-count values that are not the same in every run."""
    lines = []
    digests = {r["workloads"][workload]["results_digest"] for r in runs}
    if len(digests) > 1:
        lines.append(f"{workload}: results_digest differs: {sorted(digests)}")
    keys = sorted({k for r in runs for k in r["workloads"][workload]["counts"]})
    for key in keys:
        values = {r["workloads"][workload]["counts"].get(key) for r in runs}
        if len(values) > 1:
            lines.append(f"{workload}: count {key} differs: {sorted(values, key=str)}")
    return lines


def main(argv: List[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    if not argv[:split] or not argv[split + 1:]:
        print("error: both sets need at least one file", file=sys.stderr)
        return 2
    a_runs, b_runs = _load(argv[:split]), _load(argv[split + 1:])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w for w in a_runs[0]["workloads"] if all(w in r["workloads"] for r in a_runs + b_runs)]
    print(f"{'workload':<20} {'metric':<12} {'A median [q1, q3]':<32} "
          f"{'B median [q1, q3]':<32} {'change':>7} {'B wins':>7}  verdict")
    counts: Dict[str, int] = {}
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["workloads"][workload]["metrics"][name]["value"] for r in a_runs]
            b = [r["workloads"][workload]["metrics"][name]["value"] for r in b_runs]
            result, wins = verdict(a, b, metric["bound"], metric["better"] == "higher")
            counts[result] = counts.get(result, 0) + 1
            a_q1, a_med, a_q3 = quartiles(a)
            b_q1, b_med, b_q3 = quartiles(b)
            a_text = f"{a_med:.5g} [{a_q1:.5g}, {a_q3:.5g}]"
            b_text = f"{b_med:.5g} [{b_q1:.5g}, {b_q3:.5g}]"
            print(
                f"{workload:<20} {name:<12} {a_text:<32} {b_text:<32} "
                f"{(b_med - a_med) / abs(a_med):>+7.1%} {wins:>7.0%}  {result}"
            )
    differences = [line for w in workloads for line in _differences(a_runs + b_runs, w)]
    for line in differences:
        print(line)
    print("summary: " + ", ".join(f"{n} {v}" for v, n in sorted(counts.items()))
          + f"; {len(differences)} digest/count differences")
    return 1 if counts.get("worse") else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
