"""Deterministic metrics: counters, gauges, fixed-bucket histograms.

The registry is designed around one invariant: **merging per-cell
snapshots is deterministic and order-independent**, so a campaign's
``metrics`` manifest section is byte-identical whether the cells ran
serially or on N workers.  That dictates the merge semantics:

* counters — integer addition (commutative, associative);
* gauges — elementwise ``max`` (commutative, associative);
* histograms — fixed bucket bounds agreed up front, integer per-bucket
  count addition plus an integer observation count.  The ``sum`` field
  is float addition, which is only associative in exact arithmetic —
  the campaign runner therefore always merges cell snapshots in
  expansion order, making even the float field bit-stable.

Metric values must never encode wall-clock time; durations belong in
the trace (:mod:`repro.obs.trace`), never in merged metrics.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple


class Histogram:
    """Fixed-bucket histogram: ``bounds[i]`` is bucket i's upper edge.

    An observation lands in the first bucket whose bound is >= the
    value; values above the last bound land in the overflow bin, so
    ``counts`` has ``len(bounds) + 1`` entries.
    """

    __slots__ = ("bounds", "declared", "counts", "count", "total")

    def __init__(self, bounds: Sequence[float]):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"histogram bounds must be sorted, got {bounds!r}")
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        #: The immutable tuple the bounds were last validated from, so
        #: an observation passing that same object skips revalidation.
        self.declared: Optional[tuple] = bounds if isinstance(bounds, tuple) else None
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float, times: int = 1) -> None:
        """Record ``value`` ``times`` times over.

        ``total`` grows by ``value * times``, bit-equal to ``times``
        single observations for integer values (the MAC publishes
        aggregate sizes this way).
        """
        bounds = self.bounds
        if value <= bounds[-1]:
            # The first bound >= value (False for NaN, which overflows).
            self.counts[bisect_left(bounds, value)] += times
        else:
            self.counts[-1] += times
        self.count += times
        self.total += value * times

    def to_dict(self) -> Dict:
        return {
            "buckets": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
        }


class MetricsRegistry:
    """Process-local metric store with deterministic snapshots."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        #: Total mutation calls — the obs benchmark uses this to count
        #: how many instrumented sites fired during a scenario.
        self.ops = 0

    # -- recording -------------------------------------------------------------

    def add(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(value)
        self.ops += 1

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)
        self.ops += 1

    def observe(
        self, name: str, value: float, buckets: Sequence[float], times: int = 1
    ) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = Histogram(buckets)
            self.histograms[name] = hist
        elif buckets is not hist.declared:
            if hist.bounds != tuple(float(b) for b in buckets):
                raise ValueError(
                    f"histogram {name!r} re-declared with different buckets: "
                    f"{hist.bounds} vs {tuple(buckets)}"
                )
            if isinstance(buckets, tuple):
                hist.declared = buckets
        hist.observe(value, times)
        self.ops += 1

    # -- snapshot / merge ------------------------------------------------------

    def snapshot(self) -> Optional[Dict]:
        """JSON-ready snapshot with sorted keys; ``None`` when empty."""
        if not (self.counters or self.gauges or self.histograms):
            return None
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "histograms": {
                k: self.histograms[k].to_dict() for k in sorted(self.histograms)
            },
        }

    def merge_snapshot(self, snap: Optional[Dict]) -> None:
        """Fold another registry's snapshot into this one.

        Counter/gauge/bucket merges are commutative and associative;
        only the histogram ``sum`` float depends on merge order, which
        is why callers that need byte-identity (the campaign runner)
        merge in a fixed canonical order.

        All histogram bucket bounds are validated against this
        registry *before* anything is mutated: a mismatch raises a
        deterministic ``ValueError`` (mismatched names in sorted
        order) and leaves the registry exactly as it was — a
        half-merged registry would silently corrupt every later
        snapshot.
        """
        if not snap:
            return
        mismatched = sorted(
            name
            for name, data in snap.get("histograms", {}).items()
            if name in self.histograms
            and list(self.histograms[name].bounds) != list(data["buckets"])
        )
        if mismatched:
            raise ValueError(
                "cannot merge snapshot: bucket bounds differ for "
                f"histogram(s) {mismatched}; registry left unmodified"
            )
        for name, value in snap.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + int(value)
        for name, value in snap.get("gauges", {}).items():
            prev = self.gauges.get(name)
            self.gauges[name] = value if prev is None else max(prev, value)
        for name, data in snap.get("histograms", {}).items():
            hist = self.histograms.get(name)
            if hist is None:
                hist = Histogram(data["buckets"])
                self.histograms[name] = hist
            for i, c in enumerate(data["counts"]):
                hist.counts[i] += int(c)
            hist.count += int(data["count"])
            hist.total += data["sum"]

    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()


__all__ = ["Histogram", "MetricsRegistry"]
