"""Shared helpers for the per-figure benchmarks (reporting + caches)."""

from __future__ import annotations

import functools
import os
import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


class FigureReport:
    """Collects and persists the reproduced rows of one figure."""

    def __init__(self, figure_id: str):
        self.figure_id = figure_id
        self.lines = []

    def add(self, line: str = "") -> None:
        self.lines.append(line)

    def write(self) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{self.figure_id}.txt"
        path.write_text("\n".join(self.lines) + "\n")


@functools.lru_cache(maxsize=1)
def cached_aggregation_sweep():
    """The Figures 9-11 TCP sweep, computed once per session."""
    from repro.experiments.frame_level import aggregation_sweep

    return aggregation_sweep(duration_s=0.15, warmup_s=0.05)


@functools.lru_cache(maxsize=1)
def cached_interference_sweeps():
    """The Figure 22 ``interference`` campaign on every core, run once.

    Returns the aligned and rotated sweeps and their baselines.
    """
    from repro.campaign import get_campaign, run_campaign
    from repro.experiments.interference import campaign_points

    result = run_campaign(get_campaign("interference"), workers=os.cpu_count() or 1)
    points = campaign_points(result.outcomes)
    (base_aligned,), (base_rotated,) = points[False, False], points[False, True]
    return points[True, False], points[True, True], base_aligned, base_rotated


@functools.lru_cache(maxsize=1)
def cached_room_profiles():
    """The Figures 18/19 conference-room sweeps, computed once."""
    from repro.experiments.reflections import compare_systems

    return compare_systems(steps=72)
