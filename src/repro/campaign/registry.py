"""Experiment-cell registry and the built-in campaign catalog.

A *cell* is a plain module-level function ``fn(*, seed, **params) ->
dict`` that computes one scenario and returns JSON-style data.  Cells
are addressed by name so scenario specs stay pure data and worker
processes can resolve them independently:

* registered short names (``beam_pattern``, ``range_point``, ...) map
  to dotted paths below;
* any ``module:function`` dotted path works directly, which is how
  test suites inject their own cells without touching this module.

Cells may include an ``events_simulated`` key in their result when
they drive the discrete-event simulator; the runner folds it into the
run telemetry (events per worker-second).

A built-in campaign is a :class:`CampaignSpec`: a name, a description
and its ordered cells.  Four are :func:`grid_cells` products; the
``interference`` campaign lists the Figure 22 cells with their
per-point seeds, so ``campaign run interference`` runs the figure.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, Tuple

from repro.campaign.spec import CampaignSpec, ScenarioSpec, grid_cells

#: Registered cell name -> "module:function" dotted path.
CELLS: Dict[str, str] = {
    "beam_pattern": "repro.experiments.beam_patterns:pattern_cell",
    "range_point": "repro.experiments.range_vs_distance:distance_cell",
    "interference_point": "repro.experiments.interference:interference_cell",
    "mobility_vehicular": "repro.experiments.mobility:vehicular_cell",
    "mobility_handover": "repro.experiments.mobility:handover_cell",
}


def resolve_cell(name: str) -> Callable[..., Dict]:
    """Import and return the cell function behind a name or dotted path."""
    dotted = CELLS.get(name, name)
    if ":" not in dotted:
        raise KeyError(
            f"unknown experiment cell {name!r} "
            f"(registered: {', '.join(sorted(CELLS))})"
        )
    module_name, _, attr = dotted.partition(":")
    module = importlib.import_module(module_name)
    try:
        fn = getattr(module, attr)
    except AttributeError as exc:
        raise KeyError(f"{dotted!r}: {exc}") from None
    if not callable(fn):
        raise TypeError(f"{dotted!r} is not callable")
    return fn


def _fig22_cells() -> Tuple[ScenarioSpec, ...]:
    """Figure 22: each offset aligned then rotated at seed 10+i, then
    the two interference-free baselines at seed 99; 0.3 s each."""
    sweep = tuple(
        ScenarioSpec(
            "interference_point",
            {"wihd_offset_m": d, "rotated": rotated, "duration_s": 0.3},
            seed=10 + i,
        )
        for rotated in (False, True)
        for i, d in enumerate((0.0, 0.5, 1.0, 1.6, 2.0, 2.5, 3.0))
    )
    baselines = tuple(
        ScenarioSpec(
            "interference_point",
            {"wihd_offset_m": 0.0, "rotated": rotated, "with_wihd": False,
             "duration_s": 0.3},
            seed=99,
        )
        for rotated in (False, True)
    )
    return sweep + baselines


def builtin_campaigns() -> Dict[str, CampaignSpec]:
    """The campaign catalog exposed by ``python -m repro campaign``.

    * ``beam-patterns`` — the Section 4.2 outdoor semicircle sweep
      (Figure 17): laptop, aligned dock, and 70-degree rotated dock,
      100 positions each, repeated over seeds.
    * ``range-vs-distance`` — the Figure 13 grid: one cell per
      (distance, run-seed) pair, 1-20 m x 10 runs.
    * ``interference`` — the Figure 22 side-lobe sweep exactly as the
      figure runs it: 7 WiHD offsets x (aligned, rotated) plus the two
      WiHD-free baselines, 16 full DES cells.
    * ``mobility-speed`` — the vehicular drive-by: one cell per
      (speed, seed), throughput and re-training overhead (DES).
    * ``mobility-handover`` — the corridor walk: one cell per
      (handover policy, seed), goodput and AP contact time (DES).
    """
    return {
        "beam-patterns": CampaignSpec(
            "beam-patterns",
            grid_cells(
                "beam_pattern",
                {"positions": 100},
                {"setup": ("laptop", "dock_aligned", "dock_rotated_70")},
                seeds=(0, 1, 2),
            ),
            "Figure 17 semicircle beam-pattern sweep",
        ),
        "range-vs-distance": CampaignSpec(
            "range-vs-distance",
            grid_cells(
                "range_point",
                grid={"distance_m": tuple(float(d) for d in range(1, 21))},
                seeds=range(10),
            ),
            "Figure 13 TCP throughput vs link length",
        ),
        "interference": CampaignSpec(
            "interference",
            _fig22_cells(),
            "Figure 22 side-lobe interference sweep (DES)",
        ),
        "mobility-speed": CampaignSpec(
            "mobility-speed",
            grid_cells(
                "mobility_vehicular",
                grid={"speed_kmh": (50.0, 70.0, 110.0)},
                seeds=(0, 1),
            ),
            "Vehicular drive-by: throughput and re-training overhead vs "
            "speed (DES)",
        ),
        "mobility-handover": CampaignSpec(
            "mobility-handover",
            grid_cells(
                "mobility_handover",
                grid={"policy": ("sticky", "hysteresis", "wifi")},
                seeds=(0, 1),
            ),
            "Corridor walk: handover policies, goodput, and AP contact "
            "time (DES)",
        ),
    }


def get_campaign(name: str) -> CampaignSpec:
    campaigns = builtin_campaigns()
    try:
        return campaigns[name]
    except KeyError:
        raise KeyError(
            f"unknown campaign {name!r} (available: {', '.join(sorted(campaigns))})"
        ) from None
