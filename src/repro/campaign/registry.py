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
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict

from repro.campaign.spec import CampaignSpec

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


def builtin_campaigns() -> Dict[str, CampaignSpec]:
    """The campaign catalog exposed by ``python -m repro campaign``.

    * ``beam-patterns`` — the Section 4.2 outdoor semicircle sweep
      (Figure 17): laptop, aligned dock, and 70-degree rotated dock,
      100 positions each, repeated over seeds.
    * ``range-vs-distance`` — the Figure 13 grid: one cell per
      (distance, run-seed) pair, 1-20 m x 10 runs.
    * ``interference`` — the Figure 22 side-lobe sweep: one cell per
      (WiHD offset, alignment), full DES simulation per cell.
    """
    return {
        "beam-patterns": CampaignSpec(
            name="beam-patterns",
            experiment="beam_pattern",
            base_params={"positions": 100},
            grid={"setup": ("laptop", "dock_aligned", "dock_rotated_70")},
            seeds=(0, 1, 2),
            description="Figure 17 semicircle beam-pattern sweep",
        ),
        "range-vs-distance": CampaignSpec(
            name="range-vs-distance",
            experiment="range_point",
            base_params={},
            grid={"distance_m": tuple(float(d) for d in range(1, 21))},
            seeds=tuple(range(10)),
            description="Figure 13 TCP throughput vs link length",
        ),
        "interference": CampaignSpec(
            name="interference",
            experiment="interference_point",
            base_params={"duration_s": 0.25},
            grid={
                "wihd_offset_m": (0.0, 0.5, 1.0, 1.6, 2.0, 2.5, 3.0),
                "rotated": (False, True),
            },
            seeds=(10,),
            description="Figure 22 side-lobe interference sweep (DES)",
        ),
        "mobility-speed": CampaignSpec(
            name="mobility-speed",
            experiment="mobility_vehicular",
            base_params={},
            grid={"speed_kmh": (50.0, 70.0, 110.0)},
            seeds=(0, 1),
            description="Vehicular drive-by: throughput and re-training "
            "overhead vs speed (DES)",
        ),
        "mobility-handover": CampaignSpec(
            name="mobility-handover",
            experiment="mobility_handover",
            base_params={},
            grid={"policy": ("sticky", "hysteresis", "wifi")},
            seeds=(0, 1),
            description="Corridor walk: handover policies, goodput, and "
            "AP contact time (DES)",
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
