"""The four seeded workloads of the end-to-end benchmark.

Each workload is a closed loop with one client: it runs one operation
(op) at a time through a public entry point of ``repro``.  An op is a
plain dict of inputs drawn from ``numpy.random.default_rng(seed)``, so
the program under test receives nothing but generated inputs.  Running
an op returns a canonical output: JSON-ready values plus a ``counts``
dict of exact work counts.  Digests over those outputs show whether two
runs did the same thing.

Why these four (see README.md for the prediction table):

* ``saturated_link`` — the Figs 9-13 high-load point; per-MPDU pacing
  events dominate the DES.
* ``interference_sweep`` — six stations on one medium (Fig 22); medium
  and coupling work dominate, pacing much less.
* ``room_profiles`` — ray-traced angular profiles (Figs 18/19); no DES
  at all, the no-change workload for every MAC change.
* ``protocol_capture`` — the Vubiq capture -> frame detection pipeline
  (Table 1, Figs 3/8/15); device builds and trace synthesis dominate.

Ops within a workload cost about the same, so the median op latency
sits inside one cluster rather than between two.  Where a figure
compares settings (aligned vs rotated dock, D5000 vs WiHD, the four
capture scenarios) one op runs all of them; the saturated link cycles
three window sizes, which keeps the median in the middle one.  The WiHD
offset is spread evenly over its range in every run, so the cost of a
run depends little on which seed drew it.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

#: Root of the checkout this benchmark belongs to.
ROOT = Path(__file__).resolve().parents[2]

#: The sources the benchmark measures.  It never uses an installed copy.
SRC = ROOT / "src"

#: Fractional part of the golden ratio; ``frac(u0 + i * GOLDEN)`` covers
#: [0, 1) evenly for every prefix of ``i``.
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def use_repo_sources() -> None:
    """Import ``repro`` from this checkout's ``src`` directory.

    Raises :class:`FileNotFoundError` when the checkout has no sources,
    so the benchmark fails instead of measuring something else.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: Workload name, as given to ``run.py --workload``.
        warmup_ops: Untimed ops each round runs first, covering every
            kind of work the ops do, since the first op of a kind in a
            process runs slower.
        block_ops: Ops per throughput block, about a second long and
            a whole cycle of the saturated link's window sizes.  Rounds
            end on block boundaries.
        counted_ops: Ops every round runs at least, a whole number of
            blocks.  Digests and exact counts cover exactly these, and
            the traced run runs exactly these, so both repeat across
            runs of one seed.
        make_ops: ``(rng, n) -> n ops``; a pure function of the rng.
        run_op: Executes one op and returns its canonical output.
        violation: Returns why an output breaks the workload's
            invariant, or ``None`` when it holds.
    """

    name: str
    warmup_ops: int
    block_ops: int
    counted_ops: int
    make_ops: Callable[[np.random.Generator, int], List[dict]]
    run_op: Callable[[dict], dict]
    violation: Callable[[dict], Optional[str]]

    def ops(self, seed: int, n: int) -> List[dict]:
        """The first ``n`` ops of this workload for ``seed``."""
        return self.make_ops(np.random.default_rng(seed), n)


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2**31 - 1))


def op_digest(output: Optional[dict]) -> str:
    """sha256 of an op's canonical output (floats at full precision)."""
    text = json.dumps(output, sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- saturated_link -------------------------------------------------------------

_WINDOWS_KB = (64, 128, 256)
#: Simulated seconds of a saturated-link op, after its warm-up.
_SATURATED_DURATION_S = 0.1
_SATURATED_WARMUP_S = 0.05


def _saturated_ops(rng: np.random.Generator, n: int) -> List[dict]:
    return [
        {
            "window_bytes": _WINDOWS_KB[i % len(_WINDOWS_KB)] * 1024,
            "distance_m": float(rng.uniform(1.0, 4.0)),
            "seed": _seed(rng),
        }
        for i in range(n)
    ]


def _saturated_run(op: dict) -> dict:
    from repro.experiments.frame_level import run_wigig_tcp

    setup = run_wigig_tcp(
        window_bytes=op["window_bytes"],
        duration_s=_SATURATED_DURATION_S,
        warmup_s=_SATURATED_WARMUP_S,
        distance_m=op["distance_m"],
        seed=op["seed"],
    )
    stats = setup.link.stats
    return {
        "goodput_bps": setup.flow.throughput_bps(),
        "mpdus_delivered": stats.mpdus_delivered,
        "counts": {
            "events": setup.sim.events_processed,
            "frames": len(setup.medium.history),
            "data_frames": stats.data_frames_sent,
            "retransmissions": stats.retransmissions,
        },
    }


def _saturated_violation(out: dict) -> Optional[str]:
    from repro.mac.tcp import GIGE_CAP_BPS

    goodput = out["goodput_bps"]
    if not 0.7e9 <= goodput <= GIGE_CAP_BPS:
        return f"goodput {goodput:.4g} bps outside [0.7e9, {GIGE_CAP_BPS:.4g}]"
    return None


# -- interference_sweep ---------------------------------------------------------

_MAX_WIHD_OFFSET_M = 3.0
#: Shorter than the saturated link's: the two cells of an op build twelve
#: devices, which already cost about as much as their simulation.
_INTERFERENCE_DURATION_S = 0.08
_INTERFERENCE_WARMUP_S = 0.04
#: Fig 22 compares these two dock settings at every WiHD offset.
_ALIGNMENTS = (("aligned", False), ("rotated", True))


def _interference_ops(rng: np.random.Generator, n: int) -> List[dict]:
    start = float(rng.random())
    return [
        {
            "wihd_offset_m": _MAX_WIHD_OFFSET_M * ((start + i * GOLDEN) % 1.0),
            "seed": _seed(rng),
        }
        for i in range(n)
    ]


def _interference_run(op: dict) -> dict:
    """One Fig 22 sweep point: the aligned and the rotated dock."""
    from repro.experiments.interference import interference_cell

    out: dict = {"counts": {"events": 0, "retransmissions": 0}}
    for setting, rotated in _ALIGNMENTS:
        cell = interference_cell(
            wihd_offset_m=op["wihd_offset_m"],
            rotated=rotated,
            duration_s=_INTERFERENCE_DURATION_S,
            warmup_s=_INTERFERENCE_WARMUP_S,
            seed=op["seed"],
        )
        out[setting] = {
            "utilization": cell["utilization"],
            "link_rate_bps": cell["link_rate_bps"],
            "transfer_time_s": cell["transfer_time_s"],
        }
        out["counts"]["events"] += cell["events_simulated"]
        out["counts"]["retransmissions"] += cell["retransmissions"]
    return out


def _interference_violation(out: dict) -> Optional[str]:
    for setting, _ in _ALIGNMENTS:
        cell = out[setting]
        if not 0.0 < cell["utilization"] <= 1.0:
            return f"{setting}: utilization {cell['utilization']!r} outside (0, 1]"
        if not cell["link_rate_bps"] > 0.0:
            return f"{setting}: link rate {cell['link_rate_bps']!r} is not positive"
    return None


# -- room_profiles --------------------------------------------------------------

_SYSTEMS = ("d5000", "wihd")
#: Each location is one of the paper's A..F moved by up to this much
#: along each axis, then kept 0.5 m clear of the 3.25 m-deep room's
#: walls.  Around A..F the paper (and the model) find reflections.
_JITTER_M = 0.3
_MIN_Y_M, _MAX_Y_M = 0.5, 2.75


def _room_ops(rng: np.random.Generator, n: int) -> List[dict]:
    from repro.geometry.room import measurement_locations

    paper = measurement_locations()
    rows = (paper[:3], paper[3:])
    return [
        {
            # Alternate the row: A-C, then D-F.
            "locations": [
                [
                    p.x + float(rng.uniform(-_JITTER_M, _JITTER_M)),
                    min(_MAX_Y_M, max(_MIN_Y_M, p.y + float(rng.uniform(-_JITTER_M, _JITTER_M)))),
                ]
                for p in rows[i % 2]
            ]
        }
        for i in range(n)
    ]


def _room_run(op: dict) -> dict:
    """Figs 18 and 19 at three locations: both systems' profiles."""
    from repro.experiments.reflections import measure_room_profiles
    from repro.geometry.vec import Vec2

    out: dict = {"counts": {"lobes": 0, "reflection_lobes": 0}}
    for system in _SYSTEMS:
        result = measure_room_profiles(
            system,
            steps=72,
            max_order=2,
            locations=[Vec2(x, y) for x, y in op["locations"]],
        )
        labels = sorted(result.lobes)
        lobes = {
            label: [
                [lobe.bearing_rad, lobe.relative_db, lobe.attribution]
                for lobe in result.lobes[label]
            ]
            for label in labels
        }
        profiles = hashlib.sha256(
            b"".join(result.profiles[label].power_dbm.tobytes() for label in labels)
        ).hexdigest()
        out[system] = {"lobes": lobes, "profiles_sha256": profiles}
        out["counts"]["lobes"] += sum(len(v) for v in lobes.values())
        out["counts"]["reflection_lobes"] += result.total_reflection_lobes()
    return out


def _room_violation(out: dict) -> Optional[str]:
    for system in _SYSTEMS:
        empty = [label for label, lobes in out[system]["lobes"].items() if not lobes]
        if empty:
            return f"{system}: no lobe at location(s) {empty}"
    if out["counts"]["reflection_lobes"] < 1:
        return "no reflection lobe at any location"
    return None


# -- protocol_capture -----------------------------------------------------------

_SCENARIOS = ("idle", "discovery", "tcp", "wihd")
#: Protocol captures: 10 ms at the Vubiq scope's 1e8 S/s.
_CAPTURE_WINDOW_S = 10e-3


def _capture_ops(rng: np.random.Generator, n: int) -> List[dict]:
    return [
        {
            "seed": _seed(rng),
            "window_offsets": [float(rng.random()) for _ in _SCENARIOS],
            "distance_m": float(rng.uniform(1.0, 4.0)),
            "video_rate_bps": float(rng.uniform(0.5e9, 2.0e9)),
        }
        for _ in range(n)
    ]


def _capture(scenario: str, op: dict, offset: float) -> dict:
    """Run one short scenario, capture 10 ms of it and detect frames."""
    from repro.core.frames import FrameDetector
    from repro.core.utilization import medium_usage_from_records
    from repro.experiments import frame_level as fl
    from repro.mac.frames import FrameKind

    seed = op["seed"]
    if scenario == "idle":
        setup = fl.run_idle_wigig(duration_s=0.04, seed=seed)
        start = offset * 0.03
    elif scenario == "discovery":
        # The dock's first discovery sweep starts at 102.4 ms; open the
        # window 1-9 ms before it so the ~1 ms frame lies inside.
        setup = fl.run_unassociated_dock(duration_s=0.12, seed=seed)
        first = min(r.start_s for r in setup.medium.history if r.kind == FrameKind.DISCOVERY)
        start = first - (1e-3 + offset * 8e-3)
    elif scenario == "tcp":
        setup = fl.run_wigig_tcp(
            window_bytes=None,
            rate_limit_bps=40e3,
            duration_s=0.04,
            warmup_s=0.0,
            distance_m=op["distance_m"],
            seed=seed,
        )
        start = offset * 0.03
    else:
        setup = fl.run_wihd_stream(duration_s=0.03, video_rate_bps=op["video_rate_bps"], seed=seed)
        start = offset * 0.02
    end = start + _CAPTURE_WINDOW_S
    if scenario == "wihd":
        trace = fl.capture_wihd_with_vubiq(setup, start, _CAPTURE_WINDOW_S, seed=seed)
    else:
        trace = fl.capture_with_vubiq(setup, start, _CAPTURE_WINDOW_S, seed=seed)
    frames = FrameDetector(
        threshold_v=fl.CAPTURE_DETECTION_THRESHOLD_V, merge_gap_s=5e-6
    ).detect(trace)
    on_air = [r for r in setup.medium.history if r.start_s < end and r.end_s > start]
    usage = medium_usage_from_records(on_air, start, end, bridge_gap_s=4e-6)
    return {
        "window": [start, end],
        "frames": [
            [f.start_s, f.duration_s, f.mean_amplitude_v, f.peak_amplitude_v]
            for f in frames
        ],
        "usage": usage,
        "counts": {
            "events": setup.sim.events_processed,
            "frames_on_air": len(on_air),
            "detected": len(frames),
            "samples": int(trace.samples.size),
        },
    }


def _capture_run(op: dict) -> dict:
    """The four protocol captures: beacons, discovery, TCP, WiHD."""
    out: dict = {"counts": {}}
    for scenario, offset in zip(_SCENARIOS, op["window_offsets"]):
        capture = _capture(scenario, op, offset)
        for key, value in capture.pop("counts").items():
            out["counts"][key] = out["counts"].get(key, 0) + value
        out[scenario] = capture
    return out


def _capture_violation(out: dict) -> Optional[str]:
    # One sample of slack at each edge of the 1e8 S/s trace.
    slack = 1e-8
    for scenario in _SCENARIOS:
        start, end = out[scenario]["window"]
        if not out[scenario]["frames"]:
            return f"{scenario}: no frame detected"
        for f_start, f_duration, _mean, _peak in out[scenario]["frames"]:
            if f_start < start - slack or f_start + f_duration > end + slack:
                return f"{scenario}: frame at {f_start!r} s outside [{start!r}, {end!r}]"
    return None


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "saturated_link", 3, 3, 15, _saturated_ops, _saturated_run, _saturated_violation
        ),
        Workload(
            "interference_sweep",
            1,
            1,
            7,
            _interference_ops,
            _interference_run,
            _interference_violation,
        ),
        Workload("room_profiles", 1, 1, 8, _room_ops, _room_run, _room_violation),
        Workload(
            "protocol_capture", 1, 3, 15, _capture_ops, _capture_run, _capture_violation
        ),
    )
}
