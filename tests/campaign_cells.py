"""Cell functions for the campaign-engine tests.

These must live in an importable module (not inside a test function)
because worker processes resolve cells by dotted path —
``tests.campaign_cells:double_cell`` — exactly like production cells.
"""

from __future__ import annotations

import multiprocessing
import os
import time


def double_cell(*, value: int = 1, scale: int = 2, seed: int = 0):
    """Deterministic arithmetic cell: the engine-equivalence workhorse."""
    return {"value": value * scale, "seed": seed}


def counted_failure(*, marker_dir: str, sleep_s: float = 0.0, seed: int = 0):
    """Appends one line per run to a marker file, sleeps, then raises.

    The marker lives on disk so runs in any worker process are counted.
    """
    with open(os.path.join(marker_dir, "runs"), "a", encoding="utf-8") as fh:
        fh.write(f"{seed}\n")
    time.sleep(sleep_s)
    raise RuntimeError("this cell fails every time it runs")


def marker_cell(*, marker_dir: str, value: int = 1, seed: int = 0):
    """A deterministic cell that appends one line per run to a marker file.

    The file counts executions across every process.
    """
    with open(os.path.join(marker_dir, "runs"), "a", encoding="utf-8") as fh:
        fh.write(f"{value} {seed}\n")
    return {"value": value, "seed": seed}


def pool_killer(*, value: int = 1, seed: int = 0):
    """Kills its process when run in a pool worker; a plain cell otherwise.

    ``os._exit`` in a worker breaks the whole process pool, which is
    how the runner's serial fallback gets exercised.
    """
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return {"value": value, "seed": seed}


def always_fails(*, seed: int = 0):
    """A permanently broken cell — exercises graceful degradation."""
    raise ValueError("this cell always fails")


def scalar_cell(*, seed: int = 0):
    """Breaks the cell contract: returns an int, not a dict."""
    return seed


def slow_cell(*, sleep_s: float = 5.0, seed: int = 0):
    """Sleeps past any reasonable per-scenario timeout."""
    time.sleep(sleep_s)
    return {"slept_s": sleep_s}


def clock_reading_cell(*, seed: int = 0):
    """Impure on purpose: folds the wall clock into the result."""
    return {"value": seed, "stamp": time.time()}


def des_cell(*, ticks: int = 50, seed: int = 0):
    """Drives the discrete-event simulator and reports its event count."""
    from repro.mac.simulator import Simulator

    sim = Simulator(seed=seed)
    state = {"fired": 0}

    def tick():
        state["fired"] += 1
        if state["fired"] < ticks:
            sim.schedule(1e-3, tick)

    sim.schedule(1e-3, tick)
    sim.run_until(1.0)
    return {
        "fired": state["fired"],
        "events_simulated": sim.events_processed,
    }


def device_pair_cell(*, distance_m: float = 2.0, seed: int = 0):
    """Builds the default dock and laptop and reports their beam coupling."""
    from repro.devices import make_d5000_dock, make_e7440_laptop
    from repro.geometry.vec import Vec2

    dock = make_d5000_dock()
    laptop = make_e7440_laptop(position=Vec2(distance_m, 0.0))
    dock.train_toward(laptop.position)
    laptop.train_toward(dock.position)
    coupling_dbi = dock.tx_gain_dbi(laptop.position) + laptop.tx_gain_dbi(dock.position)
    return {"coupling_dbi": coupling_dbi}


def obs_mode_cell(*, seed: int = 0):
    """Reports the obs mode this process runs with, then drives the DES.

    ``env_var`` is whether the retired ``REPRO_OBS`` variable is set;
    ``flags`` are ``obs.STATE``'s metrics/tracing/profiling flags.
    """
    from repro import obs

    flags = [obs.STATE.metrics, obs.STATE.tracing, obs.STATE.profiling]
    return {
        "env_var": "REPRO_OBS" in os.environ,
        "flags": flags,
        **des_cell(ticks=5, seed=seed),
    }


_MEMO: dict = {}


def memo_cell(*, value: int = 1, seed: int = 0):
    """Impure on purpose: a module-level memo keyed on ``value`` alone.

    The first cell a process runs fixes every later result for that
    value, whatever its seed.  It records no obs metrics, so only the
    result rows can show it.
    """
    return {"value": _MEMO.setdefault(value, value * 100 + seed)}
