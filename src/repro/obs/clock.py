"""The sanctioned clock shim — the only module that reads time.

Simulation and campaign code must never call :func:`time.time`,
:func:`time.perf_counter`, etc. directly: wall-clock reads in the
physics/MAC layers are nondeterminism bugs (lint rule RL002), and
clock reads inside cache-keyed cells make cached results unsound
(``repro campaign verify`` audits for them).  Observability, however, legitimately needs real timestamps
for span durations and run manifests.

This module is that single sanctioned doorway.  It is exempted *by
name* in the lint configuration (``[tool.repro-lint]
clock-modules``), so every other clock read in the tree still fires.
Code that needs time imports these helpers::

    from repro.obs import clock
    t0 = clock.perf_counter()

The indirection also gives tests one seam to monkeypatch when they
need deterministic timestamps.
"""

from __future__ import annotations

import time as _time


def wall_time() -> float:
    """Seconds since the Unix epoch (``time.time``)."""
    return _time.time()


def monotonic() -> float:
    """Monotonic seconds, arbitrary epoch (``time.monotonic``)."""
    return _time.monotonic()


def perf_counter() -> float:
    """Highest-resolution monotonic seconds (``time.perf_counter``)."""
    return _time.perf_counter()


def perf_counter_ns() -> int:
    """Monotonic nanoseconds as an int — span timestamps use this."""
    return _time.perf_counter_ns()


__all__ = ["wall_time", "monotonic", "perf_counter", "perf_counter_ns"]
