"""Shared fixtures for the test suite.

Device construction (array factor + codebook over 720-point grids) is
the slow part of many tests; the session-scoped fixtures below build
each device once.  Tests that mutate device state (training, beam
selection) must either restore it or build their own instance.
"""

from __future__ import annotations

import math

import pytest

from repro.devices.air3c import make_air3c_receiver, make_air3c_transmitter
from repro.devices.d5000 import make_d5000_dock, make_e7440_laptop
from repro.geometry.vec import Vec2


@pytest.fixture(scope="session")
def dock():
    """A D5000 dock at the origin facing +x (session-shared)."""
    return make_d5000_dock(position=Vec2(0.0, 0.0), orientation_rad=0.0)


@pytest.fixture(scope="session")
def laptop():
    """An E7440 notebook 2 m away facing the dock (session-shared)."""
    return make_e7440_laptop(position=Vec2(2.0, 0.0), orientation_rad=math.pi)


@pytest.fixture(scope="session")
def wihd_pair():
    """An Air-3c TX/RX pair 8 m apart (session-shared)."""
    tx = make_air3c_transmitter(position=Vec2(0.0, 0.0), orientation_rad=0.0)
    rx = make_air3c_receiver(position=Vec2(8.0, 0.0), orientation_rad=math.pi)
    return tx, rx


@pytest.fixture(scope="session")
def trained_pair():
    """A dock/laptop pair trained toward each other (own instances)."""
    d = make_d5000_dock(position=Vec2(0.0, 0.0), orientation_rad=0.0)
    lp = make_e7440_laptop(position=Vec2(2.0, 0.0), orientation_rad=math.pi)
    d.train_toward(lp.position)
    lp.train_toward(d.position)
    return d, lp
