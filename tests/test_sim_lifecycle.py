"""A finished simulation is closed and freed by reference counting.

Every library function that runs a simulation to its end closes it
(:meth:`Simulator.close`) before it returns.  A closed run holds no
reference cycle, so dropping its result frees the simulator, the
medium, the links and the flows at once, with the cyclic garbage
collector switched off, and leaves the collector nothing to find.
"""

import dataclasses
import gc
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.experiments import frame_level, interference, link_recovery, mobility
from repro.experiments.reflection_interference import run_reflection_interference
from repro.mac.association import AssociationManager, LinkSupervisor
from repro.mac.simulator import Medium, Simulator
from repro.mac.tcp import IperfFlow
from repro.mac.wigig import WiGigLink
from repro.mac.wihd import WiHDLink
from repro.mobility.handover import MultiAPController
from repro.mobility.station import MobileStation

#: The objects of a run that must die with its result.
TRACKED = (
    Simulator, Medium, WiGigLink, WiHDLink, IperfFlow,
    AssociationManager, LinkSupervisor, MobileStation, MultiAPController,
)

#: Every closing entry point, at a shrunk duration.
CLOSING_RUNS = {
    "run_idle_wigig": lambda: frame_level.run_idle_wigig(duration_s=0.01),
    "run_unassociated_dock": lambda: frame_level.run_unassociated_dock(duration_s=0.21),
    "run_wigig_tcp": lambda: frame_level.run_wigig_tcp(
        window_bytes=64 * 1024, duration_s=0.02, warmup_s=0.01
    ),
    "run_wihd_stream": lambda: frame_level.run_wihd_stream(
        duration_s=0.01, stop_after_s=0.005
    ),
    "interference_cell": lambda: interference.interference_cell(
        wihd_offset_m=1.0, duration_s=0.02, warmup_s=0.01
    ),
    "run_reflection_interference": lambda: run_reflection_interference(
        duration_s=0.1, wihd_off_at_s=0.05
    ),
    "run_break_and_recover": lambda: link_recovery.run_break_and_recover(
        outage_start_s=0.02, outage_duration_s=0.05, total_s=0.3
    ),
    "vehicular_cell": lambda: mobility.vehicular_cell(speed_kmh=110.0, approach_m=2.0),
    "handover_cell": lambda: mobility.handover_cell(
        policy="sticky", num_aps=2, speed_mps=10.0
    ),
}

#: The entry points that return their setup.
SETUP_RUNS = ("run_idle_wigig", "run_unassociated_dock", "run_wigig_tcp", "run_wihd_stream")


@pytest.fixture
def tracked(monkeypatch):
    """``(class name, weakref)`` of every tracked object built from now on."""
    refs = []
    for cls in TRACKED:
        def tracking_init(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            _init(self, *args, **kwargs)
            refs.append((_name, weakref.ref(self)))

        monkeypatch.setattr(cls, "__init__", tracking_init)
    return refs


@pytest.fixture
def no_gc():
    gc.collect()
    gc.disable()
    yield
    gc.enable()


@pytest.mark.parametrize("name", sorted(CLOSING_RUNS))
def test_dropped_result_frees_the_whole_run(name, tracked, no_gc):
    run = CLOSING_RUNS[name]
    run()  # fill the per-process caches (device units) first
    gc.collect()
    tracked.clear()
    result = run()
    built = {kind for kind, _ in tracked}
    assert {"Simulator", "Medium"} <= built
    del result
    alive = sorted(kind for kind, ref in tracked if ref() is not None)
    assert alive == []
    assert gc.collect() == 0


def test_run_closed_while_a_station_waits_for_an_idle_channel_is_freed(tracked, no_gc):
    # Waiters hold callbacks into their links, which hold the medium.
    interference.build_interference_scenario(wihd_offset_m=1.0).sim.close()
    gc.collect()
    tracked.clear()
    scenario = interference.build_interference_scenario(wihd_offset_m=1.0)
    scenario.run(0.04)
    assert scenario.medium._idle_waiters, "no station waits at the end any more"
    scenario.sim.close()
    del scenario
    assert sorted(kind for kind, ref in tracked if ref() is not None) == []
    assert gc.collect() == 0


def observed(obj):
    """What a reader of a finished run sees of one tracked object."""
    if isinstance(obj, Simulator):
        return obj.now, obj.events_processed
    if isinstance(obj, Medium):
        return [dataclasses.astuple(r) for r in obj.history], obj.frames_sent
    if isinstance(obj, WiGigLink):
        return (
            dataclasses.asdict(obj.stats), obj.delivery_delays_s,
            list(obj.mcs_history), obj.queue_depth_mpdus,
        )
    if isinstance(obj, WiHDLink):
        return dataclasses.asdict(obj.stats)
    if isinstance(obj, IperfFlow):
        return obj.throughput_bps(), obj.delivered_bits, list(obj.delivery_log)
    return None


@pytest.mark.parametrize("name", SETUP_RUNS)
def test_returned_setup_reads_as_before_close(name, tracked, monkeypatch):
    before = {}
    close = Simulator.close

    def snapshotting_close(sim):
        for _, ref in tracked:
            obj = ref()
            if obj is not None:
                before[id(obj)] = observed(obj)
        close(sim)

    monkeypatch.setattr(Simulator, "close", snapshotting_close)
    setup = CLOSING_RUNS[name]()
    objects = [setup.sim, setup.medium, setup.link]
    if getattr(setup, "flow", None) is not None:
        objects.append(setup.flow)
    for obj in objects:
        assert observed(obj) == before[id(obj)], type(obj).__name__
    assert setup.medium.history
    assert isinstance(setup.sim.rng, np.random.Generator)


def test_closed_simulator_rejects_new_work():
    setup = CLOSING_RUNS["run_wigig_tcp"]()
    sim = setup.sim
    now, events = sim.now, sim.events_processed
    new_work = (
        lambda: sim.schedule(0.0, print),
        lambda: sim.add_source(setup.flow),
        lambda: sim.add_publisher(print),
        lambda: sim.on_close(print),
        lambda: sim.run_until(now + 0.01),
    )
    for call in new_work:
        with pytest.raises(RuntimeError, match="closed"):
            call()
    assert (sim.now, sim.events_processed) == (now, events)
    sim.close()  # closing twice is a no-op
    assert setup.flow.throughput_bps() > 0


def test_close_drops_pending_work_and_runs_close_callbacks_once():
    sim = Simulator(seed=1)
    fired = []
    sim.schedule(1.0, lambda: fired.append("event"))
    sim.on_close(lambda: fired.append("first"))
    sim.on_close(lambda: fired.append("second"))
    sim.close()
    sim.close()
    assert fired == ["first", "second"]
    assert sim.now == 0.0 and sim.events_processed == 0


def test_library_sets_no_collector_knobs():
    # A closed run is freed by reference counting; the collector's
    # settings belong to whoever owns the process.
    knob = re.compile(r"\bgc\.(disable|enable|freeze|set_threshold)\(")
    offenders = [
        f"{path}:{number}"
        for path in sorted(Path(repro.__file__).parent.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if knob.search(line)
    ]
    assert offenders == []
