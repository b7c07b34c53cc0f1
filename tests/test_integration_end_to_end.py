"""End-to-end integration tests across the whole stack.

These exercise chains the unit tests cover only piecewise:
devices -> SLS training -> MAC simulation -> Vubiq capture -> trace
analysis, verifying that the numbers agree at every hand-off.
"""

import math

import numpy as np
import pytest

from repro.core.aggregation import frame_length_cdf
from repro.core.frames import FrameDetector
from repro.core.utilization import medium_usage_from_records
from repro.devices.d5000 import make_d5000_dock, make_e7440_laptop
from repro.devices.vubiq import VubiqReceiver
from repro.geometry.vec import Vec2
from repro.mac.beam_training import SectorSweepTrainer
from repro.mac.coupling import DeviceCoupling
from repro.mac.frames import FrameKind
from repro.mac.simulator import Medium, Simulator
from repro.mac.tcp import IperfFlow, TcpParameters
from repro.mac.wigig import WiGigLink
from repro.phy.antenna import open_waveguide
from repro.phy.channel import LinkBudget


@pytest.fixture(scope="module")
def full_pipeline():
    """SLS-trained link, TCP run, Vubiq capture, trace analysis."""
    dock = make_d5000_dock(position=Vec2(0, 0), orientation_rad=0.0)
    laptop = make_e7440_laptop(position=Vec2(2, 0), orientation_rad=math.pi)

    # 1. Beam training via the actual protocol, not an oracle.
    trainer = SectorSweepTrainer(rng=np.random.default_rng(5))
    training = trainer.train(laptop, dock)
    assert training.success

    # 2. MAC + TCP on the trained beams.
    budget = LinkBudget()
    sim = Simulator(seed=6)
    devices = {d.name: d for d in (dock, laptop)}
    coupling = DeviceCoupling(devices, budget=budget)
    medium = Medium(sim, coupling, budget=budget)
    st = {name: dev.make_station() for name, dev in devices.items()}
    for s in st.values():
        medium.register(s)
    link = WiGigLink(
        sim, medium, transmitter=st["laptop"], receiver=st["dock"],
        snr_hint_db=coupling.snr_db("laptop", "dock"),
    )
    flow = IperfFlow(sim, link, TcpParameters(window_bytes=64 * 1024))
    sim.run_until(0.1)

    # 3. Vubiq capture of a window.
    vubiq = VubiqReceiver(
        position=Vec2(2.5, 0.1),
        antenna=open_waveguide(),
        budget=budget,
        extra_gain_db=30.0,
    ).pointed_at(dock.position)
    window = (0.05, 0.052)
    records = [
        r for r in medium.history
        if r.start_s < window[1] and r.end_s > window[0]
    ]
    trace = vubiq.capture(
        records, devices, duration_s=window[1] - window[0],
        start_s=window[0], rng=np.random.default_rng(7),
    )
    detected = FrameDetector(threshold_v=0.05).detect(trace)
    return {
        "training": training,
        "sim": sim,
        "medium": medium,
        "link": link,
        "flow": flow,
        "trace": trace,
        "detected": detected,
        "window": window,
        "devices": devices,
    }


class TestTrainedLinkPerformance:
    def test_sls_link_carries_expected_throughput(self, full_pipeline):
        tput = full_pipeline["flow"].throughput_bps()
        assert tput > 750e6  # trained 2 m link should hit high rate

    def test_no_retransmissions_on_clean_link(self, full_pipeline):
        stats = full_pipeline["link"].stats
        assert stats.retransmissions <= 0.01 * stats.data_frames_sent


class TestTraceAgreement:
    def test_frame_counts_roughly_agree(self, full_pipeline):
        window = full_pipeline["window"]
        truth = [
            r for r in full_pipeline["medium"].history
            if window[0] <= r.start_s and r.end_s <= window[1]
        ]
        detected = full_pipeline["detected"]
        # ACKs can merge with their data frames; allow slack.
        assert len(detected) >= 0.4 * len(truth)
        assert len(detected) <= 1.2 * len(truth)

    def test_busy_fraction_agrees(self, full_pipeline):
        from repro.core.utilization import medium_usage_from_trace

        window = full_pipeline["window"]
        truth = medium_usage_from_records(
            full_pipeline["medium"].history, window[0], window[1]
        )
        estimated = medium_usage_from_trace(
            full_pipeline["trace"], threshold_v=0.05
        )
        assert estimated == pytest.approx(truth, abs=0.12)

    def test_detected_lengths_match_ground_truth_distribution(self, full_pipeline):
        window = full_pipeline["window"]
        truth = [
            r for r in full_pipeline["medium"].history
            if window[0] <= r.start_s and r.end_s <= window[1]
            and r.kind == FrameKind.DATA
        ]
        if len(truth) < 5:
            pytest.skip("window too quiet")
        truth_cdf = frame_length_cdf(truth)
        # Data frames dominate the capture; medians should agree.
        det_long = [f for f in full_pipeline["detected"] if f.duration_s > 4e-6]
        det_cdf = frame_length_cdf(det_long)
        assert det_cdf.median() == pytest.approx(truth_cdf.median(), rel=0.4)


class TestSpatialIntegration:
    def test_conflict_tools_on_running_scenario(self):
        """Spatial planning verdicts agree with simulated outcomes."""
        from repro.core.spatial import Link, link_margins
        from repro.experiments.interference import build_interference_scenario

        scen = build_interference_scenario(wihd_offset_m=0.5, seed=41)
        links = [
            Link(tx=scen.devices["laptop-a"], rx=scen.devices["dock-a"]),
            Link(tx=scen.devices["laptop-b"], rx=scen.devices["dock-b"]),
        ]
        rows = link_margins(links, scen.coupling)
        scen.run(0.2)
        # The margins are finite and the simulation shows matching
        # levels of trouble: low margin <-> measurable retransmissions.
        min_margin = min(r.margin_db for r in rows)
        retx = scen.link_a.stats.retransmissions + scen.link_b.stats.retransmissions
        if min_margin > 25.0:
            assert retx < 2000
        else:
            assert retx > 0
