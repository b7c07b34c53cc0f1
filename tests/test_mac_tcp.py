"""Unit tests for the Iperf-style TCP model."""

import collections
import hashlib
import json

import pytest

from repro.experiments.interference import build_interference_scenario
from repro.geometry.vec import Vec2
from repro.mac.simulator import Medium, Simulator, Station, StaticCoupling
from repro.mac.tcp import GIGE_CAP_BPS, IperfFlow, TcpParameters
from repro.mac.wigig import MPDU_BITS, WiGigLink


def make_flow(params, coupling_db=-40.0, seed=1):
    sim = Simulator(seed=seed)
    coupling = StaticCoupling({
        ("tx", "rx"): coupling_db,
        ("rx", "tx"): coupling_db,
    })
    medium = Medium(sim, coupling, capture_history=False)
    tx = Station("tx", Vec2(0, 0))
    rx = Station("rx", Vec2(2, 0))
    medium.register(tx)
    medium.register(rx)
    link = WiGigLink(sim, medium, transmitter=tx, receiver=rx,
                     snr_hint_db=35.0, send_beacons=False)
    flow = IperfFlow(sim, link, params)
    return sim, link, flow


class TestParameters:
    def test_validation(self):
        with pytest.raises(ValueError):
            TcpParameters(window_bytes=0)
        with pytest.raises(ValueError):
            TcpParameters(host_rtt_s=-1.0)
        with pytest.raises(ValueError):
            TcpParameters(rate_limit_bps=0.0)
        with pytest.raises(ValueError):
            TcpParameters(eth_rate_bps=0.0)


class TestWindowControl:
    def test_throughput_scales_with_window(self):
        results = {}
        for window in (8 * 1024, 32 * 1024):
            sim, link, flow = make_flow(TcpParameters(window_bytes=window))
            sim.run_until(0.2)
            results[window] = flow.throughput_bps()
        assert results[32 * 1024] > 2.5 * results[8 * 1024]

    def test_window_limited_throughput_matches_w_over_rtt(self):
        window = 8 * 1024
        params = TcpParameters(window_bytes=window, host_rtt_s=600e-6)
        sim, link, flow = make_flow(params)
        sim.run_until(0.3)
        # Far from saturation: throughput ~ window / (host RTT + small
        # radio service time).
        expected = window * 8 / params.host_rtt_s
        assert flow.throughput_bps() == pytest.approx(expected, rel=0.2)

    def test_gige_cap_enforced(self):
        sim, link, flow = make_flow(TcpParameters(window_bytes=1024 * 1024))
        sim.run_until(0.3)
        assert flow.throughput_bps() <= GIGE_CAP_BPS

    def test_large_windows_saturate(self):
        sim, link, flow = make_flow(TcpParameters(window_bytes=256 * 1024))
        sim.run_until(0.3)
        assert flow.throughput_bps() > 0.9e9


class TestPacedMode:
    def test_rate_limit_respected(self):
        params = TcpParameters(window_bytes=64 * 1024, rate_limit_bps=50e6)
        sim, link, flow = make_flow(params)
        sim.run_until(0.3)
        assert flow.throughput_bps() == pytest.approx(50e6, rel=0.15)

    def test_tiny_rate_sends_rarely(self):
        params = TcpParameters(window_bytes=1024, rate_limit_bps=40e3)
        sim, link, flow = make_flow(params)
        sim.run_until(0.3)
        # 40 kbps = one MPDU every 64 ms -> at most ~6 in 300 ms.
        assert link.stats.data_frames_sent <= 7


class TestAccounting:
    def test_delivered_bits_counted(self):
        sim, link, flow = make_flow(TcpParameters(window_bytes=16 * 1024))
        sim.run_until(0.1)
        assert flow.delivered_bits == link.stats.mpdus_delivered * MPDU_BITS

    def test_reset_counters(self):
        sim, link, flow = make_flow(TcpParameters(window_bytes=16 * 1024))
        sim.run_until(0.1)
        flow.reset_counters()
        assert flow.delivered_bits == 0
        sim.run_until(0.2)
        assert flow.delivered_bits > 0

    def test_delivery_log_monotone(self):
        sim, link, flow = make_flow(TcpParameters(window_bytes=16 * 1024))
        sim.run_until(0.1)
        times = [t for t, _ in flow.delivery_log]
        totals = [b for _, b in flow.delivery_log]
        assert times == sorted(times)
        assert totals == sorted(totals)

    def test_zero_elapsed_is_zero_throughput(self):
        sim, link, flow = make_flow(TcpParameters(window_bytes=16 * 1024))
        assert flow.throughput_bps() == 0.0


class TestAimd:
    def test_clean_link_aimd_matches_fixed(self):
        fixed = make_flow(TcpParameters(window_bytes=64 * 1024, aimd=False))
        aimd = make_flow(TcpParameters(window_bytes=64 * 1024, aimd=True))
        for sim, link, flow in (fixed, aimd):
            sim.run_until(0.3)
        assert aimd[2].throughput_bps() == pytest.approx(
            fixed[2].throughput_bps(), rel=0.15
        )

    def test_lossy_link_reduces_aimd_throughput(self):
        # SNR around the MCS-9 threshold: persistent losses.
        clean = make_flow(TcpParameters(window_bytes=256 * 1024, aimd=True),
                          coupling_db=-40.0)
        lossy = make_flow(TcpParameters(window_bytes=256 * 1024, aimd=True),
                          coupling_db=-73.5)
        for sim, link, flow in (clean, lossy):
            sim.run_until(0.3)
        assert lossy[2].throughput_bps() < 0.85 * clean[2].throughput_bps()
        assert lossy[2].loss_events > 0

    def test_aimd_recovers_after_loss_period(self):
        sim, link, flow = make_flow(TcpParameters(window_bytes=256 * 1024, aimd=True))
        # Inject a synthetic loss: halve cwnd directly via the link's
        # retransmission counter.
        sim.run_until(0.05)
        link.stats.retransmissions += 5
        sim.run_until(0.4)
        # Despite the event, long-run throughput approaches the cap.
        assert flow.throughput_bps() > 0.75e9


# -- pinned timelines ---------------------------------------------------------
#
# Every frame on the air, every delivery and the final RNG state of a few
# short runs, hashed.  The pacing model (Ethernet serializer plus window
# credits) is an optimization target; these digests make sure a faster
# implementation simulates exactly the same network.


def _history_flow(params, coupling_db=-40.0, seed=7, send_beacons=False):
    sim = Simulator(seed=seed)
    coupling = StaticCoupling({("tx", "rx"): coupling_db, ("rx", "tx"): coupling_db})
    medium = Medium(sim, coupling)
    tx = Station("tx", Vec2(0, 0))
    rx = Station("rx", Vec2(2, 0))
    medium.register(tx)
    medium.register(rx)
    link = WiGigLink(sim, medium, transmitter=tx, receiver=rx,
                     snr_hint_db=35.0, send_beacons=send_beacons)
    return sim, medium, [link], [IperfFlow(sim, link, params)]


_SCENARIOS = {
    # The 171 Mbps point: the TXOP is mostly held waiting for data.
    "fixed-14k": lambda: _history_flow(TcpParameters(window_bytes=14 * 1024)),
    "fixed-64k": lambda: _history_flow(
        TcpParameters(window_bytes=64 * 1024), send_beacons=True
    ),
    "fixed-256k": lambda: _history_flow(TcpParameters(window_bytes=256 * 1024)),
    "aimd-lossy": lambda: _history_flow(
        TcpParameters(window_bytes=256 * 1024, aimd=True), coupling_db=-73.5
    ),
    "paced": lambda: _history_flow(
        TcpParameters(window_bytes=64 * 1024, rate_limit_bps=50e6)
    ),
}

_PINNED = {
    "fixed-14k": "f549078d0cd31a2a45f7064f91fa07843bb4fe611d69e68742eabcbf5fa6ed34",
    "fixed-64k": "6f6a9560bfd37dc632e256c397c47a39c54ab4249ce64e4ce3638c11ec3965e0",
    "fixed-256k": "9e6e592fd19f2a744cf7a77c5293eca6d0b98e44abe59e058fdf5105ef7b64dc",
    "aimd-lossy": "1ee5e7abd31104aac56612b5f380eed4a9ddeabdb352aa3efebde966e8659f04",
    "paced": "6acd4b71280741ca3aca6c20e66daa85f074bbf398fe6f2ef023e0b401963e97",
}


# Exact work of the same runs, taken before the per-frame cost cuts:
# events processed and frames on the air per (kind, delivered).  A change
# that adds or drops an event or a frame fails here with a readable diff
# before the digest check.
_PINNED_WORK = {
    "aimd-lossy": (5222, {
        ("ack", True): 67, ("cts", True): 103, ("data", False): 1040,
        ("data", True): 67, ("rts", True): 103,
    }),
    "fixed-14k": (14104, {
        ("ack", True): 3310, ("cts", True): 25, ("data", None): 1,
        ("data", True): 3310, ("rts", True): 25,
    }),
    "fixed-256k": (6329, {
        ("ack", True): 1530, ("cts", True): 25, ("data", None): 1,
        ("data", True): 1530, ("rts", True): 25,
    }),
    "fixed-64k": (7517, {
        ("ack", True): 1803, ("cts", True): 25, ("data", True): 1804, ("rts", True): 25,
    }),
    "paced": (6045, {
        ("ack", True): 976, ("cts", True): 25, ("data", True): 976, ("rts", True): 25,
    }),
}


def _work(sim, medium):
    """(events processed, frame count per (kind, delivered))."""
    frames = collections.Counter((r.kind.value, r.delivered) for r in medium.history)
    return sim.events_processed, dict(frames)


def _timeline_digest(sim, medium, links, flows) -> str:
    h = hashlib.sha256()
    for r in medium.history:
        h.update(repr((
            r.start_s.hex(), r.duration_s.hex(), r.kind.value, r.source,
            r.aggregated_mpdus, r.delivered, r.retransmission,
        )).encode())
    for flow in flows:
        h.update(repr([(t.hex(), bits) for t, bits in flow.delivery_log]).encode())
    for link in links:
        h.update(repr([d.hex() for d in link.delivery_delays_s]).encode())
    h.update(json.dumps(sim.rng.bit_generator.state, sort_keys=True).encode())
    return h.hexdigest()


class TestPinnedTimelines:
    @pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
    def test_timeline_digest_unchanged(self, scenario):
        sim, medium, links, flows = _SCENARIOS[scenario]()
        sim.run_until(0.05)
        assert sum(flow.delivered_bits for flow in flows) > 0
        assert _work(sim, medium) == _PINNED_WORK[scenario]
        assert _timeline_digest(sim, medium, links, flows) == _PINNED[scenario]


# The six-station Fig 22 scenario: two WiGig links, the WiHD pair and
# device couplings.  It is the only pinned run with more than one
# transmitter, so it is what checks the medium's interference, carrier
# sensing and NAV paths frame for frame.
_PINNED_INTERFERENCE = {
    "aligned": "debbef5dc2477fe618ef8754a78058ade69b1cb535d24b3e601de66b1b23dd9b",
    "rotated": "d2b8f1536be7e6a04d3494fc73608ef329bd0019cf5af3b4fba7277cbb7b7e99",
}


_PINNED_INTERFERENCE_WORK = {
    "aligned": (4638, {
        ("ack", True): 743, ("beacon", None): 99, ("cts", True): 17, ("data", False): 438,
        ("data", None): 2, ("data", True): 757, ("rts", True): 17,
    }),
    "rotated": (7221, {
        ("ack", True): 1302, ("beacon", None): 89, ("cts", True): 20, ("data", False): 484,
        ("data", None): 1, ("data", True): 1304, ("rts", True): 20,
    }),
}


def _interference_run(rotated: bool):
    scenario = build_interference_scenario(wihd_offset_m=1.0, rotated=rotated)
    scenario.run(0.02)
    return scenario


def _interference_digest(scenario) -> str:
    links = [scenario.link_a, scenario.link_b]
    flows = [scenario.flow_a, scenario.flow_b]
    assert sum(flow.delivered_bits for flow in flows) > 0
    h = hashlib.sha256(
        _timeline_digest(scenario.sim, scenario.medium, links, flows).encode()
    )
    for link in links:
        h.update(repr([(t.hex(), index) for t, index in link.mcs_history]).encode())
    return h.hexdigest()


class TestPinnedInterferenceTimeline:
    @pytest.mark.parametrize("setting", sorted(_PINNED_INTERFERENCE))
    def test_timeline_digest_unchanged(self, setting):
        scenario = _interference_run(rotated=setting == "rotated")
        assert _work(scenario.sim, scenario.medium) == _PINNED_INTERFERENCE_WORK[setting]
        assert _interference_digest(scenario) == _PINNED_INTERFERENCE[setting]
