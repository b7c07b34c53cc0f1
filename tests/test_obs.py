"""Unit tests for repro.obs: state, metrics, spans, export, report."""

import json

import pytest

from repro import obs
from repro.obs.export import (
    TRACE_FILENAME,
    build_trace_doc,
    read_trace,
    validate_trace,
    write_trace,
)
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.report import render_report, render_report_json, report_doc
from repro.obs.trace import NOOP_SPAN, TraceBuffer, complete_event


@pytest.fixture(autouse=True)
def _clean_obs_state():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestState:
    def test_disabled_by_default(self):
        assert not obs.STATE.metrics
        assert not obs.STATE.tracing
        assert not obs.STATE.enabled

    def test_enable_disable(self):
        obs.enable(metrics=True, trace=True)
        assert obs.STATE.enabled and obs.STATE.tracing
        obs.disable()
        assert not obs.STATE.enabled

    def test_disabled_span_is_shared_noop(self):
        assert obs.span("phy.raytracing.trace") is NOOP_SPAN
        with obs.span("mac.simulator.run") as s:
            assert s is NOOP_SPAN

    def test_disabled_add_records_nothing(self):
        obs.add("x.y.z", 5)
        assert obs.metrics_snapshot() is None


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.add("a.b.count")
        reg.add("a.b.count", 4)
        reg.set_gauge("a.b.peak", 2.5)
        reg.observe("a.b.size", 3, buckets=(1.0, 4.0, 8.0))
        snap = reg.snapshot()
        assert snap["counters"] == {"a.b.count": 5}
        assert snap["gauges"] == {"a.b.peak": 2.5}
        assert snap["histograms"]["a.b.size"]["counts"] == [0, 1, 0, 0]

    def test_empty_snapshot_is_none(self):
        assert MetricsRegistry().snapshot() is None

    def test_repeated_observation_matches_single_ones(self):
        one_by_one, at_once = MetricsRegistry(), MetricsRegistry()
        for _ in range(5):
            one_by_one.observe("h", 3, buckets=(1.0, 4.0))
        at_once.observe("h", 3, buckets=(1.0, 4.0), times=5)
        assert json.dumps(at_once.snapshot()) == json.dumps(one_by_one.snapshot())

    def test_merge_is_order_independent(self):
        snaps = []
        for values in ((1, 3.0), (7, 9.0), (2, 1.0)):
            reg = MetricsRegistry()
            reg.add("n", values[0])
            reg.set_gauge("g", values[1])
            reg.observe("h", values[0], buckets=(2.0, 8.0))
            snaps.append(reg.snapshot())

        def merged(order):
            out = MetricsRegistry()
            for i in order:
                out.merge_snapshot(snaps[i])
            return json.dumps(out.snapshot(), sort_keys=True)

        assert merged([0, 1, 2]) == merged([2, 0, 1]) == merged([1, 2, 0])
        final = json.loads(merged([0, 1, 2]))
        assert final["counters"]["n"] == 10
        assert final["gauges"]["g"] == 9.0  # gauges merge with max
        assert final["histograms"]["h"]["counts"] == [2, 1, 0]

    def test_merge_none_is_noop(self):
        reg = MetricsRegistry()
        reg.add("n")
        reg.merge_snapshot(None)
        assert reg.snapshot()["counters"] == {"n": 1}

    def test_histogram_bucket_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.observe("h", 1, buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            reg.observe("h", 1, buckets=(1.0, 3.0))
        other = MetricsRegistry()
        other.observe("h", 1, buckets=(5.0,))
        with pytest.raises(ValueError):
            reg.merge_snapshot(other.snapshot())

    def test_histogram_buckets_checked_beyond_the_declaring_tuple(self):
        # Reusing the declaring tuple skips revalidation; any other
        # object is still compared by value.
        buckets = (1.0, 2.0)
        reg = MetricsRegistry()
        reg.observe("h", 1, buckets=buckets)
        reg.observe("h", 3, buckets=buckets)
        reg.observe("h", 2, buckets=[1, 2])
        with pytest.raises(ValueError, match="re-declared"):
            reg.observe("h", 1, buckets=(1.0, 4.0))
        assert reg.snapshot()["histograms"]["h"]["counts"] == [1, 1, 1]

    def test_merge_mismatch_is_loud_deterministic_and_nonmutating(self):
        reg = MetricsRegistry()
        reg.add("n", 1)
        reg.observe("b.hist", 1, buckets=(1.0, 2.0))
        reg.observe("a.hist", 1, buckets=(5.0,))
        other = MetricsRegistry()
        other.add("n", 9)
        other.observe("b.hist", 1, buckets=(1.0, 3.0))
        other.observe("a.hist", 1, buckets=(6.0,))
        before = json.dumps(reg.snapshot(), sort_keys=True)
        with pytest.raises(ValueError) as exc:
            reg.merge_snapshot(other.snapshot())
        message = str(exc.value)
        # Every mismatched name, in sorted order — the same message on
        # every run, never just whichever dict iteration hit first.
        assert "['a.hist', 'b.hist']" in message
        assert "registry left unmodified" in message
        # Nothing merged — not even the counters that would have been
        # valid on their own.
        assert json.dumps(reg.snapshot(), sort_keys=True) == before

    def test_histogram_overflow_bin(self):
        hist = Histogram((1.0, 2.0))
        hist.observe(99.0)
        assert hist.counts == [0, 0, 1]

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram((3.0, 1.0))

    def test_ops_counts_every_mutation(self):
        reg = MetricsRegistry()
        reg.add("a")
        reg.set_gauge("b", 1.0)
        reg.observe("c", 1, buckets=(1.0,))
        assert reg.ops == 3


class TestSpans:
    def test_enabled_span_records_event(self):
        obs.enable(metrics=True, trace=True)
        with obs.span("mac.beam_training.sls", initiator="tx"):
            pass
        _, spans, _ = obs.collect_cell()
        assert len(spans) == 1
        event = spans[0]
        assert event["name"] == "mac.beam_training.sls"
        assert event["ph"] == "X"
        assert event["cat"] == "mac"
        assert event["dur"] >= 0
        assert event["args"] == {"initiator": "tx"}

    def test_buffer_caps_and_counts_drops(self):
        buf = TraceBuffer(max_events=2)
        for i in range(5):
            buf.record(complete_event("x", 0, 10))
        events = buf.drain()
        # 2 recorded events + 1 synthetic drop counter
        assert len(events) == 3
        assert events[-1]["name"] == "obs.dropped_spans"
        assert events[-1]["args"]["dropped"] == 3

    def test_begin_cell_resets(self):
        obs.enable(metrics=True, trace=True)
        obs.add("n")
        with obs.span("x.y.z"):
            pass
        obs.begin_cell()
        metrics, spans, _ = obs.collect_cell()
        assert metrics is None
        assert spans == []


class TestExport:
    def test_trace_doc_roundtrip_and_validation(self, tmp_path):
        events = [
            complete_event("phy.raytracing.trace", 1000, 5000),
            {**complete_event("campaign.cell", 0, 9000), "pid": 1},
        ]
        path = write_trace(tmp_path / TRACE_FILENAME, events, label="demo")
        doc = read_trace(path)
        assert validate_trace(doc) == []
        names = [e["name"] for e in doc["traceEvents"]]
        assert "process_name" in names  # pid metadata for Perfetto
        assert doc["otherData"] == {"campaign": "demo"}

    def test_validator_catches_malformed_events(self):
        assert validate_trace([]) == ["trace document must be an object, got list"]
        assert validate_trace({"traceEvents": "nope"}) == ["traceEvents must be a list"]
        bad = {
            "traceEvents": [
                {"name": "x", "ph": "Z", "pid": 0, "tid": 0},
                {"name": "", "ph": "X", "pid": 0, "tid": 0, "ts": 1, "dur": 1},
                {"name": "x", "ph": "X", "pid": 0, "tid": 0, "ts": -1, "dur": 1},
                {"name": "x", "ph": "X", "pid": "p", "tid": 0, "ts": 1, "dur": 1},
            ]
        }
        problems = validate_trace(bad)
        assert len(problems) == 4

    def test_build_doc_defaults_pid_tid(self):
        doc = build_trace_doc([{"name": "x", "ph": "X", "ts": 0.0, "dur": 1.0}])
        assert validate_trace(doc) == []


class TestReport:
    def test_render_report_includes_metrics_and_spans(self):
        manifest = {
            "campaign": "demo",
            "workers": 2,
            "scenarios": {"total": 4},
            "timing": {"wall_clock_s": 1.25},
            "metrics": {
                "counters": {"mac.simulator.events": 120},
                "gauges": {},
                "histograms": {
                    "mac.wigig.aggregation_mpdus": {
                        "buckets": [1.0, 12.0],
                        "counts": [1, 2, 0],
                        "count": 3,
                        "sum": 20.0,
                    }
                },
            },
            "profile": {
                "spans": {
                    "mac.simulator.run": {
                        "count": 2, "total_us": 4.0, "self_us": 3.0, "max_us": 3.0
                    }
                }
            },
        }
        text = render_report(report_doc(manifest))
        assert "mac.simulator.events" in text
        assert "120" in text
        assert "mac.simulator.run" in text
        assert "aggregation_mpdus" in text

    def test_long_names_keep_columns_aligned(self):
        """Name columns widen to the longest name, past the old 44/32."""
        long_handler = "MobileStation._charge_sweep_airtime.<locals>.<lambda>"
        long_span = "mac.wigig.block_ack_session.retransmit_window"
        assert len(long_handler) > 44 and len(long_span) > 32
        manifest = {
            "campaign": "demo",
            "profile": {
                "handlers": {
                    long_handler: {"calls": 3, "total_ns": 300},
                    "h": {"calls": 12345, "total_ns": 5},
                },
                "spans": {
                    long_span: {
                        "count": 2, "total_us": 4.0, "self_us": 3.0, "max_us": 3.0
                    },
                    "s": {"count": 1, "total_us": 1.0, "self_us": 1.0, "max_us": 1.0},
                },
            },
        }
        lines = render_report(report_doc(manifest)).splitlines()
        for title, first, names in (
            ("event handlers", "calls", (long_handler, "h")),
            ("spans", "count", (long_span, "s")),
        ):
            start = next(i for i, ln in enumerate(lines) if ln.startswith(title))
            header, *rows = lines[start + 1:start + 4]
            # Every row's numbers end where the header's labels end.
            label_end = header.index(first) + len(first)
            assert header.rstrip().endswith(("% run", "max us"))
            for row in rows:
                name = next(n for n in names if row.startswith(f"  {n} "))
                assert row[label_end - 1] != " "
                assert row[label_end] == " "
                assert len(row) == len(header)
                assert row.index(name) == 2

    def test_render_report_without_trace(self):
        manifest = {"campaign": "demo", "workers": 1, "scenarios": {}, "timing": {}}
        text = render_report(report_doc(manifest))
        assert "no metrics recorded" in text
        assert "no trace.json" in text
        assert "event handlers: (none recorded; run with --profile)" in text
        assert "spans: (none recorded; run with --trace)" in text

    def test_report_json_is_byte_deterministic(self):
        manifest = {
            "campaign": "demo",
            "workers": 2,
            "schema_version": 5,
            "scenarios": {"total": 4},
            "timing": {"wall_clock_s": 1.25},
            "metrics": {"counters": {"n": 1}, "gauges": {}, "histograms": {}},
            "profile": {
                "handlers": {
                    "h": {"calls": 1, "total_ns": 5},
                    "g": {"calls": 1, "total_ns": 7},
                },
                "spans": {
                    "mac.simulator.run": {
                        "count": 1, "total_us": 2.0, "self_us": 2.0, "max_us": 2.0
                    }
                },
            },
        }
        first = render_report_json(report_doc(manifest))
        # Key insertion order must not leak into the bytes.
        shuffled = json.loads(json.dumps(manifest, sort_keys=True))
        shuffled["profile"]["handlers"] = dict(
            reversed(list(shuffled["profile"]["handlers"].items()))
        )
        assert render_report_json(report_doc(shuffled)) == first
        parsed = json.loads(first)
        assert parsed["trace"] is None
        assert [row["name"] for row in parsed["handlers"]] == ["g", "h"]
        assert parsed["spans"][0]["name"] == "mac.simulator.run"


class TestDroppedSpans:
    """Buffer overflow is surfaced loudly, never silently undercounted."""

    def _overflowed_run(self, tmp_path, monkeypatch):
        from repro import obs as obs_module

        monkeypatch.setattr(obs_module, "_BUFFER", TraceBuffer(max_events=2))
        obs.enable(metrics=True, trace=True)
        obs.begin_cell()
        for _ in range(6):
            with obs.span("x.y.z"):
                pass
        _, spans, profile = obs.collect_cell()
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        write_trace(run_dir / TRACE_FILENAME, spans, label="demo")
        manifest = {
            "schema_version": 5,
            "campaign": "demo",
            "workers": 1,
            "scenarios": {"total": 1},
            "timing": {"wall_clock_s": 0.1},
            "spans_file": TRACE_FILENAME,
            "metrics": None,
            "profile": profile,
        }
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        return run_dir, spans

    def test_collect_cell_appends_drop_counter(self, tmp_path, monkeypatch):
        _, spans = self._overflowed_run(tmp_path, monkeypatch)
        # 2 recorded + 1 synthetic counter for the 4 dropped spans.
        assert len(spans) == 3
        assert spans[-1]["name"] == "obs.dropped_spans"
        assert spans[-1]["args"]["dropped"] == 4

    def test_report_checks_truncated_trace(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        run_dir, _ = self._overflowed_run(tmp_path, monkeypatch)
        assert main(["obs", "report", str(run_dir)]) == 0
        captured = capsys.readouterr()
        # A truncated timeline is still a valid trace: no stderr problems.
        assert captured.err == ""
        events = json.loads((run_dir / TRACE_FILENAME).read_text())["traceEvents"]
        assert f"trace: trace.json valid ({len(events)} events)" in captured.out
        assert "4 spans dropped" in captured.out

    def test_report_warns_and_json_counts(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        run_dir, _ = self._overflowed_run(tmp_path, monkeypatch)
        assert main(["obs", "report", str(run_dir)]) == 0
        assert "timeline truncated, 4 spans dropped" in capsys.readouterr().out
        assert main(["obs", "report", str(run_dir), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["trace"]["dropped_spans"] == 4
        # The span table counts every span, the dropped ones included.
        assert doc["spans"][0]["count"] == 6


class TestInstrumentation:
    """The hot paths actually feed the registry when enabled."""

    def test_simulator_events_counter(self):
        from repro.mac.simulator import Simulator

        obs.enable(metrics=True)
        sim = Simulator(seed=1)
        fired = []
        sim.schedule(0.001, lambda: fired.append(1))
        sim.run_until(0.01)
        snap = obs.metrics_snapshot()
        assert snap["counters"]["mac.simulator.events"] == 1

    @staticmethod
    def _saturated_link():
        from repro.geometry.vec import Vec2
        from repro.mac.simulator import Medium, Simulator, Station, StaticCoupling
        from repro.mac.tcp import IperfFlow, TcpParameters
        from repro.mac.wigig import WiGigLink

        sim = Simulator(seed=1)
        medium = Medium(
            sim, StaticCoupling({("tx", "rx"): -40.0, ("rx", "tx"): -40.0})
        )
        tx, rx = Station("tx", Vec2(0, 0)), Station("rx", Vec2(2, 0))
        medium.register(tx)
        medium.register(rx)
        link = WiGigLink(sim, medium, transmitter=tx, receiver=rx,
                         snr_hint_db=35.0, send_beacons=False)
        IperfFlow(sim, link, TcpParameters(window_bytes=256 * 1024))
        return sim, medium, link

    def test_frame_metrics_published_once_per_run(self):
        from repro.mac.frames import FrameKind
        from repro.mac.wigig import AGGREGATION_BUCKETS, MAX_AGGREGATION

        obs.enable(metrics=True)
        sim, medium, link = self._saturated_link()
        ops_before = obs.registry().ops  # cumulative over the process
        sim.run_until(0.002)
        sim.run_until(0.004)
        # Per run: three counters plus one histogram call per aggregate
        # size seen, however many frames went on air.
        ops = obs.registry().ops - ops_before
        assert ops <= 2 * (3 + MAX_AGGREGATION) < len(medium.history)
        # The published snapshot is what one metric call per frame
        # would have recorded.
        expected = MetricsRegistry()
        for record in medium.history:
            expected.add("mac.medium.frames")
            if record.kind is FrameKind.DATA:
                expected.add("mac.wigig.data_frames")
                expected.observe(
                    "mac.wigig.aggregation_mpdus", record.aggregated_mpdus,
                    AGGREGATION_BUCKETS,
                )
        snap = obs.metrics_snapshot()
        assert snap["counters"]["mac.medium.frames"] == len(medium.history) > 10
        assert snap["counters"]["mac.wigig.data_frames"] == link.stats.data_frames_sent
        wanted = expected.snapshot()
        assert snap["histograms"] == wanted["histograms"]
        assert json.dumps(snap["histograms"]) == json.dumps(wanted["histograms"])

    def test_frame_sent_outside_run_until_is_published(self):
        from repro.mac.frames import FrameKind, FrameRecord

        obs.enable(metrics=True)
        sim, medium, _ = self._saturated_link()
        medium.transmit(FrameRecord(0.0, 1e-6, "tx", None, FrameKind.BEACON, 0))
        assert obs.metrics_snapshot() is None
        sim.run_until(0.0)
        assert obs.metrics_snapshot()["counters"]["mac.medium.frames"] == 1

    def test_run_without_frames_publishes_no_frame_metrics(self):
        obs.enable(metrics=True)
        sim, _, _ = self._saturated_link()
        sim.run_until(0.0)
        counters = obs.metrics_snapshot()["counters"]
        assert "mac.medium.frames" not in counters
        assert "mac.wigig.data_frames" not in counters

    def test_raytracer_counters_and_span(self):
        from repro.geometry.room import Room
        from repro.geometry.vec import Vec2
        from repro.phy.raytracing import RayTracer

        obs.enable(metrics=True, trace=True)
        tracer = RayTracer(Room.rectangular(6.0, 4.0))
        paths = tracer.trace(Vec2(1.0, 1.0), Vec2(5.0, 3.0))
        snap, spans, _ = obs.collect_cell()
        assert snap["counters"]["phy.raytracing.traces"] == 1
        assert snap["counters"]["phy.raytracing.paths"] == len(paths)
        assert any(e["name"] == "phy.raytracing.trace" for e in spans)

    def test_disabled_instrumentation_records_nothing(self):
        from repro.geometry.room import Room
        from repro.geometry.vec import Vec2
        from repro.phy.raytracing import RayTracer

        tracer = RayTracer(Room.rectangular(6.0, 4.0))
        tracer.trace(Vec2(1.0, 1.0), Vec2(5.0, 3.0))
        assert obs.metrics_snapshot() is None
