"""Profiling layer: handler attribution, span self-time, report/diff.

The determinism contract under test: every count-derived field of a
profile (handler calls, span counts) is identical across repeated runs
and across ``workers=1`` vs ``workers=N``, while time fields are free
to vary — ``strip_time_fields`` projects them away and the digests
hash only the remainder.
"""

import functools
import itertools
import json

import pytest

from repro import obs
from repro.obs import clock
from repro.campaign.runner import CampaignRunner, run_campaign
from repro.campaign.spec import CampaignSpec, grid_cells
from repro.campaign.store import load_manifest, write_run
from repro.campaign.verify import canonical_profile, verify_campaign
from repro.cli import main
from repro.mac.simulator import Simulator
from repro.obs.prof import (
    ProfileAccumulator,
    diff_manifests,
    handler_qualname,
    merge_profile,
    profile_digest,
    render_diff,
    strip_time_fields,
)
from repro.obs.report import handler_rows, span_rows
from repro.obs.trace import TraceBuffer

DES = "tests.campaign_cells:des_cell"


@pytest.fixture(autouse=True)
def _clean_obs_state():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def des_campaign(ticks=(30, 60), seeds=(0, 1)):
    return CampaignSpec(
        "des-prof",
        grid_cells(DES, grid={"ticks": tuple(ticks)}, seeds=seeds),
    )


class TestHandlerQualname:
    def test_plain_function(self):
        def tick():
            pass

        assert handler_qualname(tick).endswith("test_plain_function.<locals>.tick")

    def test_bound_method(self):
        class Station:
            def beacon(self):
                pass

        name = handler_qualname(Station().beacon)
        assert name.endswith("Station.beacon")

    def test_partial_unwraps(self):
        def fire(arg):
            pass

        name = handler_qualname(functools.partial(fire, 1))
        assert name.startswith("partial(") and "fire" in name

    def test_callable_instance_falls_back_to_type(self):
        class Handler:
            def __call__(self):
                pass

        assert handler_qualname(Handler()) == "Handler"


class TestProfileAccumulator:
    def test_empty_snapshot_is_none(self):
        assert ProfileAccumulator().snapshot() is None

    def test_record_aggregates_per_name(self):
        acc = ProfileAccumulator()
        acc.record("b", 100)
        acc.record("a", 50)
        acc.record("b", 200)
        snap = acc.snapshot()
        assert list(snap["handlers"]) == ["a", "b"]  # sorted
        assert snap["handlers"]["b"] == {"calls": 2, "total_ns": 300}
        assert snap["handlers"]["a"] == {"calls": 1, "total_ns": 50}

    def test_reset_clears(self):
        acc = ProfileAccumulator()
        acc.record("a", 1)
        acc.reset()
        assert acc.snapshot() is None


class TestMergeProfile:
    def test_merges_handlers_and_spans(self):
        base = {}
        merge_profile(base, {"handlers": {"h": {"calls": 2, "total_ns": 10}}})
        merge_profile(base, {"handlers": {"h": {"calls": 3, "total_ns": 5}}})
        span = {"count": 1, "total_us": 4.0, "self_us": 2.0, "max_us": 4.0}
        merge_profile(base, {"spans": {"s": span}})
        merge_profile(base, {"spans": {"s": dict(span, max_us=3.0)}})
        assert base["handlers"]["h"] == {"calls": 5, "total_ns": 15}
        assert base["spans"]["s"] == {
            "count": 2, "total_us": 8.0, "self_us": 4.0, "max_us": 4.0
        }

    def test_empty_snapshot_is_noop(self):
        base = {"handlers": {"h": {"calls": 1, "total_ns": 1}}}
        assert merge_profile(base, None) is base
        assert base["handlers"]["h"]["calls"] == 1


@pytest.fixture()
def ticking_clock(monkeypatch):
    """Every clock read advances 1 us, so span times are exact."""
    ticks = itertools.count(1)
    monkeypatch.setattr(clock, "perf_counter_ns", lambda: next(ticks) * 1000)


def span_table():
    return obs.profile_snapshot()["spans"]


@pytest.mark.usefixtures("ticking_clock")
class TestSpanAggregate:
    """The span table is charged through the open-span stack as each
    span closes; a span is one clock read in, one clock read out."""

    @pytest.fixture(autouse=True)
    def _tracing(self):
        obs.enable(trace=True)
        obs.begin_cell()

    def test_nested_child_charged_to_parent(self):
        with obs.span("outer"):          # 1 .. 6
            with obs.span("mid"):        # 2 .. 5
                with obs.span("inner"):  # 3 .. 4
                    pass
        table = span_table()
        assert table["inner"] == {
            "count": 1, "total_us": 1.0, "self_us": 1.0, "max_us": 1.0
        }
        # inner is mid's child only; outer is charged mid's 3 us.
        assert table["mid"]["total_us"] == 3.0 and table["mid"]["self_us"] == 2.0
        assert table["outer"]["total_us"] == 5.0 and table["outer"]["self_us"] == 2.0

    def test_siblings_do_not_nest(self):
        with obs.span("parent"):   # 1 .. 6
            with obs.span("a"):    # 2 .. 3
                pass
            with obs.span("b"):    # 4 .. 5
                pass
        table = span_table()
        assert table["a"]["self_us"] == table["a"]["total_us"] == 1.0
        assert table["b"]["self_us"] == table["b"]["total_us"] == 1.0
        assert table["parent"]["self_us"] == 3.0

    def test_span_left_by_exception_still_pops(self):
        with obs.span("parent"):
            with pytest.raises(RuntimeError):
                with obs.span("failing"):
                    raise RuntimeError("boom")
            assert obs._BUFFER.stack[-1].name == "parent"
            with obs.span("next"):
                pass
        assert obs._BUFFER.stack == []
        table = span_table()
        # "next" is a sibling of "failing", not its child.
        assert table["failing"]["self_us"] == table["failing"]["total_us"] == 1.0
        assert table["parent"]["total_us"] == 5.0
        assert table["parent"]["self_us"] == 3.0

    def test_dropped_events_still_counted(self, monkeypatch):
        monkeypatch.setattr(obs, "_BUFFER", TraceBuffer(max_events=2))
        for _ in range(5):
            with obs.span("x.y.z"):
                pass
        assert span_table()["x.y.z"]["count"] == 5
        events = obs._BUFFER.drain()
        assert [e["name"] for e in events] == ["x.y.z", "x.y.z", "obs.dropped_spans"]
        assert events[-1]["args"] == {"dropped": 3}


class TestDeterminismProjection:
    def test_strip_time_fields_keeps_counts(self):
        profile = {
            "handlers": {"h": {"calls": 3, "total_ns": 123}},
            "spans": {"s": {"count": 2, "total_us": 9.0, "self_us": 4.0}},
        }
        stripped = strip_time_fields(profile)
        assert stripped == {
            "handlers": {"h": {"calls": 3}},
            "spans": {"s": {"count": 2}},
        }

    def test_digest_ignores_time_varies_with_counts(self):
        a = {"handlers": {"h": {"calls": 3, "total_ns": 100}}}
        b = {"handlers": {"h": {"calls": 3, "total_ns": 999}}}
        c = {"handlers": {"h": {"calls": 4, "total_ns": 100}}}
        assert profile_digest(a) == profile_digest(b)
        assert profile_digest(a) != profile_digest(c)


class TestSimulatorAttribution:
    def test_handlers_attributed_by_qualname(self):
        obs.enable(metrics=True, profile=True)
        obs.begin_cell()
        sim = Simulator(seed=0)
        fired = []

        def tick():
            fired.append(sim.now)
            if len(fired) < 7:
                sim.schedule(1e-3, tick)

        sim.schedule(1e-3, tick)
        sim.run_until(1.0)
        snap = obs.profile_snapshot()
        (name,) = [n for n in snap["handlers"] if n.endswith("<locals>.tick")]
        assert snap["handlers"][name]["calls"] == 7
        assert snap["handlers"][name]["total_ns"] >= 0

    def test_disabled_profiling_records_nothing(self):
        obs.enable(metrics=True, profile=False)
        obs.begin_cell()
        sim = Simulator(seed=0)
        sim.schedule(1e-3, lambda: None)
        sim.run_until(1.0)
        assert obs.profile_snapshot() is None


class TestCampaignProfile:
    def test_profile_merged_into_manifest(self, tmp_path):
        result = run_campaign(des_campaign(), profile=True, trace=True)
        profile = result.telemetry.profile
        assert profile is not None
        handler_calls = [
            data["calls"]
            for name, data in profile["handlers"].items()
            if name.endswith("<locals>.tick")
        ]
        # 4 cells: ticks 30 and 60 across two seeds.
        assert sum(handler_calls) == 2 * (30 + 60)
        assert profile["spans"]["mac.simulator.run"]["count"] == 4
        out = write_run(result, tmp_path / "run")
        manifest = load_manifest(out)
        assert manifest["schema_version"] == 5
        assert manifest["profile"] == profile

    def test_serial_and_parallel_profiles_count_identical(self):
        spec = des_campaign(ticks=(20, 40, 60), seeds=(0, 1))
        serial = CampaignRunner(spec, workers=1, profile=True, trace=True).run()
        parallel = CampaignRunner(
            spec, workers=3, shuffle_seed=7, profile=True, trace=True
        ).run()
        assert canonical_profile(serial) == canonical_profile(parallel)
        assert canonical_profile(serial)  # non-empty

    def test_verify_reports_profile_match(self):
        report = verify_campaign(
            des_campaign(ticks=(25, 50), seeds=(0,)),
            workers=2,
        )
        assert report.profile_ok
        assert report.profile_serial_digest == report.profile_parallel_digest
        assert report.ok
        assert report.to_dict()["profile_ok"] is True


class TestTopRows:
    """Row order and shares of the report's hot-path tables."""

    def test_ordering_is_calls_then_name(self):
        profile = {
            "handlers": {
                "b": {"calls": 5, "total_ns": 1},
                "a": {"calls": 5, "total_ns": 2},
                "c": {"calls": 9, "total_ns": 3},
            },
        }
        assert [r["name"] for r in handler_rows(profile)] == ["c", "a", "b"]

    def test_shares_sum_to_one_per_section(self):
        profile = {
            "handlers": {
                "a": {"calls": 1, "total_ns": 30},
                "b": {"calls": 1, "total_ns": 70},
            }
        }
        shares = [r["share"] for r in handler_rows(profile)]
        assert sum(shares) == pytest.approx(1.0)

    def test_span_rows_order_by_count_then_name(self):
        row = {"total_us": 4.0, "self_us": 2.0, "max_us": 3.0}
        profile = {
            "spans": {
                "b": dict(row, count=2),
                "a": dict(row, count=2),
                "c": dict(row, count=1),
            }
        }
        rows = span_rows(profile)
        assert [r["name"] for r in rows] == ["a", "b", "c"]
        assert rows[2]["mean_us"] == 4.0 and rows[0]["mean_us"] == 2.0


class TestTopDiffCli:
    @pytest.fixture()
    def profiled_run(self, tmp_path):
        out = tmp_path / "run-a"
        result = run_campaign(des_campaign(), profile=True, trace=True)
        write_run(result, out)
        return out

    def test_report_renders_handler_and_span_tables(self, profiled_run, capsys):
        assert main(["obs", "report", str(profiled_run)]) == 0
        out = capsys.readouterr().out
        assert "event handlers (wall time per handler qualname):" in out
        assert "spans (self vs child time):" in out
        assert "profile digest:" in out
        assert "mac.simulator.run" in out
        assert "trace: trace.json valid" in out

    def test_report_digest_stable_across_runs(self, tmp_path, capsys):
        digests = []
        for label in ("x", "y"):
            out = tmp_path / label
            write_run(run_campaign(des_campaign(), profile=True, trace=True), out)
            assert main(["obs", "report", str(out), "--json"]) == 0
            digests.append(json.loads(capsys.readouterr().out)["profile_digest"])
        # Count-derived digest identical between independent runs even
        # though the measured times differ.
        assert digests[0] == digests[1]

    def test_report_without_profile_says_so(self, tmp_path, capsys):
        out = tmp_path / "plain"
        write_run(run_campaign(des_campaign()), out)
        assert main(["obs", "report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "event handlers: (none recorded; run with --profile)" in text
        assert "spans: (none recorded; run with --trace)" in text

    def test_diff_missing_manifest_exits_2(self, profiled_run, tmp_path, capsys):
        missing = tmp_path / "nope"
        assert main(["obs", "diff", str(profiled_run), str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"no manifest.json in {missing}" in captured.err

    def test_self_diff_is_count_clean_exit_0(self, profiled_run, capsys):
        assert main(["obs", "diff", str(profiled_run), str(profiled_run)]) == 0
        out = capsys.readouterr().out
        assert "0 count-derived differ" in out

    def test_diff_reports_signed_deltas_exit_1(self, profiled_run, tmp_path, capsys):
        other = tmp_path / "run-b"
        write_run(
            run_campaign(des_campaign(ticks=(30, 90)), profile=True, trace=True),
            other,
        )
        assert main(["obs", "diff", str(profiled_run), str(other)]) == 1
        out = capsys.readouterr().out
        # ticks 60 -> 90 on two seeds: +60 handler calls show up signed.
        assert "+" in out
        assert "count-derived differ" in out

    def test_diff_json_is_machine_readable(self, profiled_run, capsys):
        rc = main(
            ["obs", "diff", str(profiled_run), str(profiled_run), "--json"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counted_changed"] == 0
        assert doc["campaign_a"] == "des-prof"

    def test_diff_missing_fields_compare_as_zero(self):
        a = {"campaign": "a", "metrics": {"counters": {"only.in.a": 5}}}
        b = {"campaign": "b", "metrics": {"counters": {"only.in.b": 3}}}
        diff = diff_manifests(a, b)
        by_name = {r["name"]: r for r in diff["rows"] if r["section"] == "counters"}
        assert by_name["only.in.a"]["delta"] == -5.0
        assert by_name["only.in.b"]["delta"] == 3.0
        assert diff["counted_changed"] == 2

    def test_timing_rows_marked_and_not_counted(self):
        a = {"campaign": "a", "timing": {"wall_clock_s": 1.0}}
        b = {"campaign": "b", "timing": {"wall_clock_s": 2.0}}
        diff = diff_manifests(a, b)
        assert diff["counted_changed"] == 0
        assert diff["changed"] == 1
        assert "(time)" in render_diff(diff)
