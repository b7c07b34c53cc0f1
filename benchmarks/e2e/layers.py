"""Per-layer attribution for the traced run, measured from outside.

Nothing under ``src/`` changes.  :class:`LayerTracer` wraps the public
entry points of each layer (``BOUNDARIES``) in timing wrappers, patched
at every name binding a caller uses and removed afterwards.  The
counters and DES handler profile of :mod:`repro.obs` supply the exact
work counts.

Each wrapper keeps a stack of open spans, so a span's self time is its
duration minus that of its direct children.  Rare boundaries keep
every span (name, start, end, parent, op) for the Chrome trace; the
ones hit thousands of times per op only keep count / total / self.
:func:`layer_metrics` turns one traced round plus an untraced
reference round of the same ops into the ``per_layer`` metrics of
``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (span name, owner, attribute, keep every span).  The owner is a
#: module, or ``module:Class`` for a method.
BOUNDARIES: Tuple[Tuple[str, str, str, bool], ...] = (
    ("mac.simulator.run_until", "repro.mac.simulator:Simulator", "run_until", True),
    ("mac.medium.transmit", "repro.mac.simulator:Medium", "transmit", False),
    ("mac.medium.channel_busy_for", "repro.mac.simulator:Medium", "channel_busy_for", False),
    ("mac.coupling.coupling_db", "repro.mac.coupling:DeviceCoupling", "coupling_db", False),
    ("mac.wigig.enqueue_mpdus", "repro.mac.wigig:WiGigLink", "enqueue_mpdus", False),
    ("devices.make_d5000_dock", "repro.devices.d5000", "make_d5000_dock", True),
    ("devices.make_e7440_laptop", "repro.devices.d5000", "make_e7440_laptop", True),
    ("devices.make_air3c_transmitter", "repro.devices.air3c", "make_air3c_transmitter", True),
    ("devices.make_air3c_receiver", "repro.devices.air3c", "make_air3c_receiver", True),
    # Every pattern synthesis (steered, quasi-omni) goes through here.
    ("phy.antenna.pattern_for_weights", "repro.phy.antenna:PhasedArray", "pattern_for_weights", False),
    ("phy.raytracing.trace", "repro.phy.raytracing:RayTracer", "trace", False),
    ("devices.vubiq.received_power_dbm", "repro.devices.vubiq:VubiqReceiver", "received_power_dbm", False),
    ("devices.vubiq.capture", "repro.devices.vubiq:VubiqReceiver", "capture", True),
    ("phy.signal.synthesize_trace", "repro.phy.signal", "synthesize_trace", True),
    ("core.frames.detect", "repro.core.frames:FrameDetector", "detect", True),
    ("core.angular.measure_angular_profile", "repro.core.angular", "measure_angular_profile", True),
    (
        "core.utilization.medium_usage_from_records",
        "repro.core.utilization",
        "medium_usage_from_records",
        True,
    ),
)

#: The span around each whole op.
OP_SPAN = "op"

#: DES handler qualname prefix (the class that scheduled it) -> layer.
HANDLER_LAYERS = {
    "IperfFlow": "mac.tcp",
    "WiGigLink": "mac.wigig",
    "WiHDLink": "mac.wihd",
    "Medium": "mac.medium",
}

#: Handlers that only pace MPDUs in (GigE serialization) and credits
#: back (TCP window release), one event per MPDU each.
PACING_HANDLERS = (
    "IperfFlow._pump_ethernet.<locals>.deliver_one",
    "IperfFlow._on_delivery.<locals>.release_one",
)

_clock = time.perf_counter_ns


class LayerTracer:
    """Timing wrappers, spans and tallies for one traced round."""

    def __init__(self) -> None:
        #: span name -> [calls, total ns, self ns]
        self.stats: Dict[str, List[int]] = {}
        #: kept spans: [name, start ns, end ns, parent index or -1, op]
        self.spans: List[list] = []
        #: exact counts the wrappers observe (results, not calls)
        self.tallies: Dict[str, int] = {}
        # Open spans: [name, start ns, child ns, kept index or -1,
        # nearest kept ancestor index or -1].
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._sent: List[object] = []
        self._op: Optional[int] = None

    # -- spans ------------------------------------------------------------------

    def _push(self, name: str, keep: bool) -> list:
        anchor = self._stack[-1][4] if self._stack else -1
        index = -1
        if keep:
            index = len(self.spans)
            self.spans.append([name, 0, 0, anchor, self._op])
            anchor = index
        frame = [name, _clock(), 0, index, anchor]
        self._stack.append(frame)
        return frame

    def _pop(self, frame: list) -> None:
        end = _clock()
        duration = end - frame[1]
        self._stack.pop()
        if self._stack:
            self._stack[-1][2] += duration
        entry = self.stats.get(frame[0])
        if entry is None:
            entry = self.stats[frame[0]] = [0, 0, 0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[2]
        if frame[3] >= 0:
            self.spans[frame[3]][1] = frame[1]
            self.spans[frame[3]][2] = end

    def _tally(self, name: str, value: int = 1) -> None:
        self.tallies[name] = self.tallies.get(name, 0) + int(value)

    def begin_op(self, index: int) -> list:
        """Open the span of op ``index``."""
        self._op = index
        return self._push(OP_SPAN, True)

    def end_op(self, frame: list) -> None:
        """Close an op's span and count how its unicast frames ended."""
        self._pop(frame)
        for record in self._sent:
            if record.delivered is not None:
                self._tally("mac.medium.unicast_ended")
                self._tally("mac.medium.delivered", bool(record.delivered))
        self._sent.clear()
        self._op = None

    # -- result probes ----------------------------------------------------------

    def _probe(self, name: str, args: tuple) -> Optional[Callable[[object], None]]:
        """What a boundary's result adds to the tallies, if anything."""
        if name == "mac.medium.transmit":
            self._sent.append(args[1])
        elif name == "mac.medium.channel_busy_for":
            return lambda busy: self._tally("mac.medium.cca_busy", bool(busy))
        elif name == "mac.coupling.coupling_db":
            before = args[0].cached_pair_count
            return lambda _: self._tally(
                "mac.coupling.misses", args[0].cached_pair_count > before
            )
        elif name == "phy.signal.synthesize_trace":
            return lambda trace: self._tally("phy.signal.samples", trace.samples.size)
        elif name == "core.frames.detect":
            return lambda frames: self._tally("core.frames.detected", len(frames))
        return None

    # -- patching ---------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, keep: bool) -> Callable:
        push, pop, probe = self._push, self._pop, self._probe

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = push(name, keep)
            try:
                after = probe(name, args)
                result = fn(*args, **kwargs)
            finally:
                pop(frame)
            if after is not None:
                after(result)
            return result

        return timed

    def install(self) -> None:
        """Wrap every boundary.  A function is replaced at each module
        binding that holds it (``from x import f`` copies the name)."""
        for name, owner, attr, keep in BOUNDARIES:
            module_name, _, class_name = owner.partition(":")
            module = importlib.import_module(module_name)
            if class_name:
                cls = getattr(module, class_name)
                original = cls.__dict__[attr]
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original, keep))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, keep)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__dict__", {}).get(attr) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        """Put back every original binding."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# -- metrics --------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: dict, reference: dict) -> Dict[str, float]:
    """The per-layer metrics of one traced round.

    ``traced`` and ``reference`` are child round results over the same
    ops, with and without tracing.  Counts are exact totals over those
    ops; ``*_share`` values are inclusive time at a boundary over total
    op time; rates are per second of traced time.
    """
    stats = traced["span_stats"]
    counters = traced["obs"].get("counters", {})
    histograms = traced["obs"].get("histograms", {})
    handlers = traced["handlers"]
    tallies = traced["tallies"]
    op_ns = stats[OP_SPAN][1]

    def calls(span: str) -> int:
        return stats.get(span, [0, 0, 0])[0]

    def total_ns(span: str) -> int:
        return stats.get(span, [0, 0, 0])[1]

    def share(*spans: str) -> float:
        return _ratio(sum(total_ns(s) for s in spans), op_ns)

    handler_ns: Dict[str, int] = {}
    for qualname, entry in handlers.items():
        layer = HANDLER_LAYERS.get(qualname.split(".", 1)[0], "other")
        handler_ns[layer] = handler_ns.get(layer, 0) + entry["total_ns"]
    events = counters.get("mac.simulator.events", 0)
    frames = counters.get("mac.medium.frames", 0)
    pacing = sum(handlers.get(h, {}).get("calls", 0) for h in PACING_HANDLERS)
    run_ns = total_ns("mac.simulator.run_until")
    data_frames = counters.get("mac.wigig.data_frames", 0)
    aggregation = histograms.get("mac.wigig.aggregation_mpdus", {"count": 0, "sum": 0.0})
    lookups = calls("mac.coupling.coupling_db")
    cca = calls("mac.medium.channel_busy_for")
    traces = counters.get("phy.raytracing.traces", 0)
    builds = [s for s in stats if s.startswith("devices.make_")]
    samples = tallies.get("phy.signal.samples", 0)
    synth_ns = total_ns("phy.signal.synthesize_trace")
    traced_s = sum(traced["latencies"])
    untraced_s = sum(reference["latencies"])
    return {
        "mac.simulator.events": events,
        "mac.simulator.events_per_frame": _ratio(events, frames),
        "mac.simulator.run_share": share("mac.simulator.run_until"),
        # Event-loop overhead: run_until time not spent in handlers.
        "mac.simulator.self_share": _ratio(run_ns - sum(handler_ns.values()), op_ns),
        "mac.simulator.events_per_s": _ratio(events, run_ns / 1e9),
        "mac.tcp.pacing_events": pacing,
        "mac.tcp.pacing_share": _ratio(pacing, events),
        "mac.tcp.handler_share": _ratio(handler_ns.get("mac.tcp", 0), op_ns),
        "mac.medium.frames": frames,
        "mac.medium.transmit_share": share("mac.medium.transmit"),
        "mac.medium.cca_checks": cca,
        "mac.medium.cca_busy_ratio": _ratio(tallies.get("mac.medium.cca_busy", 0), cca),
        "mac.medium.handler_share": _ratio(handler_ns.get("mac.medium", 0), op_ns),
        "mac.medium.delivered_ratio": _ratio(
            tallies.get("mac.medium.delivered", 0), tallies.get("mac.medium.unicast_ended", 0)
        ),
        "mac.coupling.lookups": lookups,
        "mac.coupling.hit_ratio": _ratio(lookups - tallies.get("mac.coupling.misses", 0), lookups),
        "mac.coupling.lookup_share": share("mac.coupling.coupling_db"),
        "mac.wigig.data_frames": data_frames,
        "mac.wigig.enqueue_calls": calls("mac.wigig.enqueue_mpdus"),
        "mac.wigig.mpdus_per_frame": _ratio(aggregation["sum"], aggregation["count"]),
        "mac.wigig.retx_ratio": _ratio(counters.get("mac.wigig.retransmissions", 0), data_frames),
        "mac.wigig.handler_share": _ratio(handler_ns.get("mac.wigig", 0), op_ns),
        "mac.wihd.handler_share": _ratio(handler_ns.get("mac.wihd", 0), op_ns),
        "devices.builds": sum(calls(s) for s in builds),
        "devices.build_share": share(*builds),
        "phy.antenna.pattern_syntheses": counters.get("phy.antenna.pattern_syntheses", 0),
        "phy.antenna.gain_queries": counters.get("phy.antenna.gain_queries", 0),
        "phy.antenna.synthesis_share": share("phy.antenna.pattern_for_weights"),
        "phy.raytracing.traces": traces,
        "phy.raytracing.paths_per_trace": _ratio(counters.get("phy.raytracing.paths", 0), traces),
        "phy.raytracing.trace_share": share("phy.raytracing.trace"),
        "devices.vubiq.power_evals": calls("devices.vubiq.received_power_dbm"),
        "devices.vubiq.power_share": share("devices.vubiq.received_power_dbm"),
        "devices.vubiq.capture_share": share("devices.vubiq.capture"),
        "core.angular.profile_share": share("core.angular.measure_angular_profile"),
        "phy.signal.samples": samples,
        "phy.signal.samples_per_s": _ratio(samples, synth_ns / 1e9),
        "phy.signal.synthesis_share": share("phy.signal.synthesize_trace"),
        "core.frames.detected": tallies.get("core.frames.detected", 0),
        "core.frames.detect_share": share("core.frames.detect"),
        "core.utilization.usage_share": share("core.utilization.medium_usage_from_records"),
        # Op time outside every boundary: the experiment glue itself.
        "experiments.self_share": _ratio(stats[OP_SPAN][2], op_ns),
        "bench.trace_overhead_ratio": _ratio(traced_s, untraced_s) - 1.0,
    }


def layer_table(span_stats: Dict[str, List[int]]) -> List[str]:
    """Human-readable per-boundary rows: calls, total, self, share."""
    op_ns = span_stats[OP_SPAN][1]
    rows = [f"{'boundary':<44} {'calls':>9} {'total_s':>10} {'self_s':>10} {'share':>7}"]
    for name, (count, total, own) in sorted(span_stats.items(), key=lambda kv: -kv[1][1]):
        rows.append(
            f"{name:<44} {count:>9} {total / 1e9:>10.4f} {own / 1e9:>10.4f} "
            f"{_ratio(total, op_ns):>7.1%}"
        )
    return rows


def chrome_trace(spans: List[list], span_stats: Dict[str, List[int]]) -> dict:
    """Kept spans as Chrome trace events; aggregates under ``otherData``."""
    origin = min((s[1] for s in spans), default=0)
    events = [
        {
            "name": name,
            "ph": "X",
            "ts": (start - origin) / 1e3,
            "dur": (end - start) / 1e3,
            "pid": 1,
            "tid": 1,
            "args": {"op": op, "parent": parent},
        }
        for name, start, end, parent, op in spans
    ]
    aggregates = {
        name: {"calls": c, "total_us": t / 1e3, "self_us": s / 1e3}
        for name, (c, t, s) in sorted(span_stats.items())
    }
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": {"spans": aggregates}}
