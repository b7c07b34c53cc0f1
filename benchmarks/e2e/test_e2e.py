"""Self-tests of the end-to-end benchmark.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``; they sit
outside the tier-1 ``testpaths``.  Mini-runs execute rounds in-process
with a few ops each, so the whole file takes well under a minute.
"""

from __future__ import annotations

import importlib
import json
import re
import shutil
import subprocess
import sys

import pytest

import child
import compare
import layers
import run
import workloads as wl

wl.use_repo_sources()

SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _mini_round(name: str, seed: int = 3, traced: bool = False, ops: int = 2) -> dict:
    tracer = layers.LayerTracer() if traced else None
    return child.run_round(wl.WORKLOADS[name], seed, 0.0, min_ops=ops, max_ops=ops, tracer=tracer)


def _bindings() -> dict:
    """Every binding the tracer may patch, by (owner, attribute)."""
    found = {}
    for _, owner, attr, _ in layers.BOUNDARIES:
        module_name, _, class_name = owner.partition(":")
        module = importlib.import_module(module_name)
        if class_name:
            found[(owner, attr)] = getattr(module, class_name).__dict__[attr]
            continue
        for mod_name, mod in list(sys.modules.items()):
            value = getattr(mod, "__dict__", {}).get(attr)
            if value is not None:
                found[(mod_name, attr)] = value
    return found


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_ops_are_a_pure_function_of_the_seed(name):
    workload = wl.WORKLOADS[name]
    assert workload.ops(7, 12) == workload.ops(7, 12)
    assert workload.ops(7, 12) != workload.ops(8, 12)
    # Rounds of different lengths share their first ops.
    assert workload.ops(7, 30)[:12] == workload.ops(7, 12)


def test_benchmark_json_names_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_those_of_benchmark_json(trace, section, monkeypatch, tmp_path, capsys):
    def spawn(name, seed, budget_s, min_ops, max_ops, traced, deadline):
        # One throughput block.
        result = _mini_round(name, seed, traced, ops=wl.WORKLOADS[name].block_ops)
        result["setup_s"] = 1.0
        return result

    monkeypatch.setattr(run, "spawn", spawn)
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path)
    argv = ["--seed", "1", "--workload", "protocol_capture", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {
        parts[1]: parts[3]
        for parts in (line.split() for line in lines[:-1])
        if len(parts) == 4 and parts[0] == "protocol_capture" and parts[1] in expected
    }
    assert printed == expected
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_traced_round_matches_untraced_and_restores_bindings(name):
    plain = _mini_round(name)
    before = _bindings()
    traced = _mini_round(name, traced=True)
    assert _bindings() == before
    assert traced["counted_digest"] == plain["counted_digest"]
    assert traced["span_stats"][layers.OP_SPAN][0] == 2
    assert not plain["failures"] and not traced["failures"]


def test_exact_counts_repeat_across_traced_runs():
    first = run.exact_counts(_mini_round("interference_sweep", traced=True))
    second = run.exact_counts(_mini_round("interference_sweep", traced=True))
    assert first == second
    assert first["obs_counters"]["mac.simulator.events"] > 0


def test_failing_ops_are_counted_not_fatal():
    def run_op(op):
        if op["i"] == 2:
            raise RuntimeError("boom")
        return {"value": op["i"], "counts": {"ops": 1}}

    stub = wl.Workload(
        name="stub",
        warmup_ops=1,
        block_ops=1,
        counted_ops=4,
        make_ops=lambda rng, n: [{"i": i} for i in range(n)],
        run_op=run_op,
        violation=lambda out: "odd" if out["value"] % 2 else None,
    )
    result = child.run_round(stub, 1, 0.0, max_ops=6)
    # Warm-up is op 0; timed ops 1..4 (indices 0..3): 1 and 3 break
    # the invariant, 2 raises.
    assert result["attempted"] == 5
    assert [index for index, _ in result["failures"]] == [0, 1, 2]
    assert result["counts"] == {"ops": 3}
    assert run._failed_ops([result, result]) == 6
    # A round whose outputs differ from round 1's fails whole.
    other = dict(result, op_digests=list(reversed(result["op_digests"])))
    assert run._failed_ops([result, other]) == 3 + other["attempted"]


def test_compare_verdicts():
    base = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98]
    assert compare.verdict(base, base, 0.1, True)[0] == "unchanged"
    assert compare.verdict(base, [x * 0.8 for x in base], 0.1, True)[0] == "worse"
    assert compare.verdict(base, [x * 0.8 for x in base], 0.1, False)[0] == "better"
    noisy = [0.7, 1.3, 0.8, 1.2, 1.0, 0.9]
    assert compare.verdict(base, noisy, 0.1, True)[0] == "unresolved"


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(wl.ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "room_profiles",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
