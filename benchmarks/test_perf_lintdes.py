"""DES-time-pass (``--des``) performance over the full source tree.

Times the RL040-RL046 sim-time soundness pass plus the worklist build
on the repository itself and writes the numbers to
``benchmarks/results/BENCH_lintdes.json`` in the unified
:mod:`repro.obs.bench` schema so CI runs leave a comparable perf
trail.

The assertions are deliberately loose (budget ceilings, not speedup
floors): the des pass must stay cheap enough to gate every commit, but
container scheduling jitter must not flake the suite.
"""

import pathlib
import time

from repro.lint.config import load_config
from repro.lint.engine import iter_python_files
from repro.lint.flow import analyze_paths
from repro.lint.flow.destime import DES_WORKLIST_CODES
from repro.lint.flow.worklist import build_worklist
from repro.obs.bench import bench_entry, write_bench

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
RESULTS = pathlib.Path(__file__).parent / "results" / "BENCH_lintdes.json"

#: Generous wall-clock budget (seconds) for a CI container.
DES_BUDGET_S = 60.0


def test_perf_lint_des_full_repo():
    config = load_config(REPO_ROOT)
    files = iter_python_files([SRC], config)
    assert len(files) >= 60, "source tree unexpectedly small"

    t0 = time.perf_counter()
    findings, stats = analyze_paths([SRC], REPO_ROOT, config, passes=("des",))
    des_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    worklist = build_worklist(findings, codes=DES_WORKLIST_CODES)
    worklist_s = time.perf_counter() - t0

    # Determinism: a second run over the same tree must reproduce the
    # findings and the worklist ordering exactly.
    repeat, _ = analyze_paths([SRC], REPO_ROOT, config, passes=("des",))
    assert [f.sort_key() for f in findings] == [f.sort_key() for f in repeat]
    assert [
        e.to_dict() for e in build_worklist(repeat, codes=DES_WORKLIST_CODES)
    ] == [e.to_dict() for e in worklist]

    write_bench(RESULTS, "lintdes", [
        # Wide tolerance — the hard budget is asserted below; the
        # regression gate only flags order-of-magnitude drift.
        bench_entry("des_pass_s", round(des_s, 4), "s", "lower",
                    tolerance=5.0),
        bench_entry("worklist_build_s", round(worklist_s, 4), "s", "info"),
        bench_entry("files", len(files), "files", "info"),
        bench_entry("flow_modules", stats.modules, "modules", "info"),
        bench_entry("flow_functions", stats.functions, "functions", "info"),
        bench_entry("flow_call_edges", stats.call_edges, "edges", "info"),
        bench_entry("des_findings", len(findings), "findings", "info"),
        bench_entry("worklist_entries", len(worklist), "entries", "info"),
    ])

    # Every worklist entry must come from a des-eligible rule.
    for entry in worklist:
        assert set(entry.codes) <= DES_WORKLIST_CODES

    print(
        f"\nlint --des perf ({len(files)} files): pass {des_s:.2f} s, "
        f"worklist {worklist_s * 1000:.1f} ms, "
        f"{len(findings)} finding(s), {len(worklist)} worklist entr"
        f"{'y' if len(worklist) == 1 else 'ies'}"
    )

    assert des_s < DES_BUDGET_S
