"""Lint engine performance over the full repository source tree.

Times the per-file rules serially and with ``--jobs 4`` and writes the
numbers to ``benchmarks/results/BENCH_lint.json``
in the unified :mod:`repro.obs.bench` schema so CI runs leave a
comparable perf trail.

The assertions are deliberately loose (budget ceilings, not speedup
floors): lint must stay cheap enough to run on every commit, but
container scheduling jitter must not flake the suite.
"""

import pathlib
import time

from repro.lint.config import load_config
from repro.lint.engine import iter_python_files, lint_paths
from repro.obs.bench import bench_entry, write_bench

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
RESULTS = pathlib.Path(__file__).parent / "results" / "BENCH_lint.json"

# Generous wall-clock budget (seconds) for a CI container; the
# measured numbers land in BENCH_lint.json for trend-watching.
PER_FILE_BUDGET_S = 30.0


def test_perf_lint_full_repo():
    config = load_config(REPO_ROOT)
    files = iter_python_files([SRC], config)
    assert len(files) >= 60, "source tree unexpectedly small"

    t0 = time.perf_counter()
    serial = lint_paths([SRC], REPO_ROOT, config, jobs=1)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = lint_paths([SRC], REPO_ROOT, config, jobs=4)
    parallel_s = time.perf_counter() - t0

    # --jobs must not change the result, only the wall clock.
    assert [f.sort_key() for f in serial] == [f.sort_key() for f in parallel]

    write_bench(RESULTS, "lint", [
        # Wide tolerance — the hard budget is asserted below; the
        # regression gate only flags order-of-magnitude drift across
        # heterogeneous CI machines.
        bench_entry("per_file_serial_s", round(serial_s, 4), "s", "lower",
                    tolerance=5.0),
        bench_entry("per_file_jobs4_s", round(parallel_s, 4), "s", "info"),
        bench_entry("files", len(files), "files", "info"),
        bench_entry("per_file_findings", len(serial), "findings", "info"),
    ])

    print(
        f"\nlint perf ({len(files)} files): per-file {serial_s:.2f} s "
        f"(jobs=4 {parallel_s:.2f} s)"
    )

    assert serial_s < PER_FILE_BUDGET_S
