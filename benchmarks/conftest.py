"""Fixtures for the per-figure benchmarks.

Each benchmark regenerates one table or figure of the paper, asserts
the *shape* of the result (who wins, by roughly what factor, where
crossovers fall), and writes the reproduced rows to
``benchmarks/results/<id>.txt`` — those files feed EXPERIMENTS.md.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))

import pytest

from figreport import (  # noqa: F401  (re-exported for the benchmarks)
    FigureReport,
    cached_aggregation_sweep,
    cached_interference_sweeps,
    cached_room_profiles,
)


try:
    import pytest_benchmark  # noqa: F401
except ImportError:
    # Without pytest-benchmark the figure benchmarks still regenerate
    # their results: ``benchmark`` and ``benchmark.pedantic`` run the
    # callable once and return its result.

    class _RunOnce:
        def __call__(self, fn, *args, **kwargs):
            return fn(*args, **kwargs)

        def pedantic(self, fn, args=(), kwargs=None, **_timing):
            return fn(*args, **(kwargs or {}))

    @pytest.fixture()
    def benchmark():
        return _RunOnce()


@pytest.fixture()
def report(request):
    """A per-test FigureReport named after the test module."""
    figure_id = request.module.__name__.replace("test_", "")
    rep = FigureReport(figure_id)
    yield rep
    rep.write()
