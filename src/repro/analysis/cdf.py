"""Empirical cumulative distribution functions.

Figure 9 of the paper plots the CDF of WiGig data-frame lengths for a
range of TCP throughput values.  :class:`EmpiricalCDF` is the small
immutable helper used to build and query those curves.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np


class EmpiricalCDF:
    """Empirical CDF over a set of scalar samples.

    The CDF is right-continuous: ``cdf(x)`` is the fraction of samples
    less than or equal to ``x``.
    """

    def __init__(self, samples: Iterable[float]):
        data = np.sort(np.asarray(list(samples), dtype=float))
        if data.size == 0:
            raise ValueError("EmpiricalCDF requires at least one sample")
        self._sorted = data

    @property
    def samples(self) -> np.ndarray:
        """Sorted copy of the underlying samples."""
        return self._sorted.copy()

    @property
    def n(self) -> int:
        """Number of samples."""
        return int(self._sorted.size)

    def __call__(self, x: float) -> float:
        """Fraction of samples ``<= x``."""
        return float(np.searchsorted(self._sorted, x, side="right")) / self.n

    def quantile(self, q: float) -> float:
        """Smallest sample value ``v`` with ``cdf(v) >= q``.

        ``q`` must lie in ``(0, 1]``.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        idx = int(np.ceil(q * self.n)) - 1
        return float(self._sorted[idx])

    def median(self) -> float:
        """Convenience accessor for the 0.5 quantile."""
        return self.quantile(0.5)

    def curve(self, points: int = 200) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(x, y)`` arrays tracing the CDF for plotting.

        ``x`` spans the sample range; ``y`` is the CDF evaluated at each
        ``x``.  Useful for regenerating Figure 9.
        """
        x = np.linspace(self._sorted[0], self._sorted[-1], points)
        y = np.searchsorted(self._sorted, x, side="right") / self.n
        return x, y

    @staticmethod
    def overlay(cdfs: Sequence["EmpiricalCDF"], points: int = 200) -> Tuple[np.ndarray, np.ndarray]:
        """Evaluate several CDFs on a shared x-grid.

        Returns ``(x, Y)`` where ``Y`` has one row per CDF.  Used by the
        Figure 9 benchmark to print comparable rows for every TCP
        throughput setting.
        """
        if not cdfs:
            raise ValueError("need at least one CDF to overlay")
        lo = min(c._sorted[0] for c in cdfs)
        hi = max(c._sorted[-1] for c in cdfs)
        x = np.linspace(lo, hi, points)
        rows = [np.searchsorted(c._sorted, x, side="right") / c.n for c in cdfs]
        return x, np.vstack(rows)
