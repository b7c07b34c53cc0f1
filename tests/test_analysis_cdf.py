"""Unit tests for the empirical CDF helper."""

import numpy as np
import pytest

from repro.analysis.cdf import EmpiricalCDF


class TestConstruction:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            EmpiricalCDF([])

    def test_samples_are_sorted(self):
        cdf = EmpiricalCDF([3.0, 1.0, 2.0])
        assert list(cdf.samples) == [1.0, 2.0, 3.0]

    def test_n(self):
        assert EmpiricalCDF([5.0, 6.0]).n == 2


class TestEvaluation:
    def test_below_minimum_is_zero(self):
        cdf = EmpiricalCDF([1.0, 2.0, 3.0])
        assert cdf(0.5) == 0.0

    def test_at_maximum_is_one(self):
        cdf = EmpiricalCDF([1.0, 2.0, 3.0])
        assert cdf(3.0) == 1.0

    def test_right_continuity(self):
        cdf = EmpiricalCDF([1.0, 2.0])
        assert cdf(1.0) == 0.5  # includes the sample at 1.0

    def test_midpoint(self):
        cdf = EmpiricalCDF([1.0, 2.0, 3.0, 4.0])
        assert cdf(2.5) == 0.5


class TestQuantiles:
    def test_median_of_odd(self):
        assert EmpiricalCDF([1.0, 2.0, 3.0]).median() == 2.0

    def test_full_quantile_is_max(self):
        assert EmpiricalCDF([1.0, 5.0, 9.0]).quantile(1.0) == 9.0

    def test_invalid_quantile_raises(self):
        cdf = EmpiricalCDF([1.0])
        with pytest.raises(ValueError):
            cdf.quantile(0.0)
        with pytest.raises(ValueError):
            cdf.quantile(1.5)

    def test_quantile_cdf_consistency(self):
        rng = np.random.default_rng(0)
        cdf = EmpiricalCDF(rng.normal(size=101))
        for q in (0.1, 0.5, 0.9):
            assert cdf(cdf.quantile(q)) >= q


class TestCurves:
    def test_curve_shape(self):
        x, y = EmpiricalCDF([1.0, 2.0, 3.0]).curve(points=50)
        assert x.shape == y.shape == (50,)
        assert y[0] > 0.0  # first grid point sits on the smallest sample
        assert y[-1] == 1.0
        assert np.all(np.diff(y) >= 0)

    def test_overlay_shared_grid(self):
        a = EmpiricalCDF([1.0, 2.0])
        b = EmpiricalCDF([3.0, 4.0])
        x, rows = EmpiricalCDF.overlay([a, b], points=10)
        assert rows.shape == (2, 10)
        assert x[0] == 1.0 and x[-1] == 4.0

    def test_overlay_empty_raises(self):
        with pytest.raises(ValueError):
            EmpiricalCDF.overlay([])
