"""Unit tests for dB arithmetic helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.dbmath import (
    DB_FLOOR,
    amplitude_to_db,
    db_to_linear,
    dbm_to_watts,
    linear_to_db,
    log_distance_loss_db,
    power_average_db,
    power_sum_db,
    power_sum_db_rows,
    watts_to_dbm,
)


class TestConversions:
    def test_zero_db_is_unity(self):
        assert db_to_linear(0.0) == pytest.approx(1.0)

    def test_ten_db_is_factor_ten(self):
        assert db_to_linear(10.0) == pytest.approx(10.0)

    def test_negative_db(self):
        assert db_to_linear(-3.0) == pytest.approx(0.501187, rel=1e-5)

    def test_round_trip(self):
        for value in (-40.0, -3.0, 0.0, 7.5, 30.0):
            assert linear_to_db(db_to_linear(value)) == pytest.approx(value)

    def test_linear_to_db_floors_zero(self):
        assert linear_to_db(0.0) == DB_FLOOR

    def test_linear_to_db_floors_negative(self):
        assert linear_to_db(-1.0) == DB_FLOOR

    def test_array_input(self):
        out = linear_to_db(np.array([1.0, 10.0, 100.0]))
        assert np.allclose(out, [0.0, 10.0, 20.0])

    def test_array_with_zeros_floors_only_zeros(self):
        out = linear_to_db(np.array([0.0, 1.0]))
        assert out[0] == DB_FLOOR
        assert out[1] == pytest.approx(0.0)


class TestAbsolutePower:
    def test_one_milliwatt_is_zero_dbm(self):
        assert watts_to_dbm(1e-3) == pytest.approx(0.0)

    def test_one_watt_is_thirty_dbm(self):
        assert watts_to_dbm(1.0) == pytest.approx(30.0)

    def test_dbm_round_trip(self):
        assert dbm_to_watts(watts_to_dbm(2.5e-6)) == pytest.approx(2.5e-6)


class TestPowerCombining:
    def test_sum_of_equal_powers_adds_3db(self):
        assert power_sum_db([0.0, 0.0]) == pytest.approx(3.0103, rel=1e-4)

    def test_sum_dominated_by_strongest(self):
        total = power_sum_db([0.0, -40.0])
        assert total == pytest.approx(0.000434, abs=1e-3)

    def test_sum_of_empty_is_floor(self):
        assert power_sum_db([]) == DB_FLOOR

    def test_average_of_identical_is_identity(self):
        assert power_average_db([-20.0, -20.0, -20.0]) == pytest.approx(-20.0)

    def test_average_is_linear_domain(self):
        # Linear mean of 1 and 0.1 is 0.55 -> -2.596 dB, not -5 dB.
        avg = power_average_db([0.0, -10.0])
        assert avg == pytest.approx(10 * math.log10(0.55), rel=1e-6)

    def test_average_of_empty_raises(self):
        with pytest.raises(ValueError):
            power_average_db([])


class TestPowerSumRows:
    """``power_sum_db_rows`` is ``power_sum_db`` on each row, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(0, 12), terms=st.integers(0, 24), seed=st.integers(0, 2**32 - 1))
    def test_rows_match_one_dimensional_sums(self, rows, terms, seed):
        # Close powers make every term count in the sum, so a change in
        # the order of the additions shows in the last bit.
        values = np.random.default_rng(seed).uniform(-60.0, -50.0, (rows, terms))
        expected = [power_sum_db(row) for row in values.tolist()]
        assert power_sum_db_rows(values).tolist() == expected

    def test_transposed_input_sums_rows(self):
        # A column-major view must still sum each row in 1-D order.
        values = np.random.default_rng(3).uniform(-60.0, -50.0, (16, 40))
        expected = [power_sum_db(row) for row in values]
        assert power_sum_db_rows(np.asfortranarray(values)).tolist() == expected
        assert power_sum_db_rows(values.T.T).tolist() == expected


class TestAmplitudeToDb:
    def test_unity_ratio_is_zero_db(self):
        assert float(amplitude_to_db(1.0)) == 0.0

    def test_factor_ten_is_twenty_db(self):
        assert float(amplitude_to_db(10.0)) == pytest.approx(20.0)

    def test_floors_non_positive(self):
        out = amplitude_to_db([0.0, -1.0, 2.0])
        assert out[0] == DB_FLOOR
        assert out[1] == DB_FLOOR
        assert out[2] == pytest.approx(20 * math.log10(2.0))

    def test_bit_identical_to_inline_numpy_log10(self):
        # Figures and campaign rows are compared bit for bit, so the
        # helper must match the inline 20*np.log10 it replaced exactly.
        rng = np.random.default_rng(7)
        ratios = rng.uniform(1e-6, 1e3, 1000)
        for r in ratios:
            assert float(amplitude_to_db(r)) == float(20.0 * np.log10(r))


class TestLogDistanceLoss:
    def test_matches_inline_grouping_bit_for_bit(self):
        # Must reproduce (10 * n) * log10(d) — the historical operand
        # order — not n * (10 * log10(d)), which can differ by 1 ULP.
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = float(rng.uniform(0.05, 4.0))
            d = float(rng.uniform(1.0001, 200.0))
            assert log_distance_loss_db(n, d) == 10.0 * n * math.log10(d)

    def test_unit_distance_is_zero(self):
        assert log_distance_loss_db(0.5, 1.0) == 0.0

    def test_scales_with_exponent(self):
        assert log_distance_loss_db(2.0, 10.0) == pytest.approx(20.0)
