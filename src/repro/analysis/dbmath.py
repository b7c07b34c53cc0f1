"""Decibel arithmetic helpers.

All antenna gains, path losses, and signal strengths in the toolkit are
carried in dB (or dBm for absolute power).  Mixing linear and log-domain
math by hand is a classic source of subtle bugs in link-budget code, so
every conversion goes through the functions in this module.
"""

from __future__ import annotations

import math
from typing import Iterable, Union

import numpy as np

ArrayLike = Union[float, np.ndarray, Iterable[float]]

#: Floor used when converting zero linear power to dB, to avoid -inf
#: propagating through downstream averaging.  -300 dB is far below any
#: physically meaningful value in this toolkit.
DB_FLOOR = -300.0


def db_to_linear(value_db: ArrayLike) -> np.ndarray:
    """Convert a dB quantity to its linear power ratio (10^(x/10))."""
    return np.power(10.0, np.asarray(value_db, dtype=float) / 10.0)


# Alias that reads better when the argument is explicitly a power ratio.
db_to_power_ratio = db_to_linear


def linear_to_db(value: ArrayLike) -> np.ndarray:
    """Convert a linear power ratio to dB, flooring non-positive input.

    Zero (or negative, from numerical noise) power maps to
    :data:`DB_FLOOR` rather than raising or producing ``-inf``.
    """
    arr = np.asarray(value, dtype=float)
    out = np.full_like(arr, DB_FLOOR, dtype=float)
    positive = arr > 0
    np.log10(arr, out=out, where=positive)
    out[positive] *= 10.0
    return out


def db_to_linear_scalar(value_db: float) -> float:
    """Scalar fast path of :func:`db_to_linear` for DES hot loops.

    Uses :mod:`math` rather than numpy: bit-identical to the inline
    ``10.0 ** (x / 10.0)`` it replaces, with no array round-trip.  (The
    numpy and libm ``log10``/``pow`` implementations differ by an ULP
    on a small fraction of inputs, so the scalar and array variants
    are each bit-stable but not interchangeable at the last bit.)
    """
    return 10.0 ** (value_db / 10.0)


def linear_to_db_scalar(value: float) -> float:
    """Scalar fast path of :func:`linear_to_db`.

    Applies the same :data:`DB_FLOOR` guard: non-positive linear power
    maps to the floor instead of raising or returning ``-inf``.
    """
    if value <= 0.0:
        return DB_FLOOR
    return 10.0 * math.log10(value)


def db_to_amplitude_scalar(value_db: float) -> float:
    """dB to amplitude (voltage) ratio: ``10^(x/20)``, scalar."""
    return 10.0 ** (value_db / 20.0)


def amplitude_to_db_scalar(ratio: float) -> float:
    """Amplitude (voltage) ratio to dB: ``20 log10(r)``, scalar.

    Non-positive ratios map to :data:`DB_FLOOR`, mirroring
    :func:`linear_to_db_scalar`.
    """
    if ratio <= 0.0:
        return DB_FLOOR
    return 20.0 * math.log10(ratio)


def amplitude_to_db(ratio: ArrayLike) -> np.ndarray:
    """Amplitude (voltage) ratio to dB: ``20 log10(r)``, array variant.

    Non-positive ratios map to :data:`DB_FLOOR`.  Uses numpy's
    ``log10`` (not :mod:`math`), so it is bit-identical to the inline
    ``20.0 * np.log10(r)`` it replaces — see the note on
    :func:`db_to_linear_scalar` about the two implementations not
    being interchangeable at the last bit.
    """
    arr = np.asarray(ratio, dtype=float)
    out = np.full_like(arr, DB_FLOOR, dtype=float)
    positive = arr > 0
    np.log10(arr, out=out, where=positive)
    out[positive] *= 20.0
    return out


def log_distance_loss_db(excess_exponent: float, distance: float) -> float:
    """Excess log-distance path-loss term ``10 * n * log10(d)`` in dB.

    Evaluated with the grouping ``(10 * n) * log10(d)``.  Float
    multiplication is non-associative and the committed figures and
    campaign rows are compared bit for bit, so the historical operand
    order is part of this function's contract — do not regroup it.
    ``distance`` must be positive (it is a physical distance in
    metres); no :data:`DB_FLOOR` guard is applied.
    """
    return 10.0 * excess_exponent * math.log10(distance)


def watts_to_dbm(power_watts: ArrayLike) -> np.ndarray:
    """Convert absolute power in watts to dBm."""
    return linear_to_db(np.asarray(power_watts, dtype=float) * 1e3)


def dbm_to_watts(power_dbm: ArrayLike) -> np.ndarray:
    """Convert absolute power in dBm to watts."""
    return db_to_linear(power_dbm) * 1e-3


def power_sum_db(values_db: Iterable[float]) -> float:
    """Sum powers expressed in dB, returning the total in dB.

    Used to combine multipath components arriving from the same
    direction: powers add in the linear domain.
    """
    values = np.asarray(list(values_db), dtype=float)
    if values.size == 0:
        return DB_FLOOR
    return float(linear_to_db(np.sum(db_to_linear(values))))


def power_sum_db_rows(values_db: ArrayLike) -> np.ndarray:
    """:func:`power_sum_db` of each row of a 2-D array, bit-equal to it.

    The sum runs along a C-contiguous last axis, so numpy adds each row
    in the same (pairwise) order as the 1-D sum of :func:`power_sum_db`.
    A reduction over the first axis adds in another order, which can
    differ in the last bit once numpy's pairwise summation starts (eight
    terms on numpy 2.x).
    """
    values = np.ascontiguousarray(values_db, dtype=float)
    return linear_to_db(np.sum(db_to_linear(values), axis=-1))


def power_average_db(values_db: Iterable[float]) -> float:
    """Average powers expressed in dB (linear-domain mean, back to dB).

    This is how the paper averages the received signal strength of
    filtered data frames over the one-minute capture window at each
    measurement position (Section 3.2).
    """
    values = np.asarray(list(values_db), dtype=float)
    if values.size == 0:
        raise ValueError("cannot average an empty set of powers")
    return float(linear_to_db(np.mean(db_to_linear(values))))
