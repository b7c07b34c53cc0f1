"""Phased antenna arrays and horn antennas at 60 GHz.

The paper's central hardware observation is that consumer-grade phased
arrays — a 2x8 Wilocity module in the Dell D5000/E7440 and a 24-element
irregular array in the DVDO Air-3c — produce beams that are directional
but far from the "pencil beam" ideal: side lobes reach -4..-6 dB of the
main lobe in the array's comfort zone and up to -1 dB when steering
toward the boundary of the serviceable area (Section 4.2, Figure 17).

This module computes azimuthal array factors from first principles so
those imperfections *emerge* rather than being painted on:

* few elements  -> wide main lobe (HPBW ~20 degrees for an 8-column array);
* coarse (2-bit) phase shifters -> raised, irregular side lobes;
* steering far off broadside -> beam broadening and grating-lobe
  energy, i.e. the boundary-of-transmission-area degradation;
* per-element amplitude/phase errors -> pattern asymmetry and the deep
  gaps seen in the quasi-omni discovery patterns (Figure 16).

Patterns are represented on a dense azimuth grid by
:class:`AntennaPattern`, which offers the HPBW/side-lobe metrics the
paper reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro import obs
from repro.analysis.dbmath import db_to_linear, db_to_linear_scalar, linear_to_db
from repro.geometry.units import deg_wrap_180

#: Speed of light in vacuum, m/s.
SPEED_OF_LIGHT = 299_792_458.0

#: Default pattern resolution: 1 sample per degree is plenty for lobes
#: that are tens of degrees wide, 0.5 deg leaves margin for HPBW math.
DEFAULT_GRID_POINTS = 720


def wavelength(frequency_hz: float) -> float:
    """Free-space wavelength for a carrier frequency."""
    if frequency_hz <= 0:
        raise ValueError("frequency must be positive")
    return SPEED_OF_LIGHT / frequency_hz


class AntennaPattern:
    """An azimuthal gain pattern, in dBi, sampled on a uniform grid.

    Angles are radians CCW from the array broadside (the device's
    forward direction).  The grid covers ``(-pi, pi]``.
    """

    def __init__(self, azimuths_rad: np.ndarray, gains_dbi: np.ndarray):
        azimuths_rad = np.asarray(azimuths_rad, dtype=float)
        gains_dbi = np.asarray(gains_dbi, dtype=float)
        if azimuths_rad.shape != gains_dbi.shape or azimuths_rad.ndim != 1:
            raise ValueError("azimuth and gain arrays must be 1D with equal shape")
        if azimuths_rad.size < 8:
            raise ValueError("pattern grid too coarse")
        order = np.argsort(azimuths_rad)
        self._az = azimuths_rad[order]
        self._gain = gains_dbi[order]
        # np.interp needs the query inside the grid span; extend the
        # grid by one wrapped point on each side for periodicity.
        # Precomputed here rather than rebuilt on every gain_dbi call.
        two_pi = 2.0 * math.pi
        self._az_ext = np.concatenate((
            [self._az[-1] - two_pi], self._az, [self._az[0] + two_pi],
        ))
        self._gain_ext = np.concatenate(
            ([self._gain[-1]], self._gain, [self._gain[0]])
        )
        # Device units share their patterns process-wide: an in-place
        # write must raise, not corrupt every later device.
        for arr in (self._az, self._gain, self._az_ext, self._gain_ext):
            arr.setflags(write=False)

    @property
    def azimuths(self) -> np.ndarray:
        """Grid angles in radians (sorted ascending)."""
        return self._az.copy()

    @property
    def gains_dbi(self) -> np.ndarray:  # replint: unit=dBi
        """Gain at each grid angle, in dBi."""
        return self._gain.copy()

    def gain_dbi(self, azimuth_rad):  # replint: unit=dBi
        """Gain toward one direction or an array of directions, in dBi.

        Periodic linear interpolation on the stored grid.  A python
        scalar in gives a python float out (bit-identical to the
        historical scalar-only implementation); an ndarray in gives an
        ndarray of the same shape out, interpolated in one vectorized
        ``np.interp`` call.
        """
        if obs.STATE.metrics:
            obs.add("phy.antenna.gain_queries")
        two_pi = 2.0 * math.pi
        if np.ndim(azimuth_rad) == 0:
            az = math.remainder(float(azimuth_rad), two_pi)
            return float(np.interp(az, self._az_ext, self._gain_ext))
        az = np.asarray(azimuth_rad, dtype=float)
        # Wrap into [-pi, pi] with round-half-to-even, matching
        # math.remainder's tie behavior on the scalar path.
        wrapped = az - np.round(az / two_pi) * two_pi
        return np.interp(wrapped, self._az_ext, self._gain_ext)

    def peak(self) -> Tuple[float, float]:
        """Return ``(azimuth_rad, gain_dbi)`` of the strongest direction."""
        idx = int(np.argmax(self._gain))
        return float(self._az[idx]), float(self._gain[idx])

    def peak_gain_dbi(self) -> float:
        """Maximum gain over all directions."""
        return float(np.max(self._gain))

    def normalized_db(self) -> np.ndarray:  # replint: unit=dB
        """Pattern relative to its own peak (0 dB at the main lobe)."""
        return self._gain - self.peak_gain_dbi()

    def half_power_beam_width_deg(self) -> float:
        """Width of the main lobe at the -3 dB points, in degrees.

        Walks outward from the peak until the gain first drops 3 dB on
        each side; the HPBW is the angular span between those
        crossings.  Matches the paper's usage ("HPBW below 20 degree"
        for directional beams, "as wide as 60 degrees" for quasi-omni).
        """
        rel = self.normalized_db()
        n = rel.size
        peak_idx = int(np.argmax(rel))

        def walk(step: int) -> int:
            count = 0
            idx = peak_idx
            while count < n:
                idx = (idx + step) % n
                count += 1
                if rel[idx] <= -3.0:
                    return count
            return n  # never drops 3 dB: effectively omni

        right = walk(+1)
        left = walk(-1)
        span = min(right + left, n)
        grid_step = 2.0 * math.pi / n
        return math.degrees(span * grid_step)

    def side_lobe_level_db(self, main_lobe_margin_deg: float = 0.0) -> float:
        """Strongest side lobe relative to the main lobe, in dB (<= 0).

        The main lobe is excised by walking from the peak to the first
        local minimum on each side (plus an optional extra angular
        margin); the strongest remaining sample is the side-lobe level.
        Figure 17's headline numbers (-4..-6 dB aligned, -1 dB rotated)
        are this statistic.
        """
        rel = self.normalized_db()
        n = rel.size
        peak_idx = int(np.argmax(rel))

        def first_minimum(step: int) -> int:
            idx = peak_idx
            count = 0
            while count < n:
                nxt = (idx + step) % n
                if rel[nxt] > rel[idx]:
                    return count
                idx = nxt
                count += 1
            return n

        grid_step_deg = 360.0 / n
        margin_samples = int(round(main_lobe_margin_deg / grid_step_deg))
        right = first_minimum(+1) + margin_samples
        left = first_minimum(-1) + margin_samples
        if right + left >= n:
            return 0.0  # pattern is a single lobe
        mask = np.ones(n, dtype=bool)
        for offset in range(-left, right + 1):
            mask[(peak_idx + offset) % n] = False
        return float(np.max(rel[mask]))

    def gap_depth_db(self) -> float:
        """Depth of the deepest null relative to the peak, in dB (<= 0).

        Quantifies the "deep gaps that may prevent communication" the
        paper observes in quasi-omni discovery patterns (Figure 16).
        """
        rel = self.normalized_db()
        return float(np.min(rel))

    def rotated(self, radians: float) -> "AntennaPattern":
        """Pattern of the same antenna physically rotated CCW."""
        two_pi = 2.0 * math.pi
        az = self._az + radians
        az = np.mod(az + math.pi, two_pi) - math.pi
        return AntennaPattern(az, self._gain.copy())

    @staticmethod
    def isotropic(gain_dbi: float = 0.0, points: int = DEFAULT_GRID_POINTS) -> "AntennaPattern":
        """Uniform pattern with the given gain (a theoretical reference)."""
        az = _grid(points)
        return AntennaPattern(az, np.full(points, float(gain_dbi)))


def _grid(points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Uniform azimuth grid over (-pi, pi]."""
    return np.linspace(-math.pi, math.pi, points, endpoint=False)


def _element_gain_db(azimuths: np.ndarray, broadside_gain_dbi: float = 5.0) -> np.ndarray:
    """Embedded element pattern of a patch-like radiator.

    Consumer 60 GHz modules use microstrip patch elements that radiate
    into the forward half-space.  We model the element power pattern as
    ``cos^2`` of the off-broadside angle in front, with a -15 dB
    back-plane floor behind — enough rear leakage to match the small
    but visible back lobes in the paper's measured patterns.
    """
    cos_az = np.cos(azimuths)
    forward = np.maximum(cos_az, 0.0)
    gain_lin = forward ** 2
    floor = db_to_linear_scalar(-15.0)
    gain_lin = np.maximum(gain_lin, floor)
    return broadside_gain_dbi + linear_to_db(gain_lin)


@dataclass(frozen=True)
class PhaseShifterModel:
    """Quantization behavior of the per-element phase shifters.

    ``bits = None`` means ideal continuous phase control.  Consumer
    hardware uses 2-4 bit shifters; coarser quantization raises side
    lobes, which is exactly the cost-effective-design effect the paper
    measures.
    """

    bits: Optional[int] = 2

    def quantize(self, phases_rad: np.ndarray) -> np.ndarray:
        """Snap ideal phases to the nearest realizable setting."""
        if self.bits is None:
            return phases_rad
        if self.bits < 1:
            raise ValueError("phase shifter needs at least 1 bit")
        levels = 2 ** self.bits
        step = 2.0 * math.pi / levels
        return np.round(phases_rad / step) * step


class PhasedArray:
    """A planar phased array evaluated in the azimuthal plane.

    Element positions are 2D coordinates (in meters) in the array
    plane; the azimuthal cut uses the x-coordinate (the axis along
    which steering happens) for the path-length differences, which is
    the standard reduction for azimuth-only analysis of a rectangular
    panel mounted vertically.

    Args:
        element_positions_m: ``(N, 2)`` array of element coordinates.
        frequency_hz: Carrier frequency (60.48e9 or 62.64e9 for the
            devices under test).
        phase_shifter: Quantization model for the beamforming weights.
        element_gain_dbi: Broadside gain of a single embedded element.
        amplitude_error_std_db: Per-element gain error (1-sigma, dB).
        phase_error_std_rad: Per-element static phase error (1-sigma).
        scatter_level_db: Level of the device's enclosure-scattering
            clutter relative to a broadside-steered main lobe.  Feed
            network leakage, mutual coupling, and reflections off the
            device housing radiate a quasi-random wide-angle field
            that dominates the side-lobe floor of consumer devices.
            Because this clutter does *not* follow the element
            pattern's roll-off, steering toward the sector boundary
            (where the coherent lobe loses element gain) raises the
            relative side-lobe level — the paper's Figure 17 "rotated"
            effect emerges from this single mechanism.
        rng: Source of randomness for the per-element errors and the
            clutter field.  Device models pass a seeded generator so
            each simulated unit has a stable pattern "personality".
    """

    def __init__(
        self,
        element_positions_m: np.ndarray,
        frequency_hz: float,
        phase_shifter: PhaseShifterModel = PhaseShifterModel(bits=2),
        element_gain_dbi: float = 5.0,
        amplitude_error_std_db: float = 0.5,
        phase_error_std_rad: float = 0.15,
        scatter_level_db: float = -4.5,
        rng: Optional[np.random.Generator] = None,
    ):
        positions = np.array(element_positions_m, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2 or positions.shape[0] < 1:
            raise ValueError("element_positions_m must have shape (N, 2), N >= 1")
        self._positions = positions
        self._freq = float(frequency_hz)
        self._lambda = wavelength(self._freq)
        self._shifter = phase_shifter
        self._element_gain_dbi = float(element_gain_dbi)
        rng = rng if rng is not None else np.random.default_rng(0)
        n = positions.shape[0]
        self._amp_errors_db = rng.normal(0.0, amplitude_error_std_db, size=n)
        self._phase_errors = rng.normal(0.0, phase_error_std_rad, size=n)
        self._scatter_level_db = float(scatter_level_db)
        self._clutter_shape = self._make_clutter_shape(rng)
        # Read-only for the same reason as AntennaPattern's arrays.
        for arr in (self._positions, self._amp_errors_db, self._phase_errors,
                    self._clutter_shape):
            arr.setflags(write=False)

    @staticmethod
    def _make_clutter_shape(
        rng: np.random.Generator,
        points: int = DEFAULT_GRID_POINTS,
        smoothing_deg: float = 6.0,
    ) -> np.ndarray:
        """Device-specific clutter field shape with unit RMS power.

        A circularly smoothed complex Gaussian process over azimuth:
        lobe-like structure on the scale of ``smoothing_deg`` rather
        than per-sample speckle, matching the measured side-lobe
        texture.
        """
        raw = rng.normal(size=points) + 1j * rng.normal(size=points)
        sigma_samples = smoothing_deg / (360.0 / points)
        half = int(4 * sigma_samples)
        kernel = np.exp(-0.5 * ((np.arange(-half, half + 1)) / sigma_samples) ** 2)
        kernel /= kernel.sum()
        smooth = np.convolve(np.concatenate([raw[-half:], raw, raw[:half]]), kernel, mode="same")[
            half:-half
        ]
        peak = np.max(np.abs(smooth))
        return smooth / peak

    def _clutter_power_lin(
        self, amplitudes: np.ndarray, phases_rad: np.ndarray, points: int
    ) -> np.ndarray:
        """Linear-gain clutter contribution on a ``points`` grid.

        The clutter level is referenced to the broadside-steered
        coherent peak of the active amplitude taper, so
        ``scatter_level_db`` directly bounds the strongest clutter
        side lobe of an aligned beam.  Clutter rolls off with only
        *half* the element pattern's dB slope (enclosure scattering
        partially escapes the element directivity), so boundary-steered
        beams — whose coherent lobe pays the full element roll-off —
        see relatively stronger side lobes.
        """
        total_amp = float(np.sum(np.abs(amplitudes)))
        if total_amp <= 0:
            return np.zeros(points)
        peak_gain = total_amp**2 / self.num_elements
        elem_broadside = db_to_linear_scalar(self._element_gain_dbi)
        scale = peak_gain * elem_broadside * db_to_linear_scalar(self._scatter_level_db)
        shape_power = np.abs(self._clutter_shape) ** 2
        # The scattered field depends on the excitation: different
        # beamforming weights illuminate the enclosure differently, so
        # each codebook entry gets its own (statistically identical)
        # clutter arrangement.  Derive a deterministic circular shift
        # of the device's clutter shape from the weight vector — this
        # is what makes a beam realignment move the side lobes (and
        # hence the amplitude an external observer sees, Figure 14).
        key = float(np.dot(phases_rad, np.arange(1, phases_rad.size + 1)))
        key += float(np.dot(amplitudes, np.arange(2, amplitudes.size + 2)))
        # Bounded shift (about +-15 degrees): neighboring beams share
        # the gross clutter structure but differ enough for an outside
        # observer to see the change.
        span = max(1, shape_power.size // 24)
        shift = int(abs(key) * 997.0) % (2 * span + 1) - span
        shape_power = np.roll(shape_power, shift)
        if points != shape_power.size:
            x_src = np.linspace(0.0, 1.0, shape_power.size, endpoint=False)
            x_dst = np.linspace(0.0, 1.0, points, endpoint=False)
            shape_power = np.interp(x_dst, x_src, shape_power, period=1.0)
        az = _grid(points)
        elem_rolloff = db_to_linear(
            0.5 * (_element_gain_db(az, self._element_gain_dbi) - self._element_gain_dbi)
        )
        return scale * shape_power * elem_rolloff

    @property
    def num_elements(self) -> int:
        return int(self._positions.shape[0])

    @property
    def frequency_hz(self) -> float:
        return self._freq

    @property
    def wavelength_m(self) -> float:
        return self._lambda

    @property
    def element_positions(self) -> np.ndarray:
        return self._positions.copy()

    def steering_phases(self, azimuth_rad: float) -> np.ndarray:
        """Ideal per-element phases that focus the beam at ``azimuth_rad``."""
        k = 2.0 * math.pi / self._lambda
        x = self._positions[:, 0]
        return -k * x * math.sin(azimuth_rad)

    def pattern_for_weights(
        self,
        phases_rad: np.ndarray,
        amplitudes: Optional[np.ndarray] = None,
        points: int = DEFAULT_GRID_POINTS,
    ) -> AntennaPattern:
        """Radiated azimuth pattern for explicit beamforming weights.

        The applied phases pass through the phase-shifter quantizer and
        the static per-element phase errors; amplitudes (default
        uniform) pick up the per-element gain errors.  The pattern is
        normalized so that a perfectly coherent array of N ideal
        elements would have peak gain ``element_gain + 10*log10(N)``.
        """
        if obs.STATE.metrics:
            obs.add("phy.antenna.pattern_syntheses")
        phases = np.asarray(phases_rad, dtype=float)
        if phases.shape != (self.num_elements,):
            raise ValueError(
                f"expected {self.num_elements} phases, got shape {phases.shape}"
            )
        applied = self._shifter.quantize(phases) + self._phase_errors
        if amplitudes is None:
            amplitudes = np.ones(self.num_elements)
        else:
            amplitudes = np.asarray(amplitudes, dtype=float)
            if amplitudes.shape != (self.num_elements,):
                raise ValueError("amplitude vector has wrong shape")
        amplitudes = amplitudes * np.power(10.0, self._amp_errors_db / 20.0)

        az = _grid(points)
        k = 2.0 * math.pi / self._lambda
        # Propagation phase toward each azimuth for each element.
        geometry = np.outer(np.sin(az), self._positions[:, 0])  # (points, N)
        phase_matrix = k * geometry + applied[np.newaxis, :]
        field = (amplitudes[np.newaxis, :] * np.exp(1j * phase_matrix)).sum(axis=1)
        # Normalize: coherent sum of N unit amplitudes -> gain 10log10(N).
        array_gain_lin = np.abs(field) ** 2 / self.num_elements
        element_gain_lin = db_to_linear(_element_gain_db(az, self._element_gain_dbi))
        total_lin = array_gain_lin * element_gain_lin + self._clutter_power_lin(
            amplitudes, applied, points
        )
        return AntennaPattern(az, linear_to_db(total_lin))

    def steered_pattern(self, azimuth_rad: float, points: int = DEFAULT_GRID_POINTS) -> AntennaPattern:
        """Pattern when the codebook steers the main lobe to an azimuth."""
        return self.pattern_for_weights(self.steering_phases(azimuth_rad), points=points)

    def quasi_omni_pattern(
        self,
        seed: int,
        points: int = DEFAULT_GRID_POINTS,
        subarray_size: Optional[int] = None,
    ) -> AntennaPattern:
        """A wide discovery pattern from a small active subarray.

        Quasi-omni patterns are realized by activating only a compact
        cluster of elements (a small aperture radiates a wide beam)
        with coarse random phases that tilt and distort the lobe.  The
        result matches Figure 16: half-power widths of tens of degrees
        with deep gaps at specific angles.  ``seed`` indexes the
        pattern so a device's 32-entry discovery sweep is
        deterministic.
        """
        rng = np.random.default_rng(seed)
        n = self.num_elements
        if subarray_size is None:
            subarray_size = max(2, min(4, n))
        if not 1 <= subarray_size <= n:
            raise ValueError("subarray size out of range")
        # Pick a random anchor element and its nearest neighbors: a
        # spatially contiguous cluster keeps the aperture small.
        anchor = int(rng.integers(0, n))
        d2 = np.sum((self._positions - self._positions[anchor]) ** 2, axis=1)
        chosen = np.argsort(d2)[:subarray_size]
        amplitudes = np.zeros(n)
        amplitudes[chosen] = 1.0
        phases = rng.uniform(0.0, 2.0 * math.pi, size=n)
        return self.pattern_for_weights(phases, amplitudes=amplitudes, points=points)


class UniformLinearArray(PhasedArray):
    """N elements on a line at half-wavelength spacing (by default)."""

    def __init__(
        self,
        num_elements: int,
        frequency_hz: float,
        spacing_wavelengths: float = 0.5,
        **kwargs,
    ):
        if num_elements < 1:
            raise ValueError("need at least one element")
        lam = wavelength(frequency_hz)
        d = spacing_wavelengths * lam
        x = (np.arange(num_elements) - (num_elements - 1) / 2.0) * d
        positions = np.column_stack([x, np.zeros(num_elements)])
        super().__init__(positions, frequency_hz, **kwargs)


class UniformRectangularArray(PhasedArray):
    """A rows-by-columns rectangular panel (e.g. the Wilocity 2x8).

    In the azimuthal cut, rows stack in the elevation axis and
    contribute gain but not azimuth shaping; columns set the azimuth
    beam width.  The element x-positions repeat per row accordingly.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        frequency_hz: float,
        spacing_wavelengths: float = 0.5,
        **kwargs,
    ):
        if rows < 1 or cols < 1:
            raise ValueError("rows and cols must be >= 1")
        lam = wavelength(frequency_hz)
        d = spacing_wavelengths * lam
        xs = (np.arange(cols) - (cols - 1) / 2.0) * d
        ys = (np.arange(rows) - (rows - 1) / 2.0) * d
        grid_x, grid_y = np.meshgrid(xs, ys)
        positions = np.column_stack([grid_x.ravel(), grid_y.ravel()])
        super().__init__(positions, frequency_hz, **kwargs)
        self.rows = rows
        self.cols = cols


class IrregularPlanarArray(PhasedArray):
    """An array with irregularly placed elements in a rectangular outline.

    The DVDO Air-3c teardown revealed "a 24 element antenna array with
    irregular alignment in rectangular shape".  Irregular placement
    trades clean side-lobe structure for wider, smoother coverage —
    matching the paper's observation that the WiHD system radiates a
    much wider pattern than the D5000.
    """

    def __init__(
        self,
        num_elements: int,
        frequency_hz: float,
        extent_wavelengths: Tuple[float, float] = (3.0, 2.0),
        placement_seed: int = 7,
        **kwargs,
    ):
        if num_elements < 1:
            raise ValueError("need at least one element")
        lam = wavelength(frequency_hz)
        rng = np.random.default_rng(placement_seed)
        half_x = extent_wavelengths[0] * lam / 2.0
        half_y = extent_wavelengths[1] * lam / 2.0
        x = rng.uniform(-half_x, half_x, size=num_elements)
        y = rng.uniform(-half_y, half_y, size=num_elements)
        positions = np.column_stack([x, y])
        super().__init__(positions, frequency_hz, **kwargs)


class HornAntenna:
    """A fixed-pattern horn antenna, Gaussian main lobe in dB domain.

    The Vubiq measurement rig uses a 25 dBi horn for beam-pattern and
    angular-profile measurements and the open waveguide (~6 dBi, very
    wide) for protocol overhearing.  The Gaussian-lobe model ties gain
    and HPBW together via the standard directivity approximation
    ``G ~ 41000 / (HPBW_az * HPBW_el)`` (degrees).
    """

    def __init__(self, gain_dbi: float, hpbw_deg: Optional[float] = None, floor_db: float = -40.0):
        self._gain = float(gain_dbi)
        if hpbw_deg is None:
            # Assume equal az/el beam widths for the directivity estimate.
            hpbw_deg = math.sqrt(41_000.0 / db_to_linear_scalar(self._gain))
        if hpbw_deg <= 0:
            raise ValueError("HPBW must be positive")
        self._hpbw = float(hpbw_deg)
        self._floor = float(floor_db)

    @property
    def gain_dbi(self) -> float:
        return self._gain

    @property
    def hpbw_deg(self) -> float:
        return self._hpbw

    def pattern(self, points: int = DEFAULT_GRID_POINTS) -> AntennaPattern:
        """Sampled azimuth pattern of the horn, boresight at 0 rad."""
        az = _grid(points)
        az_deg = np.degrees(az)
        rel = -3.0 * (2.0 * az_deg / self._hpbw) ** 2
        rel = np.maximum(rel, self._floor)
        return AntennaPattern(az, self._gain + rel)

    def gain_toward(self, off_boresight_rad: float) -> float:  # replint: unit=dBi
        """Gain (dBi) toward a direction off the horn's boresight."""
        # Wrap into [0, 180]: the horn is symmetric in azimuth.
        off_deg = abs(deg_wrap_180(math.degrees(off_boresight_rad)))
        rel = -3.0 * (2.0 * off_deg / self._hpbw) ** 2
        return self._gain + max(rel, self._floor)


def open_waveguide() -> HornAntenna:
    """The Vubiq open waveguide: low gain, very wide acceptance."""
    return HornAntenna(gain_dbi=6.0, hpbw_deg=90.0, floor_db=-25.0)


def standard_horn_25dbi() -> HornAntenna:
    """The 25 dBi measurement horn used for pattern analysis."""
    return HornAntenna(gain_dbi=25.0)
