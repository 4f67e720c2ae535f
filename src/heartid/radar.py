"""FMCW MIMO front end: range FFT, delay-and-sum beamforming, echo selection.

A cube record exists only as its file, indexed (slow time, virtual element,
fast time), which ``dataio.CubeFile`` reads a block of chirps at a time.  The
fast-time DFT, numpy's FFT taken in place on a complex128 copy of each block,
turns beat frequency into range (bin spacing c/(2B)).  One pass over the
cube's blocks takes the range FFT, keeps the bins inside the range window and
adds their slow-time element covariances, which give the mean delay-and-sum
power of every (angle, range) cell of the 12-element virtual array; no whole
cube is read, and no full-cube FFT, copy or steered cube is formed.  Steering
only the strongest cell yields the slow-time series s(t) that the feature
pipeline consumes.  The device, its angle grid and its range window are fixed;
only the slow-time rate varies between datasets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidParameter
from .signals import ComplexSeries

if TYPE_CHECKING:
    from .dataio import CubeFile

C_LIGHT = 299_792_458.0  # speed of light in vacuum, m/s (exact by the SI definition)
ANGLE_GRID = np.arange(-60.0, 60.0 + 1e-9, 1.0)  # beamformer search grid, degrees
RANGE_WINDOW = (0.5, 3.0)  # ranges searched for the target echo, m
LOW_SNR_POWER = 1.0  # mean echo power below which a selection is flagged low_snr
_COV_BLOCK = 64  # slow-time samples per covariance block (32-256 time within ~10%)


@dataclass(frozen=True)
class RadarConfig:
    """The simulated radar, sampled at slow-time rate ``fs_slow``.

    Every dataset uses one device: a 79-GHz FMCW radar with 3.6 GHz bandwidth,
    0.1-ms chirps of 128 fast-time samples and a 12-element half-wavelength
    virtual array.  Its geometry and timing are class constants; only
    ``fs_slow`` is set per instance.
    """

    fs_slow: float = 100.0

    fc = 79.0e9
    bandwidth = 3.6e9
    chirp_duration = 1.0e-4
    n_virtual = 12
    n_fast = 128
    wavelength = C_LIGHT / fc
    element_spacing = wavelength / 2.0
    range_bin_spacing = C_LIGHT / (2.0 * bandwidth)
    max_range = n_fast * range_bin_spacing
    range_axis = np.arange(n_fast) * range_bin_spacing

    def __post_init__(self):
        if not 0 < self.fs_slow < np.inf:
            raise InvalidParameter(f"slow-time rate {self.fs_slow} is not positive and finite")


# the range bins inside RANGE_WINDOW, 13-72 of the device's 128
_WINDOW = slice(int(np.searchsorted(RadarConfig.range_axis, RANGE_WINDOW[0])),
                int(np.searchsorted(RadarConfig.range_axis, RANGE_WINDOW[1], side="right")))


def range_profile(values: np.ndarray) -> np.ndarray:
    """Per-chirp, per-element fast-time DFT of cube samples, shape (slow, element, range bin).

    Computed in place on a complex128 copy by numpy's FFT, scaled by 1/sqrt(n_fast)
    to keep each chirp's energy.
    """
    profiles = np.array(values, dtype=np.complex128)
    np.fft.fft(profiles, axis=2, out=profiles)
    # the values of ``/= sqrt(n_fast)``, which numpy computes as a product with
    # 1/sqrt(n_fast), at an eighth of the cost of its complex division
    profiles.view(np.float64)[...] *= 1.0 / np.sqrt(RadarConfig.n_fast)
    return profiles


def steering_weights(angles_deg: np.ndarray) -> np.ndarray:
    """Delay-and-sum weights, shape (n_angles, n_virtual)."""
    theta = np.radians(np.asarray(angles_deg, dtype=np.float64))
    m = np.arange(RadarConfig.n_virtual)
    phase = -2j * np.pi * (RadarConfig.element_spacing / RadarConfig.wavelength) * np.outer(
        np.sin(theta), m
    )
    return np.exp(phase) / np.sqrt(RadarConfig.n_virtual)


@dataclass(frozen=True)
class BeamformResult:
    """Power map over (angle, range) with on-demand access to steered series.

    Both cover only the range bins inside ``RANGE_WINDOW``: ``profiles`` is
    (slow, element, window bin) and ``power`` is (n_angles, window bin).  The
    map comes from per-range element covariances, so no steered sample is
    formed for it; :meth:`steered_series` forms only the requested cell's
    slow-time series from the kept profiles and the grid's weights.
    """

    profiles: np.ndarray
    config: RadarConfig
    power: np.ndarray

    angles_deg = ANGLE_GRID
    weights = steering_weights(ANGLE_GRID)

    def steered_series(self, angle_idx: int, window_idx: int) -> np.ndarray:
        return self.profiles[:, :, window_idx] @ self.weights[angle_idx]


def beamform(cube: CubeFile) -> BeamformResult:
    """Steer the virtual array over the fixed grid ``ANGLE_GRID`` inside ``RANGE_WINDOW``.

    One pass over the cube file's blocks of ``_COV_BLOCK`` chirps: each
    block's range profile is cut to the window bins and stored, and a
    contiguous (range, element, slow) copy of the cut gives BLAS the per-range
    element covariances, summed over blocks and divided by the number of chirps.
    """
    n_slow, n_elem = cube.n_slow, RadarConfig.n_virtual
    weights = BeamformResult.weights
    profiles = np.empty((n_slow, n_elem, _WINDOW.stop - _WINDOW.start), dtype=np.complex128)

    # mean |p_t . w_a|^2 over slow time is w_a^T R_r conj(w_a), R_r = mean_t p_t p_t^H
    cov = np.zeros((profiles.shape[2], n_elem, n_elem), dtype=np.complex128)
    for i, block in enumerate(cube.blocks(_COV_BLOCK)):
        window = range_profile(block)[:, :, _WINDOW]
        profiles[i * _COV_BLOCK:(i + 1) * _COV_BLOCK] = window
        blk = np.ascontiguousarray(window.transpose(2, 1, 0))
        cov += blk @ blk.conj().transpose(0, 2, 1)
    cov /= n_slow
    power = np.einsum("rai,ai->ar", weights[None] @ cov, weights.conj()).real
    return BeamformResult(profiles, cube.config, power)


@dataclass(frozen=True)
class EchoSelection:
    """The chosen echo: its slow-time series and where it came from."""

    series: ComplexSeries
    angle_deg: float
    range_m: float
    power: float
    low_snr: bool


def select_echo(result: BeamformResult) -> EchoSelection:
    """Pick the (angle, range) cell of maximal mean power; the map covers ``RANGE_WINDOW``.

    The returned slow-time series is the s(t) handed to feature extraction.
    If the winning cell's mean power falls below ``LOW_SNR_POWER`` the
    selection is flagged ``low_snr`` (the series is still returned).
    """
    a, r = np.unravel_index(np.argmax(result.power), result.power.shape)
    peak = float(result.power[a, r])
    return EchoSelection(
        series=ComplexSeries(result.steered_series(int(a), int(r)), result.config.fs_slow),
        angle_deg=float(result.angles_deg[a]),
        range_m=float(result.config.range_axis[_WINDOW][r]),
        power=peak,
        low_snr=peak < LOW_SNR_POWER,
    )


def extract_slow_time(cube: CubeFile) -> EchoSelection:
    """Full front-end pass: range FFT, beamform, select the target echo."""
    return select_echo(beamform(cube))
