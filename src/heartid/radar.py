"""FMCW MIMO front end: range FFT, delay-and-sum beamforming, echo selection.

A :class:`DataCube` is indexed (slow time, virtual element, fast time).  The
fast-time DFT turns beat frequency into range (bin spacing c/(2B)).  The mean
delay-and-sum power of every (angle, range) cell of the 12-element virtual
array comes from each range bin's slow-time element covariance, accumulated
over short slow-time blocks so that no full-size transposed or conjugated
copy of the range profiles is formed; steering only the strongest cell
inside a range window yields the slow-time series s(t) that the feature
pipeline consumes.  The device, its angle grid and its range window are
fixed; only the slow-time rate varies between datasets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, PipelineError
from .signals import ComplexSeries, check_finite

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


@dataclass(frozen=True)
class DataCube:
    """Raw dechirped samples, indexed (slow time, virtual element, fast time).

    Every sample must be finite: a NaN or infinity raises
    :class:`NonFiniteSample` naming its (slow, element, fast) index.  A cube
    with no slow-time sample raises :class:`PipelineError`.
    """

    values: np.ndarray
    config: RadarConfig

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        axes = (RadarConfig.n_virtual, RadarConfig.n_fast)
        if values.ndim != 3 or values.shape[1:] != axes:
            raise ValueError(f"cube of shape {values.shape} is not (slow, {axes[0]}, {axes[1]})")
        if values.shape[0] == 0:
            raise PipelineError(f"cube of shape {values.shape} has no slow-time sample")
        check_finite(values)
        object.__setattr__(self, "values", values)

    @property
    def n_slow(self) -> int:
        return self.values.shape[0]

    @property
    def duration(self) -> float:
        return self.n_slow / self.config.fs_slow


def range_profile(cube: DataCube) -> np.ndarray:
    """Per-chirp, per-element fast-time DFT, shape (slow, element, range bin).

    Scaled by 1/sqrt(n_fast) so each chirp's energy is preserved.
    """
    profiles = np.fft.fft(cube.values, axis=2)
    profiles /= np.sqrt(cube.config.n_fast)
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

    ``beamform`` computes the map from the per-range element covariances
    (n_virtual x n_virtual, averaged over slow time), so no steered sample is
    formed for it; :meth:`steered_series` forms only the requested cell's
    slow-time series from the kept range profiles and the grid's weights.
    """

    profiles: np.ndarray
    config: RadarConfig
    power: np.ndarray

    angles_deg = ANGLE_GRID
    weights = steering_weights(ANGLE_GRID)

    def steered_series(self, angle_idx: int, range_idx: int) -> np.ndarray:
        return self.profiles[:, :, range_idx] @ self.weights[angle_idx]


def beamform(profiles: np.ndarray, cfg: RadarConfig) -> BeamformResult:
    """Steer the virtual array over the fixed grid ``ANGLE_GRID``.

    Returns the slow-time-mean power map, shape (n_angles, n_range); the
    result also carries the steering weights needed to reconstruct any
    cell's complex series.  Each range bin's element covariance is summed
    over blocks of ``_COV_BLOCK`` chirps, each copied once into a small
    contiguous (range, element, slow) array for BLAS, then divided by the
    number of chirps.
    """
    n_slow, n_elem, n_range = profiles.shape
    if n_slow == 0:
        raise PipelineError(f"profiles of shape {profiles.shape} have no slow-time sample")
    weights = BeamformResult.weights

    # mean |p_t . w_a|^2 over slow time is w_a^T R_r conj(w_a), R_r = mean_t p_t p_t^H
    cov = np.zeros((n_range, n_elem, n_elem), dtype=np.complex128)
    for s0 in range(0, n_slow, _COV_BLOCK):
        blk = np.ascontiguousarray(profiles[s0:s0 + _COV_BLOCK].transpose(2, 1, 0))
        cov += blk @ blk.conj().transpose(0, 2, 1)
    cov /= n_slow
    power = np.einsum("rai,ai->ar", weights[None] @ cov, weights.conj()).real
    return BeamformResult(profiles, cfg, power)


@dataclass(frozen=True)
class EchoSelection:
    """The chosen echo: its slow-time series and where it came from."""

    series: ComplexSeries
    angle_deg: float
    range_m: float
    power: float
    low_snr: bool


def select_echo(result: BeamformResult) -> EchoSelection:
    """Pick the (angle, range) cell with maximal mean power inside ``RANGE_WINDOW``.

    The returned slow-time series is the s(t) handed to feature extraction.
    If the winning cell's mean power falls below ``LOW_SNR_POWER`` the
    selection is flagged ``low_snr`` (the series is still returned).
    """
    ranges = result.config.range_axis
    lo, hi = RANGE_WINDOW
    bin_idx = np.flatnonzero((ranges >= lo) & (ranges <= hi))
    window_power = result.power[:, bin_idx]
    a, r = np.unravel_index(np.argmax(window_power), window_power.shape)
    range_idx = int(bin_idx[r])
    series = result.steered_series(int(a), range_idx)
    peak = float(window_power[a, r])
    return EchoSelection(
        series=ComplexSeries(series, result.config.fs_slow),
        angle_deg=float(result.angles_deg[a]),
        range_m=float(ranges[range_idx]),
        power=peak,
        low_snr=peak < LOW_SNR_POWER,
    )


def extract_slow_time(cube: DataCube) -> EchoSelection:
    """Full front-end pass: range FFT, beamform, select the target echo."""
    return select_echo(beamform(range_profile(cube), cube.config))
