"""FMCW MIMO front end: range FFT, delay-and-sum beamforming, echo selection.

A :class:`DataCube` is indexed (slow time, virtual element, fast time).  The
fast-time DFT turns beat frequency into range (bin spacing c/(2B)).  The mean
delay-and-sum power of every (angle, range) cell of the 12-element virtual
array comes from each range bin's slow-time element covariance; steering only
the strongest cell inside a range window yields the slow-time series s(t)
that the feature pipeline consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.constants import c as C_LIGHT

from .errors import DegenerateCube, EmptyGrid, EmptyWindow, InvalidParameter
from .signals import ComplexSeries, check_finite

DEFAULT_ANGLE_GRID = np.arange(-60.0, 60.0 + 1e-9, 1.0)
DEFAULT_RANGE_WINDOW = (0.5, 3.0)
LOW_SNR_POWER = 1.0  # mean echo power below which a selection is flagged low_snr


@dataclass(frozen=True)
class RadarConfig:
    """Geometry and timing of the simulated radar.

    Defaults follow a 79-GHz FMCW device with 3.6 GHz bandwidth, a 12-element
    half-wavelength virtual array, and 100 Hz slow-time sampling.  Wavelength
    and element spacing may be given explicitly but must stay within 0.1% of
    c/fc and lambda/2.
    """

    fc: float = 79.0e9
    bandwidth: float = 3.6e9
    chirp_duration: float = 1.0e-4
    n_virtual: int = 12
    fs_slow: float = 100.0
    n_fast: int = 128
    wavelength: float | None = None
    element_spacing: float | None = None

    def __post_init__(self):
        timing = (self.fc, self.bandwidth, self.chirp_duration, self.fs_slow)
        if not all(0 < v < np.inf for v in timing):
            raise InvalidParameter("all radar parameters must be positive and finite")
        if self.n_virtual < 1 or self.n_fast < 1:
            raise InvalidParameter("element and fast-time counts must be positive")
        lam = C_LIGHT / self.fc
        if self.wavelength is None:
            object.__setattr__(self, "wavelength", lam)
        elif abs(self.wavelength - lam) > 1e-3 * lam:
            raise InvalidParameter(
                f"wavelength {self.wavelength:g} inconsistent with "
                f"c/fc = {lam:g}"
            )
        half = self.wavelength / 2.0
        if self.element_spacing is None:
            object.__setattr__(self, "element_spacing", half)
        elif abs(self.element_spacing - half) > 1e-3 * half:
            raise InvalidParameter(
                f"element spacing {self.element_spacing:g} is not lambda/2"
            )

    @property
    def range_bin_spacing(self) -> float:
        return C_LIGHT / (2.0 * self.bandwidth)

    @property
    def range_axis(self) -> np.ndarray:
        return np.arange(self.n_fast) * self.range_bin_spacing

    @property
    def max_range(self) -> float:
        return self.n_fast * self.range_bin_spacing


@dataclass(frozen=True)
class DataCube:
    """Raw dechirped samples, indexed (slow time, virtual element, fast time).

    Every sample must be finite: a NaN or infinity raises
    :class:`NonFiniteSample` naming its (slow, element, fast) index.  A cube
    with no slow-time sample raises :class:`DegenerateCube`.
    """

    values: np.ndarray
    config: RadarConfig

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        if values.ndim != 3:
            raise ValueError("cube must be 3-D (slow, element, fast)")
        if values.shape[1] != self.config.n_virtual:
            raise ValueError("element axis inconsistent with config")
        if values.shape[2] != self.config.n_fast:
            raise ValueError("fast-time axis inconsistent with config")
        if values.shape[0] == 0:
            raise DegenerateCube(f"cube of shape {values.shape} has no slow-time sample")
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
    if cube.config.n_fast < 2:
        raise DegenerateCube("need at least two fast-time samples")
    return np.fft.fft(cube.values, axis=2) / np.sqrt(cube.config.n_fast)


def steering_weights(cfg: RadarConfig, angles_deg: np.ndarray) -> np.ndarray:
    """Delay-and-sum weights, shape (n_angles, n_virtual)."""
    theta = np.radians(np.asarray(angles_deg, dtype=np.float64))
    m = np.arange(cfg.n_virtual)
    phase = -2j * np.pi * (cfg.element_spacing / cfg.wavelength) * np.outer(
        np.sin(theta), m
    )
    return np.exp(phase) / np.sqrt(cfg.n_virtual)


@dataclass(frozen=True)
class BeamformResult:
    """Power map over (angle, range) with on-demand access to steered series.

    ``beamform`` computes the map from the per-range element covariances
    (n_virtual x n_virtual, averaged over slow time), so no steered sample is
    formed for it; :meth:`steered_series` forms only the requested cell's
    slow-time series from the kept range profiles and weights.
    """

    profiles: np.ndarray
    config: RadarConfig
    angles_deg: np.ndarray
    weights: np.ndarray
    power: np.ndarray

    def steered_series(self, angle_idx: int, range_idx: int) -> np.ndarray:
        return self.profiles[:, :, range_idx] @ self.weights[angle_idx]


def beamform(
    profiles: np.ndarray,
    cfg: RadarConfig,
    angles_deg: np.ndarray | None = None,
) -> BeamformResult:
    """Steer the virtual array over an angle grid.

    Returns the slow-time-mean power map, shape (n_angles, n_range), plus the
    steering weights needed to reconstruct any cell's complex series.
    """
    if angles_deg is None:
        angles_deg = DEFAULT_ANGLE_GRID
    angles_deg = np.asarray(angles_deg, dtype=np.float64)
    if angles_deg.size == 0:
        raise EmptyGrid("angle grid is empty")
    if np.any(np.abs(angles_deg) > 90.0):
        raise EmptyGrid("angles must lie within +/-90 degrees")
    if profiles.shape[0] == 0:
        raise DegenerateCube(f"profiles of shape {profiles.shape} have no slow-time sample")
    weights = steering_weights(cfg, angles_deg)

    # mean |p_t . w_a|^2 over slow time is w_a^T R_r conj(w_a), R_r = mean_t p_t p_t^H
    per_range = np.transpose(profiles, (2, 1, 0))
    cov = per_range @ per_range.conj().transpose(0, 2, 1) / profiles.shape[0]
    power = np.einsum("ai,rij,aj->ar", weights, cov, weights.conj()).real
    return BeamformResult(profiles, cfg, angles_deg, weights, power)


@dataclass(frozen=True)
class EchoSelection:
    """The chosen echo: its slow-time series and where it came from."""

    series: ComplexSeries
    angle_deg: float
    range_m: float
    power: float
    low_snr: bool


def select_echo(
    result: BeamformResult,
    range_window: tuple[float, float] = DEFAULT_RANGE_WINDOW,
) -> EchoSelection:
    """Pick the (angle, range) cell with maximal mean power inside the window.

    The returned slow-time series is the s(t) handed to feature extraction.
    If the winning cell's mean power falls below ``LOW_SNR_POWER`` the
    selection is flagged ``low_snr`` (the series is still returned).
    """
    ranges = result.config.range_axis
    lo, hi = range_window
    mask = (ranges >= lo) & (ranges <= hi)
    if not np.any(mask):
        raise EmptyWindow(
            f"no range bins inside [{lo:g}, {hi:g}] m "
            f"(profile extends to {result.config.max_range:g} m)"
        )
    bin_idx = np.flatnonzero(mask)
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
