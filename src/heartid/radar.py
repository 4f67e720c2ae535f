"""FMCW MIMO front end: range FFT, delay-and-sum beamforming, echo selection.

A cube record exists only as its file, indexed (slow time, virtual element,
fast time), which ``dataio.CubeFile`` reads a block of chirps at a time.  The
fast-time DFT, numpy's orthonormal FFT taken in place on a complex128 copy of
a few chirps, turns beat frequency into range (bin spacing c/(2B)).  The
bins inside the range window are kept, and their slow-time element
covariances give the mean delay-and-sum power of every (angle, range) cell
of the 12-element virtual array; no whole cube is read, and no full-cube
FFT, copy or steered cube is formed.  A record runs in two phases, each
split across the lanes of a :class:`FrontEndWorkspace`: the range FFT by
slow time, then the covariances by range bin, with every bin's block sums
taken in slow-time order, so the result has the same bits on any number of
lanes.  Steering only the strongest cell yields the slow-time series s(t)
that the feature pipeline consumes.  The device, its angle grid and its
range window are fixed; only the slow-time rate varies between datasets.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
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
# Chirps per read and per covariance block (32-256 time within ~10% on one
# lane); a lane's share of a record's chirps starts on a block boundary, so
# that every lane reads and sums the blocks that one lane would.
_COV_BLOCK = 64
_FFT_CHIRPS = 16  # chirps per range FFT, whose complex128 copy stays in cache
_COV_BINS = 30  # window bins per covariance pass of a lane: half the window
# Blocks per record or segment from which beamform runs on all its lanes.
# Two lanes against one, medians of 6-8 alternating fresh-process extracts
# of 12 x 20-s cubes at 100 Hz on 2 CPUs: 32 blocks (whole records) -33%,
# 8 blocks (5-s segments) -18%, 4 blocks (2.5-s segments) -3% for 33% more
# CPU time.
_TWO_LANE_BLOCKS = 8


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


def range_profile(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per-chirp, per-element fast-time DFT of cube samples, shape (slow, element, range bin).

    Computed in place on a complex128 copy, into ``out`` when given, by
    numpy's orthonormal FFT, which keeps each chirp's energy.
    """
    if out is None:
        out = np.array(values, dtype=np.complex128)
    else:
        np.copyto(out, values)
    return np.fft.fft(out, axis=2, norm="ortho", out=out)


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
    ``profiles`` is a view into the :class:`FrontEndWorkspace` that
    :func:`beamform` wrote it into, valid until the next pass into that
    workspace.
    """

    profiles: np.ndarray
    config: RadarConfig
    power: np.ndarray

    angles_deg = ANGLE_GRID
    weights = steering_weights(ANGLE_GRID)

    def steered_series(self, angle_idx: int, window_idx: int) -> np.ndarray:
        return self.profiles[:, :, window_idx] @ self.weights[angle_idx]


class FrontEndWorkspace:
    """Buffers for :func:`beamform` of up to ``n_slow`` chirps on ``width`` lanes.

    ``profiles`` takes a record's window bins, and each lane owns a block
    read buffer, a range-FFT buffer and the covariance operands of
    ``_COV_BINS`` bins.  The calling thread allocates them all, so no lane
    grows an allocator arena of its own.  A result's ``profiles`` is a view
    into the workspace, valid until the next :func:`beamform` into it, so one
    workspace serves one record at a time.
    """

    def __init__(self, n_slow: int, width: int = 1):
        n_elem, n_win = RadarConfig.n_virtual, _WINDOW.stop - _WINDOW.start
        self.profiles = np.empty((n_slow, n_elem, n_win), dtype=np.complex128)
        self.cov = np.empty((n_win, n_elem, n_elem), dtype=np.complex128)
        self.lanes = [_Lane() for _ in range(width)]


class _Lane:
    """One lane's buffers.

    The covariance operands are flat, so that a block's are contiguous at its
    own (bins, element, chirps) shape, however few its chirps.
    """

    def __init__(self):
        n_elem, n_fast = RadarConfig.n_virtual, RadarConfig.n_fast
        self.read = np.empty(_COV_BLOCK * n_elem * n_fast, dtype="<c8")
        self.fft = np.empty((_FFT_CHIRPS, n_elem, n_fast), dtype=np.complex128)
        self.blk = np.empty(_COV_BINS * n_elem * _COV_BLOCK, dtype=np.complex128)
        self.conj = np.empty_like(self.blk)
        self.prod = np.empty((_COV_BINS, n_elem, n_elem), dtype=np.complex128)


def _shares(n: int, width: int, step: int = 1) -> list[tuple[int, int]]:
    """``range(n)`` in up to ``width`` nonempty contiguous shares.

    Each starts on a multiple of ``step``; the first shares take the steps
    that do not divide evenly.
    """
    steps = -(-n // step)
    bounds = [min(n, step * -(-steps * i // width)) for i in range(width + 1)]
    return [(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]


def _on_lanes(pool: ThreadPoolExecutor | None, fn, shares: list[tuple[int, int]]) -> None:
    """``fn(lane, *share)`` for every share at once, the first in the calling thread.

    The first share's error is raised first, then the next share's: the
    error of the earliest failing share.  A raise leaves the pool's threads
    to the caller's ``with``, which waits for them.
    """
    rest = [pool.submit(fn, lane, *share) for lane, share in enumerate(shares[1:], 1)]
    fn(0, *shares[0])
    for future in rest:
        future.result()


def beamform(cube: CubeFile, work: FrontEndWorkspace | None = None) -> BeamformResult:
    """Steer the virtual array over the fixed grid ``ANGLE_GRID`` inside ``RANGE_WINDOW``.

    The slow-time phase splits the chirps across the lanes of ``work`` (a
    one-lane workspace of its own without one, or if it is too small): each
    reads its blocks of ``_COV_BLOCK`` chirps on its own handle and stores
    their range profiles' window bins in ``work.profiles``.  The range phase
    splits the window bins: each lane sums its bins' per-block element
    covariances, a BLAS product of a contiguous (range, element, slow) copy
    of the block, in slow-time order, and the sums are divided by the number
    of chirps.  Records of fewer than ``_TWO_LANE_BLOCKS`` blocks run on one
    lane.  Errors are raised as a one-lane pass raises them: that of the
    earliest chirps first, once every lane has ended.
    """
    n_slow = cube.n_slow
    if work is None or len(work.profiles) < n_slow:
        work = FrontEndWorkspace(n_slow)
    profiles, cov = work.profiles[:n_slow], work.cov
    n_blocks = -(-n_slow // _COV_BLOCK)
    width = len(work.lanes) if n_blocks >= _TWO_LANE_BLOCKS else 1

    def transform(lane: int, start: int, stop: int) -> None:
        buf = work.lanes[lane]
        for s0, block in zip(range(start, stop, _COV_BLOCK),
                             cube.slow_range(start, stop).blocks(_COV_BLOCK, buf.read)):
            for j in range(0, len(block), _FFT_CHIRPS):
                chirps = block[j:j + _FFT_CHIRPS]
                window = range_profile(chirps, buf.fft[:len(chirps)])[:, :, _WINDOW]
                profiles[s0 + j:s0 + j + len(chirps)] = window

    def covariances(lane: int, start: int, stop: int) -> None:
        buf = work.lanes[lane]
        for r0 in range(start, stop, _COV_BINS):
            r1 = min(stop, r0 + _COV_BINS)
            acc = cov[r0:r1]
            acc[...] = 0
            for s0 in range(0, n_slow, _COV_BLOCK):
                window = profiles[s0:s0 + _COV_BLOCK, :, r0:r1].transpose(2, 1, 0)
                size = window.size
                blk = buf.blk[:size].reshape(window.shape)
                conj = buf.conj[:size].reshape(window.shape)
                np.copyto(blk, window)
                np.conjugate(blk, out=conj)
                acc += np.matmul(blk, conj.transpose(0, 2, 1), out=buf.prod[:r1 - r0])

    # mean |p_t . w_a|^2 over slow time is w_a^T R_r conj(w_a), R_r = mean_t p_t p_t^H
    with ThreadPoolExecutor(width - 1) if width > 1 else nullcontext() as pool:
        _on_lanes(pool, transform, _shares(n_slow, width, _COV_BLOCK))
        _on_lanes(pool, covariances, _shares(len(cov), width))
    cov /= n_slow
    weights = BeamformResult.weights
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


def extract_slow_time(cube: CubeFile, work: FrontEndWorkspace | None = None) -> EchoSelection:
    """Full front-end pass: range FFT, beamform, select the target echo."""
    return select_echo(beamform(cube, work))
