"""FMCW MIMO front end: range FFT, delay-and-sum beamforming, echo selection.

A cube record exists only as its file, indexed (slow time, virtual element,
fast time), which ``dataio.CubeFile`` reads a block of chirps at a time.  The
fast-time DFT, numpy's orthonormal FFT taken in place on a complex128 copy of
a few chirps, turns beat frequency into range (bin spacing c/(2B)).  The
bins inside the range window give their slow-time element covariances,
whose map is the mean delay-and-sum power of every (angle, range) cell of
the 12-element virtual array; no whole cube is read, and no full-cube FFT,
copy or steered cube is formed.  A record runs in one pass over its blocks,
split by slow time across the lanes of a :class:`FrontEndWorkspace`: each
block's covariance products are formed while its profiles are in cache, and
only a few candidate bins' profiles are kept.  Every bin's block sums are
taken in slow-time order, so the result has the same bits on any number of
lanes.  Steering only the strongest cell yields the slow-time series s(t)
that the feature pipeline consumes.  The device, its angle grid and its
range window are fixed; only the slow-time rate varies between datasets.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
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
_COV_BINS = 30  # window bins per covariance product: half the window
# Window bins whose profiles a pass keeps: those of most element power (the
# covariance's trace, which bounds the bin's map from above) in its first
# block.  At least 2, so that a kept bin's (slow, element) view is strided.
_CANDIDATES = 4
# Blocks per record or segment from which beamform runs on all its lanes.
# Two lanes against one, medians of 8 alternating fresh-process extracts of
# 12 x 20-s cubes at 100 Hz on 2 CPUs: 32 blocks (whole records) -23% (two
# lanes faster in 7 of 8), 8 blocks (5-s segments) -14% (8 of 8), 4 blocks
# (2.5-s segments) +7% (4 of 8).
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
_N_WIN = _WINDOW.stop - _WINDOW.start


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
    """Power map over (angle, range) and the slow-time profiles of a few range bins.

    ``power`` is (n_angles, window bin) over the range bins inside
    ``RANGE_WINDOW``; it comes from per-range element covariances, so no
    steered sample is formed for it.  ``profiles`` is (slow, element, kept
    bin): the range profiles of the window bins ``bins``, which hold the bin
    of the map's strongest cell.  :meth:`steered_series` forms a kept cell's
    slow-time series from them and the grid's weights.  ``profiles`` is a
    view into the :class:`FrontEndWorkspace` that :func:`beamform` wrote it
    into, valid until the next pass into that workspace.
    """

    profiles: np.ndarray
    bins: np.ndarray
    config: RadarConfig
    power: np.ndarray

    angles_deg = ANGLE_GRID
    weights = steering_weights(ANGLE_GRID)

    def steered_series(self, angle_idx: int, window_idx: int) -> np.ndarray:
        kept = np.flatnonzero(self.bins == window_idx)
        if not kept.size:
            raise InvalidParameter(f"window bin {window_idx} is not one of the kept bins "
                                   f"{self.bins.tolist()}")
        # a strided (slow, element) operand takes numpy's own loop; BLAS's
        # zgemv, which a contiguous one takes, rounds differently
        return self.profiles[:, :, kept[0]] @ self.weights[angle_idx]


class FrontEndWorkspace:
    """Buffers for :func:`beamform` of up to ``n_slow`` chirps on ``width`` lanes.

    ``profiles`` takes a record's ``_CANDIDATES`` kept bins, ``cov`` its
    window bins' covariance sums, and ``products`` the per-block element
    products of the lanes after the first, until they are added in
    slow-time order.  Each lane owns a block read buffer, a range-FFT
    buffer, a block's window bins and their covariance operands.  The
    calling thread allocates them all, so no lane grows an allocator arena
    of its own.  A result's ``profiles`` is a view into the workspace, valid
    until the next :func:`beamform` into it, so one workspace serves one
    record at a time.
    """

    def __init__(self, n_slow: int, width: int = 1):
        n_elem, n_blocks = RadarConfig.n_virtual, -(-n_slow // _COV_BLOCK)
        self.profiles = np.empty((n_slow, n_elem, _CANDIDATES), dtype=np.complex128)
        self.cov = np.empty((_N_WIN, n_elem, n_elem), dtype=np.complex128)
        later = n_blocks - -(-n_blocks // width)  # the blocks after the first lane's share
        self.products = np.empty((later, _N_WIN, n_elem, n_elem), dtype=np.complex128)
        self.lanes = [_Lane() for _ in range(width)]


class _Lane:
    """One lane's buffers.

    A block's window bins are flat, so that they are contiguous at the
    block's own (bin, element, chirp) shape, however few its chirps, and so
    is each covariance operand of ``_COV_BINS`` of them.
    """

    def __init__(self):
        n_elem, n_fast = RadarConfig.n_virtual, RadarConfig.n_fast
        self.read = np.empty(_COV_BLOCK * n_elem * n_fast, dtype="<c8")
        self.fft = np.empty((_FFT_CHIRPS, n_elem, n_fast), dtype=np.complex128)
        self.window = np.empty(_N_WIN * n_elem * _COV_BLOCK, dtype=np.complex128)
        self.conj = np.empty(_COV_BINS * n_elem * _COV_BLOCK, dtype=np.complex128)
        self.prod = np.empty((_N_WIN, n_elem, n_elem), dtype=np.complex128)


def _shares(n: int, width: int, step: int) -> list[tuple[int, int]]:
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


def _window(buf: _Lane, block: np.ndarray) -> np.ndarray:
    """A block's window bins, (bin, element, chirp) in ``buf.window``, ``_FFT_CHIRPS`` per FFT."""
    n = len(block)
    window = buf.window[:_N_WIN * RadarConfig.n_virtual * n].reshape(_N_WIN, -1, n)
    for j in range(0, n, _FFT_CHIRPS):
        chirps = block[j:j + _FFT_CHIRPS]
        spectra = range_profile(chirps, buf.fft[:len(chirps)])
        window[:, :, j:j + len(chirps)] = spectra[:, :, _WINDOW].transpose(2, 1, 0)
    return window


def _products(buf: _Lane, window: np.ndarray, out: np.ndarray) -> None:
    """Each bin's element products over a block's chirps, a BLAS product per ``_COV_BINS`` bins."""
    for r0 in range(0, _N_WIN, _COV_BINS):
        part = window[r0:r0 + _COV_BINS]
        conj = buf.conj[:part.size].reshape(part.shape)
        np.conjugate(part, out=conj)
        np.matmul(part, conj.transpose(0, 2, 1), out=out[r0:r0 + _COV_BINS])


def beamform(cube: CubeFile, work: FrontEndWorkspace | None = None) -> BeamformResult:
    """Steer the virtual array over the fixed grid ``ANGLE_GRID`` inside ``RANGE_WINDOW``.

    One pass over the record's blocks of ``_COV_BLOCK`` chirps, split by
    slow time across the lanes of ``work`` (a one-lane workspace of its own
    without one, or if it is too small); each lane reads its blocks on its
    own handle.  A block's range profiles give its window bins' element
    products, a BLAS product of a contiguous (range, element, slow) copy,
    and the profiles of its ``_CANDIDATES`` kept bins go to
    ``work.profiles``.  The first block picks the kept bins; the other lanes
    wait for them only to copy their first block's.  The first lane adds its
    blocks' products into the covariance sums as it goes and the others
    store theirs, which are added after it, so every bin's sum runs in
    slow-time order; the sums are divided by the number of chirps.  If the
    map's strongest bin was not kept, one more pass over the record's blocks
    keeps it in place of the last candidate, with the same bits.  Records of
    fewer than ``_TWO_LANE_BLOCKS`` blocks run on one lane.  Errors are
    raised as a one-lane pass raises them: that of the earliest chirps
    first, once every lane has ended.
    """
    n_slow = cube.n_slow
    if work is None or len(work.profiles) < n_slow:
        work = FrontEndWorkspace(n_slow)
    kept, cov = work.profiles[:n_slow], work.cov
    width = len(work.lanes) if -(-n_slow // _COV_BLOCK) >= _TWO_LANE_BLOCKS else 1
    shares = _shares(n_slow, width, _COV_BLOCK)
    later = shares[1][0] if len(shares) > 1 else n_slow  # the first chirp of a later lane
    cov[...] = 0
    picked = Future()  # the kept bins; cancelled if the first block fails

    def run(lane: int, start: int, stop: int) -> None:
        buf = work.lanes[lane]
        try:
            for s0, block in zip(range(start, stop, _COV_BLOCK),
                                 cube.slow_range(start, stop).blocks(_COV_BLOCK, buf.read)):
                window = _window(buf, block)
                if lane:
                    _products(buf, window, work.products[(s0 - later) // _COV_BLOCK])
                else:
                    _products(buf, window, buf.prod)
                    np.add(cov, buf.prod, out=cov)
                    if not s0:  # the first block's strongest bins are kept
                        trace = np.einsum("rii->r", cov).real
                        picked.set_result(np.argsort(-trace, kind="stable")[:_CANDIDATES])
                kept[s0:s0 + len(block)] = window[picked.result()].transpose(2, 1, 0)
        finally:
            if not lane:
                picked.cancel()

    with ThreadPoolExecutor(width - 1) if width > 1 else nullcontext() as pool:
        _on_lanes(pool, run, shares)
    for prod in work.products[:-(-(n_slow - later) // _COV_BLOCK)]:
        cov += prod
    cov /= n_slow
    # mean |p_t . w_a|^2 over slow time is w_a^T R_r conj(w_a), R_r = mean_t p_t p_t^H
    weights = BeamformResult.weights
    power = np.einsum("rai,ai->ar", weights[None] @ cov, weights.conj()).real
    bins, r = picked.result(), np.unravel_index(np.argmax(power), power.shape)[1]
    if r not in bins:
        bins[-1] = r
        buf = work.lanes[0]
        for s0, block in zip(range(0, n_slow, _COV_BLOCK), cube.blocks(_COV_BLOCK, buf.read)):
            kept[s0:s0 + len(block), :, -1] = _window(buf, block)[r].T
    return BeamformResult(kept, bins, cube.config, power)


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
