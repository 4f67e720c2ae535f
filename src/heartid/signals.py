"""The slow-time series type and the blocks shared by every feature branch.

Slow-time radar returns enter as :class:`ComplexSeries`, which checks them:
a nonempty 1-D array of finite samples at a rate whose square is finite,
from a finite start time.  The blocks past that boundary take and return
plain arrays with the rate passed alongside: the unwrapped phase, the
central-difference second derivative, and a rectangular-window STFT whose
magnitudes, frequency axis and frame times feed the filter-bank stage.
Complex input gives a two-sided spectrum, real input (the amplitude |s| or
the phase) a one-sided one.  numpy's FFT runs the STFT, into a
:class:`StftWorkspace` that the caller owns and reuses across calls
(``extract`` keeps one per lane when it runs two) or into fresh arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidParameter, NonFiniteSample, PipelineError


_FINITE_SLAB = 2**16  # floats tested at a time, so no check allocates a mask of its input's size


def find_non_finite(samples: np.ndarray) -> tuple[int, int] | None:
    """(C-order flat index of the first NaN or infinity, how many there are), or None.

    Tests ``_FINITE_SLAB`` floats at a time: slices of contiguous input, bounded
    copies of strided input, complex slabs as their real view (several times faster).
    """
    flat = samples.reshape(-1) if samples.flags.c_contiguous else samples.flat
    step = _FINITE_SLAB // 2 if samples.dtype.kind == "c" else _FINITE_SLAB
    first, count = None, 0
    for start in range(0, samples.size, step):
        slab = flat[start:start + step]
        if np.isfinite(slab.view(slab.real.dtype)).all():
            continue
        finite = np.isfinite(slab)
        if first is None:
            first = start + int(np.argmin(finite))
        count += slab.size - int(np.count_nonzero(finite))
    return None if first is None else (first, count)


def non_finite_sample(where: tuple, value, count: int, size: int) -> NonFiniteSample:
    """The error for a first bad sample ``value`` at index ``where``, ``count`` of ``size`` bad."""
    where = tuple(int(i) for i in where)
    return NonFiniteSample(
        f"non-finite sample at index {where[0] if len(where) == 1 else where} "
        f"({value}); {count} of {size} are not finite"
    )


def check_finite(samples: np.ndarray) -> None:
    """Raise :class:`NonFiniteSample` naming the index of the first NaN or infinity."""
    found = find_non_finite(samples)
    if found is not None:
        where = np.unravel_index(found[0], samples.shape)
        raise non_finite_sample(where, samples[where], found[1], samples.size)


@dataclass(frozen=True)
class ComplexSeries:
    """Uniformly sampled complex baseband signal (I/Q).

    Every sample must be finite: a NaN or infinity raises
    :class:`NonFiniteSample` naming its index, rather than turning into NaN
    features downstream.  So must ``t0``, the time of the first sample.
    """

    samples: np.ndarray
    fs: float
    t0: float = 0.0

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.complex128)
        if samples.ndim != 1 or samples.size == 0:
            raise InvalidParameter("samples must be a nonempty 1-D array")
        # the second derivative scales by fs**2, so the square must be finite too
        if not (0 < self.fs < math.inf and self.fs * self.fs < math.inf):
            raise InvalidParameter(
                f"sampling rate must be positive with a finite square, got {self.fs}")
        # frame times count from t0: where a sample step rounds away, they all coincide
        if not (math.isfinite(self.t0) and self.t0 + 1.0 / self.fs != self.t0):
            raise InvalidParameter(f"t0 must be finite and move by 1/fs, got {self.t0}")
        check_finite(samples)
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.samples.size / self.fs


def second_derivative(a: np.ndarray, fs: float) -> np.ndarray:
    """Central-difference second derivative, endpoints dropped.

    y[n] = (a[n+1] - 2 a[n] + a[n-1]) * fs^2, so the output is two samples
    shorter than the input.  Complex input is differentiated in its real and
    imaginary parts alike and stays complex.
    """
    if a.size < 3:
        raise PipelineError(f"need at least 3 samples, got {a.size}")
    return (a[2:] - 2.0 * a[1:-1] + a[:-2]) * fs**2


def phase_unwrapped(a: np.ndarray) -> np.ndarray:
    """Principal-value phase of complex samples followed by unwrapping.

    Successive differences are brought into (-pi, pi] by adding multiples of
    2*pi; the first output sample is the principal value, so it always lies in
    (-pi, pi].  Raises :class:`PipelineError` where the phase is undefined.
    """
    if np.any(a == 0):
        raise PipelineError("phase undefined: signal contains an exact zero")
    return np.unwrap(np.angle(a))


def _n_samples(seconds: float, fs: float) -> int:
    return int(round(seconds * fs))


@functools.lru_cache(maxsize=16)
def stft_freqs(fs: float, window_len: float, two_sided: bool) -> np.ndarray:
    """Frequency axis (Hz) of ``stft_magnitude`` frames of ``window_len`` seconds.

    Two-sided axes are centered on 0 Hz (complex input); one-sided axes run
    0 ... fs/2 (real input).  The read-only array is shared by every call
    with the same settings.
    """
    n_win = _n_samples(window_len, fs)
    if two_sided:
        freqs = np.fft.fftshift(np.fft.fftfreq(n_win, d=1.0 / fs))
    else:
        freqs = np.fft.rfftfreq(n_win, d=1.0 / fs)
    freqs.flags.writeable = False
    return freqs


def _frame_grid(n: int, fs: float, window_len: float, hop: float) -> tuple[int, int, int]:
    """(frames, window samples, hop samples) of ``stft_magnitude`` on ``n`` samples."""
    if not (math.isfinite(window_len * fs) and math.isfinite(hop * fs)):
        raise InvalidParameter(f"window {window_len} s and hop {hop} s must be finite")
    if hop <= 0:
        raise InvalidParameter(f"hop must be positive, got {hop}")
    n_win = _n_samples(window_len, fs)
    n_hop = min(_n_samples(hop, fs), n)  # past the end there is one frame either way
    if n_hop < 1:
        raise InvalidParameter(f"hop {hop} s is below one sample at fs={fs}")
    if n_win < 2:  # one sample has only the 0-Hz bin, so no side of a spectrum
        raise InvalidParameter(f"window {window_len} s is below two samples at fs={fs}")
    if n_win > n:
        raise PipelineError(
            f"window of {n_win} samples does not fit a signal of {n} samples"
        )
    return (n - n_win) // n_hop + 1, n_win, n_hop


def stft_frames(n: int, fs: float, window_len: float, hop: float) -> tuple[int, int]:
    """(frames, window samples) of ``stft_magnitude`` on ``n`` samples; (0, 0) where it raises."""
    try:
        n_frames, n_win, _ = _frame_grid(n, fs, window_len, hop)
    except PipelineError:
        return 0, 0
    return n_frames, n_win


class StftWorkspace:
    """Buffers that ``stft_magnitude`` and ``mel_energies`` write a spectrogram into.

    ``spectrum`` takes the DFT of every frame and ``modulus`` the magnitudes
    that ``stft_magnitude`` returns; ``mel_energies`` then forms its time
    trapezoid in ``spectrum``, whose transform is dead by then.  A workspace of
    ``size`` holds any spectrogram of up to ``size`` frames x bins (``stft_frames``'
    frames times window samples); for a larger one the call takes fresh arrays.
    The caller owns it: magnitudes written into it are valid until the next
    call that writes into it, so one workspace serves one thread at a time.
    Kept across calls, it also keeps a worker thread from growing its own
    allocator arena with fresh arrays that later commands cannot reuse.
    """

    def __init__(self, size: int):
        self.spectrum = np.empty(size, dtype=np.complex128)
        self.modulus = np.empty(size)


def stft_magnitude(
    a: np.ndarray, fs: float, window_len: float, hop: float, t0: float = 0.0,
    work: StftWorkspace | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Magnitude STFT with a rectangular window and no zero padding, as arrays.

    Returns ``(magnitudes, freqs, frame_times)``: (frame, frequency bin)
    magnitudes on the increasing axis :func:`stft_freqs` and the frame times.
    Frames start at the beginning of the signal and must lie fully inside it,
    giving floor((duration - window_len)/hop) + 1 frames.  The DFT is scaled
    by 1/sqrt(N) so the summed squared magnitudes of a frame's spectrum equal
    the frame's summed squared samples (energy-preserving convention).

    Complex input gives a two-sided spectrum (centered on 0 Hz), real input a
    one-sided one; both are computed in double precision by numpy's FFT,
    whose bits equal ``scipy.fft``'s here.  Frame times are window centers,
    counted from ``t0``, the time of the first sample.  The transform and its
    modulus are written into ``work`` (see :class:`StftWorkspace`), the
    modulus already centered, or into fresh arrays without one.
    """
    n_frames, n_win, n_hop = _frame_grid(a.size, fs, window_len, hop)
    two_sided = np.iscomplexobj(a)
    a = np.asarray(a, dtype=np.complex128 if two_sided else np.float64)
    n_bins = n_win if two_sided else n_win // 2 + 1
    size = n_frames * n_bins
    if work is None or work.modulus.size < size:
        work = StftWorkspace(size)
    spectrum = work.spectrum[:size].reshape(n_frames, n_bins)
    spec = work.modulus[:size].reshape(n_frames, n_bins)

    frames = sliding_window_view(a, n_win)[::n_hop]
    if two_sided:
        np.fft.fft(frames, axis=1, out=spectrum)
        # fftshift as it is written: bins 0 ... n_win - n_win//2 - 1 (0 Hz up) go last
        np.abs(spectrum[:, :n_win - n_win // 2], out=spec[:, n_win // 2:])
        np.abs(spectrum[:, n_win - n_win // 2:], out=spec[:, :n_win // 2])
    else:
        np.fft.rfft(frames, axis=1, out=spectrum)
        np.abs(spectrum, out=spec)
    spec *= 1.0 / math.sqrt(n_win)

    frame_times = t0 + (n_hop * np.arange(n_frames) + 0.5 * n_win) / fs
    return spec, stft_freqs(fs, window_len, two_sided), frame_times
