"""Warped-filter-bank cepstral features for heartbeat identification.

``extract_features`` is the one entry point; it takes a checked
:class:`~heartid.signals.ComplexSeries` and passes plain arrays between the
blocks.  Each branch it runs is one chain of public blocks:
``signals.second_derivative`` of the complex samples, of their modulus or of
their unwrapped phase, ``signals.stft_magnitude`` (three arrays), ``mel_energies`` (a
low-frequency mel-style triangular filter bank, built by ``build_mel_bank``
for the series' sampling rate, applied separately to positive and negative
frequencies, integrated incoherently over the whole measurement) and
``dct2``, truncated to the lowest-order coefficients; the branches' energies
share one ``dct2`` call.  numpy is the only dependency: ``dct2`` is
pocketfft's type-II transform (Makhoul's N-point real FFT) ported step for
step onto numpy's inverse real FFT, so its bits equal ``scipy.fft.dct``'s.
numpy's FFT also runs the STFT, and each branch's magnitudes, with the time
trapezoid's temporary, are written into a
:class:`~heartid.signals.StftWorkspace` that the caller owns and reuses
across calls (``extract`` keeps one per lane when it runs two).  The complex
branch yields the two-sided ``comp`` vector (2K' coefficients); the amplitude and
phase branches are one-sided and yield K' coefficients each.  The fused
``prop`` vector (4K') is one pass over all three branches, concatenated as
[amp, ph, comp].  Every feature vector is a plain 1-D float64 array.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, NonFiniteSample, PipelineError
from .signals import (ComplexSeries, StftWorkspace, phase_unwrapped, second_derivative,
                      stft_magnitude)

FEATURE_KINDS = ("amp", "ph", "comp", "prop")


@dataclass(frozen=True)
class MelBankConfig:
    """Parameters of the warped filter bank.

    ``f_ref`` is the reference frequency that controls the warping (5 Hz here,
    suited to sub-50-Hz heartbeat spectra rather than audio), ``f_prime`` the
    fixed scale constant of the warping curve, and ``n_filters`` the number of
    triangular filters L.  The bank spans 0 Hz to the Nyquist frequency of the
    series it filters, so the sampling rate comes with the series.
    """

    n_filters: int = 64
    f_ref: float = 5.0
    f_prime: float = 1000.0

    def __post_init__(self):
        if self.n_filters < 1:
            raise InvalidParameter(f"need at least one filter, got {self.n_filters}")
        if not all(0 < f < math.inf for f in (self.f_ref, self.f_prime)):
            raise InvalidParameter("frequencies must be positive and finite")


def build_mel_bank(cfg: MelBankConfig, fs: float) -> np.ndarray:
    """The warped filter bank edges f_0 ... f_{L+1} at sampling rate ``fs``, read-only.

    Filter ``ell`` rises on [f_ell, f_{ell+1}) and falls on
    [f_{ell+1}, f_{ell+2}), so L = ``edges.size - 2``.  The warping constant
    is m~ = f' / log(f'/f_ref + 1); the mel points are spaced linearly,
    m_ell = m~ * (ell/(L+1)) * log(1 + fs/(2 f_ref)) for ell = 0 ... L+1, and
    mapped back through f_ell = f_ref * (exp(m_ell/m~) - 1).  The edges must
    rise strictly from f_0 = 0 to the Nyquist frequency fs/2 (within 1e-9
    relative); settings that miss this, or whose warping is flat, raise
    :class:`InvalidParameter`.
    """
    settings = f"f_ref={cfg.f_ref:g}, f_prime={cfg.f_prime:g} and fs={fs:g} Hz"
    if not 0 < fs < math.inf:
        raise InvalidParameter(f"{settings}: the sampling rate must be positive and finite")
    warp = math.log(cfg.f_prime / cfg.f_ref + 1.0)
    if warp == 0.0:
        raise InvalidParameter(f"{settings} give a flat warping (f_prime/f_ref + 1 == 1)")
    scale = cfg.f_prime / warp
    ell = np.arange(cfg.n_filters + 2, dtype=np.float64)
    mels = scale * (ell / (cfg.n_filters + 1)) * math.log(1.0 + fs / (2.0 * cfg.f_ref))
    edges = cfg.f_ref * np.expm1(mels / scale)
    nyq = fs / 2.0
    rising = edges[0] == 0.0 and (np.diff(edges) > 0).all()
    if not (rising and abs(edges[-1] - nyq) <= 1e-9 * nyq):
        raise InvalidParameter(f"{settings} give edges {edges[0]:g} ... {edges[-1]:g} Hz, "
                               f"not rising strictly from 0 to {nyq:g} Hz")
    edges.flags.writeable = False  # cached per settings and shared by every caller
    return edges


def bank_response_matrix(edges: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Every filter response H_ell(f) on a frequency grid, shape (L, len(freqs)).

    H_ell rises linearly on [f_ell, f_{ell+1}), falls on [f_{ell+1}, f_{ell+2})
    and is zero elsewhere; the peak value 2/(f_{ell+2} - f_ell) makes every
    filter integrate to 1.
    """
    c = edges[:, None]
    f_lo, f_mid, f_hi = c[:-2], c[1:-1], c[2:]
    f = np.asarray(freqs, dtype=np.float64)
    return np.where(
        (f >= f_lo) & (f < f_mid),
        2.0 * (f - f_lo) / ((f_mid - f_lo) * (f_hi - f_lo)),
        np.where(
            (f >= f_mid) & (f < f_hi),
            2.0 * (f_hi - f) / ((f_hi - f_mid) * (f_hi - f_lo)),
            0.0,
        ),
    )


def _check_axis(freqs: np.ndarray, nyq: float) -> None:
    if not freqs.size:
        raise PipelineError("frequency axis is empty")
    if not (np.diff(freqs) > 0).all():  # a NaN bin fails this, and passes a test for a fall
        raise PipelineError("frequency axis must be strictly increasing")
    if freqs.max() > nyq * (1 + 1e-9) or freqs.min() < -nyq * (1 + 1e-9):
        raise PipelineError(
            f"frequency axis [{freqs.min():g}, {freqs.max():g}] exceeds the "
            f"bank Nyquist {nyq:g} Hz"
        )
    df = float(np.median(np.diff(freqs))) if freqs.size > 1 else nyq
    if nyq - freqs.max() > 1.5 * df:
        raise PipelineError(
            f"frequency axis stops at {freqs.max():g} Hz, well short of the "
            f"bank Nyquist {nyq:g} Hz"
        )


@functools.lru_cache(maxsize=16)
def _spectral_sides(edges: bytes, freqs: bytes) -> tuple:
    """(mask, grid, filter responses) of each spectral side, positive first.

    Keyed by the bytes of the bank edges and of the frequency axis, so each
    axis is checked against its bank and its responses are built once.  An
    axis that starts below 0 Hz is two-sided: the filters are applied to its
    negative half through H_ell(-f).  An even-length DFT axis carries -fs/2
    without a +fs/2 mirror, so the negative side is restricted to the exact
    mirror of the positive grid: conjugate-symmetric input then yields
    identical energies on both sides.
    """
    edges = np.frombuffer(edges)
    freqs = np.frombuffer(freqs)
    _check_axis(freqs, float(edges[-1]))
    pos_mask = freqs >= 0
    sides = [(pos_mask, freqs[pos_mask], bank_response_matrix(edges, freqs[pos_mask]))]
    if freqs[0] < 0:
        neg_mask = (freqs <= 0) & (freqs >= -freqs.max())
        sides.append(
            (neg_mask, freqs[neg_mask], bank_response_matrix(edges, -freqs[neg_mask]))
        )
    return tuple(sides)


def _time_integral(values: np.ndarray, frame_times: np.ndarray,
                   work: StftWorkspace | None) -> np.ndarray:
    """Trapezoid of each frequency bin over frame time; one frame gives zeros, none raises.

    ``np.trapezoid(values, frame_times, axis=0)``'s operations, in its order,
    with its (frames - 1, bins) temporary formed in place: in ``work.spectrum``
    when that holds it, else in one fresh array.
    """
    n_frames, n_bins = values.shape
    if not n_frames:
        raise PipelineError("frame times are empty")
    if n_frames < 2:
        return np.zeros(n_bins)
    dt = np.diff(frame_times)
    if not (dt > 0).all():  # a NaN time fails this too, rather than give NaN energies
        raise PipelineError("frame times must be strictly increasing")
    size = (n_frames - 1) * n_bins
    fits = work is not None and 2 * work.spectrum.size >= size
    terms = (work.spectrum.view(np.float64)[:size] if fits else np.empty(size)).reshape(-1, n_bins)
    np.add(values[1:], values[:-1], out=terms)
    np.multiply(dt[:, None], terms, out=terms)
    terms *= 0.5  # the bits of trapezoid's / 2.0, at half the cost
    return terms.sum(axis=0)


def mel_energies(values: np.ndarray, freqs: np.ndarray, frame_times: np.ndarray,
                 edges: np.ndarray,
                 work: StftWorkspace | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """Integrate a spectrogram against each filter of the bank ``edges``.

    The spectrogram is ``stft_magnitude``'s triple: ``values`` (frame, bin) on
    the axes ``freqs`` and ``frame_times``, which must rise strictly.
    ``edges`` are f_0 ... f_{L+1} as :func:`build_mel_bank` returns them.
    Both integrals use the trapezoidal rule on the discrete STFT grid, time
    first (trapezoid is linear, so the order is immaterial).  For a two-sided
    spectrogram the filters are applied separately to the positive and
    negative frequency halves (the negative side through H_ell(-f)).

    Returns ``(positive, negative)``: M_{+0} ... M_{+(L-1)} and the mirrored
    M_{-0} ... M_{-(L-1)}, or None for one-sided input.  The zero-indexed
    entries of the two sides are distinct variables, not shared.

    The axis check and the filter responses are cached per bank and
    frequency axis, so only the first spectrogram on an axis pays for them.
    The time trapezoid's temporary goes into ``work``, as the magnitudes did
    (see :class:`~heartid.signals.StftWorkspace`).
    """
    values, freqs, frame_times, edges = (np.asarray(a, dtype=np.float64)
                                         for a in (values, freqs, frame_times, edges))
    if values.shape != (frame_times.size, freqs.size):
        raise PipelineError(f"spectrogram of shape {values.shape} does not match its axes")
    sides = _spectral_sides(edges.tobytes(), freqs.tobytes())
    integral = _time_integral(values, frame_times, work)
    energies = [np.trapezoid(h * integral[mask], grid, axis=1) for mask, grid, h in sides]
    return energies[0], energies[1] if len(energies) == 2 else None


# pocketfft's long double pi literal, at the platform's long double precision
_PI = np.longdouble("3.141592653589793238462643383279502884197")


def _root_of_unity(x: int, n: int, ang: float) -> tuple[float, float]:
    """(cos, sin) of 2 pi x / n through an angle of at most pi / 4, as pocketfft forms it.

    ``ang`` is pi / (4 n): the angle 8 x ``ang`` is mirrored into [0, pi), then
    rotated back from the second quadrant, then taken from whichever of
    cos and sin keeps it within the first octant.
    """
    x *= 8
    lower = x >= 4 * n  # [pi, 2 pi): mirror the angle, negate the sine
    if lower:
        x = 8 * n - x
    second = x >= 2 * n  # [pi / 2, pi): rotate by pi / 2
    if second:
        x -= 2 * n
    if x < n:
        c, s = math.cos(x * ang), math.sin(x * ang)
    else:
        c, s = math.sin((2 * n - x) * ang), math.cos((2 * n - x) * ang)
    if second:
        c, s = -s, c
    return (c, -s) if lower else (c, s)


@functools.lru_cache(maxsize=16)
def _dct2_twiddles(n: int) -> tuple:
    """(mirror, own, sign, middle): the twiddles of ``dct2``'s last step, read-only.

    w[i] = cos(pi (i + 1) / (2 n)) for i < n, with the bits of pocketfft's
    ``sincos_2pibyn(4 n)[i + 1]``: the product of a fine and a coarse root
    from two short tables of :func:`_root_of_unity`, on a long double angle
    rounded to double.  ``cos`` itself misses those bits already at n = 1.

    The arrays run along the spectrum's tail y[1:].  At y[k] below the
    middle, ``mirror`` = w[k - 1] multiplies y[n - k] and ``own`` =
    w[n - k - 1] multiplies y[k]: their sum is pocketfft's t1.  At y[n - k]
    above it, the same twiddles, ``own`` negated, form t2.  ``sign`` is +1
    below and -1 above.  Even n's middle y[n/2] is scaled by ``middle`` =
    w[n/2 - 1] alone; its slot in the three arrays holds 0.
    """
    quad = 4 * n
    ang = float(np.longdouble(0.25) * _PI / quad)
    nval, shift = (quad + 2) // 2, 1
    while (1 << shift) ** 2 < nval:
        shift += 1
    fine = np.array([(1.0, 0.0)] + [_root_of_unity(i, quad, ang) for i in range(1, 1 << shift)])
    coarse = np.array([(1.0, 0.0)] + [_root_of_unity(i << shift, quad, ang)
                                      for i in range(1, (n >> shift) + 1)])
    i = np.arange(1, n + 1)
    f, c = fine[i & ((1 << shift) - 1)], coarse[i >> shift]
    w = f[:, 0] * c[:, 0] - f[:, 1] * c[:, 1]
    pairs = (n - 1) // 2
    below, above = w[:pairs], w[n - 1 - pairs:n - 1][::-1]
    pad = [0.0] if n % 2 == 0 else []
    out = (np.concatenate([below, pad, below[::-1]]),
           np.concatenate([above, pad, -above[::-1]]),
           np.concatenate([np.ones(pairs), pad, -np.ones(pairs)]))
    for a in out:
        a.flags.writeable = False
    return *out, w[n // 2 - 1]


def dct2(m) -> np.ndarray:
    """Unnormalized DCT-II along the last axis: C_k = sum_n m_n cos(pi k (n + 1/2) / N).

    Makhoul's N-point-FFT algorithm, step for step as pocketfft's type-II
    transform runs it, so the bits equal ``scipy.fft.dct(m, type=2) / 2``:
    double m_0 (and m_{N-1} for even N), replace each pair (m_k, m_{k+1}),
    k odd, by (m_k + m_{k+1}, m_{k+1} - m_k), read the result as a
    half-complex spectrum, take numpy's (pocketfft's) unscaled inverse real
    FFT y, and untwist each pair k < N - k with w = :func:`_dct2_twiddles`:
    t1 = w[k-1] y[N-k] + w[N-k-1] y[k], t2 = w[k-1] y[k] - w[N-k-1] y[N-k],
    y[k] = (t1 + t2) / 2 and y[N-k] = (t1 - t2) / 2; even N's y[N/2] is
    scaled by w[N/2 - 1].  The last step halves everything.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.size == 0:
        raise PipelineError("DCT input must be nonempty")
    n = m.shape[-1]
    pairs = (n - 1) // 2
    # the twisted input as half-complex: [2 m_0, 0, m_1 + m_2, m_2 - m_1, ..., (2 m_{N-1}, 0)]
    packed = np.zeros(m.shape[:-1] + (2 * (n // 2 + 1),))
    if n % 2:
        np.multiply(m[..., 0], 2.0, out=packed[..., 0])
    else:
        np.multiply(m[..., ::n - 1], 2.0, out=packed[..., ::n])
    odd, even = m[..., 1:2 * pairs:2], m[..., 2:2 * pairs + 1:2]
    np.add(odd, even, out=packed[..., 2:2 * pairs + 2:2])
    np.subtract(even, odd, out=packed[..., 3:2 * pairs + 3:2])
    y = np.fft.irfft(packed.view(np.complex128), n=n, norm="forward")
    mirror, own, sign, middle = _dct2_twiddles(n)
    tail = y[..., 1:]
    # t1 below the middle, t2 above it; then t1 + t2 below and t1 - t2 above
    t = mirror * tail[..., ::-1]
    t += own * tail
    pair = t * sign
    pair += t[..., ::-1]
    if n % 2 == 0:
        lone = y[..., n // 2] * middle
    np.multiply(pair, 0.5, out=tail)
    if n % 2 == 0:
        y[..., n // 2] = lone
    y *= 0.5
    return y


@functools.lru_cache(maxsize=8)
def _cached_bank(cfg: MelBankConfig, fs: float) -> np.ndarray:
    return build_mel_bank(cfg, fs)


def extract_features(
    s: ComplexSeries,
    cfg: MelBankConfig,
    k_prime: int = 24,
    kind: str = "comp",
    window_len: float = 2.0,
    hop: float = 0.1,
    log_energies: bool = False,
    work: StftWorkspace | None = None,
) -> np.ndarray:
    """One feature vector of a complex slow-time signal, as a 1-D float64 array.

    ``comp`` differentiates the complex signal and keeps both spectral sides:
    the result is ordered [C_{-(K'-1)}, ..., C_{-0}, C_{+0}, ..., C_{+(K'-1)}].
    ``amp`` and ``ph`` differentiate |s| or the unwrapped phase and keep the
    K' lowest-order one-sided coefficients.  ``prop`` runs all three branches
    in one pass and returns [amp, ph, comp].  Any other kind, or K' outside
    0 < K' < L, raises :class:`InvalidParameter`; a vector that overflows
    float64 raises :class:`NonFiniteSample`.

    The DCT is applied to the raw integrated energies by default;
    ``log_energies`` switches to log(M + 1e-12) compression first; the
    energies of every branch go through one DCT call.  Each branch's
    spectrogram is written into ``work``, a
    :class:`~heartid.signals.StftWorkspace` that the caller owns (one per
    thread), or into fresh arrays without one, and no branch's derivative or
    spectrogram is alive while the next branch runs.  The bank comes from a
    per-settings cache, built for the series' rate, and its responses from
    ``mel_energies``' per-axis one.
    """
    if kind not in FEATURE_KINDS:
        raise InvalidParameter(f"kind must be one of {', '.join(FEATURE_KINDS)}, got {kind!r}")
    if not 0 < k_prime < cfg.n_filters:
        raise InvalidParameter(
            f"K'={k_prime} must satisfy 0 < K' < L={cfg.n_filters}"
        )

    edges = _cached_bank(cfg, s.fs)
    energies = []
    # an overflow can only end in a non-finite vector, which the check below rejects
    with np.errstate(over="ignore", invalid="ignore"):
        for branch in ("amp", "ph", "comp") if kind == "prop" else (kind,):
            # frame times: comp's start at its derivative's first sample, amp's and ph's at 0
            t0 = s.t0 + 1.0 / s.fs if branch == "comp" else 0.0
            positive, negative = mel_energies(*stft_magnitude(second_derivative(
                s.samples if branch == "comp"
                else np.abs(s.samples) if branch == "amp" else phase_unwrapped(s.samples),
                s.fs), s.fs, window_len, hop, t0, work), edges, work)
            energies += [positive] if negative is None else [negative, positive]
        energies = np.stack(energies)
        if log_energies:
            energies = np.log(energies + 1e-12)
        parts = list(dct2(energies)[:, :k_prime])
    if kind in ("comp", "prop"):  # [C_-(K'-1) ... C_-0, C_+0 ... C_+(K'-1)]
        parts[-2] = parts[-2][::-1]
    out = np.concatenate(parts)
    if not np.isfinite(out).all():
        raise NonFiniteSample(f"{kind} features overflow float64 at fs={s.fs:g} Hz, "
                              f"window {window_len:g} s, hop {hop:g} s")
    return out
