"""Warped-filter-bank cepstral features for heartbeat identification.

The chain implemented here is: second derivative of the slow-time signal,
magnitude STFT, a low-frequency mel-style triangular filter bank applied
separately to positive and negative frequencies, incoherent integration over
the whole measurement, DCT-II, and truncation to the lowest-order
coefficients.  Complex input yields the two-sided ``comp`` vector (2K'
coefficients); the amplitude and phase branches are one-sided and yield K'
coefficients each.  Concatenating all three gives the fused ``prop`` vector.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.fft
from numpy.lib.stride_tricks import sliding_window_view
from scipy.integrate import trapezoid

from .errors import (
    AxisMismatch,
    DimensionMismatch,
    EmptyInput,
    IndexOutOfRange,
    InvalidHop,
    InvalidParameter,
    KindMismatch,
    KPrimeTooLarge,
    SeriesTooShort,
    WindowTooLong,
)
from .signals import (
    ComplexSeries,
    Spectrogram,
    amplitude,
    phase_unwrapped,
    second_difference,
)

FEATURE_KINDS = ("amp", "ph", "comp", "prop")

#: dimension of a feature vector of each kind, as a multiple of K'
_KIND_MULTIPLIER = {"amp": 1, "ph": 1, "comp": 2, "prop": 4}


@dataclass(frozen=True)
class MelBankConfig:
    """Parameters of the warped filter bank.

    ``f_ref`` is the reference frequency that controls the warping (5 Hz here,
    suited to sub-50-Hz heartbeat spectra rather than audio), ``f_prime`` the
    fixed scale constant of the warping curve, and ``n_filters`` the number of
    triangular filters L.
    """

    n_filters: int = 64
    f_ref: float = 5.0
    f_prime: float = 1000.0
    fs: float = 100.0

    def __post_init__(self):
        if self.n_filters < 1:
            raise InvalidParameter(f"need at least one filter, got {self.n_filters}")
        if not all(0 < f < math.inf for f in (self.f_ref, self.f_prime, self.fs)):
            raise InvalidParameter("frequencies must be positive and finite")


@dataclass(frozen=True)
class MelBank:
    """Edge/center frequencies of the L triangular filters.

    ``centers`` holds f_0 ... f_{L+1}; filter ``ell`` rises on
    [f_ell, f_{ell+1}) and falls on [f_{ell+1}, f_{ell+2}).  By construction
    f_0 = 0 and f_{L+1} = fs/2.
    """

    centers: np.ndarray
    mel_points: np.ndarray
    m_tilde: float

    def __post_init__(self):
        centers = np.asarray(self.centers, dtype=np.float64)
        mel_points = np.asarray(self.mel_points, dtype=np.float64)
        if centers.size != mel_points.size or centers.size < 3:
            raise ValueError("need f_0 ... f_{L+1} with L >= 1")
        if np.any(np.diff(centers) <= 0):
            raise ValueError("center frequencies must be strictly increasing")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "mel_points", mel_points)

    @property
    def n_filters(self) -> int:
        return self.centers.size - 2

    @property
    def nyquist(self) -> float:
        return float(self.centers[-1])


@dataclass(frozen=True)
class MelEnergies:
    """Incoherently integrated filter-bank outputs.

    ``positive`` holds M_{+0} ... M_{+(L-1)}; ``negative`` the mirrored
    M_{-0} ... M_{-(L-1)} (None for one-sided input).  The zero-indexed
    entries of the two sides are distinct variables, not shared.
    """

    positive: np.ndarray
    negative: np.ndarray | None

    def __post_init__(self):
        positive = np.asarray(self.positive, dtype=np.float64)
        object.__setattr__(self, "positive", positive)
        if self.negative is not None:
            negative = np.asarray(self.negative, dtype=np.float64)
            if negative.size != positive.size:
                raise ValueError("positive/negative banks differ in size")
            object.__setattr__(self, "negative", negative)


@dataclass(frozen=True)
class FeatureVector:
    """Cepstral feature vector with its branch label.

    Dimension is K' for ``amp``/``ph``, 2K' for ``comp`` and 4K' for the
    fused ``prop`` vector.
    """

    values: np.ndarray
    kind: str
    k_prime: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if self.kind not in FEATURE_KINDS:
            raise ValueError(f"unknown feature kind {self.kind!r}")
        expected = _KIND_MULTIPLIER[self.kind] * self.k_prime
        if values.size != expected:
            raise DimensionMismatch(
                f"kind {self.kind!r} with K'={self.k_prime} needs "
                f"{expected} values, got {values.size}"
            )
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size


def build_mel_bank(cfg: MelBankConfig) -> MelBank:
    """Construct the warped filter bank edges.

    The warping constant is m~ = f' / log(f'/f_ref + 1); the mel points are
    spaced linearly, m_ell = m~ * (ell/(L+1)) * log(1 + fs/(2 f_ref)) for
    ell = 0 ... L+1, and mapped back through
    f_ell = f_ref * (exp(m_ell/m~) - 1).  The top edge lands exactly on the
    Nyquist frequency fs/2.
    """
    m_tilde = cfg.f_prime / math.log(cfg.f_prime / cfg.f_ref + 1.0)
    ell = np.arange(cfg.n_filters + 2, dtype=np.float64)
    mel_points = m_tilde * (ell / (cfg.n_filters + 1)) * math.log(
        1.0 + cfg.fs / (2.0 * cfg.f_ref)
    )
    centers = cfg.f_ref * np.expm1(mel_points / m_tilde)
    return MelBank(centers, mel_points, m_tilde)


def filter_response(bank: MelBank, ell: int, f):
    """Triangular response H_ell(f); accepts a scalar or an array of Hz.

    Rises linearly on [f_ell, f_{ell+1}), falls on [f_{ell+1}, f_{ell+2}),
    zero elsewhere; the peak value 2/(f_{ell+2} - f_ell) makes every filter
    integrate to 1.
    """
    if not 0 <= ell <= bank.n_filters - 1:
        raise IndexOutOfRange(
            f"filter index {ell} outside 0..{bank.n_filters - 1}"
        )
    f_lo, f_mid, f_hi = bank.centers[ell : ell + 3]
    f_arr = np.asarray(f, dtype=np.float64)
    out = np.zeros_like(f_arr)
    rising = (f_arr >= f_lo) & (f_arr < f_mid)
    falling = (f_arr >= f_mid) & (f_arr < f_hi)
    out[rising] = 2.0 * (f_arr[rising] - f_lo) / ((f_mid - f_lo) * (f_hi - f_lo))
    out[falling] = 2.0 * (f_hi - f_arr[falling]) / ((f_hi - f_mid) * (f_hi - f_lo))
    if np.isscalar(f) or np.ndim(f) == 0:
        return float(out)
    return out


def bank_response_matrix(bank: MelBank, freqs: np.ndarray) -> np.ndarray:
    """All filter responses sampled on a frequency grid, shape (L, len(freqs))."""
    return np.stack(
        [filter_response(bank, ell, freqs) for ell in range(bank.n_filters)]
    )


def _check_axis(freqs: np.ndarray, bank: MelBank) -> None:
    nyq = bank.nyquist
    if freqs.max() > nyq * (1 + 1e-9) or freqs.min() < -nyq * (1 + 1e-9):
        raise AxisMismatch(
            f"frequency axis [{freqs.min():g}, {freqs.max():g}] exceeds the "
            f"bank Nyquist {nyq:g} Hz"
        )
    df = float(np.median(np.diff(freqs))) if freqs.size > 1 else nyq
    if nyq - freqs.max() > 1.5 * df:
        raise AxisMismatch(
            f"frequency axis stops at {freqs.max():g} Hz, well short of the "
            f"bank Nyquist {nyq:g} Hz"
        )


def _spectral_sides(bank: MelBank, freqs: np.ndarray, two_sided: bool) -> tuple:
    """(mask, grid, filter responses) of each spectral side, positive first.

    For a two-sided axis the filters are applied to the negative half
    through H_ell(-f).  An even-length DFT axis carries -fs/2 without a +fs/2
    mirror, so the negative side is restricted to the exact mirror of the
    positive grid: conjugate-symmetric input then yields identical energies
    on both sides.
    """
    pos_mask = freqs >= 0
    sides = [(pos_mask, freqs[pos_mask], bank_response_matrix(bank, freqs[pos_mask]))]
    if two_sided:
        neg_mask = (freqs <= 0) & (freqs >= -freqs.max())
        sides.append(
            (neg_mask, freqs[neg_mask], bank_response_matrix(bank, -freqs[neg_mask]))
        )
    return tuple(sides)


def _side_energies(time_integral: np.ndarray, sides: tuple) -> list[np.ndarray]:
    return [trapezoid(h * time_integral[mask], grid, axis=1) for mask, grid, h in sides]


def mel_energies(spec: Spectrogram, bank: MelBank) -> MelEnergies:
    """Integrate the spectrogram against each filter over time and frequency.

    Both integrals use the trapezoidal rule on the discrete STFT grid.  For a
    two-sided spectrogram the filters are applied separately to the positive
    and negative frequency halves (the negative side through H_ell(-f)).
    """
    _check_axis(spec.freqs, bank)
    # Time first (trapezoid is linear, so the order is immaterial).
    if spec.n_frames > 1:
        time_integral = trapezoid(spec.values, spec.frame_times, axis=0)
    else:
        time_integral = np.zeros(spec.freqs.size)
    energies = _side_energies(
        time_integral, _spectral_sides(bank, spec.freqs, spec.two_sided)
    )
    return MelEnergies(energies[0], energies[1] if spec.two_sided else None)


def dct2(m) -> np.ndarray:
    """Unnormalized DCT-II: C_k = sum_n m_n cos(pi k (n + 1/2) / N)."""
    m = np.asarray(m, dtype=np.float64)
    if m.size == 0:
        raise EmptyInput("DCT input must be nonempty")
    # scipy's unnormalized type-II transform is exactly twice this convention.
    return scipy.fft.dct(m, type=2, norm=None) / 2.0


def _compress(energies: np.ndarray, log_energies: bool) -> np.ndarray:
    if log_energies:
        return np.log(energies + 1e-12)
    return energies


@functools.lru_cache(maxsize=8)
def _cached_bank(cfg: MelBankConfig) -> MelBank:
    return build_mel_bank(cfg)


@functools.lru_cache(maxsize=16)
def _cached_sides(cfg: MelBankConfig, fs: float, n_win: int, two_sided: bool) -> tuple:
    """Validated filter responses on the STFT axis of ``n_win``-sample frames."""
    bank = _cached_bank(cfg)
    if two_sided:
        freqs = np.fft.fftshift(np.fft.fftfreq(n_win, d=1.0 / fs))
    else:
        freqs = np.fft.rfftfreq(n_win, d=1.0 / fs)
    _check_axis(freqs, bank)
    sides = _spectral_sides(bank, freqs, two_sided)
    for side in sides:
        for arr in side:
            arr.flags.writeable = False  # shared by every later call
    return sides


def _time_integrals(
    deriv: np.ndarray, fs: float, t0: float, n_win: int, n_hop: int
) -> list[np.ndarray]:
    """|STFT| of each row of ``deriv`` integrated over frame time.

    Same frames, transform, scaling and trapezoid as ``stft_magnitude``
    followed by ``mel_energies``, so the result is bit-identical; the frames
    are a strided view rather than a gathered copy.  Two-sided spectra are
    left in FFT order: the time integral is per bin, so the caller may
    ``fftshift`` the integrated vector instead of the whole spectrogram.
    """
    frames = sliding_window_view(deriv, n_win, axis=-1)[..., ::n_hop, :]
    n_frames = frames.shape[-2]
    if np.iscomplexobj(deriv):
        spectra = scipy.fft.fft(frames, axis=-1)
    else:
        spectra = scipy.fft.rfft(frames, axis=-1)
    mags = np.abs(spectra) * (1.0 / math.sqrt(n_win))
    # a single frame integrates to exact zeros, as in ``mel_energies``
    frame_times = t0 + (n_hop * np.arange(n_frames) + 0.5 * n_win) / fs
    return [trapezoid(m, frame_times, axis=0) for m in mags.reshape(-1, *mags.shape[-2:])]


def _cepstra(
    s: ComplexSeries,
    cfg: MelBankConfig,
    kinds: tuple[str, ...],
    k_prime: int,
    window_len: float,
    hop: float,
    log_energies: bool,
) -> dict[str, FeatureVector]:
    """The requested branch vectors of one signal, computed in one pass.

    The filter bank and its responses come from a per-settings cache; the
    amplitude and phase branches share one real FFT call.
    """
    if not 0 < k_prime < cfg.n_filters:
        raise KPrimeTooLarge(
            f"K'={k_prime} must satisfy 0 < K' < L={cfg.n_filters}"
        )
    if not (math.isfinite(window_len * s.fs) and math.isfinite(hop * s.fs)):
        raise InvalidParameter(f"window {window_len} s and hop {hop} s must be finite")
    n_win = int(round(window_len * s.fs))
    if len(s) < n_win + 2:
        raise SeriesTooShort(
            f"{len(s)} samples cannot host a derivative plus one "
            f"{n_win}-sample window"
        )
    if hop <= 0:
        raise InvalidHop(f"hop must be positive, got {hop}")
    n_hop = int(round(hop * s.fs))
    if n_hop < 1:
        raise InvalidHop(f"hop {hop} s is below one sample at fs={s.fs}")
    if n_win < 1:
        raise WindowTooLong(f"window of {n_win} samples is empty")

    def cepstrum(energies: np.ndarray) -> np.ndarray:
        return dct2(_compress(energies, log_energies))[:k_prime]

    out = {}
    real = [k for k in ("amp", "ph") if k in kinds]
    if real:
        sides = _cached_sides(cfg, s.fs, n_win, False)
        base = np.stack([
            (amplitude(s) if k == "amp" else phase_unwrapped(s)).samples
            for k in real
        ])
        deriv = second_difference(base, s.fs)
        for k, ti in zip(real, _time_integrals(deriv, s.fs, 0.0, n_win, n_hop)):
            (positive,) = _side_energies(ti, sides)
            out[k] = FeatureVector(cepstrum(positive), k, k_prime)
    if "comp" in kinds:
        sides = _cached_sides(cfg, s.fs, n_win, True)
        deriv = second_difference(s.samples, s.fs)
        (ti,) = _time_integrals(deriv, s.fs, s.t0 + 1.0 / s.fs, n_win, n_hop)
        positive, negative = _side_energies(np.fft.fftshift(ti), sides)
        values = np.concatenate([cepstrum(negative)[::-1], cepstrum(positive)])
        out["comp"] = FeatureVector(values, "comp", k_prime)
    return out


def extract_features(
    s: ComplexSeries,
    cfg: MelBankConfig,
    k_prime: int = 24,
    kind: str = "comp",
    window_len: float = 2.0,
    hop: float = 0.1,
    log_energies: bool = False,
) -> FeatureVector:
    """Run one feature branch end to end on a complex slow-time signal.

    ``comp`` differentiates the complex signal and keeps both spectral sides:
    the result is ordered [C_{-(K'-1)}, ..., C_{-0}, C_{+0}, ..., C_{+(K'-1)}].
    ``amp`` and ``ph`` differentiate |s| or the unwrapped phase and keep the
    K' lowest-order one-sided coefficients.

    The DCT is applied to the raw integrated energies by default;
    ``log_energies`` switches to log(M + 1e-12) compression first.  The
    result is bit-identical to chaining ``second_derivative`` (or
    ``complex_second_derivative``), ``stft_magnitude``, ``mel_energies`` and
    ``dct2``.
    """
    if kind not in ("amp", "ph", "comp"):
        raise ValueError(f"kind must be amp/ph/comp, got {kind!r}")
    return _cepstra(s, cfg, (kind,), k_prime, window_len, hop, log_energies)[kind]


def fuse(amp: FeatureVector, ph: FeatureVector, comp: FeatureVector) -> FeatureVector:
    """Concatenate the three branch vectors (amp, ph, comp) into ``prop``."""
    for vec, expected in ((amp, "amp"), (ph, "ph"), (comp, "comp")):
        if vec.kind != expected:
            raise KindMismatch(f"expected kind {expected!r}, got {vec.kind!r}")
    if not amp.k_prime == ph.k_prime == comp.k_prime:
        raise DimensionMismatch("branches disagree on K'")
    values = np.concatenate([amp.values, ph.values, comp.values])
    return FeatureVector(values, "prop", amp.k_prime)


def extract_all(
    s: ComplexSeries,
    cfg: MelBankConfig,
    k_prime: int = 24,
    window_len: float = 2.0,
    hop: float = 0.1,
    log_energies: bool = False,
) -> dict[str, FeatureVector]:
    """All four feature vectors of one signal: ``amp``, ``ph``, ``comp``, ``prop``.

    Each is bit-identical to ``extract_features`` of that kind; ``prop`` is
    their ``fuse``.  The three branches run in one pass over the signal and
    share the cached filter bank and one real FFT call for ``amp``/``ph``.
    """
    out = _cepstra(s, cfg, ("amp", "ph", "comp"), k_prime, window_len, hop, log_energies)
    out["prop"] = fuse(out["amp"], out["ph"], out["comp"])
    return out
