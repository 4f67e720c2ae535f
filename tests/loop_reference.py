"""Loop-by-loop references for the batched hot paths in heartid.

Each function is the straightforward Python loop that the library's batched
numpy replaced, kept verbatim so tests can demand ``np.array_equal`` between
the two: the beat-by-beat displacement train, SMO with per-iteration masks,
per-row perplexity bisection, and t-SNE with fresh temporaries (its distance
formula, Student-t kernel and KL included).  The STFT on ``scipy.fft`` with a
shifted copy of its modulus, and the time integral as ``np.trapezoid``, are
the paths that the workspace-writing ones in ``signals`` and ``cepstrum``
replaced; the range FFT on ``scipy.fft`` is the one that numpy's replaced in
``radar``.

A cube record exists in the program only as its file.  Tests that need a whole
cube in memory take a :class:`DataCube` from here: ``read_cube`` is the
whole-file reader that the front end's block reads replaced, and
``render_cube`` the whole-cube render that the blocked one streaming into a
file replaced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft
from numpy.lib.stride_tricks import sliding_window_view

from heartid.dataio import read_iq
from heartid.embedding import (
    EARLY_EXAGGERATION,
    EXAGGERATION_ITERS,
    MACHINE_EPS,
    PERPLEXITY_TOL,
)
from heartid.errors import IoError
from heartid.radar import C_LIGHT, RadarConfig
from heartid.signals import Spectrogram, check_finite, stft_freqs


@dataclass(frozen=True)
class DataCube:
    """A whole cube in memory, indexed (slow time, virtual element, fast time).

    It reads as ``dataio.CubeFile`` does, a block of chirps at a time, from
    values kept as given (complex64, as a cube file holds them, unless a test
    says otherwise); a NaN or infinity raises ``NonFiniteSample`` here.
    """

    values: np.ndarray
    config: RadarConfig

    def __post_init__(self):
        check_finite(self.values)

    @property
    def n_slow(self) -> int:
        return self.values.shape[0]

    @property
    def duration(self) -> float:
        return self.n_slow / self.config.fs_slow

    def blocks(self, size):
        return (self.values[s0:s0 + size] for s0 in range(0, self.n_slow, size))

    def slow_range(self, start, stop) -> DataCube:
        return DataCube(self.values[start:stop], self.config)


def read_cube(path, config, n_slow) -> DataCube:
    """The whole cube file in memory, checked finite by ``DataCube`` before any pass."""
    flat = read_iq(path)
    shape = (n_slow, config.n_virtual, config.n_fast)
    if flat.size != math.prod(shape):
        raise IoError(f"{path}: {flat.size} samples, expected {math.prod(shape)} "
                      f"({n_slow} x {config.n_virtual} x {config.n_fast})")
    return DataCube(flat.reshape(shape), config)


def unblocked_cube(d, cfg, snr_db=None, seed=0, range_m=1.5, angle_deg=0.0, amp_scale=1.0,
                   phase_offset=0.0) -> np.ndarray:
    """``cohort.render_cube``'s samples from a whole-cube complex128 render, noise added in place.

    Cast to complex64 they are the bytes that ``render_cube`` streams into its file.
    """
    r = range_m + d
    t_fast = np.arange(cfg.n_fast) * (cfg.chirp_duration / cfg.n_fast)
    f_beat = 2.0 * cfg.bandwidth * r / (C_LIGHT * cfg.chirp_duration)
    carrier = 4.0 * np.pi * r / cfg.wavelength + phase_offset
    elem = (
        2.0
        * np.pi
        * (cfg.element_spacing / cfg.wavelength)
        * np.sin(np.radians(angle_deg))
        * np.arange(cfg.n_virtual)
    )
    chirp = amp_scale * np.exp(
        1j * (2.0 * np.pi * f_beat[:, None] * t_fast[None, :] + carrier[:, None])
    )
    cube = chirp[:, None, :] * np.exp(1j * elem)[None, :, None]
    if snr_db is not None:
        rng = np.random.default_rng(seed)
        sigma = np.sqrt(10.0 ** (-snr_db / 10.0) / 2.0)
        buf = np.empty(cube.shape)
        for part in (cube.real, cube.imag):
            rng.standard_normal(out=buf)
            buf *= sigma
            part += buf
    return cube


def render_cube(d, cfg, *args, **kwargs) -> DataCube:
    """The cube that ``cohort.render_cube(d, cfg, *args, **kwargs, path=...)`` writes."""
    return DataCube(unblocked_cube(d, cfg, *args, **kwargs).astype(np.complex64), cfg)


def stft_magnitude(a, fs, window_len, hop, t0=0.0) -> Spectrogram:
    """``signals.stft_magnitude`` on ``scipy.fft``, its modulus and shift in fresh arrays."""
    n_win = int(round(window_len * fs))
    n_hop = min(int(round(hop * fs)), a.size)
    frames = sliding_window_view(a, n_win)[::n_hop]
    two_sided = np.iscomplexobj(a)
    transform = scipy.fft.fft if two_sided else scipy.fft.rfft
    spec = np.abs(transform(frames, axis=1))
    spec *= 1.0 / math.sqrt(n_win)
    if two_sided:
        spec = np.fft.fftshift(spec, axes=1)
    frame_times = t0 + (n_hop * np.arange(frames.shape[0]) + 0.5 * n_win) / fs
    return Spectrogram(spec, stft_freqs(fs, window_len, two_sided), frame_times)


def range_profile(values) -> np.ndarray:
    """``radar.range_profile`` on ``scipy.fft``, overwriting its complex128 copy."""
    profiles = scipy.fft.fft(np.array(values, dtype=np.complex128), axis=2, overwrite_x=True)
    profiles.view(np.float64)[...] *= 1.0 / np.sqrt(RadarConfig.n_fast)
    return profiles


def time_integral(spec) -> np.ndarray:
    """``cepstrum._time_integral`` as ``np.trapezoid`` over frame time; one frame gives zeros."""
    if spec.n_frames > 1:
        return np.trapezoid(spec.values, spec.frame_times, axis=0)
    return np.zeros(spec.freqs.size)


def displacement(profile, duration, fs, seed=0, rate_scale=1.0) -> np.ndarray:
    """Samples of ``cohort.displacement``, one lobe of one beat at a time."""
    rng = np.random.default_rng(seed)
    n = int(round(duration * fs))
    t = np.arange(n) / fs
    resp_phase = rng.uniform(0.0, 2.0 * np.pi)
    d = profile.resp_amp_m * np.sin(2.0 * np.pi * profile.resp_rate_hz * t + resp_phase)
    rate = profile.heart_rate_hz * rate_scale
    period = 1.0 / rate
    onset = rng.uniform(0.0, period) - period
    heartbeat = np.zeros(n)
    while onset < duration:
        for lobe in profile.pulse_template:
            mu = onset + lobe.center * period
            sigma = lobe.width * period
            lo = max(0, int(np.floor((mu - 5 * sigma) * fs)))
            hi = min(n, int(np.ceil((mu + 5 * sigma) * fs)) + 1)
            if lo < hi:
                heartbeat[lo:hi] += lobe.amplitude * np.exp(
                    -0.5 * ((t[lo:hi] - mu) / sigma) ** 2
                )
        onset += max(0.25 * period, period + rng.normal(0.0, profile.hrv_std))
    d += profile.heart_amp_m * heartbeat
    return d


def smo(K, y, C, tol, max_iter):
    """``classify._smo`` rebuilding the violation masks every iteration.

    Returns (alpha, bias, converged, n_iter, kkt_gap).
    """
    n = y.size
    alpha = np.zeros(n)
    grad = -np.ones(n)
    eps = 1e-12
    it = 0
    while True:
        viol = -y * grad
        up = ((y > 0) & (alpha < C - eps)) | ((y < 0) & (alpha > eps))
        low = ((y > 0) & (alpha > eps)) | ((y < 0) & (alpha < C - eps))
        up_v = np.where(up, viol, -np.inf)
        low_v = np.where(low, viol, np.inf)
        i = int(np.argmax(up_v))
        j = int(np.argmin(low_v))
        m_up, m_low = up_v[i], low_v[j]
        converged = bool(m_up - m_low <= tol)
        if converged or it >= max_iter:
            break
        a = K[i, i] + K[j, j] - 2.0 * K[i, j]
        if a <= 0:
            a = 1e-12
        t = (m_up - m_low) / a
        t = min(t, C - alpha[i] if y[i] > 0 else alpha[i])
        t = min(t, alpha[j] if y[j] > 0 else C - alpha[j])
        d_i = y[i] * t
        d_j = -y[j] * t
        alpha[i] += d_i
        alpha[j] += d_j
        grad += y * (K[i] * (y[i] * d_i) + K[j] * (y[j] * d_j))
        it += 1
    return alpha, float((m_up + m_low) / 2.0), converged, it, float(m_up - m_low)


def conditional_probs(dist_sq, perplexity):
    """``embedding._conditional_probs`` bisecting one row at a time."""
    n = dist_sq.shape[0]
    target = np.log2(perplexity)
    P = np.zeros((n, n))
    for i in range(n):
        d = np.delete(dist_sq[i], i)
        lo, hi = 0.0, np.inf
        beta = 1.0
        with np.errstate(over="ignore"):
            for _ in range(200):
                w = np.exp(-beta * (d - d.min()))
                sum_w = w.sum()
                p = w / sum_w
                entropy = -np.sum(p * np.log2(np.maximum(p, MACHINE_EPS)))
                if abs(entropy - target) <= PERPLEXITY_TOL:
                    break
                if entropy > target:
                    lo = beta
                    beta = beta * 2.0 if hi == np.inf else (beta + hi) / 2.0
                else:
                    hi = beta
                    beta = beta / 2.0 if lo == 0.0 else (beta + lo) / 2.0
        P[i] = np.insert(p, i, 0.0)
    return P


def squared_distances(A, B):
    sq = (
        np.sum(A**2, axis=1)[:, None]
        + np.sum(B**2, axis=1)[None, :]
        - 2.0 * (A @ B.T)
    )
    np.maximum(sq, 0.0, out=sq)
    return sq


def joint_probabilities(X, perplexity):
    cond = conditional_probs(squared_distances(X, X), perplexity)
    P = (cond + cond.T) / (2.0 * X.shape[0])
    return np.maximum(P, MACHINE_EPS)


def _student_q(Y):
    num = 1.0 / (1.0 + squared_distances(Y, Y))
    np.fill_diagonal(num, 0.0)
    return num, np.maximum(num / num.sum(), MACHINE_EPS)


def _kl_divergence(P, Y):
    _, Q = _student_q(Y)
    Pc = np.maximum(P, MACHINE_EPS)
    return float(np.sum(P * np.log(Pc / Q)))


def tsne2(X, perplexity=30.0, iterations=1000, seed=0):
    """``embedding.tsne2`` with fresh n x n temporaries: (P, centred points, KL)."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    learning_rate = max(n / EARLY_EXAGGERATION, 50.0)
    P = joint_probabilities(X, perplexity)
    rng = np.random.default_rng(seed)
    Y = 1e-4 * rng.standard_normal((n, 2))
    update = np.zeros_like(Y)
    gains = np.ones_like(Y)
    for it in range(iterations):
        scale = EARLY_EXAGGERATION if it < EXAGGERATION_ITERS else 1.0
        momentum = 0.5 if it < EXAGGERATION_ITERS else 0.8
        num, Q = _student_q(Y)
        W = (scale * P - Q) * num
        grad = 4.0 * (np.diag(W.sum(axis=1)) - W) @ Y
        inc = (update * grad) < 0
        gains[inc] += 0.2
        gains[~inc] *= 0.8
        np.clip(gains, 0.01, None, out=gains)
        update = momentum * update - learning_rate * gains * grad
        Y = Y + update
    return P, Y - Y.mean(axis=0), _kl_divergence(P, Y)
