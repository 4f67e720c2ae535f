"""Loop-by-loop references for the batched hot paths in heartid.

Each function is the straightforward Python loop that the library's batched
numpy replaced, kept verbatim so tests can demand ``np.array_equal`` between
the two: the beat-by-beat displacement train, SMO with per-iteration masks,
per-row perplexity bisection, and t-SNE with fresh temporaries (its distance
formula, Student-t kernel and KL included).  ``read_cube`` is the whole-file
cube reader that the front end's block reads replaced.
"""

from __future__ import annotations

import math

import numpy as np

from heartid.dataio import read_iq
from heartid.embedding import (
    EARLY_EXAGGERATION,
    EXAGGERATION_ITERS,
    MACHINE_EPS,
    PERPLEXITY_TOL,
)
from heartid.errors import IoError
from heartid.radar import DataCube


def read_cube(path, config, n_slow) -> DataCube:
    """The whole cube file in memory, checked finite by ``DataCube`` before any pass."""
    flat = read_iq(path)
    shape = (n_slow, config.n_virtual, config.n_fast)
    if flat.size != math.prod(shape):
        raise IoError(f"{path}: {flat.size} samples, expected {math.prod(shape)} "
                      f"({n_slow} x {config.n_virtual} x {config.n_fast})")
    return DataCube(flat.reshape(shape), config)


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
