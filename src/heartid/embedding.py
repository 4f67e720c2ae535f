"""2-D diagnostic projections of feature vectors: PCA and exact t-SNE."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .classify import squared_distances
from .errors import InvalidParameter, PipelineError
from .signals import check_finite

MACHINE_EPS = np.finfo(np.float64).eps
PERPLEXITY_TOL = 1e-4  # bits of entropy
EARLY_EXAGGERATION = 12.0
EXAGGERATION_ITERS = 250
_BISECT_FLOATS = 2**16  # distances per bisection block: 512 kB, and the fastest measured


@dataclass(frozen=True)
class Projection2D:
    """Projected points with the settings that produced them."""

    points: np.ndarray
    labels: np.ndarray | None
    method: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError("points must be (n, 2)")
        if not np.all(np.isfinite(points)):
            raise ValueError("projection produced non-finite coordinates")
        object.__setattr__(self, "points", points)

    def to_csv(self, path, sample_ids=None) -> None:
        n = self.points.shape[0]
        ids = sample_ids if sample_ids is not None else [str(i) for i in range(n)]
        labels = self.labels if self.labels is not None else [""] * n
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sample_id", "label", "x", "y"])
            for sid, lab, (x, y) in zip(ids, labels, self.points):
                writer.writerow([sid, lab, f"{x:.17g}", f"{y:.17g}"])


def pca2(X: np.ndarray, labels=None) -> Projection2D:
    """Project onto the top-2 principal axes of the centered data.

    Axes are ordered by descending variance; each axis is flipped if needed so
    its largest-magnitude loading is positive (fixes the sign ambiguity).
    A NaN or infinite feature raises :class:`NonFiniteSample` naming its
    (row, column).
    """
    X = np.asarray(X, dtype=np.float64)
    check_finite(X)
    if X.ndim != 2 or X.shape[0] < 3 or X.shape[1] < 2:
        raise PipelineError("PCA needs at least 3 rows and 2 dimensions")
    centered = X - X.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    axes = vt[:2]
    for k in range(2):
        j = int(np.argmax(np.abs(axes[k])))
        if axes[k, j] < 0:
            axes[k] = -axes[k]
    points = centered @ axes.T
    return Projection2D(points, None if labels is None else np.asarray(labels), "pca")


def _bisect_rows(d: np.ndarray, target: float) -> np.ndarray:
    """Affinities of each row of the shifted distances ``d`` at ``target`` bits.

    All rows are bisected at once, each with its own ``beta`` and bracket
    ``[lo, hi]``; a row leaves at the step where a row-by-row bisection stops,
    so the two agree bit for bit.
    """
    m = d.shape[0]
    p = np.empty_like(d)  # each row's affinities at its latest step
    work, plogp = np.empty_like(d), np.empty_like(d)
    rows = np.arange(m)  # rows still bisecting, with their beta, lo and hi
    beta, lo, hi = np.ones(m), np.zeros(m), np.full(m, np.inf)
    with np.errstate(over="ignore"):  # -beta * d may overflow to -inf: exp is 0 all the same
        for _ in range(200):
            w = np.take(d, rows, axis=0, out=work[: rows.size])
            w *= -beta[:, None]
            np.exp(w, out=w)
            w /= w.sum(axis=1, keepdims=True)
            p[rows] = w
            h = plogp[: rows.size]
            np.log2(np.maximum(w, MACHINE_EPS, out=h), out=h)
            entropy = -np.multiply(h, w, out=h).sum(axis=1)
            flat = entropy > target  # too flat: sharpen
            lo = np.where(flat, beta, lo)
            hi = np.where(flat, hi, beta)
            beta = np.where(flat, np.where(hi == np.inf, beta * 2.0, (beta + hi) / 2.0),
                            np.where(lo == 0.0, beta / 2.0, (beta + lo) / 2.0))
            bisecting = ~(np.abs(entropy - target) <= PERPLEXITY_TOL)  # NaN keeps going
            if not bisecting.any():
                break
            rows, beta, lo, hi = rows[bisecting], beta[bisecting], lo[bisecting], hi[bisecting]
    return p


def _conditional_probs(dist_sq: np.ndarray, perplexity: float):
    """Per-row Gaussian affinities with bandwidths bisected to the perplexity.

    The bisection targets Shannon entropy (bits) equal to log2(perplexity).
    Returns the row-normalized conditional matrix (diagonal zero).  Rows are
    bisected ``max(1, _BISECT_FLOATS // n)`` at a time over their off-diagonal
    distances shifted by the row minimum, so each of the block's four
    temporaries holds about ``_BISECT_FLOATS`` floats (512 kB) beside the
    n x n result.  Each row's arithmetic and step count are those of a
    row-by-row bisection, whatever the block.
    """
    n = dist_sq.shape[0]
    target = np.log2(perplexity)
    block = max(1, _BISECT_FLOATS // n)
    P = np.zeros((n, n))
    for start in range(0, n, block):
        stop = min(start + block, n)
        off_diagonal = np.arange(n) != np.arange(start, stop)[:, None]
        d = dist_sq[start:stop][off_diagonal].reshape(stop - start, n - 1)
        d -= d.min(axis=1, keepdims=True)
        P[start:stop][off_diagonal] = _bisect_rows(d, target).ravel()
    return P


def _student_q(Y: np.ndarray, num: np.ndarray, Q: np.ndarray) -> None:
    """Write the embedding's Student-t kernel (diagonal zero) into the n x n
    ``num``, and its normalized Q into ``Q``."""
    squared_distances(Y, Y, out=num, work=Q)
    num += 1.0
    np.divide(1.0, num, out=num)
    np.fill_diagonal(num, 0.0)
    np.divide(num, num.sum(), out=Q)
    np.maximum(Q, MACHINE_EPS, out=Q)


def _kl_divergence(P: np.ndarray, Y: np.ndarray, num: np.ndarray, Q: np.ndarray) -> float:
    """KL(P || Q) of the embedding ``Y``, its terms formed in ``num`` once Q is."""
    _student_q(Y, num, Q)
    terms = np.maximum(P, MACHINE_EPS, out=num)
    terms /= Q
    np.log(terms, out=terms)
    terms *= P
    return float(np.sum(terms))


def joint_probabilities(X: np.ndarray, perplexity: float) -> np.ndarray:
    """Symmetrized t-SNE affinities summing to 1.

    ``cond + cond.T`` is formed in one n x n array, then divided by 2n and
    floored at machine epsilon in place, so at most two n x n arrays are held
    at once: the distances and ``cond``, then ``cond`` and the result.  A NaN
    or infinite feature raises :class:`NonFiniteSample` naming its (row, column).
    """
    X = np.asarray(X, dtype=np.float64)
    check_finite(X)
    if X.ndim != 2 or X.shape[0] < 2:
        raise PipelineError(f"t-SNE affinities need rows of features, at least 2, got {X.shape}")
    cond = _conditional_probs(squared_distances(X, X), perplexity)
    P = np.add(cond, cond.T)
    P /= 2.0 * X.shape[0]
    return np.maximum(P, MACHINE_EPS, out=P)


def tsne2(
    X: np.ndarray,
    perplexity: float = 30.0,
    iterations: int = 1000,
    seed: int = 0,
    labels=None,
) -> Projection2D:
    """Exact (O(N^2)) t-SNE to two dimensions, deterministic given the seed.

    Standard schedule: early exaggeration (x12) for the first 250 iterations
    with momentum 0.5, then momentum 0.8; adaptive per-coordinate gains;
    learning rate max(N/12, 50).  Iterations and the final KL reuse three n x n
    buffers with the operations and order of fresh temporaries, so they match
    those bit for bit.  P and those three buffers are the memory floor: the
    affinities before them peak at two n x n arrays (see
    :func:`joint_probabilities`).  A NaN or infinite feature raises
    :class:`NonFiniteSample` naming its (row, column).
    """
    X = np.asarray(X, dtype=np.float64)
    check_finite(X)
    n = X.shape[0]
    if not 0 < perplexity < np.inf:
        raise InvalidParameter(f"perplexity must be positive and finite, got {perplexity}")
    if perplexity < 1:  # its target entropy would be below 0 bits, which no row reaches
        raise InvalidParameter(f"perplexity must be at least 1, got {perplexity}")
    if iterations < 0 or seed < 0:
        raise InvalidParameter(f"iterations {iterations} and seed {seed} must be non-negative")
    if n <= 3 * perplexity:
        raise InvalidParameter(
            f"{n} rows cannot support perplexity {perplexity} (need > 3x)"
        )
    learning_rate = max(n / EARLY_EXAGGERATION, 50.0)

    P = joint_probabilities(X, perplexity)
    rng = np.random.default_rng(seed)
    Y = 1e-4 * rng.standard_normal((n, 2))
    update = np.zeros_like(Y)
    gains = np.ones_like(Y)
    num, Q, W = np.empty((n, n)), np.empty((n, n)), np.empty((n, n))
    grad = np.empty_like(Y)

    for it in range(iterations):
        scale = EARLY_EXAGGERATION if it < EXAGGERATION_ITERS else 1.0
        momentum = 0.5 if it < EXAGGERATION_ITERS else 0.8
        _student_q(Y, num, Q)
        np.multiply(P, scale, out=W)
        W -= Q
        W *= num
        # gradient of KL wrt each point: 4 * sum_j W_ij (y_i - y_j), as the
        # Laplacian 4 * (diag(W.sum(1)) - W) @ Y; W's diagonal is 0
        row_sums = W.sum(axis=1)
        np.subtract(0.0, W, out=W)
        np.fill_diagonal(W, row_sums)
        W *= 4.0
        np.matmul(W, Y, out=grad)
        inc = (update * grad) < 0
        gains[inc] += 0.2
        gains[~inc] *= 0.8
        np.clip(gains, 0.01, None, out=gains)
        update = momentum * update - learning_rate * gains * grad
        Y = Y + update

    kl = _kl_divergence(P, Y, num, Q)
    return Projection2D(
        Y - Y.mean(axis=0),
        None if labels is None else np.asarray(labels),
        "tsne",
        {
            "perplexity": perplexity,
            "iterations": iterations,
            "seed": seed,
            "kl": kl,
        },
    )
