import tracemalloc

import loop_reference
import numpy as np
import pytest

from heartid.classify import squared_distances
from heartid.embedding import (
    Projection2D,
    _conditional_probs,
    joint_probabilities,
    pca2,
    tsne2,
)
from heartid.errors import InvalidParameter, PipelineError


def gaussian_clusters(rng, n_per=30, dims=20, sep=8.0, k=3):
    centers = rng.standard_normal((k, dims)) * sep
    X = np.vstack([c + rng.standard_normal((n_per, dims)) for c in centers])
    labels = np.repeat(np.arange(k), n_per)
    return X, labels


def silhouette(points, labels):
    """Plain O(N^2) silhouette coefficient."""
    d = np.sqrt(squared_distances(points, points))
    scores = []
    for i in range(points.shape[0]):
        same = labels == labels[i]
        same[i] = False
        if not same.any():
            continue
        a = d[i, same].mean()
        b = min(d[i, labels == other].mean() for other in np.unique(labels) if other != labels[i])
        scores.append((b - a) / max(a, b))
    return float(np.mean(scores))


# --- PCA ----------------------------------------------------------------------

def test_pca_line_collapses_to_first_component():
    rng = np.random.default_rng(0)
    direction = rng.standard_normal(10)
    X = np.outer(np.linspace(-2, 2, 40), direction)
    proj = pca2(X)
    var = proj.points.var(axis=0)
    assert var[1] <= 1e-9 * var[0]


def test_pca_rotation_preserves_projected_distances():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((50, 6))
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    base, rot = pca2(X).points, pca2(X @ q.T).points
    d_base = np.sort(squared_distances(base, base).ravel())
    d_rot = np.sort(squared_distances(rot, rot).ravel())
    assert np.max(np.abs(d_base - d_rot)) <= 1e-9 * max(d_base.max(), 1.0)


def test_pca_variance_matches_eigendecomposition_oracle():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((80, 12)) @ np.diag(np.linspace(3, 0.2, 12))
    proj = pca2(X)
    got = proj.points.var(axis=0, ddof=1)
    centered = X - X.mean(axis=0)
    eigvals = np.sort(np.linalg.eigh(np.cov(centered.T))[0])[::-1]
    assert np.max(np.abs(got - eigvals[:2])) <= 1e-9 * eigvals[0]


def test_pca_translation_invariance():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((30, 5))
    shifted = X + rng.standard_normal(5) * 10
    assert np.allclose(pca2(X).points, pca2(shifted).points, atol=1e-9)


def test_pca_degenerate_input():
    with pytest.raises(PipelineError, match="at least 3 rows and 2 dimensions"):
        pca2(np.ones((2, 5)))
    with pytest.raises(PipelineError, match="at least 3 rows and 2 dimensions"):
        pca2(np.ones((5, 1)))


# --- t-SNE ----------------------------------------------------------------------

def test_perplexity_bisection_hits_entropy_target():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((60, 8))
    perplexity = 12.0
    cond = _conditional_probs(squared_distances(X, X), perplexity)
    eps = np.finfo(float).eps
    for i in range(X.shape[0]):
        row = np.delete(cond[i], i)
        assert abs(row.sum() - 1.0) <= 1e-9
        entropy = -np.sum(row * np.log2(np.maximum(row, eps)))
        assert abs(entropy - np.log2(perplexity)) <= 1e-4


def _equidistant_neighbours():
    """Row 0 has three nearest neighbours at one distance: its entropy never
    falls below log2(3) bits, so at perplexity 2 its bisection runs all 200 steps."""
    rng = np.random.default_rng(9)
    near = np.vstack([np.zeros(6), np.eye(6)[:3]])
    return np.vstack([near, 10.0 + rng.standard_normal((20, 6))])


@pytest.mark.parametrize("perplexity", [2.0, 5.0, 7.5])
def test_conditional_probs_bit_identical_to_row_loop(perplexity):
    D = squared_distances(*[_equidistant_neighbours()] * 2)
    cond = _conditional_probs(D, perplexity)
    assert np.array_equal(cond, loop_reference.conditional_probs(D, perplexity))
    entropy = -np.sum(cond[0, 1:] * np.log2(np.maximum(cond[0, 1:], np.finfo(float).eps)))
    assert bool(abs(entropy - np.log2(3)) <= 1e-12) is (perplexity == 2.0)


def _clusters_96(n):
    rng = np.random.default_rng(10)
    centers = 3.0 * rng.standard_normal((6, 96))
    return centers[np.arange(n) % 6] + rng.standard_normal((n, 96))


@pytest.mark.parametrize("n,perplexity,iterations", [(24, 5.0, 100), (300, 30.0, 1000)])
def test_tsne_bit_identical_to_loop_with_fresh_temporaries(n, perplexity, iterations):
    X = _clusters_96(n)
    P, points, kl = loop_reference.tsne2(X, perplexity, iterations)
    assert np.array_equal(joint_probabilities(X, perplexity), P)
    proj = tsne2(X, perplexity, iterations)
    assert np.array_equal(proj.points, points)
    assert proj.params["kl"] == kl


def test_tsne_peak_memory_no_higher_than_the_loop():
    X = _clusters_96(300)
    peaks = []
    for run in (tsne2, loop_reference.tsne2):
        tracemalloc.start()
        try:
            run(X, 30.0, 3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]


def test_joint_probabilities_symmetric_and_normalized():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((40, 5))
    P = joint_probabilities(X, 8.0)
    assert np.all(P >= 0)
    assert np.max(np.abs(P - P.T)) == 0.0
    assert abs(P.sum() - 1.0) <= 1e-9


def test_tsne_reduces_kl_divergence():
    rng = np.random.default_rng(6)
    X, _ = gaussian_clusters(rng, n_per=20, dims=10, k=3)
    kl_start = tsne2(X, perplexity=10.0, iterations=0, seed=1).params["kl"]
    kl_end = tsne2(X, perplexity=10.0, iterations=350, seed=1).params["kl"]
    assert kl_end < kl_start


def test_tsne_separates_gaussian_clusters():
    rng = np.random.default_rng(7)
    X, labels = gaussian_clusters(rng, n_per=30, dims=20, sep=8.0, k=3)
    proj = tsne2(X, perplexity=10.0, iterations=500, seed=0, labels=labels)
    assert silhouette(proj.points, labels) >= 0.5


def test_tsne_deterministic_given_seed():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((50, 6))
    a = tsne2(X, perplexity=8.0, iterations=100, seed=3)
    b = tsne2(X, perplexity=8.0, iterations=100, seed=3)
    assert np.array_equal(a.points, b.points)


def test_tsne_perplexity_too_large():
    with pytest.raises(InvalidParameter, match="30 rows cannot support perplexity 10.0"):
        tsne2(np.random.default_rng(0).standard_normal((30, 4)), perplexity=10.0)


@pytest.mark.parametrize(
    "setting,match",
    [
        ({"perplexity": 0.5}, "perplexity must be at least 1"),
        ({"iterations": -5}, "iterations -5 and seed 0 must be non-negative"),
        ({"seed": -1}, "iterations 1000 and seed -1 must be non-negative"),
    ],
)
def test_tsne_rejects_out_of_range_setting(setting, match):
    X = np.random.default_rng(0).standard_normal((30, 4))
    with pytest.raises(InvalidParameter, match=match):
        tsne2(X, **{"perplexity": 5.0, **setting})


def test_projection_rejects_bad_points():
    with pytest.raises(ValueError):
        Projection2D(np.ones((4, 3)), None, "pca")
    with pytest.raises(ValueError):
        Projection2D(np.full((4, 2), np.nan), None, "pca")


def test_projection_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    proj = pca2(rng.standard_normal((10, 4)), labels=np.array(["a", "b"] * 5))
    path = tmp_path / "proj.csv"
    proj.to_csv(path, sample_ids=[f"s{i}" for i in range(10)])
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "sample_id,label,x,y"
    assert len(rows) == 11
    x = np.array([float(r.split(",")[2]) for r in rows[1:]])
    assert np.array_equal(x, proj.points[:, 0])
