import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_reference
from heartid.classify import (
    EvalReport,
    SvmModel,
    _smo,
    kernel_matrix,
    metrics,
    predict,
    resolve_gamma,
    session_folds,
    session_grouped_cv,
    standardize_fit_transform,
    train_binary_svm,
    train_multiclass,
)
from heartid.errors import InvalidParameter, NoConvergence, NonFiniteSample, PipelineError


# --- oracles -----------------------------------------------------------------

def dual_objective(alpha, K, y):
    q = (alpha * y) @ K @ (alpha * y)
    return alpha.sum() - 0.5 * q


def project_box_hyperplane(v, y, C, iters=100):
    """Project v onto {0 <= a <= C, y.a = 0} by bisection on the multiplier."""
    lo, hi = -1e6, 1e6
    for _ in range(iters):
        nu = 0.5 * (lo + hi)
        a = np.clip(v - nu * y, 0.0, C)
        g = float(y @ a)
        if g > 0:
            lo = nu
        else:
            hi = nu
    return np.clip(v - 0.5 * (lo + hi) * y, 0.0, C)


def qp_oracle(K, y, C, iters=20000):
    """Projected-gradient ascent on the SVM dual, run to ~1e-8 stationarity."""
    Q = K * np.outer(y, y)
    step = 1.0 / max(np.linalg.eigvalsh(Q).max(), 1e-12)
    alpha = np.zeros(y.size)
    prev = -np.inf
    for it in range(iters):
        grad = 1.0 - Q @ alpha
        alpha = project_box_hyperplane(alpha + step * grad, y, C)
        if it % 50 == 0:
            obj = dual_objective(alpha, K, y)
            if abs(obj - prev) <= 1e-8 * max(abs(obj), 1.0):
                break
            prev = obj
    return alpha


def auc_by_pair_counting(scores, positives):
    """O(n^2) concordant-pair count, ties worth one half."""
    pos = np.flatnonzero(positives)
    neg = np.flatnonzero(~positives)
    total = 0.0
    for i in pos:
        for j in neg:
            if scores[i] > scores[j]:
                total += 1.0
            elif scores[i] == scores[j]:
                total += 0.5
    return total / (len(pos) * len(neg))


def blobs(rng, centers, n_per, spread=0.3):
    X = np.vstack(
        [c + spread * rng.standard_normal((n_per, len(c))) for c in centers]
    )
    labels = np.concatenate([[i] * n_per for i in range(len(centers))])
    return X, labels


# --- standardization ----------------------------------------------------------

def test_standardize_two_points():
    std, Xt = standardize_fit_transform(np.array([[0.0], [2.0]]))
    assert np.array_equal(Xt, np.array([[-1.0], [1.0]]))
    assert std.mean[0] == 1.0 and std.std[0] == 1.0


def test_standardize_constant_column_maps_to_zero():
    X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    _, Xt = standardize_fit_transform(X)
    assert np.all(Xt[:, 1] == 0.0)
    assert np.all(np.isfinite(Xt))


def test_standardize_moments():
    rng = np.random.default_rng(0)
    X = rng.uniform(-10, 10, (40, 7)) * np.array([1, 10, 100, 0.1, 5, 2, 50])
    _, Xt = standardize_fit_transform(X)
    assert np.max(np.abs(Xt.mean(axis=0))) <= 1e-12
    assert np.max(np.abs(Xt.std(axis=0) - 1.0)) <= 1e-9


def test_standardize_too_few_rows():
    with pytest.raises(PipelineError, match="at least two rows"):
        standardize_fit_transform(np.ones((1, 3)))


# --- binary SMO ----------------------------------------------------------------

def test_smo_symmetric_pair():
    X = np.array([[-1.0], [1.0]])
    y = np.array([-1.0, 1.0])
    machine = train_binary_svm(X, y, kernel_matrix(X, X, "linear", 1.0), C=1000.0)
    assert machine.converged
    assert machine.support_vectors.shape[0] == 2
    assert np.allclose(np.abs(machine.dual_coef), np.abs(machine.dual_coef)[0])
    # decision boundary at the midpoint
    K0 = kernel_matrix(np.array([[0.0]]), machine.support_vectors, "linear", 1.0)
    assert abs(machine.decision(K0)[0]) <= 1e-9
    Kp = kernel_matrix(np.array([[0.5], [-0.5]]), machine.support_vectors, "linear", 1.0)
    assert np.array_equal(np.sign(machine.decision(Kp)), [1.0, -1.0])


def test_smo_xor_with_rbf():
    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    machine = train_binary_svm(X, y, kernel_matrix(X, X, "rbf", 1.0), C=10.0)
    K = kernel_matrix(X, machine.support_vectors, "rbf", 1.0)
    assert np.array_equal(np.sign(machine.decision(K)), y)


@pytest.mark.parametrize("kernel,gamma", [("linear", 1.0), ("rbf", 0.5)])
def test_smo_matches_qp_oracle(kernel, gamma):
    rng = np.random.default_rng(42)
    X, labels = blobs(rng, [(0.0, 0.0), (1.5, 1.0)], 10, spread=0.8)
    y = np.where(labels == 0, -1.0, 1.0)
    C = 5.0
    K = kernel_matrix(X, X, kernel, gamma)
    machine = train_binary_svm(X, y, K, C=C, tol=1e-4)
    # reconstruct full alpha from the support set
    alpha = np.zeros(y.size)
    sv = 0
    for i in range(y.size):
        if sv < machine.support_vectors.shape[0] and np.array_equal(
            X[i], machine.support_vectors[sv]
        ):
            alpha[i] = machine.dual_coef[sv] * y[i]
            sv += 1
    assert sv == machine.support_vectors.shape[0]
    assert np.all(alpha >= -1e-12) and np.all(alpha <= C + 1e-12)
    assert abs(np.sum(alpha * y)) <= 1e-6
    ours = dual_objective(alpha, K, y)
    best = dual_objective(qp_oracle(K, y, C), K, y)
    assert ours >= best - 1e-4 * abs(best)


def test_smo_kkt_conditions_hold():
    rng = np.random.default_rng(3)
    X, labels = blobs(rng, [(0.0, 0.0), (2.0, 0.5)], 15, spread=0.7)
    y = np.where(labels == 0, -1.0, 1.0)
    tol = 1e-3
    machine = train_binary_svm(X, y, kernel_matrix(X, X, "rbf", 0.7), C=10.0, tol=tol)
    K = kernel_matrix(X, machine.support_vectors, "rbf", 0.7)
    f = machine.decision(K)
    alpha = np.abs(machine.dual_coef)
    for i in range(y.size):
        row = np.flatnonzero(
            np.all(machine.support_vectors == X[i], axis=1)
        )
        if row.size and 1e-8 < alpha[row[0]] < 10.0 - 1e-8:
            assert abs(y[i] * f[i] - 1.0) <= tol


def test_smo_single_class_rejected():
    with pytest.raises(PipelineError, match="must contain both classes"):
        train_binary_svm(np.ones((4, 2)), np.ones(4), np.ones((4, 4)))


@pytest.mark.parametrize("shape", [(8, 7), (7, 7), (8,), (8, 8, 1)])
def test_smo_rejects_kernel_not_n_by_n(shape):
    X = np.random.default_rng(2).standard_normal((8, 2))
    with pytest.raises(PipelineError, match=rf"kernel matrix is {re.escape(str(shape))}, "
                                            r"not \(8, 8\) for 8 labels"):
        train_binary_svm(X, np.array([1.0, -1.0] * 4), np.ones(shape))


@pytest.mark.parametrize("gamma", [np.nan, np.inf, -1.0, 0.0])
def test_smo_rejects_gamma_not_positive_and_finite(gamma):
    X = np.random.default_rng(2).standard_normal((8, 2))
    with pytest.raises(InvalidParameter, match="gamma"):
        train_multiclass(X, ["a", "b"] * 4, gamma=gamma)


def test_smo_nonconvergence_is_surfaced():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((60, 2))
    y = np.where(rng.random(60) > 0.5, 1.0, -1.0)  # unlearnable labels
    with pytest.warns(NoConvergence):
        machine = train_binary_svm(
            X, y, kernel_matrix(X, X, "rbf", 0.01), C=1e6, tol=1e-9, max_passes=1
        )
    assert not machine.converged


def test_smo_budget_ending_at_convergence_counts_as_converged():
    rng = np.random.default_rng(3)
    X, labels = blobs(rng, [(0.0, 0.0), (2.0, 0.5)], 15, spread=0.7)
    y = np.where(labels == 0, -1.0, 1.0)
    K = kernel_matrix(X, X, "rbf", 0.7)
    alpha, bias, converged, n_iter, _ = _smo(K, y, 10.0, 1e-3, 100 * y.size)
    assert converged and n_iter > 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", NoConvergence)
        exact_alpha, exact_bias, exact_converged, exact_iter, _ = _smo(K, y, 10.0, 1e-3, n_iter)
    assert exact_converged is True  # a Python bool, not a numpy.bool_
    assert exact_iter == n_iter
    assert np.array_equal(exact_alpha, alpha) and exact_bias == bias


def _smo_problems():
    """(name, K, y, C, tol, max_iter) of each SMO test above, then paper-sized folds."""
    rng = np.random.default_rng(3)
    X, labels = blobs(rng, [(0.0, 0.0), (2.0, 0.5)], 15, spread=0.7)
    y = np.where(labels == 0, -1.0, 1.0)
    K = kernel_matrix(X, X, "rbf", 0.7)
    yield "kkt", K, y, 10.0, 1e-3, 300
    yield "budget-ends-at-convergence", K, y, 10.0, 1e-3, 45
    yield "budget-ends-one-short", K, y, 10.0, 1e-3, 44
    X = np.array([[-1.0], [1.0]])
    yield "pair", kernel_matrix(X, X, "linear", 1.0), np.array([-1.0, 1.0]), 1000.0, 1e-3, 20
    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    yield "xor", kernel_matrix(X, X, "rbf", 1.0), np.array([1.0, 1.0, -1.0, -1.0]), 10.0, 1e-3, 40
    X, labels = blobs(np.random.default_rng(42), [(0.0, 0.0), (1.5, 1.0)], 10, spread=0.8)
    y = np.where(labels == 0, -1.0, 1.0)
    for kernel, gamma in [("linear", 1.0), ("rbf", 0.5)]:
        yield f"qp-{kernel}", kernel_matrix(X, X, kernel, gamma), y, 5.0, 1e-4, 200
    rng = np.random.default_rng(0)
    X = rng.standard_normal((60, 2))
    y = np.where(rng.random(60) > 0.5, 1.0, -1.0)
    yield "unlearnable", kernel_matrix(X, X, "rbf", 0.01), y, 1e6, 1e-9, 60
    # one-vs-rest folds of six overlapping classes in 96 dims: paper60 trains
    # on 270 rows, criterion 4 on 3240; C = 0.5 drives alphas to the box
    for n, C, machines in [(270, 10.0, range(6)), (270, 0.5, (2,)), (3240, 10.0, (0, 3))]:
        rng = np.random.default_rng(n)
        labels = np.repeat(np.arange(6), n // 6)
        X = 0.2 * rng.standard_normal((6, 96))[labels] + rng.standard_normal((n, 96))
        _, Xs = standardize_fit_transform(X)
        K = kernel_matrix(Xs, Xs, "rbf", resolve_gamma("scale", Xs))
        for cls in machines:
            yield f"fold{n}-C{C:g}-{cls}", K, np.where(labels == cls, 1.0, -1.0), C, 1e-3, 10 * n


def test_smo_bit_identical_to_mask_rebuilding_loop():
    for name, K, y, C, tol, max_iter in _smo_problems():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NoConvergence)
            fast = _smo(K, y, C, tol, max_iter)
            ref = loop_reference.smo(K, y, C, tol, max_iter)
        assert np.array_equal(fast[0], ref[0]), name
        assert fast[1:] == ref[1:], name  # bias, converged, n_iter, KKT gap
        assert fast[2] is (fast[4] <= tol), name
        assert fast[2] is (name not in ("budget-ends-one-short", "unlearnable")), name
        if name == "fold270-C0.5-2":
            assert np.sum(fast[0] >= C) > 10, name


def test_machine_reports_its_solver_state():
    rng = np.random.default_rng(3)
    X, labels = blobs(rng, [(0.0, 0.0), (2.0, 0.5)], 15, spread=0.7)
    y = np.where(labels == 0, -1.0, 1.0)
    K = kernel_matrix(X, X, "rbf", 0.7)
    machine = train_binary_svm(X, y, K)
    alpha, bias, converged, n_iter, gap = _smo(K, y, 10.0, 1e-3, 10 * y.size)
    assert (machine.converged, machine.n_iter, machine.kkt_gap) == (converged, n_iter, gap)
    assert 0 < gap <= 1e-3 and machine.support_vectors.shape[0] == np.sum(alpha > 1e-8)


def test_smo_rejects_labels_other_than_plus_minus_one():
    X = np.random.default_rng(2).standard_normal((4, 2))
    with pytest.raises(PipelineError, match="must be \\+1 or -1"):
        train_binary_svm(X, np.array([1.0, -1.0, 2.0, -1.0]), np.eye(4))


# --- multiclass ------------------------------------------------------------------

def test_multiclass_two_class_matches_binary_sign():
    rng = np.random.default_rng(1)
    X, labels = blobs(rng, [(0.0, 0.0), (3.0, 3.0)], 12)
    model = train_multiclass(X, labels)
    pred, scores = predict(model, X)
    assert np.all(pred == labels)
    # the two one-vs-rest machines mirror each other on a 2-class problem
    assert np.all((scores[:, 0] > scores[:, 1]) == (labels == 0))


def test_multiclass_six_separable_classes():
    rng = np.random.default_rng(2)
    centers = [(i * 4.0, (i % 2) * 4.0, i) for i in range(6)]
    X, labels = blobs(rng, centers, 15, spread=0.4)
    model = train_multiclass(X, labels)
    pred, _ = predict(model, X)
    assert np.mean(pred == labels) >= 0.99


def test_multiclass_deterministic():
    rng = np.random.default_rng(4)
    X, labels = blobs(rng, [(0, 0), (3, 0), (0, 3)], 10)
    probe = rng.standard_normal((20, 2))
    m1 = train_multiclass(X, labels)
    m2 = train_multiclass(X, labels)
    p1, s1 = predict(m1, probe)
    p2, s2 = predict(m2, probe)
    assert np.array_equal(p1, p2)
    assert np.array_equal(s1, s2)


def test_predict_training_point_of_separated_class():
    rng = np.random.default_rng(5)
    X, labels = blobs(rng, [(0, 0), (10, 10)], 10, spread=0.2)
    # near-duplicate points make first-order pair selection zigzag; give the
    # tiny problem a bigger iteration budget so it converges cleanly
    model = train_multiclass(X, labels, max_passes=60)
    pred, _ = predict(model, X[:1])
    assert pred[0] == 0


def test_predict_invariant_to_zero_variance_feature():
    rng = np.random.default_rng(6)
    X, labels = blobs(rng, [(0, 0), (4, 4)], 10)
    Xz = np.hstack([X, np.full((X.shape[0], 1), 7.0)])
    probe = rng.standard_normal((5, 2))
    probe_z = np.hstack([probe, np.full((5, 1), 7.0)])
    _, s_plain = predict(train_multiclass(X, labels), probe)
    _, s_aug = predict(train_multiclass(Xz, labels), probe_z)
    assert np.max(np.abs(s_plain - s_aug)) <= 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_argmax_invariant_under_monotone_transforms(seed):
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal((30, 5))
    base = np.argmax(scores, axis=1)
    for transform in (np.exp, lambda s: 2 * s + 3, np.tanh, lambda s: s**3):
        assert np.array_equal(np.argmax(transform(scores), axis=1), base)


def test_predict_dim_mismatch():
    rng = np.random.default_rng(7)
    X, labels = blobs(rng, [(0, 0), (3, 3)], 5)
    model = train_multiclass(X, labels)
    with pytest.raises(PipelineError, match="expected 2 feature dims, got 5"):
        predict(model, np.ones((2, 5)))


@pytest.mark.parametrize("kernel", ["linear", "rbf"])
def test_kernel_matrix_of_one_set_is_exactly_symmetric(kernel):
    X = np.random.default_rng(4).standard_normal((97, 13))
    K = kernel_matrix(X, X, kernel, 0.07)
    assert np.array_equal(K, K.T)


def test_unknown_kernel_is_a_pipeline_error():
    rng = np.random.default_rng(7)
    X, labels = blobs(rng, [(0, 0), (3, 3)], 5)
    with pytest.raises(PipelineError, match="unknown kernel 'poly'"):
        train_multiclass(X, labels, kernel="poly")


def test_multiclass_rejects_non_finite_feature():
    X = np.random.default_rng(5).standard_normal((40, 4))
    X[7, 2] = np.nan
    with pytest.raises(NonFiniteSample, match=r"\(7, 2\)"):
        train_multiclass(X, ["a", "b"] * 20)


# --- dataset / CV -----------------------------------------------------------------

def toy_dataset(n_sessions=4, n_per=3, n_classes=3, spread=0.3, seed=0):
    rng = np.random.default_rng(seed)
    rows, labels, sessions = [], [], []
    centers = rng.uniform(-5, 5, (n_classes, 4))
    for s in range(n_sessions):
        for c in range(n_classes):
            for _ in range(n_per):
                rows.append(centers[c] + spread * rng.standard_normal(4))
                labels.append(f"c{c}")
                sessions.append(f"s{s}")
    return np.array(rows), np.array(labels), np.array(sessions)


def test_dataset_invariants():
    with pytest.raises(PipelineError, match="at least two classes"):
        session_grouped_cv(np.ones((4, 2)), ["a"] * 4, ["s1", "s1", "s2", "s2"])
    with pytest.raises(PipelineError, match="^class 'a' appears in fewer than two sessions$"):
        session_grouped_cv(
            np.ones((4, 2)), ["a", "a", "b", "b"], ["s1", "s1", "s1", "s2"]
        )
    with pytest.raises(PipelineError, match="disagree in length"):
        session_grouped_cv(np.ones((4, 2)), ["a", "b"], ["s1", "s2", "s1", "s2"])


def test_dataset_rejects_non_finite_feature():
    X = np.random.default_rng(5).standard_normal((40, 4))
    X[11, 3] = np.inf
    with pytest.raises(NonFiniteSample, match=r"\(11, 3\)"):
        session_grouped_cv(X, ["a", "b"] * 20, ["s1"] * 20 + ["s2"] * 20)


def test_session_folds_partition():
    X, _, sessions = toy_dataset(n_sessions=5)
    folds = session_folds(sessions)
    assert len(folds) == 5
    seen = np.concatenate([idx for _, idx in folds])
    assert sorted(seen.tolist()) == list(range(X.shape[0]))
    for session_id, idx in folds:
        assert set(sessions[idx]) == {session_id}
        train_sessions = set(np.delete(sessions, idx))
        assert session_id not in train_sessions


def test_session_folds_too_few():
    with pytest.raises(PipelineError, match="needs at least two sessions"):
        session_folds(["s1"] * 5)


def test_grouped_cv_fold_sizes_and_pooling():
    X, labels, sessions = toy_dataset(n_sessions=4, n_per=3, n_classes=3)
    report = session_grouped_cv(X, labels, sessions)
    assert len(report.per_fold) == 4
    for fold in report.per_fold:
        assert fold["n_train"] == 27 and fold["n_val"] == 9
        assert [m["class"] for m in fold["machines"]] == ["c0", "c1", "c2"]
        for m in fold["machines"]:
            assert m["converged"] is True and 0 < m["n_iter"] <= 10 * 27
            assert 0 < m["n_sv"] <= 27 and m["kkt_gap"] <= 1e-3
    assert report.confusion.sum() == X.shape[0]  # every sample exactly once
    assert report.accuracy >= 99.0  # easy blobs


# --- metrics -----------------------------------------------------------------------

def test_metrics_perfect_predictions():
    true = np.array(["a", "b", "a", "b"])
    scores = np.array([[2.0, 0.0], [0.0, 2.0], [3.0, 1.0], [1.0, 3.0]])
    report = metrics(true, true.copy(), scores, classes=["a", "b"])
    assert report.accuracy == 100.0
    assert report.macro_auc == 1.0
    assert np.array_equal(report.confusion, np.array([[2, 0], [0, 2]]))


def test_metrics_tied_scores_give_half_auc():
    true = np.array(["a", "a", "b", "b", "b"])
    pred = np.array(["a", "b", "b", "a", "b"])
    scores = np.ones((5, 2))
    report = metrics(true, pred, scores, classes=["a", "b"])
    assert report.macro_auc == 0.5


def test_metrics_hand_built_six_samples_vs_counting_oracle():
    true = np.array(["x", "y", "x", "y", "x", "y"])
    scores = np.array(
        [[0.9, 0.1], [0.4, 0.6], [0.7, 0.7], [0.2, 0.9], [0.7, 0.3], [0.4, 0.4]]
    )
    pred = np.array(["x" if s[0] >= s[1] else "y" for s in scores])
    report = metrics(true, pred, scores, classes=["x", "y"])
    want = 0.5 * (
        auc_by_pair_counting(scores[:, 0], true == "x")
        + auc_by_pair_counting(scores[:, 1], true == "y")
    )
    assert abs(report.macro_auc - want) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 25), st.booleans())
def test_auc_matches_pair_counting_oracle(seed, n, quantized):
    rng = np.random.default_rng(seed)
    positives = np.zeros(2 * n, dtype=bool)
    positives[rng.choice(2 * n, n, replace=False)] = True
    scores = rng.standard_normal(2 * n)
    if quantized:  # force heavy ties
        scores = np.round(scores)
    from heartid.classify import _binary_auc

    assert abs(_binary_auc(scores, positives) - auc_by_pair_counting(scores, positives)) <= 1e-12


def test_metrics_confusion_consistency():
    rng = np.random.default_rng(9)
    true = rng.choice(["a", "b", "c"], 60)
    pred = rng.choice(["a", "b", "c"], 60)
    report = metrics(true, pred, rng.standard_normal((60, 3)), ["a", "b", "c"])
    assert report.accuracy == 100.0 * report.confusion.trace() / report.confusion.sum()
    for i, cls in enumerate(report.classes):
        assert report.confusion[i].sum() == int(np.sum(true == cls))


def test_metrics_length_mismatch():
    with pytest.raises(PipelineError, match="differ in length"):
        metrics(["a", "b"], ["a"], np.zeros((2, 2)), ["a", "b"])
