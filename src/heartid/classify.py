"""From-scratch SVM classification and the session-grouped evaluation protocol.

The binary machines are trained by sequential minimal optimization on the
soft-margin dual, always updating the maximal-KKT-violating pair; multiclass
is one-vs-rest over z-scored features.  Evaluation holds out one measurement
session per fold and pools the fold predictions for accuracy, confusion
counts, and macro one-vs-rest AUC.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter, NoConvergence, PipelineError
from .signals import check_finite

KERNELS = ("linear", "rbf")


# --- standardization --------------------------------------------------------

@dataclass(frozen=True)
class Standardizer:
    """Per-dimension z-scoring parameters fit on training data."""

    mean: np.ndarray
    std: np.ndarray

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        safe = np.where(self.std > 0, self.std, 1.0)
        out = (X - self.mean) / safe
        # zero-variance training dimensions carry no information: map to 0
        out[:, self.std == 0] = 0.0
        return out


def standardize_fit_transform(X: np.ndarray) -> tuple[Standardizer, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise PipelineError("standardization needs at least two rows")
    std = Standardizer(X.mean(axis=0), X.std(axis=0))
    return std, std.transform(X)


# --- kernels ----------------------------------------------------------------

def squared_distances(A: np.ndarray, B: np.ndarray, out=None, work=None) -> np.ndarray:
    """|a_i - b_j|^2 for every row pair, clipped at 0 against rounding (into ``out``,
    with ``A @ B.T`` formed in ``work``, when those are given)."""
    sq = np.add(np.sum(A**2, axis=1)[:, None], np.sum(B**2, axis=1)[None, :], out=out)
    gram = np.matmul(A, B.T, out=work)
    gram *= 2.0
    sq -= gram
    np.maximum(sq, 0.0, out=sq)
    return sq


def kernel_matrix(A: np.ndarray, B: np.ndarray, kernel: str, gamma: float) -> np.ndarray:
    if kernel == "linear":
        return A @ B.T
    if kernel == "rbf":
        return np.exp(-gamma * squared_distances(A, B))
    raise InvalidParameter(f"unknown kernel {kernel!r}")


def resolve_gamma(gamma, X: np.ndarray) -> float:
    """'scale' resolves to 1/(n_dims * Var(X)), the usual robust default.

    A numeric gamma must be positive and finite, or :class:`InvalidParameter`
    is raised: the RBF kernel is not positive semi-definite otherwise.
    """
    if gamma == "scale":
        var = float(np.asarray(X, dtype=np.float64).var())
        if var <= 0:
            var = 1.0
        return 1.0 / (X.shape[1] * var)
    if not 0 < float(gamma) < np.inf:
        raise InvalidParameter(f"gamma must be 'scale' or positive and finite, got {gamma}")
    return float(gamma)


# --- binary SMO -------------------------------------------------------------

@dataclass
class BinaryMachine:
    """One trained binary SVM: support vectors, dual coefficients, bias."""

    support_vectors: np.ndarray
    dual_coef: np.ndarray  # alpha_i * y_i over support vectors
    bias: float
    converged: bool
    n_iter: int
    kkt_gap: float  # max-over-up minus min-over-low violation when SMO stopped

    def decision(self, K_sv: np.ndarray) -> np.ndarray:
        """Decision values given kernel columns against the support vectors."""
        return K_sv @ self.dual_coef + self.bias


def _smo(
    K: np.ndarray,
    y: np.ndarray,
    C: float,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, float, bool, int, float]:
    """Maximal-violating-pair SMO on the soft-margin dual.

    Repeatedly solves the analytic two-variable subproblem for the pair that
    most violates the KKT conditions, until max-over-up minus min-over-low
    (the KKT gap, returned last) falls below ``tol``.  The gap is also
    measured after the last allowed update, so a budget that ends exactly at
    convergence counts as converged.

    The state is ``up_v``/``low_v``: the violations ``-y * grad`` (grad being the
    dual objective's gradient), with -inf/+inf where alpha cannot move up/down.
    An update subtracts one kernel-row combination from both in reused buffers
    and re-masks the two alphas it moved.  As y is +-1, sign flips are exact,
    so this equals rebuilding both from the gradient bit for bit.
    """
    n = y.size
    alpha = np.zeros(n)
    eps = 1e-12
    pos = y > 0  # at alpha = 0, grad = -1 and the violations are y
    up_v = np.where(np.where(pos, alpha < C - eps, alpha > eps), y, -np.inf)
    low_v = np.where(np.where(pos, alpha > eps, alpha < C - eps), y, np.inf)
    delta, scratch = np.empty(n), np.empty(n)

    it = 0
    while True:
        i = int(up_v.argmax())  # the methods skip np.argmax's wrapper, a third of this loop's time
        j = int(low_v.argmin())
        m_up, m_low = up_v[i], low_v[j]
        converged = bool(m_up - m_low <= tol)  # a Python bool, which JSON can serialize
        if converged or it >= max_iter:
            break

        a = K[i, i] + K[j, j] - 2.0 * K[i, j]
        if a <= 0:
            a = 1e-12
        t = (m_up - m_low) / a
        # box constraints on both coordinates
        t = min(t, C - alpha[i] if y[i] > 0 else alpha[i])
        t = min(t, alpha[j] if y[j] > 0 else C - alpha[j])
        d_i = y[i] * t
        d_j = -y[j] * t
        alpha[i] += d_i
        alpha[j] += d_j
        np.multiply(K[i], y[i] * d_i, out=delta)
        delta += np.multiply(K[j], y[j] * d_j, out=scratch)
        up_v -= delta  # -inf stays -inf, +inf stays +inf
        low_v -= delta
        for k, viol in ((i, up_v[i]), (j, low_v[j])):  # i was in up, j in low
            up = alpha[k] < C - eps if y[k] > 0 else alpha[k] > eps
            low = alpha[k] > eps if y[k] > 0 else alpha[k] < C - eps
            up_v[k] = viol if up else -np.inf
            low_v[k] = viol if low else np.inf
        it += 1

    gap = float(m_up - m_low)
    if not converged:
        warnings.warn(
            NoConvergence(
                f"SMO stopped after {max_iter} iterations with KKT gap "
                f"{gap:.3e} > tol {tol:g}"
            )
        )
    bias = float((m_up + m_low) / 2.0)
    return alpha, bias, converged, it, gap


def train_binary_svm(
    X: np.ndarray,
    y: np.ndarray,
    K: np.ndarray,
    C: float = 10.0,
    tol: float = 1e-3,
    max_passes: int = 10,
) -> BinaryMachine:
    """Train one soft-margin binary machine by SMO on the kernel matrix ``K``.

    ``y`` must hold +1 and -1, and nothing else.  ``K`` is the n x n kernel of
    the rows of ``X`` (shared across one-vs-rest machines); it must be symmetric, as
    ``kernel_matrix(X, X, ...)`` is bit for bit, since SMO reads its rows.
    The iteration budget is ``max_passes * n``; exhausting it raises a
    :class:`NoConvergence` warning and flags the machine, but still returns it.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if not (np.all(np.abs(y) == 1) and np.any(y > 0) and np.any(y < 0)):
        raise PipelineError("training labels must be +1 or -1 and must contain both classes")
    if K.shape != (y.size, y.size):
        raise PipelineError(f"kernel matrix is {K.shape}, not {(y.size, y.size)} "
                            f"for {y.size} labels")
    if not C > 0:
        raise InvalidParameter(f"C must be positive, got {C}")
    if not 0 < tol < np.inf:
        raise InvalidParameter(f"tol must be positive and finite, got {tol}")
    if not max_passes >= 1:
        raise InvalidParameter(f"max_passes must be at least 1, got {max_passes}")
    alpha, bias, converged, n_iter, kkt_gap = _smo(K, y, C, tol, max_passes * y.size)
    sv = alpha > 1e-8
    return BinaryMachine(
        support_vectors=X[sv].copy(),
        dual_coef=(alpha * y)[sv],
        bias=bias,
        converged=converged,
        n_iter=n_iter,
        kkt_gap=kkt_gap,
    )


# --- multiclass model -------------------------------------------------------

@dataclass
class SvmModel:
    """One-vs-rest ensemble with its shared feature standardizer."""

    classes: list
    machines: list[BinaryMachine]
    kernel: str
    gamma: float
    standardizer: Standardizer


def train_multiclass(
    X: np.ndarray,
    labels,
    kernel: str = "rbf",
    C: float = 10.0,
    gamma="scale",
    tol: float = 1e-3,
    max_passes: int = 10,
) -> SvmModel:
    """Standardize, then train one binary machine per class against the rest.

    A non-finite feature raises :class:`NonFiniteSample` naming its (row, column).
    """
    labels = np.asarray(labels)
    classes = sorted(np.unique(labels).tolist())
    if len(classes) < 2:
        raise PipelineError("need at least two classes")
    X = np.asarray(X, dtype=np.float64)
    check_finite(X)
    std, Xs = standardize_fit_transform(X)
    gamma_val = resolve_gamma(gamma, Xs)
    K = kernel_matrix(Xs, Xs, kernel, gamma_val)
    machines = []
    for cls in classes:
        y = np.where(labels == cls, 1.0, -1.0)
        machines.append(train_binary_svm(Xs, y, K, C, tol, max_passes))
    return SvmModel(classes, machines, kernel, gamma_val, std)


def predict(model: SvmModel, X: np.ndarray):
    """Labels and per-class decision scores for a feature matrix.

    The label is the argmax of the one-vs-rest scores; exact ties resolve to
    the lowest class id (classes are kept sorted).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.standardizer.mean.size:
        raise PipelineError(
            f"expected {model.standardizer.mean.size} feature dims, "
            f"got {X.shape[1] if X.ndim == 2 else X.shape}"
        )
    Xs = model.standardizer.transform(X)
    scores = np.empty((X.shape[0], len(model.classes)))
    for idx, machine in enumerate(model.machines):
        K_sv = kernel_matrix(Xs, machine.support_vectors, model.kernel, model.gamma)
        scores[:, idx] = machine.decision(K_sv)
    pred = np.asarray(model.classes, dtype=object)[np.argmax(scores, axis=1)]
    return pred, scores


# --- dataset and evaluation -------------------------------------------------

@dataclass
class EvalReport:
    """Pooled cross-validation metrics plus the per-fold breakdown."""

    accuracy: float  # percent
    macro_auc: float
    classes: list
    confusion: np.ndarray  # counts, true x predicted
    per_class_accuracy: dict
    per_fold: list[dict] = field(default_factory=list)
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "accuracy_pct": self.accuracy,
            "macro_auc": self.macro_auc,
            "classes": [str(c) for c in self.classes],
            "confusion": self.confusion.astype(int).tolist(),
            "per_class_accuracy_pct": {
                str(k): v for k, v in self.per_class_accuracy.items()
            },
            "per_fold": self.per_fold,
            "params": self.params,
        }

    def save_json(self, path, timestamp: str | None = None) -> None:
        payload = self.to_dict()
        if timestamp is not None:
            payload["timestamp"] = timestamp
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")

    def save_confusion_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["true\\predicted"] + [str(c) for c in self.classes])
            for cls, row in zip(self.classes, self.confusion.astype(int)):
                writer.writerow([str(cls)] + row.tolist())


def _binary_auc(scores: np.ndarray, positives: np.ndarray) -> float:
    """Rank-statistic AUC with tie correction (Mann-Whitney U)."""
    n_pos = int(positives.sum())
    n_neg = positives.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    # mid-ranks: a tie group of c scores ending at sorted position b ranks b - (c - 1) / 2
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    u = ranks[positives].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def metrics(true_labels, predicted_labels, scores, classes) -> EvalReport:
    """Accuracy, confusion counts, per-class accuracy, macro one-vs-rest AUC.

    The AUC comes from the per-class decision ``scores`` (samples x classes,
    column order matching ``classes``).
    """
    true_labels = np.asarray(true_labels)
    predicted_labels = np.asarray(predicted_labels)
    if true_labels.size != predicted_labels.size:
        raise PipelineError("true and predicted labels differ in length")
    k = len(classes)
    index = {c: i for i, c in enumerate(classes)}
    confusion = np.zeros((k, k), dtype=np.int64)
    for t, p in zip(true_labels, predicted_labels):
        confusion[index[t], index[p]] += 1
    total = confusion.sum()
    accuracy = 100.0 * confusion.trace() / total
    per_class = {}
    for cls in classes:
        i = index[cls]
        row = confusion[i].sum()
        per_class[cls] = 100.0 * confusion[i, i] / row if row else float("nan")

    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (true_labels.size, k):
        raise PipelineError("scores must be (n_samples, n_classes)")
    aucs = []
    for cls in classes:
        i = index[cls]
        auc = _binary_auc(scores[:, i], true_labels == cls)
        if not np.isnan(auc):
            aucs.append(auc)
    macro_auc = float(np.mean(aucs)) if aucs else float("nan")

    return EvalReport(
        accuracy=float(accuracy),
        macro_auc=macro_auc,
        classes=list(classes),
        confusion=confusion,
        per_class_accuracy=per_class,
    )


def session_folds(sessions) -> list[tuple[str, np.ndarray]]:
    """One (session, validation-row-indices) pair per distinct session."""
    sessions = np.asarray(sessions)
    uniq = sorted(np.unique(sessions).tolist())
    if len(uniq) < 2:
        raise PipelineError("grouped cross-validation needs at least two sessions")
    return [(s, np.flatnonzero(sessions == s)) for s in uniq]


def session_grouped_cv(
    features: np.ndarray,
    labels,
    sessions,
    kernel: str = "rbf",
    C: float = 10.0,
    gamma="scale",
    tol: float = 1e-3,
    max_passes: int = 10,
) -> EvalReport:
    """Hold out one session per fold, train on the rest, pool the predictions.

    ``features`` has one row per sample; ``labels`` and ``sessions`` give each
    row's participant and session.  A non-finite feature raises
    :class:`NonFiniteSample` naming its (row, column).  The three must agree
    in length, and there must be at least two classes, each seen in at least
    two sessions, or :class:`PipelineError` is raised.

    Sessions never straddle the train/validation split, so the metrics test
    generalization across measurement periods, not interpolation within one.
    Each ``per_fold`` entry lists its machines' SMO iterations, convergence, SVs and KKT gap.
    """
    features = np.asarray(features, dtype=np.float64)
    check_finite(features)
    labels = np.asarray(labels)
    sessions = np.asarray(sessions)
    n = features.shape[0]
    if not n == labels.size == sessions.size:
        raise PipelineError("features, labels and sessions disagree in length")
    classes = sorted(np.unique(labels).tolist())
    if len(classes) < 2:
        raise PipelineError("dataset must contain at least two classes")
    for cls in classes:
        if np.unique(sessions[labels == cls]).size < 2:
            raise PipelineError(f"class {str(cls)!r} appears in fewer than two sessions")
    folds = session_folds(sessions)
    pooled_pred = np.empty(n, dtype=object)
    pooled_scores = np.zeros((n, len(classes)))
    per_fold = []
    for session_id, val_idx in folds:
        train_mask = np.ones(n, dtype=bool)
        train_mask[val_idx] = False
        model = train_multiclass(
            features[train_mask],
            labels[train_mask],
            kernel=kernel,
            C=C,
            gamma=gamma,
            tol=tol,
            max_passes=max_passes,
        )
        pred, scores = predict(model, features[val_idx])
        pooled_pred[val_idx] = pred
        pooled_scores[val_idx] = scores
        fold_acc = 100.0 * float(np.mean(pred == labels[val_idx]))
        per_fold.append(
            {
                "session": str(session_id),
                "n_train": int(train_mask.sum()),
                "n_val": int(val_idx.size),
                "accuracy_pct": fold_acc,
                "machines": [{"class": str(c), "n_iter": m.n_iter, "converged": m.converged,
                              "n_sv": m.support_vectors.shape[0], "kkt_gap": m.kkt_gap}
                             for c, m in zip(model.classes, model.machines)],
            }
        )
    report = metrics(labels, pooled_pred, pooled_scores, classes)
    report.per_fold = per_fold
    report.params = {"kernel": kernel, "C": C, "gamma": str(gamma), "k_folds": len(folds)}
    return report
