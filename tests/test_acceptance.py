"""Acceptance gate: one test per criterion, each printing a pass/fail line
(via the conftest hook).  Thresholds are fixed here, not calibrated."""

import json
from functools import lru_cache

import numpy as np
import pytest
from scipy.signal import detrend

from heartid import cepstrum, classify, cohort, dataio, radar
from heartid.cli import main
from heartid.signals import phase_unwrapped

MEL_CFG = cepstrum.MelBankConfig()  # L=64, f_ref=5 Hz, f_prime=1 kHz


@lru_cache(maxsize=None)
def cohort_features(preset: str, seed: int, snr_db: float, seg_len: float | None):
    """Synthesize a full cohort and extract all four feature kinds."""
    profiles = cohort.COHORT_PRESETS[preset]()
    measurements = cohort.generate_cohort(profiles, snr_db=snr_db, seed=seed)
    rows = {kind: [] for kind in cepstrum.FEATURE_KINDS}
    labels, sessions = [], []
    for m in measurements:
        pieces = cohort.segment(m, seg_len) if seg_len else [m]
        for piece in pieces:
            prop = cepstrum.extract_features(piece.signal, MEL_CFG, kind="prop")
            for kind, vec in zip(cepstrum.FEATURE_KINDS, (*np.split(prop, [24, 48]), prop)):
                rows[kind].append(vec)
            labels.append(piece.label)
            sessions.append(piece.session_id)
    features = {kind: np.stack(rows[kind]) for kind in cepstrum.FEATURE_KINDS}
    return features, np.array(labels), np.array(sessions)


@lru_cache(maxsize=None)
def evaluate(preset: str, seed: int, snr_db: float, kind: str, seg_len=None):
    features, labels, sessions = cohort_features(preset, seed, snr_db, seg_len)
    return classify.session_grouped_cv(features[kind], labels, sessions)


def test_criterion_1_paper_protocol_arithmetic():
    # 300 samples = 6 participants x 10 sessions x 5 repetitions
    features, labels, sessions = cohort_features("default", 0, 20.0, None)
    assert features["prop"].shape == (300, 96)
    assert len(np.unique(labels)) == 6
    folds = classify.session_folds(sessions)
    assert len(folds) == 10
    for _, val_idx in folds:
        assert val_idx.size == 30
        assert labels.size - val_idx.size == 270
    # 5-s segmentation turns the 300 recordings into 3600 samples
    seg_features, seg_labels, seg_sessions = cohort_features("default", 0, 20.0, 5.0)
    assert seg_features["prop"].shape[0] == 3600
    seg_folds = classify.session_folds(seg_sessions)
    assert len(seg_folds) == 10
    for _, val_idx in seg_folds:
        assert val_idx.size == 360
        assert seg_labels.size - val_idx.size == 3240


def test_criterion_2_default_cohort_identification():
    report = evaluate("default", 0, 20.0, "prop")
    print(
        f"\n  default cohort (60 s, 20 dB): accuracy {report.accuracy:.2f}% "
        f"(need >= 95), macro AUC {report.macro_auc:.4f} (need >= 0.99)"
    )
    assert report.accuracy >= 95.0
    assert report.macro_auc >= 0.99


def test_criterion_3_fusion_benefit_on_hard_cohort():
    for seed in range(5):
        accs = {
            kind: evaluate("hard", seed, 10.0, kind).accuracy
            for kind in ("amp", "ph", "comp", "prop")
        }
        best_single = max(accs["amp"], accs["ph"], accs["comp"])
        print(
            f"\n  hard cohort seed {seed}: "
            + " ".join(f"{k}={accs[k]:.2f}%" for k in ("amp", "ph", "comp", "prop"))
            + f" (prop - best single = {accs['prop'] - best_single:+.2f} pp)"
        )
        assert accs["prop"] >= best_single - 1.0


def test_criterion_4_segment_length_degradation():
    for seed in range(3):
        acc_60 = evaluate("default", seed, 20.0, "prop").accuracy
        acc_5 = evaluate("default", seed, 20.0, "prop", seg_len=5.0).accuracy
        print(f"\n  seed {seed}: 60 s {acc_60:.2f}% vs 5 s {acc_5:.2f}%")
        assert acc_5 <= acc_60


def test_criterion_5_numerical_oracles():
    rng = np.random.default_rng(123)

    # DCT-II vs direct summation, N up to 256
    for n in (1, 2, 5, 64, 200, 256):
        m = rng.uniform(-10, 10, n)
        k = np.arange(n)[:, None]
        naive = (np.cos(np.pi * k * (np.arange(n) + 0.5) / n) * m[None, :]).sum(axis=1)
        scale = max(np.max(np.abs(naive)), 1.0)
        assert np.max(np.abs(cepstrum.dct2(m) - naive)) <= 1e-10 * scale

    # filter-bank integration vs 10x-density brute-force quadrature
    from test_cepstrum import _riemann_oracle, _smooth_spectrogram

    bank = cepstrum.build_mel_bank(MEL_CFG, 100.0)
    frame_times = np.linspace(0.0, 6.0, 61)
    freqs = np.linspace(-50.0, 50.0, 8001)
    bumps = [(1.0, 2.0, 0.9), (0.6, 9.0, 2.5), (0.4, -15.0, 3.0)]
    positive, negative = cepstrum.mel_energies(
        _smooth_spectrogram(freqs, frame_times, bumps), freqs, frame_times, bank
    )
    pos = _riemann_oracle(bank, 6.0, bumps, 0.0, 50.0, 40001, 601)
    neg = _riemann_oracle(bank, 6.0, bumps, -50.0, 0.0, 40001, 601)
    scale = max(pos.max(), neg.max())
    assert np.max(np.abs(positive - pos)) <= 1e-3 * scale
    assert np.max(np.abs(negative - neg)) <= 1e-3 * scale

    # SMO dual objective vs projected-gradient QP on problems of <= 50 points
    from test_classify import dual_objective, qp_oracle

    for n_pts, gamma, C in ((20, 0.5, 5.0), (50, 0.3, 10.0)):
        X = rng.standard_normal((n_pts, 3))
        y = np.where(X[:, 0] + 0.3 * rng.standard_normal(n_pts) > 0, 1.0, -1.0)
        if abs(y.sum()) == n_pts:
            y[0] = -y[0]
        K = classify.kernel_matrix(X, X, "rbf", gamma)
        machine = classify.train_binary_svm(X, y, K, C=C, tol=1e-4, max_passes=500)
        alpha = np.zeros(n_pts)
        sv_rows = {tuple(v): i for i, v in enumerate(machine.support_vectors)}
        for i in range(n_pts):
            j = sv_rows.get(tuple(X[i]))
            if j is not None:
                alpha[i] = machine.dual_coef[j] * y[i]
        ours = dual_objective(alpha, K, y)
        best = dual_objective(qp_oracle(K, y, C), K, y)
        assert ours >= best - 1e-4 * abs(best)

    # rank-statistic AUC vs exhaustive pair counting
    from test_classify import auc_by_pair_counting
    from heartid.classify import _binary_auc

    for trial in range(20):
        scores = np.round(rng.standard_normal(40), 1)  # heavy ties
        positives = rng.random(40) > 0.5
        if positives.all() or not positives.any():
            continue
        want = auc_by_pair_counting(scores, positives)
        assert abs(_binary_auc(scores, positives) - want) <= 1e-12


def test_criterion_6_physics_roundtrip(tmp_path):
    cfg = radar.RadarConfig()
    profile = cohort.default_cohort()[2]
    d = cohort.displacement(profile, duration=30.0, fs=100.0, seed=11)

    # noiseless baseband: recovered displacement to 1e-9 m
    d0 = d - d[0]
    s = cohort.render_baseband(d0, cfg, snr_db=None)
    recovered = phase_unwrapped(s.samples) * cfg.wavelength / (4 * np.pi)
    err = np.max(np.abs(recovered - d0))
    print(f"\n  baseband round-trip error: {err:.3e} m (need <= 1e-9)")
    assert err <= 1e-9

    # cube mode: the cube file's range FFT + beamform + select recovers the phase
    path = tmp_path / "cube.iq"
    cohort.render_cube(d, cfg, snr_db=20.0, seed=5, range_m=1.5, angle_deg=8.0, path=path)
    sel = radar.extract_slow_time(dataio.read_cube(path, cfg, d.size))
    corr = np.corrcoef(
        detrend(phase_unwrapped(sel.series.samples)),
        detrend(4 * np.pi * d / cfg.wavelength),
    )[0, 1]
    print(f"  cube-mode phase correlation: {corr:.6f} (need >= 0.99)")
    assert corr >= 0.99


def test_criterion_7_mel_bank_edges():
    configs = [
        (cepstrum.MelBankConfig(), 100.0),
        (cepstrum.MelBankConfig(n_filters=8, f_ref=1.0, f_prime=200.0), 25.0),
        (cepstrum.MelBankConfig(n_filters=64, f_ref=5.0, f_prime=1000.0), 250.0),
        (cepstrum.MelBankConfig(n_filters=100, f_ref=20.0, f_prime=4000.0), 16000.0),
        (cepstrum.MelBankConfig(n_filters=1, f_ref=0.1, f_prime=10.0), 2.0),
    ]
    for cfg, fs in configs:
        bank = cepstrum.build_mel_bank(cfg, fs)
        assert bank[0] == 0.0
        assert abs(bank[-1] - fs / 2) <= 1e-9 * (fs / 2)


def test_criterion_8_pipeline_determinism(tmp_path):
    synth_args = ["--days", "1", "--repetitions", "2", "--duration", "10",
                  "--seed", "42", "--snr-db", "15"]
    outputs = []
    for run in ("r1", "r2"):
        base = tmp_path / run
        data = base / "data"
        assert main(["synth", "--out", str(data)] + synth_args) == 0
        feat = base / "prop.csv"
        assert main(["extract", "--data", str(data), "--out", str(feat)]) == 0
        report = base / "report.json"
        conf = base / "conf.csv"
        assert main(["eval", "--features", str(feat), "--report", str(report),
                     "--confusion", str(conf)]) == 0
        proj = base / "proj.csv"
        assert main(["project", "--features", str(feat), "--out", str(proj),
                     "--method", "tsne", "--perplexity", "3",
                     "--iterations", "40", "--seed", "9"]) == 0
        manifest = json.loads((data / "manifest.json").read_text())
        record_bytes = (data / manifest["records"][0]["file"]).read_bytes()
        outputs.append(
            (
                (data / "manifest.json").read_bytes(),
                record_bytes,
                feat.read_bytes(),
                report.read_bytes(),
                conf.read_bytes(),
                proj.read_bytes(),
            )
        )
    for a, b in zip(outputs[0], outputs[1]):
        assert a == b
