"""Workload definitions and metric names shared by the benchmark scripts.

A workload is a sequence of ``heartid`` subcommands, run the way a user runs
them.  Each has a full size (what ``run.py`` times) and a tiny size (the
warm-up before every timed pass, and the self-test).  Only the dataset seed
varies between runs; everything else is pinned here.
"""

from __future__ import annotations

import os

PINNED_SEED = 0
# BLAS threads for every worker: fixed, and never more than the machine has
BLAS_THREADS = min(2, os.cpu_count() or 1)

# subcommand -> extra arguments, in the order the subcommands run
WORKLOADS = {
    "paper60": {
        "why": "paper protocol: 300 x 60-s records, so cepstrum and signals dominate; "
        "small SVM folds; the only workload with t-SNE",
        "full": {
            "synth": [],
            "extract": ["--kind", "prop"],
            "eval": [],
            "project": ["--method", "tsne"],
        },
        "tiny": {
            "synth": ["--days", "1", "--repetitions", "2", "--duration", "20"],
            "extract": ["--kind", "prop"],
            "eval": [],
            "project": ["--method", "tsne", "--perplexity", "5", "--iterations", "100"],
        },
        "rows": {"full": 300, "tiny": 24},
    },
    "cube20": {
        "why": "12 raw 20-s FMCW cubes (281 MB of I/Q): the only workload that runs "
        "radar and moves large files; memory-bound",
        "full": {
            "synth": ["--mode", "cube", "--days", "1", "--repetitions", "1",
                      "--duration", "20"],
            "extract": ["--kind", "prop"],
        },
        "tiny": {
            "synth": ["--mode", "cube", "--days", "1", "--repetitions", "1",
                      "--duration", "4"],
            "extract": ["--kind", "prop"],
        },
        "rows": {"full": 12, "tiny": 12},
    },
}

FEATURE_COLS = 96  # prop = amp + ph + 2 x comp, K' = 24 each

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "extract_s": "s",
    "peak_rss_mb": "MB",
}

# module -> public functions the traced run wraps
TRACED_FUNCTIONS = {
    "cohort": ["generate_cohort", "displacement", "render_baseband", "render_cube",
               "segment"],
    "dataio": ["save_dataset", "load_record", "write_features", "read_features"],
    "radar": ["range_profile", "beamform", "select_echo"],
    "signals": ["stft_magnitude", "second_derivative", "complex_second_derivative",
                "phase_unwrapped"],
    "cepstrum": ["extract_all", "extract_features", "build_mel_bank", "mel_energies",
                 "bank_response_matrix", "dct2"],
    "classify": ["session_grouped_cv", "train_multiclass", "kernel_matrix",
                 "train_binary_svm", "predict", "metrics"],
    "embedding": ["tsne2", "joint_probabilities", "pca2"],
}
CLI_SPANS = ["cli.synth", "cli.extract", "cli.eval", "cli.project"]
# functions whose spans also record a tracemalloc peak
MEMORY_TRACED = ["radar.beamform", "cohort.render_cube", "classify.kernel_matrix"]

DERIVED = {
    "cepstrum.bank_builds_per_sample": "1",
    "classify.smo_iters": "count",
    "classify.smo_iters_fold_max": "count",
    "classify.smo_converged_frac": "1",
    "classify.n_sv": "count",
    "classify.accuracy_pct": "%",
    "classify.macro_auc": "1",
    "embedding.tsne_iter_ms": "ms",
    "dataio.bytes_written": "B",
    "dataio.bytes_read": "B",
    "radar.beamform.bytes_computed": "B",
    "classify.kernel_matrix.bytes_computed": "B",
    **{f"{name}.peak_mb": "MB" for name in MEMORY_TRACED},
    "trace.overhead_s": "s",
}


def span_names() -> list[str]:
    return CLI_SPANS + [
        f"{module}.{fn}" for module, fns in TRACED_FUNCTIONS.items() for fn in fns
    ]


def per_layer_units() -> dict[str, str]:
    # a CLI span runs once per pass or not at all, so it has no call count
    units = {}
    for name in span_names():
        if name not in CLI_SPANS:
            units[f"{name}.calls"] = "count"
        units.update({f"{name}.s": "s", f"{name}.self_s": "s"})
    units.update(DERIVED)
    return units


def commands(workload: str, size: str, seed: int, out: str) -> list[tuple[str, list[str]]]:
    """The (subcommand, argv) pairs of one pass, writing under ``out``."""
    data, feats = f"{out}/dataset", f"{out}/features.csv"
    files = {
        "synth": ["--out", data, "--seed", str(seed)],
        "extract": ["--data", data, "--out", feats],
        "eval": ["--features", feats, "--report", f"{out}/report.json"],
        "project": ["--features", feats, "--out", f"{out}/projection.csv"],
    }
    return [
        (name, [name, *files[name], *extra])
        for name, extra in WORKLOADS[workload][size].items()
    ]


def worker_env() -> dict[str, str]:
    n = str(BLAS_THREADS)
    return {**os.environ, "OPENBLAS_NUM_THREADS": n, "OMP_NUM_THREADS": n,
            "MKL_NUM_THREADS": n}
