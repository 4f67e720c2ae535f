"""Output checks: every subcommand call and every check counts as one operation.

A pass fails a check when a subcommand exits non-zero, the feature CSV has
the wrong shape or a non-finite value, the report or t-SNE projection is not
finite, or, on the pinned seed, when features, the pooled confusion matrix or
the t-SNE KL divergence leave the committed reference (``reference.json``,
written by ``make_reference.py``) by more than the tolerances below.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np

import workloads

REFERENCE = Path(__file__).resolve().parent / "reference.json"
# Feature values may differ from the reference by this share of the largest
# magnitude in their row: loose enough for a reordered sum, far below any
# real change of the features.
FEATURE_RTOL = 1e-9
# t-SNE amplifies last-digit float changes over 1000 iterations, so the KL is
# held to a relative band around the reference, never to byte equality.
KL_RTOL = 0.1
PROBE_ROWS = 8
CUBE_RANGE_M, CUBE_ANGLE_DEG = 1.5, 0.0  # where cohort.render_cube puts the target


def summarize(out: Path, console: str, workload: str) -> dict:
    """What the checks compare: feature shape, probe rows, report, KL."""
    ids, values = read_features(out / "features.csv")
    probe = np.unique(np.linspace(0, len(ids) - 1, PROBE_ROWS).astype(int))
    summary = {
        "rows": len(ids),
        "cols": values.shape[1] if values.ndim == 2 else 0,
        "probe": {ids[i]: values[i].tolist() for i in probe},
        "column_mean": values.mean(axis=0).tolist(),
    }
    steps = workloads.WORKLOADS[workload]["full"]
    if "eval" in steps:
        report = json.loads((out / "report.json").read_text())
        summary["confusion"] = report["confusion"]
        summary["accuracy_pct"] = report["accuracy_pct"]
        summary["macro_auc"] = report["macro_auc"]
    if "project" in steps:
        summary["projection_finite"] = bool(np.all(np.isfinite(
            np.loadtxt(out / "projection.csv", delimiter=",", skiprows=1,
                       usecols=(2, 3), ndmin=2))))
        match = re.search(r"kl=(\S+) ->", console)
        summary["kl"] = float(match.group(1)) if match else math.nan
    return summary


def read_features(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    n_meta = 5  # sample_id, label, session_id, segment_index, kind
    ids = [r[0] for r in rows[1:]]
    values = np.array([[float(v) for v in r[n_meta:]] for r in rows[1:]])
    return ids, values


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


class Checks:
    def __init__(self, workload: str):
        self.workload = workload
        self.reference = load_reference().get(workload, {})
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.quality: dict[str, float] = {}

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def pass_outputs(self, result: dict, out: Path, size: str, seed: int,
                     record: bool = False) -> None:
        """Check one pass: exit codes, then its files."""
        label = f"{size} seed {seed}"
        codes_ok = all(
            self.check(code == 0, f"{label}: {name} exited {code}")
            for name, code in result["codes"].items()
        )
        if not codes_ok:
            return
        try:
            s = summarize(out, result["console"], self.workload)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            self.check(False, f"{label}: unreadable outputs ({exc})")
            return
        values = np.array(list(s["probe"].values()))
        self.check(
            (s["rows"], s["cols"]) == (workloads.WORKLOADS[self.workload]["rows"][size],
                                       workloads.FEATURE_COLS),
            f"{label}: feature table is {s['rows']} x {s['cols']}",
        )
        self.check(bool(np.all(np.isfinite(s["column_mean"])) and np.all(np.isfinite(values))),
                   f"{label}: non-finite features")
        if "confusion" in s:
            self.check(
                math.isfinite(s["accuracy_pct"]) and math.isfinite(s["macro_auc"])
                and int(np.sum(s["confusion"])) == s["rows"],
                f"{label}: report accuracy {s['accuracy_pct']}, AUC {s['macro_auc']}",
            )
        if "kl" in s:
            self.check(s["projection_finite"] and math.isfinite(s["kl"]) and s["kl"] > 0,
                       f"{label}: t-SNE points finite {s['projection_finite']}, KL {s['kl']}")
        if record:
            self.quality.update(
                {k: s[k] for k in ("accuracy_pct", "macro_auc", "kl") if k in s})
        if seed == workloads.PINNED_SEED:
            self._against_reference(s, self.reference.get(size), label)

    def _against_reference(self, s: dict, ref: dict | None, label: str) -> None:
        if not self.check(ref is not None, f"{label}: no committed reference"):
            return
        worst = 0.0
        for sid, expected in ref["probe"].items():
            expected = np.array(expected)
            got = np.array(s["probe"].get(sid, [math.nan] * expected.size))
            scale = np.max(np.abs(expected))
            worst = max(worst, float(np.max(np.abs(got - expected))) / scale)
        mean_ref = np.array(ref["column_mean"])
        worst = max(worst, float(np.max(np.abs(np.array(s["column_mean"]) - mean_ref)))
                    / np.max(np.abs(mean_ref)))
        self.check(worst <= FEATURE_RTOL,
                   f"{label}: features differ from the reference by {worst:.3g} (relative)")
        if "confusion" in ref:
            self.check(s["confusion"] == ref["confusion"],
                       f"{label}: pooled confusion {s['confusion']} != reference")
        if "kl" in ref:
            self.check(abs(s["kl"] - ref["kl"]) <= KL_RTOL * ref["kl"],
                       f"{label}: t-SNE KL {s['kl']:.4f} outside {KL_RTOL:.0%} of {ref['kl']:.4f}")

    def echoes(self, echoes: list[dict]) -> None:
        """The cube front end must pick the simulated target for every record."""
        if not echoes:
            return
        for e in echoes:
            self.check(
                abs(e["range_m"] - CUBE_RANGE_M) <= e["range_bin_m"]
                and e["angle_deg"] == CUBE_ANGLE_DEG and not e["low_snr"],
                f"echo at {e['range_m']:.3f} m, {e['angle_deg']:g} deg, low_snr {e['low_snr']}",
            )
