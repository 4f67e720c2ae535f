"""Self-test of the benchmark: every workload at its tiny size.

    python3 perfbench/selftest.py

For each workload it makes one untraced and two traced runs and checks that
each passes its output checks and reports exactly the metrics, with the
units, that BENCHMARK.json names; that the per-layer call pattern matches
the workload (radar only on cube20, embedding only on paper60, classify not
on cube20); and that the counts repeat exactly between the two traced runs.
Last, it checks that the benchmark refuses to run where the program's
sources are missing.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMINGS = {"s", "ms", "MB"}  # units of measured values; all others are counts


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(workloads.PINNED_SEED), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result_of(proc: subprocess.CompletedProcess, expected: dict, what: str) -> dict:
    if proc.returncode != 0:
        raise SystemExit(f"{what}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"checks failed:\n{proc.stdout}")
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    if units != expected:
        problems.append(f"metrics differ from BENCHMARK.json: {set(units) ^ set(expected)}")
    bad = [n for n, m in result["metrics"].items()
           if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"])]
    if bad:
        problems.append(f"non-finite values {bad}")
    if problems:
        raise SystemExit(f"{what}: " + "; ".join(problems))
    return {name: m["value"] for name, m in result["metrics"].items()}


def layer_pattern(workload: str, layers: dict) -> None:
    def called(module):
        return any(v > 0 for k, v in layers.items()
                   if k.startswith(f"{module}.") and k.endswith(".calls"))

    expected = {"radar": workload == "cube20", "embedding": workload == "paper60",
                "classify": workload != "cube20"}
    for module, want in expected.items():
        if called(module) != want:
            raise SystemExit(f"{workload}: {module} calls {'missing' if want else 'present'}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if end_to_end != workloads.END_TO_END or per_layer != workloads.per_layer_units():
        raise SystemExit("BENCHMARK.json and workloads.py name different metrics")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        raise SystemExit("BENCHMARK.json and workloads.py name different workloads")

    for workload in workloads.WORKLOADS:
        result_of(bench(ROOT, workload, 0), end_to_end, f"{workload} untraced")
        first, second = (result_of(bench(ROOT, workload, 1), per_layer, f"{workload} traced")
                         for _ in range(2))
        layer_pattern(workload, first)
        drift = [n for n, unit in per_layer.items()
                 if unit not in TIMINGS and first[n] != second[n]]
        if drift:
            raise SystemExit(f"{workload}: counts differ between traced runs: {drift}")
        print(f"{workload}: ok", flush=True)

    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench(bare, "paper60", 0)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        raise SystemExit("the benchmark ran without the program's sources")
    print("without sources: refused", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
