"""Write reference.json: the pinned-seed outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Runs one worker per workload on the pinned seed and keeps, for both the tiny
(warm-up) and the full size, the feature table's shape, a few probe rows,
the column means, the pooled confusion matrix and the t-SNE KL.  Regenerate
it only when a change is meant to alter the program's outputs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
KEYS = ("rows", "cols", "probe", "column_mean", "confusion", "kl")


def main() -> int:
    reference = {}
    work = HERE.parent / ".perfbench" / "reference"
    for workload in workloads.WORKLOADS:
        shutil.rmtree(work, ignore_errors=True)
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload,
             "--size", "full", "--seed", str(workloads.PINNED_SEED), "--dir", str(work)],
            capture_output=True, text=True, check=True, env=workloads.worker_env(),
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        reference[workload] = {}
        for size, sub, run in (("tiny", "warmup", "warmup"), ("full", "pass", "pass")):
            if any(result[run]["codes"].values()):
                raise SystemExit(f"{workload} {size}: a subcommand failed")
            summary = checks.summarize(work / sub, result[run]["console"], workload)
            reference[workload][size] = {k: summary[k] for k in KEYS if k in summary}
        print(f"{workload}: {reference[workload]['full']['rows']} rows", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    checks.REFERENCE.write_text(json.dumps(reference) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
