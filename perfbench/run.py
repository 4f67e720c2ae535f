"""heartid benchmark: run one workload through the CLI and report its metrics.

    python3 perfbench/run.py --workload paper60 --seed 1 --seconds 40 --trace 0

Each timed pass runs in a fresh worker process (``worker.py``) that imports
heartid, warms up on a tiny pinned-seed copy of the workload and then runs
the full workload's subcommands.  Passes repeat while the next one is
expected to fit in ``--seconds``; the end-to-end metrics are medians over
passes, and ``setup_s`` is the median over at least ``MIN_SETUPS`` worker
start-ups.  With ``--trace 1`` the run makes one untraced and one traced
pass and reports the per-layer metrics of the traced one.  Outputs are
checked after every pass; the last line of standard output is the JSON
result.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_SETUPS = 5
EXTRA_UNITS = {"synth_s": "s", "eval_s": "s", "project_s": "s", "accuracy_pct": "%",
               "macro_auc": "1", "kl": "1"}
DEADLINE_S = 172  # the whole run, workers included, ends before 180 s


def git_commit() -> str:
    if not (ROOT / ".git").exists():  # e.g. an exported checkout
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class Runner:
    """Starts workers one at a time and keeps every output check it makes."""

    def __init__(self, workload: str, size: str, seed: int, work: Path):
        self.workload, self.size, self.seed, self.work = workload, size, seed, work
        self.deadline = time.monotonic() + DEADLINE_S
        self.checks = checks.Checks(workload)
        self.env: dict = {}
        self._count = 0

    def worker(self, setup_only=False, trace: Path | None = None) -> dict:
        """One worker process: returns its result plus the measured setup time."""
        self._count += 1
        pdir = self.work / f"p{self._count}"
        pdir.mkdir(parents=True)
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
                "--size", self.size, "--seed", str(self.seed), "--dir", str(pdir)]
        if setup_only:
            argv.append("--setup-only")
        if trace is not None:
            argv += ["--trace", str(trace)]
        with open(pdir / "stderr.txt", "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                    text=True, env=workloads.worker_env(), cwd=ROOT)
            # a worker still running at the run's deadline is killed
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                ready = proc.stdout.readline()
                setup_s = time.perf_counter() - t0
                out, _ = proc.communicate()
            finally:
                timer.cancel()
        if ready.strip() != "ready" or proc.returncode != 0:
            tail = (pdir / "stderr.txt").read_text()[-2000:]
            raise RuntimeError(f"worker failed (exit {proc.returncode}; killed at the "
                               f"{DEADLINE_S}-s deadline if negative):\n{tail}")
        result = json.loads(out.strip().splitlines()[-1])
        result["setup_s"] = setup_s
        self.env = result["env"]
        self.checks.pass_outputs(result["warmup"], pdir / "warmup", "tiny",
                                 workloads.PINNED_SEED)
        if "pass" in result:
            self.checks.pass_outputs(result["pass"], pdir / "pass", self.size, self.seed,
                                     record=True)
        if trace is not None:
            self.checks.echoes(result["echoes"])
        shutil.rmtree(pdir)
        return result


def pass_times(result: dict) -> dict[str, float]:
    """The pass's subcommand wall times and their sum."""
    times = dict(result["pass"]["times"])
    times["run_s"] = sum(times.values())
    return times


def untraced(runner: Runner, seconds: float) -> dict:
    passes, start = [], time.perf_counter()
    while True:
        passes.append(runner.worker())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUPS:
        setups.append(runner.worker(setup_only=True)["setup_s"])
    times = [pass_times(p) for p in passes]

    def median(key):
        return statistics.median(t[key] for t in times)

    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": median("run_s"),
        "extract_s": median("extract_s"),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    # printed only: not every workload runs eval and project, and synth_s
    # spread too much between runs (see README.md)
    extra = {step: median(step) for step in ("synth_s", "eval_s", "project_s")
             if step in times[0]}
    extra.update(runner.checks.quality)
    info = {"passes": len(passes), "setups": setups,
            **{f"pass_{k}": [t[k] for t in times] for k in times[0]}}
    return {"metrics": metrics, "extra": extra, "info": info}


def traced(runner: Runner) -> dict:
    plain = runner.worker()
    trace_file = ROOT / ".perfbench" / "traces" / f"{runner.workload}-seed{runner.seed}.json"
    result = runner.worker(trace=trace_file)
    layers = result["layers"]
    layers["classify.accuracy_pct"] = runner.checks.quality.get("accuracy_pct", 0.0)
    layers["classify.macro_auc"] = runner.checks.quality.get("macro_auc", 0.0)
    layers["trace.overhead_s"] = pass_times(result)["run_s"] - pass_times(plain)["run_s"]
    return {"metrics": layers, "extra": {},
            "info": {"trace_file": str(trace_file.relative_to(ROOT))}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="time the tiny size instead (self-test)")
    args = parser.parse_args()
    if not (ROOT / "src" / "heartid" / "cli.py").is_file():
        print(f"error: no heartid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    runner = Runner(args.workload, "tiny" if args.tiny else "full", args.seed, work)
    try:
        out = traced(runner) if args.trace else untraced(runner, args.seconds)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = workloads.per_layer_units() if args.trace else workloads.END_TO_END
    c = runner.checks
    env = {**runner.env, "blas_threads_set": workloads.BLAS_THREADS, "nproc": os.cpu_count(),
           "seed": args.seed, "workload": args.workload, "git_commit": git_commit()}
    print("env " + json.dumps(env))
    print("info " + json.dumps(out["info"]))
    for line in c.failures:
        print(f"check failed: {line}")
    shown = {name: (out["metrics"][name], unit) for name, unit in units.items()}
    shown.update({name: (value, EXTRA_UNITS[name]) for name, value in out["extra"].items()})
    shown["failed_frac"] = (c.failed / c.attempted, "1")
    for name, (value, unit) in shown.items():
        print(f"  {name:48s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": c.failed == 0,
        "attempted": c.attempted,
        "failed": c.failed,
        "metrics": {
            name: {"value": out["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
