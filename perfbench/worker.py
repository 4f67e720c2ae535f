"""One benchmark process: import heartid, warm up, then time one pass.

Started by ``run.py`` with a fresh interpreter per pass, so that the peak
resident set and the set-up time belong to that pass alone.  Protocol on
standard output: the line ``ready`` once imports and the warm-up are done,
then one JSON line with the pass's timings and, when traced, its per-layer
metrics.  The program's own console output is kept off that channel.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
import time
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from heartid import cli  # noqa: E402


def run_commands(commands, tracer=None) -> dict:
    """Run the subcommands in order; return codes, wall times and console text."""
    times, codes, console = {}, {}, io.StringIO()
    for name, argv in commands:
        span = tracer.span(f"cli.{name}") if tracer else nullcontext()
        t0 = time.perf_counter()
        with span, redirect_stdout(console):
            codes[name] = cli.main(argv)
        times[f"{name}_s"] = time.perf_counter() - t0
    return {"times": times, "codes": codes, "console": console.getvalue()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--size", required=True, choices=("full", "tiny"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, help="directory for this process's files")
    parser.add_argument("--trace", default=None, help="trace the pass; write spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    out = Path(args.dir)

    warmup = run_commands(workloads.commands(
        args.workload, "tiny", workloads.PINNED_SEED, str(out / "warmup")))
    print("ready", flush=True)
    result = {"warmup": warmup}
    if not args.setup_only:
        commands = workloads.commands(args.workload, args.size, args.seed, str(out / "pass"))
        if args.trace:
            import tracer

            with tracer.Tracer() as t:
                result["pass"] = run_commands(commands, t)
            result["layers"] = t.metrics()
            result["echoes"] = t.echoes
            t.write(Path(args.trace), {"workload": args.workload, "seed": args.seed})
        else:
            result["pass"] = run_commands(commands)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["env"] = environment()
    print(json.dumps(result), flush=True)
    return 0


def environment() -> dict:
    import ctypes
    import glob

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        get = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            threads = get()
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


if __name__ == "__main__":
    sys.exit(main())
