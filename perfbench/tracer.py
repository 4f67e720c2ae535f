"""Span tracer that wraps heartid's public functions from outside the program.

Every ``heartid.*`` module attribute that is one of the traced function
objects is rebound to a timing wrapper, so calls are caught whichever module
namespace they go through (``cepstrum.stft_magnitude`` is the same object as
``signals.stft_magnitude``).  Spans stay in memory with a link to the span
that was open when they started; the originals are restored on exit.  A few
wrappers also read counts from return values (SMO iterations, support
vectors, computed bytes) or record a ``tracemalloc`` peak.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import workloads


class Tracer:
    def __init__(self):
        # one span: [name, parent index or -1, start, end, tracemalloc peak or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.echoes: list[dict] = []

    # --- installing -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "heartid" or name.startswith("heartid."))]
        for module_name, functions in workloads.TRACED_FUNCTIONS.items():
            home = sys.modules[f"heartid.{module_name}"]
            for fn_name in functions:
                original = getattr(home, fn_name, None)
                if original is None:  # removed by a later change: reported as 0 calls
                    continue
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, attr, original))
                            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe else None
        track_memory = name in workloads.MEMORY_TRACED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            tracing_memory = track_memory and not tracemalloc.is_tracing()
            if tracing_memory:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if tracing_memory:
                    self.spans[index][4] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._close(index)
            if observe:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(self, bound.arguments, result)
            return result

        return wrapper

    # --- reporting ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-span calls, inclusive and self time, plus the derived counts."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        child: dict[str, float] = defaultdict(float)
        peak: dict[str, int] = defaultdict(int)
        for name, parent, start, end, mem in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[self.spans[parent][0]] += end - start
            if mem is not None:
                peak[name] = max(peak[name], mem)
        out: dict[str, float] = {}
        for name in workloads.span_names():
            if name not in workloads.CLI_SPANS:
                out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = total[name] - child[name]
        c = self.counts
        out["cepstrum.bank_builds_per_sample"] = _ratio(
            calls["cepstrum.build_mel_bank"], c["samples"])
        out["classify.smo_iters"] = c["smo_iters"]
        out["classify.smo_iters_fold_max"] = c["smo_iters_fold_max"]
        out["classify.smo_converged_frac"] = _ratio(c["converged"], c["machines"])
        out["classify.n_sv"] = c["n_sv"]
        out["embedding.tsne_iter_ms"] = 1e3 * _ratio(
            total["embedding.tsne2"] - total["embedding.joint_probabilities"],
            c["tsne_iterations"])
        out["dataio.bytes_written"] = c["bytes_written"]
        out["dataio.bytes_read"] = c["bytes_read"]
        out["radar.beamform.bytes_computed"] = c["beamform_bytes"]
        out["classify.kernel_matrix.bytes_computed"] = c["kernel_bytes"]
        for name in workloads.MEMORY_TRACED:
            out[f"{name}.peak_mb"] = peak[name] / 2**20
        return out

    def write(self, path: Path, extra: dict) -> None:
        """Write the spans, with their parent links, as one JSON file."""
        spans = [
            {"name": n, "parent": p, "start": s, "end": e, "peak_bytes": m}
            for n, p, s, e, m in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**extra, "spans": spans}, fh)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# --- return-value observers ---------------------------------------------------
# Each reads what one call did from its arguments and result.

def _binary_svm(t: Tracer, args, machine) -> None:
    t.counts["smo_iters"] += machine.n_iter
    t.counts["machines"] += 1
    t.counts["converged"] += bool(machine.converged)
    t.counts["n_sv"] += machine.support_vectors.shape[0]


def _multiclass(t: Tracer, args, model) -> None:
    t.counts["smo_iters_fold_max"] += max(m.n_iter for m in model.machines)


def _kernel_matrix(t: Tracer, args, K) -> None:
    t.counts["kernel_bytes"] += K.shape[0] * K.shape[1] * 8


def _beamform(t: Tracer, args, result) -> None:
    n_slow, _, n_range = result.profiles.shape
    t.counts["beamform_bytes"] += n_slow * n_range * result.angles_deg.size * 16


def _select_echo(t: Tracer, args, echo) -> None:
    t.echoes.append({
        "angle_deg": echo.angle_deg,
        "range_m": echo.range_m,
        "low_snr": bool(echo.low_snr),
        "range_bin_m": args["result"].config.range_bin_spacing,
    })


def _save_dataset(t: Tracer, args, manifest) -> None:
    out = Path(args["out_dir"])
    files = [out / r["file"] for r in manifest["records"]]
    t.counts["bytes_written"] += sum(os.path.getsize(f) for f in files)


def _write_features(t: Tracer, args, _) -> None:
    t.counts["bytes_written"] += os.path.getsize(args["path"])
    t.counts["samples"] += len(args["rows"])


def _load_record(t: Tracer, args, _) -> None:
    t.counts["bytes_read"] += os.path.getsize(Path(args["data_dir"]) / args["record"]["file"])


def _read_features(t: Tracer, args, _) -> None:
    t.counts["bytes_read"] += os.path.getsize(args["path"])


def _tsne(t: Tracer, args, _) -> None:
    t.counts["tsne_iterations"] += args["iterations"]


OBSERVERS = {
    "classify.train_binary_svm": _binary_svm,
    "classify.train_multiclass": _multiclass,
    "classify.kernel_matrix": _kernel_matrix,
    "radar.beamform": _beamform,
    "radar.select_echo": _select_echo,
    "dataio.save_dataset": _save_dataset,
    "dataio.write_features": _write_features,
    "dataio.load_record": _load_record,
    "dataio.read_features": _read_features,
    "embedding.tsne2": _tsne,
}
