"""Command-line front end: synth, extract, eval, project, report.

``extract`` runs two records at a time on threads when two CPUs are
available and the dataset is cube, or baseband with at least
``_TWO_LANE_FRAMES`` STFT frames per series; otherwise it runs one at a time
in the calling thread.  Each lane owns its workspaces, allocated before the
records start: a baseband lane one :class:`~heartid.signals.StftWorkspace`, a
cube lane one :class:`~heartid.radar.FrontEndWorkspace`, into which the
front end streams each record, keeping only a few candidate range bins'
profiles.  Rows are written in record order either way.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal failure.
Option precedence is flags > --config JSON file > built-in defaults; the
config file maps subcommand names to option dictionaries, e.g.
``{"extract": {"k_prime": 16}}``; an unknown subcommand or option name in it
is a data error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from contextlib import closing
from pathlib import Path

import numpy as np

from . import cepstrum, classify, cohort, dataio, embedding, radar, signals
from .errors import PipelineError
from .signals import ComplexSeries

# Frames per series from which extract runs two records at a time.  Two lanes
# against one, medians of 5-7 fresh-process runs of 300 records at fs 100 Hz,
# window 2 s, hop 0.1 s, on 2 CPUs: 30 frames (5 s) +31%, 80 (10 s) +15%,
# 130 (15 s) +5%, 180 (20 s) +1%, 230 (25 s) -1%, 280 (30 s) -15% to -31%,
# 380 (40 s) -24%, 580 (60 s) -29%.
_TWO_LANE_FRAMES = 250

PALETTE = [
    "#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee", "#aa3377",
    "#bbbbbb", "#000000",
]


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage problems; this pipeline reserves 2 for
    # data errors, so remap usage to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(1)


def _gamma_arg(text: str):
    if text == "scale":
        return text
    return float(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="heartid", description=__doc__.splitlines()[0])
    parser.add_argument("--config", default=None, help="JSON file of per-subcommand defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[], help="generate a synthetic dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--cohort", default="default", choices=sorted(cohort.COHORT_PRESETS))
    p.add_argument("--days", type=int, default=5)
    p.add_argument("--repetitions", type=int, default=5)
    p.add_argument("--duration", type=float, default=60.0)
    p.add_argument("--fs", type=float, default=100.0)
    p.add_argument("--snr-db", type=float, default=20.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", default="baseband", choices=("baseband", "cube"))
    p.add_argument("--dataset-id", default="cohort")

    p = sub.add_parser("extract", help="compute feature vectors from a dataset")
    p.add_argument("--data", required=True, help="dataset directory (with manifest)")
    p.add_argument("--out", required=True, help="output feature CSV")
    p.add_argument("--kind", default="prop", choices=cepstrum.FEATURE_KINDS)
    p.add_argument("--segment", type=float, default=None, help="pre-split into segments (s)")
    p.add_argument("--k-prime", type=int, default=24)
    p.add_argument("--n-filters", type=int, default=64)
    p.add_argument("--f-ref", type=float, default=5.0)
    p.add_argument("--f-prime", type=float, default=1000.0)
    p.add_argument("--window", type=float, default=2.0)
    p.add_argument("--hop", type=float, default=0.1)
    p.add_argument("--log-energies", action="store_true")

    p = sub.add_parser("eval", help="session-grouped cross-validation report")
    p.add_argument("--features", required=True)
    p.add_argument("--report", required=True, help="output report JSON")
    p.add_argument("--confusion", default=None, help="output confusion CSV")
    p.add_argument("--kernel", default="rbf", choices=classify.KERNELS)
    p.add_argument("--C", type=float, default=10.0)
    p.add_argument("--gamma", type=_gamma_arg, default="scale")
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--max-passes", type=int, default=10)
    p.add_argument("--timestamp", action="store_true",
                   help="stamp the report with wall-clock time (breaks byte determinism)")

    p = sub.add_parser("project", help="2-D projection of a feature CSV")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True, help="output projection CSV")
    p.add_argument("--method", default="pca", choices=("pca", "tsne"))
    p.add_argument("--perplexity", type=float, default=30.0)
    p.add_argument("--iterations", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--svg", default=None, help="optional SVG scatter plot")

    p = sub.add_parser("report", help="combine eval reports into one summary")
    p.add_argument("reports", nargs="+", help="eval report JSON files")
    p.add_argument("--out", default=None, help="output summary JSON")
    p.add_argument("--csv", default=None, help="output summary CSV")

    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    pre = _Parser(add_help=False)
    pre.add_argument("--config", default=None)
    known, _ = pre.parse_known_args(argv)
    config = {}
    if known.config:
        try:
            with open(known.config) as fh:
                config = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: invalid JSON or UTF-8
            raise PipelineError(f"cannot read config {known.config}: {exc}") from exc
    if not isinstance(config, dict):
        raise PipelineError(f"config {known.config} must map subcommands to options")
    subparsers = {
        name: sp
        for action in parser._subparsers._group_actions  # noqa: SLF001
        for name, sp in action.choices.items()
    }
    for name, options in config.items():
        if name not in subparsers:
            raise PipelineError(f"config {known.config}: unknown subcommand {name!r}")
        if not isinstance(options, dict):
            raise PipelineError(f"config {known.config}: {name!r} must map options to values")
        actions = {a.dest: a for a in subparsers[name]._actions}  # noqa: SLF001
        del actions["help"]
        unknown = sorted(set(options) - set(actions))
        if unknown:
            raise PipelineError(
                f"config {known.config}: unknown {name} option(s) {', '.join(unknown)}"
            )
        subparsers[name].set_defaults(**{
            dest: _config_value(f"config {known.config}: {name} {dest}", actions[dest], value)
            for dest, value in options.items()
        })
    return parser.parse_args(argv)


def _config_value(where: str, action: argparse.Action, value):
    """A config value parsed as the command line parses the same text; bad values raise.

    A flag (an option that takes no argument) accepts only a JSON boolean, and
    an option without a ``type`` only a JSON string.
    """
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise PipelineError(f"{where}: {value!r} is not a JSON boolean (true or false)")
        return value
    if value is None and action.default is None:
        return None
    if action.type is None and not isinstance(value, str):
        raise PipelineError(f"{where}: {value!r:.40} is not a JSON string")
    try:
        value = action.type(str(value)) if action.type else value
    except ValueError as exc:
        raise PipelineError(f"{where}: {value!r} is not valid ({exc})") from exc
    if action.choices is not None and value not in action.choices:
        raise PipelineError(f"{where}: {value!r} is not one of {', '.join(action.choices)}")
    return value


# --- subcommand bodies ------------------------------------------------------

def cmd_synth(args) -> int:
    profiles = cohort.COHORT_PRESETS[args.cohort]()
    schedule = cohort.Schedule(days=args.days, repetitions=args.repetitions)
    measurements = cohort.generate_cohort(
        profiles,
        schedule,
        snr_db=args.snr_db,
        seed=args.seed,
        mode=args.mode,
        duration=args.duration,
        fs=args.fs,
        out_dir=args.out,
    )
    with closing(measurements):  # ends the render threads however saving ends
        # a dataset left part-written has no manifest, so extract refuses it
        (Path(args.out) / dataio.MANIFEST_NAME).unlink(missing_ok=True)
        records = dataio.save_dataset(
            args.out,
            measurements,
            profiles,
            seed=args.seed,
            snr_db=args.snr_db,
            dataset_id=args.dataset_id,
        )["records"]
    by_class = Counter(r["label"] for r in records)
    by_session = Counter(r["session_id"] for r in records)
    print(f"wrote {len(records)} measurements to {args.out}")
    print(f"  classes : {dict(sorted(by_class.items()))}")
    print(f"  sessions: {dict(sorted(by_session.items()))}")
    return 0


def _record_series(args, manifest: dict, record: dict, base_id: str,
                   front: radar.FrontEndWorkspace | None) -> list[ComplexSeries]:
    """One record's slow-time series, one per segment.

    A cube record's front end reads its file here, into its lane's ``front``
    workspace, so a bad sample in it is named for the record, as loading
    names a bad file, whichever segment holds it.
    """
    try:
        measurement = dataio.load_record(args.data, manifest, record)
    except PipelineError as exc:
        raise PipelineError(f"sample {base_id}: {exc}") from exc
    pieces = [measurement] if args.segment is None else cohort.segment(measurement, args.segment)
    try:
        return [radar.extract_slow_time(p.signal, front).series if p.is_cube else p.signal
                for p in pieces]
    except PipelineError as exc:
        raise PipelineError(f"sample {base_id}: {exc}") from exc


def _series_length(args, manifest: dict) -> int:
    """Samples in the longest series that ``extract`` forms: a record's, or one segment's.

    A size entry beyond its file fails at that record's load, so the largest
    record file also bounds the length: 8 bytes (one complex64) per sample of
    a baseband record, per virtual channel and fast-time sample of a cube's.
    """
    cube = manifest["mode"] == "cube"
    sample_bytes = 8 * (radar.RadarConfig.n_virtual * radar.RadarConfig.n_fast if cube else 1)
    files = (Path(args.data) / r["file"] for r in manifest["records"])
    held = max((f.stat().st_size // sample_bytes for f in files if f.is_file()), default=0)
    n = min(max(r["n_slow" if cube else "n_samples"] for r in manifest["records"]), held)
    if args.segment is not None:  # bounded first, so that no length overflows round()
        n = round(max(0.0, min(n, args.segment * manifest["fs"])))
    return n


def _workspaces(args, manifest: dict) -> list[tuple[signals.StftWorkspace | None,
                                                     radar.FrontEndWorkspace | None]]:
    """An (STFT, front-end) workspace pair per lane of ``extract``, made in the calling thread.

    Cube records run on ``cohort.lanes()`` lanes, each owning a front-end
    workspace sized by :func:`_series_length`, which takes every record's
    or segment's candidate-bin profiles: fresh ones per short segment made
    the allocator return and re-fault the heap.  Baseband series of at least
    ``_TWO_LANE_FRAMES`` frames, read from :func:`_series_length`, the window
    and the hop, run on ``cohort.lanes()`` lanes, each owning an STFT
    workspace; shorter ones, whose small arrays hand the GIL back and forth,
    run on one, in the calling thread, whose fresh arrays later commands
    reuse, so it holds no workspace (``[(None, None)]``).
    """
    n, width = _series_length(args, manifest), cohort.lanes()
    if manifest["mode"] == "cube":
        return [(None, radar.FrontEndWorkspace(n)) for _ in range(width)]
    frames, n_win = signals.stft_frames(n, manifest["fs"], args.window, args.hop)
    if frames < _TWO_LANE_FRAMES or width == 1:
        return [(None, None)]
    return [(signals.StftWorkspace(frames * n_win), None) for _ in range(width)]


def cmd_extract(args) -> int:
    manifest = dataio.load_manifest(args.data)
    cfg = cepstrum.MelBankConfig(n_filters=args.n_filters, f_ref=args.f_ref, f_prime=args.f_prime)
    work = _workspaces(args, manifest)

    def record_rows(k: int, record: dict) -> list[dict]:
        # records k and k + len(work) never run at once (cohort.in_order), so they share a lane
        stft, front = work[k % len(work)]
        base_id = f"{record['label']}_{record['session_id']}_r{record['repetition']}"
        rows = []
        for seg_idx, series in enumerate(_record_series(args, manifest, record, base_id, front)):
            try:
                values = cepstrum.extract_features(
                    series, cfg, args.k_prime, args.kind,
                    args.window, args.hop, args.log_energies, stft,
                )
            except PipelineError as exc:
                raise PipelineError(f"sample {base_id} segment {seg_idx}: {exc}") from exc
            rows.append(
                {
                    "sample_id": f"{base_id}_s{seg_idx}",
                    "label": record["label"],
                    "session_id": record["session_id"],
                    "segment_index": seg_idx,
                    "kind": args.kind,
                    "values": values,
                }
            )
        return rows

    records = cohort.in_order(record_rows, enumerate(manifest["records"]), len(work))
    rows = [row for rows in records for row in rows]
    n_values = rows[-1]["values"].size
    dataio.write_features(args.out, rows, n_values)
    print(f"wrote {len(rows)} x {n_values} feature rows ({args.kind}) to {args.out}")
    return 0


def cmd_eval(args) -> int:
    table = dataio.read_features(args.features)
    report = classify.session_grouped_cv(
        table.values,
        table.labels,
        table.sessions,
        kernel=args.kernel,
        C=args.C,
        gamma=args.gamma,
        tol=args.tol,
        max_passes=args.max_passes,
    )
    report.params["kind"] = table.kind
    timestamp = None
    if args.timestamp:
        from datetime import datetime, timezone

        timestamp = datetime.now(timezone.utc).isoformat()
    report.save_json(args.report, timestamp=timestamp)
    if args.confusion:
        report.save_confusion_csv(args.confusion)
    print(
        f"{table.kind}: accuracy {report.accuracy:.2f}% | "
        f"macro AUC {report.macro_auc:.4f} | {len(report.per_fold)} folds"
    )
    for fold in report.per_fold:
        print(
            f"  fold {fold['session']}: {fold['accuracy_pct']:.2f}% "
            f"({fold['n_train']}/{fold['n_val']} train/val)"
        )
    machines = [m for fold in report.per_fold for m in fold["machines"]]
    print(f"  solver: {sum(not m['converged'] for m in machines)} of {len(machines)} machines "
          f"hit the iteration budget; largest n_iter {max(m['n_iter'] for m in machines)}")
    return 0


def _write_svg(path, proj: embedding.Projection2D) -> None:
    from xml.sax.saxutils import escape  # imports urllib; only --svg pays for it

    pts = proj.points
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.where(hi - lo > 0, hi - lo, 1.0)
    width, height, margin = 640, 480, 30
    classes = (
        sorted(set(proj.labels.tolist())) if proj.labels is not None else [""]
    )
    color = {c: PALETTE[i % len(PALETTE)] for i, c in enumerate(classes)}
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    labels = proj.labels if proj.labels is not None else [""] * len(pts)
    for (x, y), lab in zip(pts, labels):
        px = margin + (x - lo[0]) / span[0] * (width - 2 * margin)
        py = height - margin - (y - lo[1]) / span[1] * (height - 2 * margin)
        lines.append(
            f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3" fill="{color[lab]}" '
            f'fill-opacity="0.8"/>'
        )
    for i, c in enumerate(classes):
        if c == "":
            continue
        lines.append(
            f'<circle cx="{width - 90}" cy="{20 + 16 * i}" r="4" fill="{color[c]}"/>'
            f'<text x="{width - 80}" y="{24 + 16 * i}" font-size="12">{escape(c)}</text>'
        )
    lines.append("</svg>")
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_project(args) -> int:
    table = dataio.read_features(args.features)
    if args.method == "pca":
        proj = embedding.pca2(table.values, labels=table.labels)
    else:
        proj = embedding.tsne2(
            table.values,
            perplexity=args.perplexity,
            iterations=args.iterations,
            seed=args.seed,
            labels=table.labels,
        )
    proj.to_csv(args.out, sample_ids=table.sample_ids)
    if args.svg:
        _write_svg(args.svg, proj)
    extra = f", kl={proj.params['kl']:.4f}" if proj.method == "tsne" else ""
    print(f"projected {table.n_rows} rows with {proj.method}{extra} -> {args.out}")
    return 0


def cmd_report(args) -> int:
    entries = []
    for path in args.reports:
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except (OSError, ValueError) as exc:
            raise PipelineError(f"cannot read report {path}: {exc}") from exc
        if not isinstance(payload, dict) or not {"accuracy_pct", "macro_auc"} <= payload.keys():
            raise PipelineError(f"{path} is not an eval report: needs accuracy_pct and macro_auc")
        params = payload.get("params", {})
        if not isinstance(params, dict):
            raise PipelineError(f"{path}: key 'params' is {params!r:.40}, not an object")
        kind = params.get("kind", Path(path).stem)
        if not isinstance(kind, str):
            raise PipelineError(f"{path}: key 'params.kind' is {kind!r:.40}, not a string")
        for key in ("accuracy_pct", "macro_auc"):
            value = payload[key]
            # NaN passes, as eval can write it; a bool is no number, nor an int past float range
            is_int = type(value) is int and abs(value) <= sys.float_info.max
            if not (isinstance(value, float) or is_int):
                raise PipelineError(f"{path}: key {key!r} is {value!r:.40}, not a number")
        entries.append(
            {
                "kind": kind,
                "accuracy_pct": payload["accuracy_pct"],
                "macro_auc": payload["macro_auc"],
                "file": str(path),
            }
        )
    header = f"{'method':<8} {'accuracy (%)':>12} {'AUC':>8}"
    print(header)
    print("-" * len(header))
    for e in entries:
        print(f"{e['kind']:<8} {e['accuracy_pct']:>12.2f} {e['macro_auc']:>8.4f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"methods": entries}, fh, indent=2)
            fh.write("\n")
    if args.csv:
        import csv as _csv

        with open(args.csv, "w", newline="") as fh:
            writer = _csv.writer(fh)
            writer.writerow(["method", "accuracy_pct", "macro_auc"])
            for e in entries:
                writer.writerow(
                    [e["kind"], f"{e['accuracy_pct']:.4f}", f"{e['macro_auc']:.6f}"]
                )
    return 0


COMMANDS = {
    "synth": cmd_synth,
    "extract": cmd_extract,
    "eval": cmd_eval,
    "project": cmd_project,
    "report": cmd_report,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = _apply_config(parser, argv)
    except SystemExit as exc:  # argparse: usage error (1) or --help (0)
        return int(exc.code or 0)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return COMMANDS[args.command](args)
    except (PipelineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a size that numpy accepts but memory cannot hold
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal invariant violation
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
