"""File formats: raw I/Q records, data cubes, dataset manifests, feature CSV.

Raw signals are little-endian float32 interleaved I/Q.  Cubes use the same
encoding with fast time as the fastest-varying index, then element, then slow
time.  A cube record exists only as its file: ``synth`` streams each cube into
it block by block (:func:`heartid.cohort.render_cube`), and :class:`CubeFile`
reads it a block of chirps at a time, so no whole cube is held on either side.
A dataset directory holds ``manifest.json`` plus one raw file per measurement;
features travel as CSV with a mandatory header.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cohort import Measurement, PersonProfile, record_file
from .errors import IoError, ManifestError
from .radar import RadarConfig
from .signals import ComplexSeries, find_non_finite, non_finite_sample

MANIFEST_NAME = "manifest.json"
RECORD_KEYS = ("file", "label", "session_id", "repetition")


# --- raw I/Q records --------------------------------------------------------

def write_iq(path, samples: np.ndarray) -> None:
    # "<c8" is one I/Q pair of little-endian float32, real part first; complex64 is not copied
    np.asarray(samples).astype("<c8", copy=False).tofile(path)


def _iq_count(path) -> int:
    """The number of I/Q pairs in the file at ``path``; a partial pair raises IoError."""
    size = os.path.getsize(path)
    if size % 8:
        raise IoError(f"{path}: {size} bytes is not a whole number of I/Q pairs")
    return size // 8


def read_iq(path) -> np.ndarray:
    _iq_count(path)
    return np.fromfile(path, dtype="<c8")


@dataclass(frozen=True)
class CubeFile:
    """Chirps ``start`` to ``start + n_slow`` of a cube file, read a block at a time.

    It holds no samples: :meth:`blocks` reads them, so a pass over a cube
    record holds one block, and :meth:`slow_range` names a segment of the file.
    An ``n_slow`` below one raises :class:`IoError`: no pass divides by 0 chirps.
    """

    path: Path
    config: RadarConfig
    n_slow: int
    start: int = 0

    def __post_init__(self):
        if self.n_slow < 1:
            raise IoError(f"{self.path}: a cube of {self.n_slow} chirps has no slow-time sample")

    @property
    def duration(self) -> float:
        return self.n_slow / self.config.fs_slow

    def slow_range(self, start: int, stop: int) -> CubeFile:
        return dataclasses.replace(self, start=self.start + start, n_slow=stop - start)

    def blocks(self, size: int) -> Iterator[np.ndarray]:
        """The chirps in blocks of ``size``, each read on one open handle into one buffer.

        A block is valid until the next is read: a fresh array per block made
        the allocator return and re-fault its pages.  A block that comes up
        short (the file shrank after :func:`read_cube`) raises :class:`IoError`.
        A NaN or infinity raises :class:`NonFiniteSample` naming its (slow,
        element, fast) index in the file and how many of the whole file's
        samples are not finite.
        """
        shape = (self.config.n_virtual, self.config.n_fast)
        chirp = math.prod(shape)
        buf = np.empty(min(size, self.n_slow) * chirp, dtype="<c8")
        with open(self.path, "rb") as fh:
            fh.seek(8 * chirp * self.start)
            for s0 in range(self.start, self.start + self.n_slow, size):
                n = min(size, self.start + self.n_slow - s0)
                block = buf[:fh.readinto(buf[:n * chirp].view(np.uint8)) // 8]
                if block.size != n * chirp:
                    raise IoError(f"{self.path}: read {block.size} of the {n * chirp} samples "
                                  f"from chirp {s0}; the file shrank after its size was checked")
                block = block.reshape(n, *shape)
                found = find_non_finite(block)
                if found is not None:
                    s, e, f = np.unravel_index(found[0], block.shape)
                    raise non_finite_sample((s0 + s, e, f), block[s, e, f],
                                            *_count_non_finite(fh, size * chirp))
                yield block


def _count_non_finite(fh, count: int) -> tuple[int, int]:
    """(non-finite samples, all samples) of the whole file ``fh``, read ``count`` at a time."""
    fh.seek(0)
    bad = total = 0
    while (part := np.fromfile(fh, dtype="<c8", count=count)).size:
        found = find_non_finite(part)
        bad += found[1] if found else 0
        total += part.size
    return bad, total


def read_cube(path, config: RadarConfig, n_slow: int) -> CubeFile:
    """The cube file at ``path`` as a :class:`CubeFile`, after checking only its size.

    A file that does not hold exactly ``n_slow`` chirps, or an ``n_slow`` below
    one, raises :class:`IoError` here, before any sample is read; the samples,
    and their finiteness, are read block by block in the pass over the
    returned cube.
    """
    n = _iq_count(path)
    expected = n_slow * config.n_virtual * config.n_fast
    if n != expected:
        raise IoError(f"{path}: {n} samples, expected {expected} "
                      f"({n_slow} x {config.n_virtual} x {config.n_fast})")
    return CubeFile(Path(path), config, n_slow)


# --- dataset directories ----------------------------------------------------

def _profile_to_dict(p: PersonProfile) -> dict:
    d = dataclasses.asdict(p)
    d["pulse_template"] = [dataclasses.asdict(g) for g in p.pulse_template]
    return d


def _dataset_header(m: Measurement) -> tuple:
    """The (fs, duration, mode) manifest fields a measurement carries."""
    if m.is_cube:
        return m.signal.config.fs_slow, m.duration, "cube"
    return m.signal.fs, m.duration, "baseband"


def save_dataset(
    out_dir,
    measurements: Iterable[Measurement],
    profiles: list[PersonProfile],
    seed: int,
    snr_db: float | None,
    dataset_id: str = "cohort",
) -> dict:
    """Write each measurement's raw file as it arrives, then the manifest; returns it.

    No measurement is kept, so ``measurements`` may be the lazy iterator of
    :func:`heartid.cohort.generate_cohort`.  A cube record exists only as its
    file, so a cube is recorded, not written: it must be the :class:`CubeFile`
    that iterator streamed into its :func:`~heartid.cohort.record_file` in
    ``out_dir``, and one elsewhere raises :class:`ManifestError`.  The
    manifest's fs (for cubes, the slow-time rate of the fixed
    :class:`RadarConfig` device), duration and mode are read from the
    measurements, which must all agree on them; an empty iterable raises
    :class:`ManifestError`.
    """
    out_dir = Path(out_dir)
    header, records = None, []
    for m in measurements:
        if header is None:
            header = _dataset_header(m)
            out_dir.mkdir(parents=True, exist_ok=True)
        elif _dataset_header(m) != header:
            raise ManifestError(f"{m.label} {m.session_id} r{m.repetition}: fs, duration "
                                "or mode differs from the first measurement")
        record = {
            "file": record_file(m.label, m.session_id, m.repetition),
            "label": m.label,
            "session_id": m.session_id,
            "repetition": m.repetition,
        }
        path = out_dir / record["file"]
        if m.is_cube:
            if m.signal.path != path:
                raise ManifestError(f"{m.signal.path}: a cube file can only be recorded "
                                    f"at its place in the dataset, {path}")
            record["n_slow"] = m.signal.n_slow
        else:
            write_iq(path, m.signal.samples)
            record["n_samples"] = len(m.signal)
        records.append(record)
        del m  # free this record before asking the iterator for the next one
    if header is None:
        raise ManifestError(f"no measurements to save in {out_dir}")
    fs, duration, mode = header
    manifest = {
        "dataset_id": dataset_id,
        "fs": fs,
        "duration": duration,
        "mode": mode,
        "seed": seed,
        "snr_db": snr_db,
        "profiles": [_profile_to_dict(p) for p in profiles],
        "records": records,
    }
    with open(out_dir / MANIFEST_NAME, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return manifest


def load_manifest(data_dir) -> dict:
    """Read a dataset manifest; a missing or malformed entry raises ManifestError naming it."""
    path = Path(data_dir) / MANIFEST_NAME
    if not path.exists():
        raise ManifestError(f"no {MANIFEST_NAME} in {data_dir}")
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except ValueError as exc:  # invalid JSON, or bytes that are not UTF-8
        raise ManifestError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(manifest, dict):
        raise ManifestError(f"{path}: not a JSON object")
    for key in ("fs", "mode", "records"):
        if key not in manifest:
            raise ManifestError(f"{path}: missing required key {key!r}")
    fs, mode = manifest["fs"], manifest["mode"]
    if (isinstance(fs, bool) or not isinstance(fs, (int, float))
            or not 0 < fs <= sys.float_info.max):  # an int can exceed the float range
        raise ManifestError(f"{path}: key 'fs' is {fs!r}, not a positive finite number")
    if mode not in ("baseband", "cube"):
        raise ManifestError(f"{path}: key 'mode' is {mode!r}, not 'baseband' or 'cube'")
    records = manifest["records"]
    if not isinstance(records, list) or not records:
        raise ManifestError(f"{path}: key 'records' is {records!r:.40}, not a non-empty list")
    size_key = "n_slow" if mode == "cube" else "n_samples"
    for i, record in enumerate(records):
        missing = [k for k in (*RECORD_KEYS, size_key)
                   if not isinstance(record, dict) or k not in record]
        if missing:
            raise ManifestError(f"{path}: records[{i}] lacks {', '.join(missing)}")
        bad = _bad_record_key(record, size_key)
        if bad:
            key, expected = bad
            raise ManifestError(
                f"{path}: records[{i}] key {key!r} is {record[key]!r:.60}, not {expected}"
            )
    return manifest


def _bad_record_key(record: dict, size_key: str) -> tuple[str, str] | None:
    """The first (key, expectation) a record's value fails, or None.

    ``file`` must name a file inside the dataset directory, as ``save_dataset``
    writes it: a bare name, so no record reads outside the dataset.
    """
    file = record["file"]
    if not isinstance(file, str) or file in ("", ".", "..") or Path(file).name != file:
        return "file", "a file name without a directory part"
    for key in ("label", "session_id"):
        if not isinstance(record[key], str) or not record[key]:
            return key, "a non-empty string"
    repetition, size = record["repetition"], record[size_key]
    if isinstance(repetition, bool) or not isinstance(repetition, int):
        return "repetition", "an int"
    if isinstance(size, bool) or not isinstance(size, int) or size < 1:
        return size_key, "a positive int"
    return None


def load_record(data_dir, manifest: dict, record: dict) -> Measurement:
    """One manifest record, whose file must match its size entry.

    A baseband record is read whole.  A cube record is only size-checked: its
    signal is a :class:`CubeFile` that the front end reads block by block.
    Cubes use the fixed radar at the manifest's ``fs``; an older ``radar``
    entry is ignored.
    """
    path = Path(data_dir) / record["file"]
    if not path.exists():
        raise ManifestError(f"manifest references missing file {path}")
    if manifest["mode"] == "cube":
        radar = RadarConfig(fs_slow=manifest["fs"])
        signal: ComplexSeries | CubeFile = read_cube(path, radar, record["n_slow"])
    else:
        samples = read_iq(path)
        if samples.size != record["n_samples"]:
            raise IoError(f"{path}: {samples.size} samples, manifest says {record['n_samples']}")
        signal = ComplexSeries(samples, manifest["fs"])
    return Measurement(
        signal, record["label"], record["session_id"], record["repetition"]
    )


# --- feature CSV ------------------------------------------------------------

FEATURE_META_COLUMNS = ["sample_id", "label", "session_id", "segment_index", "kind"]


@dataclass
class FeatureTable:
    """Feature CSV contents: row metadata plus the value matrix."""

    sample_ids: list[str]
    labels: np.ndarray
    sessions: np.ndarray
    kind: str
    values: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]


def write_features(path, rows: list[dict], n_values: int) -> None:
    """Rows carry the metadata keys plus a ``values`` array of fixed length."""
    header = FEATURE_META_COLUMNS + [f"c{i}" for i in range(n_values)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            values = row["values"]
            if len(values) != n_values:
                raise IoError(
                    f"row {row['sample_id']}: {len(values)} values, "
                    f"expected {n_values}"
                )
            writer.writerow(
                [row[k] for k in FEATURE_META_COLUMNS]
                + [f"{v:.17g}" for v in values]
            )


def _number(path, line: list[str], header: list[str], j: int, parse=float, bound=math.inf):
    """Cell ``j`` of a feature row as a number of magnitude below ``bound``, or an IoError."""
    try:
        value = parse(line[j])
    except ValueError:
        value = math.nan
    if not abs(value) < bound:
        raise IoError(f"{path}: sample {line[0]} column {header[j]}: {line[j]!r} is not "
                      f"a number below {bound:g} in magnitude")
    return value


def _check_squares_fit(path, sample_ids: list[str], header: list[str], values: np.ndarray):
    """Raise IoError naming the first feature too large for float64 sums of squares.

    Standardization sums squared deviations over the rows, and kernels and
    t-SNE sum squared differences over the columns.  Each term is at most
    ``(2 * limit)**2`` when every ``|value| <= limit``, so with
    ``4 * max(shape) * limit**2`` equal to the largest float64 no sum overflows.
    """
    limit = math.sqrt(np.finfo(np.float64).max / (4 * max(values.shape)))
    too_large = np.abs(values) > limit
    if too_large.any():
        i, j = np.argwhere(too_large)[0]
        raise IoError(f"{path}: sample {sample_ids[i]} column {header[5 + j]}: "
                      f"{values[i, j]:g} exceeds {limit:.4g}, above which sums of "
                      f"squared features can overflow")


def read_features(path) -> FeatureTable:
    """Parse a feature CSV; a ragged row or a non-finite or too large cell is an IoError."""
    path = Path(path)
    if not path.exists():
        raise IoError(f"feature file {path} does not exist")
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise IoError(f"{path}: empty feature file") from None
            if header[: len(FEATURE_META_COLUMNS)] != FEATURE_META_COLUMNS:
                raise IoError(f"{path}: unexpected header {header[:5]}")
            if len(header) == len(FEATURE_META_COLUMNS):
                raise IoError(f"{path}: no feature columns")
            sample_ids, labels, sessions, kinds, values = [], [], [], [], []
            for line in reader:
                if not line:
                    continue
                if len(line) != len(header):
                    raise IoError(
                        f"{path}: sample {line[0]} has {len(line)} cells, header {len(header)}"
                    )
                sample_ids.append(line[0])
                labels.append(line[1])
                sessions.append(line[2])
                _number(path, line, header, 3, int, 2**63)  # segment_index
                kinds.append(line[4])
                values.append([_number(path, line, header, j) for j in range(5, len(line))])
    except (csv.Error, UnicodeDecodeError) as exc:  # e.g. an oversized field
        raise IoError(f"{path}: unreadable CSV ({exc})") from exc
    if not values:
        raise IoError(f"{path}: no feature rows")
    kind_set = set(kinds)
    if len(kind_set) != 1:
        raise IoError(f"{path}: mixed feature kinds {sorted(kind_set)}")
    values = np.asarray(values, dtype=np.float64)
    _check_squares_fit(path, sample_ids, header, values)
    return FeatureTable(
        sample_ids=sample_ids,
        labels=np.asarray(labels),
        sessions=np.asarray(sessions),
        kind=kind_set.pop(),
        values=values,
    )
