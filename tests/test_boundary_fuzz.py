"""Mutated inputs exit 0 or 2, never 3, and a run that succeeds keeps every label.

One family of examples changes one record, or one top-level key, of a small
valid dataset manifest; ``extract`` must then write one row per record,
carrying that record's label and session.  Another rescales the sampling rate
and the extraction settings jointly, from 1e-3 Hz to 1e300 Hz; an ``extract``
that succeeds must write only finite features.  Another changes one cell of a
feature CSV; ``eval`` must report finite metrics and ``project`` must keep
each row's label.  A third sets one option of one subcommand in a
``--config`` file (exit 0, 1 or 2), and a fourth changes one field of an
eval report read by ``report``, which must print nothing when it fails.
"""

import argparse
import csv
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from heartid.cepstrum import FEATURE_KINDS
from heartid.cli import build_parser, main
from heartid.dataio import RECORD_KEYS

PATH_LIKE = ["", ".", "..", "/", "../x.iq", "/etc/hostname", "a/b.iq", "a\\b.iq", "x.iq/",
             "~", "\x00", "nul\x00.iq", " ", "manifest.json", "C:\\x.iq", "x" * 300]

VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.sampled_from([0, 1, -1, 2**63, 10**400]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, 1e300, 1e6, 0.5, 1e-300, 5e-324,
                     0.0, -0.0]),
    st.text(max_size=12),
    st.sampled_from(PATH_LIKE),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
)

RECORD_FIELDS = [*RECORD_KEYS, "n_samples", "extra"]
TOP_FIELDS = ["fs", "mode", "records", "duration", "dataset_id", "seed", "snr_db", "profiles"]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    data = tmp_path_factory.mktemp("fuzz_ds")
    assert main(["synth", "--out", str(data), "--days", "1", "--repetitions", "1",
                 "--duration", "5", "--seed", "2"]) == 0
    return data


def _mutate(manifest: dict, data) -> dict:
    """One record, or one top-level key, set to a fuzzed value or deleted."""
    manifest = json.loads(json.dumps(manifest))
    if data.draw(st.booleans(), label="in_record"):
        records = manifest["records"]
        i = data.draw(st.integers(0, len(records) - 1), label="record")
        if data.draw(st.booleans(), label="whole_record"):
            records[i] = data.draw(VALUES, label="value")
            return manifest
        target = records[i]
        key = data.draw(st.sampled_from(RECORD_FIELDS), label="key")
    else:
        target = manifest
        key = data.draw(st.sampled_from(TOP_FIELDS), label="key")
    if data.draw(st.booleans(), label="delete"):
        target.pop(key, None)
    else:
        target[key] = data.draw(VALUES, label="value")
    return manifest


@settings(max_examples=80, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_extract_of_mutated_manifest_exits_0_or_2(dataset, capsys, data):
    manifest = _mutate(json.loads((dataset / "manifest.json").read_text()), data)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        ds = tmp / "ds"
        ds.mkdir()
        for path in dataset.glob("*.iq"):
            (ds / path.name).symlink_to(path)
        (ds / "manifest.json").write_text(json.dumps(manifest))
        out = tmp / "f.csv"
        rc = main(["extract", "--data", str(ds), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc in (0, 2), err
        if rc == 2:
            assert not out.exists()
            return
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
    records = manifest["records"]
    assert len(rows) == len(records)
    for row, record in zip(rows, records):
        assert (row[1], row[2]) == (record["label"], record["session_id"])


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_extract_at_any_scale_exits_0_or_2_with_finite_features(dataset, capsys, data):
    manifest = json.loads((dataset / "manifest.json").read_text())
    edge = math.sqrt(sys.float_info.max)  # the largest rate whose square is finite
    # half the rates lie within a decade below it, where a spectrum of finite
    # samples can still overflow float64
    fs = data.draw(st.one_of(st.floats(-3, 300).map(lambda e: 10.0 ** e),
                             st.floats(0, 1).map(lambda e: edge / 10.0 ** e)), label="fs")
    n = manifest["records"][0]["n_samples"] - 2  # the second derivative drops two
    n_filters = data.draw(st.integers(1, 128), label="n_filters")
    argv = [
        "--kind", data.draw(st.sampled_from(FEATURE_KINDS), label="kind"),
        "--window", repr(data.draw(st.integers(1, n), label="window_samples") / fs),
        "--hop", repr(data.draw(st.integers(1, n), label="hop_samples") / fs),
        "--n-filters", str(n_filters),
        "--k-prime", str(data.draw(st.integers(1, max(1, n_filters - 1)), label="k_prime")),
        "--f-ref", repr(10.0 ** data.draw(st.floats(-3, 3), label="log10_f_ref")),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        ds = tmp / "ds"
        ds.mkdir()
        for path in dataset.glob("*.iq"):
            (ds / path.name).symlink_to(path)
        (ds / "manifest.json").write_text(json.dumps({**manifest, "fs": fs}))
        out = tmp / "f.csv"
        rc = main(["extract", "--data", str(ds), "--out", str(out), *argv])
        err = capsys.readouterr().err
        assert rc in (0, 2), err
        if rc == 2:
            assert not out.exists()
            return
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
    assert all(math.isfinite(float(v)) for row in rows for v in row[5:])


CELLS = st.one_of(
    st.text(max_size=8),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(min_value=-(10**30), max_value=10**30).map(str),
    st.sampled_from(["", "nan", "-inf", "1e308", "-1e200", "1e153", "5e-324", "1" + "0" * 400,
                     "9223372036854775808", "\x00", "a,b", '"', "\n", "x" * 200_000]),
)


@pytest.fixture(scope="module")
def feature_csv(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz_feat") / "f.csv"
    assert main(["extract", "--data", str(dataset), "--out", str(out), "--kind", "amp"]) == 0
    return out


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_eval_and_project_of_mutated_feature_csv_exit_0_or_2(feature_csv, capsys, data):
    with open(feature_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    i = data.draw(st.integers(0, len(rows) - 1), label="row")
    j = data.draw(st.integers(0, len(rows[0])), label="column")
    if j == len(rows[0]):
        rows[i].append(data.draw(CELLS, label="extra_cell"))
    else:
        rows[i][j] = data.draw(CELLS, label="cell")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        bad = tmp / "bad.csv"
        with open(bad, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        report, projection = tmp / "r.json", tmp / "p.csv"
        rc_eval = main(["eval", "--features", str(bad), "--report", str(report)])
        rc_project = main(["project", "--features", str(bad), "--out", str(projection)])
        err = capsys.readouterr().err
        assert rc_eval in (0, 2) and rc_project in (0, 2), err
        assert report.exists() == (rc_eval == 0)
        assert projection.exists() == (rc_project == 0)
        if rc_eval == 0:
            payload = json.loads(report.read_text())
            assert math.isfinite(payload["accuracy_pct"]) and math.isfinite(payload["macro_auc"])
        if rc_project == 0:
            with open(projection, newline="") as fh:
                points = list(csv.reader(fh))[1:]
            assert [p[1] for p in points] == [r[1] for r in rows[1:] if r]
            assert all(math.isfinite(float(v)) for p in points for v in p[2:])


SUBCOMMANDS = next(
    a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
).choices
OPTIONS = {
    name: sorted(a.dest for a in sub._actions if a.dest != "help")
    for name, sub in SUBCOMMANDS.items()
}


@pytest.fixture(scope="module")
def eval_report(feature_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz_report") / "r.json"
    assert main(["eval", "--features", str(feature_csv), "--report", str(out)]) == 0
    return out


def _argv(command: str, tmp: Path, dataset, feature_csv, eval_report) -> list[str]:
    """Every output path, and every size that allocates or loops, set by a flag.

    A flag overrides the config, so a fuzzed count never runs and a fuzzed path
    is never written, yet ``--config`` still parses every value.
    """
    return {
        "synth": ["--out", str(tmp / "ds"), "--days", "1", "--repetitions", "1",
                  "--duration", "4", "--fs", "20"],
        "extract": ["--data", str(dataset), "--out", str(tmp / "f.csv"), "--n-filters", "64"],
        "eval": ["--features", str(feature_csv), "--report", str(tmp / "r.json"),
                 "--confusion", str(tmp / "c.csv"), "--max-passes", "10"],
        "project": ["--features", str(feature_csv), "--out", str(tmp / "p.csv"),
                    "--svg", str(tmp / "p.svg"), "--iterations", "30"],
        "report": [str(eval_report), "--out", str(tmp / "s.json"), "--csv", str(tmp / "s.csv")],
    }[command]


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_config_option_exits_0_1_or_2(
    dataset, feature_csv, eval_report, capsys, data
):
    command = data.draw(st.sampled_from(sorted(OPTIONS)), label="command")
    option = data.draw(st.sampled_from([*OPTIONS[command], "bogus"]), label="option")
    value = data.draw(VALUES, label="value")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = tmp / "conf.json"
        config.write_text(json.dumps({command: {option: value}}))
        argv = _argv(command, tmp, dataset, feature_csv, eval_report)
        rc = main(["--config", str(config), command, *argv])
    err = capsys.readouterr().err
    assert rc in (0, 1, 2), err


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_report_of_mutated_eval_report_exits_0_or_2(eval_report, capsys, data):
    payload = json.loads(eval_report.read_text())
    target = payload["params"] if data.draw(st.booleans(), label="in_params") else payload
    key = data.draw(st.sampled_from([*target, "extra"]), label="key")
    if data.draw(st.booleans(), label="delete"):
        target.pop(key, None)
    else:
        target[key] = data.draw(VALUES, label="value")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        report, summary = tmp / "r.json", tmp / "s.json"
        report.write_text(json.dumps(payload))
        rc = main(["report", str(report), "--out", str(summary), "--csv", str(tmp / "s.csv")])
        out, err = capsys.readouterr()
        assert rc in (0, 2), err
        assert summary.exists() == (rc == 0)
        if rc == 2:
            assert out == ""
            return
        methods = json.loads(summary.read_text())["methods"]
    assert [m["kind"] for m in methods] == [payload.get("params", {}).get("kind", "r")]
