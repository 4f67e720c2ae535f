import csv
import json
import os
import shutil
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from xml.etree import ElementTree

import loop_reference
import numpy as np
import pytest

import heartid
from heartid import cepstrum, cli, cohort, dataio, radar
from heartid.cli import main
from heartid.dataio import read_features, read_iq, write_features, write_iq
from heartid.errors import PipelineError
from heartid.radar import RadarConfig


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    data = tmp_path_factory.mktemp("ds")
    rc = main([
        "synth", "--out", str(data), "--days", "2", "--repetitions", "2",
        "--duration", "20", "--snr-db", "20", "--seed", "1",
    ])
    assert rc == 0
    return data


@pytest.fixture(scope="module")
def prop_csv(small_dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("feat") / "prop.csv"
    rc = main(["extract", "--data", str(small_dataset), "--out", str(out)])
    assert rc == 0
    return out


def test_synth_writes_manifest_and_files(small_dataset):
    manifest = json.loads((small_dataset / "manifest.json").read_text())
    # 6 profiles x 4 sessions x 2 repetitions
    assert len(manifest["records"]) == 48
    assert manifest["mode"] == "baseband"
    some = small_dataset / manifest["records"][0]["file"]
    assert some.exists() and some.stat().st_size == 2000 * 2 * 4


@pytest.fixture(scope="module")
def cube_dataset(tmp_path_factory):
    data = tmp_path_factory.mktemp("cube")
    assert main(["synth", "--out", str(data), "--days", "1", "--repetitions", "1",
                 "--duration", "4", "--mode", "cube"]) == 0
    return data


def test_synth_cube_manifest(cube_dataset):
    manifest = json.loads((cube_dataset / "manifest.json").read_text())
    assert manifest["mode"] == "cube"
    assert "radar" not in manifest  # the device is fixed; fs is its slow-time rate
    assert manifest["fs"] == 100.0 and manifest["duration"] == 4.0
    assert len(manifest["records"]) == 12
    assert all(r["n_slow"] == 400 for r in manifest["records"])


def test_synth_deterministic_bytes(tmp_path):
    args = ["--days", "1", "--repetitions", "1", "--duration", "5", "--seed", "7"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", "--out", str(a)] + args) == 0
    assert main(["synth", "--out", str(b)] + args) == 0
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
    name = json.loads((a / "manifest.json").read_text())["records"][0]["file"]
    assert (a / name).read_bytes() == (b / name).read_bytes()


def test_extract_prop_dimensions(prop_csv):
    table = read_features(prop_csv)
    assert table.n_rows == 48
    assert table.values.shape[1] == 96
    assert table.kind == "prop"


def test_extract_comp_dimensions(small_dataset, tmp_path):
    out = tmp_path / "comp.csv"
    assert main(["extract", "--data", str(small_dataset), "--out", str(out),
                 "--kind", "comp"]) == 0
    assert read_features(out).values.shape[1] == 48


def test_extract_segment_multiplies_rows(small_dataset, tmp_path):
    out = tmp_path / "seg.csv"
    assert main(["extract", "--data", str(small_dataset), "--out", str(out),
                 "--segment", "5"]) == 0
    assert read_features(out).n_rows == 48 * 4
    with open(out, newline="") as fh:
        assert {row["segment_index"] for row in csv.DictReader(fh)} == {"0", "1", "2", "3"}


def test_extract_deterministic_bytes(small_dataset, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["extract", "--data", str(small_dataset), "--out", str(out),
                     "--kind", "ph"]) == 0
    assert a.read_bytes() == b.read_bytes()


# the radar entry that cube manifests carried before the device was fixed
PARENT_RADAR = {
    "fc": 79000000000.0, "bandwidth": 3600000000.0, "chirp_duration": 0.0001, "n_virtual": 12,
    "fs_slow": 100.0, "n_fast": 128, "wavelength": 0.003794841240506329,
    "element_spacing": 0.0018974206202531645,
}


def _relinked(dataset, out, entries):
    """``out`` links every record file of ``dataset``; its manifest has ``entries`` set."""
    out.mkdir()
    manifest = json.loads((dataset / "manifest.json").read_text())
    for record in manifest["records"]:
        (out / record["file"]).symlink_to(dataset / record["file"])
    (out / "manifest.json").write_text(json.dumps({**manifest, **entries}))
    return out


@pytest.mark.parametrize("radar", [PARENT_RADAR, {"fc": "79 GHz"}], ids=["parent", "malformed"])
def test_extract_ignores_radar_entry_of_older_manifests(cube_dataset, tmp_path, radar):
    old = _relinked(cube_dataset, tmp_path / "old", {"radar": radar})
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["extract", "--data", str(cube_dataset), "--out", str(a)]) == 0
    assert main(["extract", "--data", str(old), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# --- cube files, read block by block in the pass -------------------------------

def _with_own_copy(dataset, out, index):
    """``out`` relinks ``dataset`` but holds its own copy of record ``index``; returns its path."""
    _relinked(dataset, out, {})
    record = json.loads((dataset / "manifest.json").read_text())["records"][index]
    path = out / record["file"]
    path.unlink()
    path.write_bytes((dataset / record["file"]).read_bytes())
    return path, f"{record['label']}_{record['session_id']}_r{record['repetition']}"


# 1-s and 2-s segments start at chirps 100, 200 and 300 of 400, inside 64-chirp blocks
SEGMENTS = {"whole": [], "2s": ["--segment", "2", "--window", "1"],
            "1s": ["--segment", "1", "--window", "0.5"]}


@pytest.mark.parametrize("segment", SEGMENTS.values(), ids=SEGMENTS.keys())
def test_extract_of_cube_files_same_bytes_as_whole_cube_reads(cube_dataset, tmp_path,
                                                              monkeypatch, segment):
    streamed, whole = tmp_path / "streamed.csv", tmp_path / "whole.csv"
    assert main(["extract", "--data", str(cube_dataset), "--out", str(streamed), *segment]) == 0
    monkeypatch.setattr(dataio, "read_cube", loop_reference.read_cube)
    assert main(["extract", "--data", str(cube_dataset), "--out", str(whole), *segment]) == 0
    assert streamed.read_bytes() == whole.read_bytes()


@pytest.mark.parametrize("segment", [[], SEGMENTS["2s"]], ids=["whole", "2s"])
def test_extract_non_finite_sample_in_last_block_exits_2(cube_dataset, tmp_path, capsys,
                                                         monkeypatch, segment):
    path, sample_id = _with_own_copy(cube_dataset, tmp_path / "ds", 4)
    samples = read_iq(path).reshape(400, RadarConfig.n_virtual, RadarConfig.n_fast)
    samples[390, 5, 7] = np.nan  # the last block holds chirps 384-399
    samples[399, 11, 127] = np.inf
    write_iq(path, samples)
    out = tmp_path / "f.csv"
    errors = []
    for read_cube in (dataio.read_cube, loop_reference.read_cube):
        monkeypatch.setattr(dataio, "read_cube", read_cube)
        capsys.readouterr()
        assert main(["extract", "--data", str(tmp_path / "ds"), "--out", str(out),
                     *segment]) == 2
        assert not out.exists()
        errors.append(capsys.readouterr().err)
    # the text of the whole-cube check: first index in the file, count over the file
    assert errors[0] == errors[1] == (
        f"error: sample {sample_id}: non-finite sample at index (390, 5, 7) ((nan+0j)); "
        "2 of 614400 are not finite\n")


@pytest.mark.parametrize("delta", [-8, 8], ids=["one_sample_short", "one_sample_long"])
def test_extract_cube_file_of_wrong_size_exits_2_before_any_fft(cube_dataset, tmp_path, capsys,
                                                               monkeypatch, delta):
    path, sample_id = _with_own_copy(cube_dataset, tmp_path / "ds", 0)
    os.truncate(path, os.path.getsize(path) + delta)
    ffts = []
    range_profile = radar.range_profile
    monkeypatch.setattr(radar, "range_profile", lambda v: ffts.append(len(v)) or range_profile(v))
    out = tmp_path / "f.csv"
    capsys.readouterr()
    assert main(["extract", "--data", str(tmp_path / "ds"), "--out", str(out)]) == 2
    assert ffts == [] and not out.exists()
    assert capsys.readouterr().err == (
        f"error: sample {sample_id}: {path}: {614400 + delta // 8} samples, expected 614400 "
        "(400 x 12 x 128)\n")


def test_extract_cube_file_shrinking_during_the_pass_exits_2(cube_dataset, tmp_path, capsys,
                                                             monkeypatch):
    path, sample_id = _with_own_copy(cube_dataset, tmp_path / "ds", 1)
    load_record = dataio.load_record

    def load_then_shrink(data_dir, manifest, record):
        measurement = load_record(data_dir, manifest, record)
        if Path(data_dir) / record["file"] == path:  # the copy, not a linked original
            os.truncate(path, 8 * 1000)
        return measurement

    monkeypatch.setattr(dataio, "load_record", load_then_shrink)
    out = tmp_path / "f.csv"
    capsys.readouterr()
    assert main(["extract", "--data", str(tmp_path / "ds"), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        f"error: sample {sample_id}: {path}: read 1000 of the 98304 samples from chirp 0; "
        "the file shrank after its size was checked\n")


def test_eval_report_and_confusion(prop_csv, tmp_path):
    report_path = tmp_path / "report.json"
    conf_path = tmp_path / "conf.csv"
    assert main(["eval", "--features", str(prop_csv), "--report", str(report_path),
                 "--confusion", str(conf_path)]) == 0
    payload = json.loads(report_path.read_text())
    confusion = np.array(payload["confusion"])
    assert payload["accuracy_pct"] == pytest.approx(
        100.0 * confusion.trace() / confusion.sum()
    )
    assert len(payload["per_fold"]) == 4
    assert payload["params"]["kind"] == "prop"
    lines = conf_path.read_text().strip().splitlines()
    assert len(lines) == 7  # header + 6 classes
    # rerunning produces identical bytes (no timestamp by default)
    report2 = tmp_path / "report2.json"
    assert main(["eval", "--features", str(prop_csv), "--report", str(report2)]) == 0
    assert report_path.read_bytes() == report2.read_bytes()


def test_eval_reports_each_machines_solver_state(prop_csv, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    capsys.readouterr()
    assert main(["eval", "--features", str(prop_csv), "--report", str(report_path)]) == 0
    out = capsys.readouterr().out
    payload = json.loads(report_path.read_text())
    machines = [m for fold in payload["per_fold"] for m in fold["machines"]]
    assert len(machines) == 4 * 6
    assert {tuple(m) for m in machines} == {("class", "n_iter", "converged", "n_sv", "kkt_gap")}
    assert all(m["converged"] and m["kkt_gap"] <= 1e-3 and m["n_sv"] > 0 for m in machines)
    largest = max(m["n_iter"] for m in machines)
    assert out.splitlines()[-1] == (
        f"  solver: 0 of 24 machines hit the iteration budget; largest n_iter {largest}"
    )


def test_synth_with_far_more_beats_than_samples_exits_2(tmp_path, capsys):
    # 1e9 s at 1e-6 Hz: about 1e9 beats in 1000 samples, which once ran for minutes
    argv = ["synth", "--out", str(tmp_path / "ds"), "--days", "1", "--repetitions", "1",
            "--duration", "1e9", "--fs", "1e-6"]
    assert main(argv) == 2
    assert "cannot sample a 0.904027-Hz heartbeat" in capsys.readouterr().err


def test_eval_timestamp_flag(prop_csv, tmp_path):
    report_path = tmp_path / "stamped.json"
    assert main(["eval", "--features", str(prop_csv), "--report", str(report_path),
                 "--timestamp"]) == 0
    assert "timestamp" in json.loads(report_path.read_text())


def test_project_pca_row_preservation(prop_csv, tmp_path):
    out = tmp_path / "proj.csv"
    svg = tmp_path / "proj.svg"
    assert main(["project", "--features", str(prop_csv), "--out", str(out),
                 "--svg", str(svg)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 49
    table = read_features(prop_csv)
    labels = [line.split(",")[1] for line in lines[1:]]
    assert labels == table.labels.tolist()
    assert svg.read_text().startswith("<svg")


def test_project_svg_escapes_labels(tmp_path):
    features = tmp_path / "odd_labels.csv"
    rows = [{"sample_id": f"s{i}", "label": label, "session_id": f"d{i % 2}",
             "segment_index": 0, "kind": "amp", "values": [float(i), float(i * i % 5)]}
            for i, label in enumerate(['p<1>&', 'q"2'] * 3)]
    write_features(features, rows, 2)
    svg = tmp_path / "odd.svg"
    assert main(["project", "--features", str(features), "--out", str(tmp_path / "p.csv"),
                 "--svg", str(svg)]) == 0
    root = ElementTree.parse(svg).getroot()
    texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
    assert texts == ['p<1>&', 'q"2']


def test_project_tsne_deterministic(prop_csv, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["project", "--features", str(prop_csv), "--out", str(out),
                     "--method", "tsne", "--perplexity", "8",
                     "--iterations", "60", "--seed", "5"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_report_summary(prop_csv, tmp_path):
    r1 = tmp_path / "r1.json"
    assert main(["eval", "--features", str(prop_csv), "--report", str(r1)]) == 0
    summary_json = tmp_path / "summary.json"
    summary_csv = tmp_path / "summary.csv"
    assert main(["report", str(r1), str(r1), "--out", str(summary_json),
                 "--csv", str(summary_csv)]) == 0
    payload = json.loads(summary_json.read_text())
    assert len(payload["methods"]) == 2
    assert payload["methods"][0]["kind"] == "prop"
    assert summary_csv.read_text().splitlines()[0] == "method,accuracy_pct,macro_auc"


def test_usage_error_exits_1(prop_csv, tmp_path):
    assert main(["extract", "--data"]) == 1  # missing value
    assert main(["bogus-command"]) == 1
    # the model-writing subcommand is gone; its name is no longer a choice
    assert main(["train", "--features", str(prop_csv), "--out", str(tmp_path / "m.json")]) == 1
    assert not (tmp_path / "m.json").exists()


def test_data_error_exits_2(tmp_path):
    assert main(["extract", "--data", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "o.csv")]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,feature,file\n1,2,3,4\n")
    assert main(["eval", "--features", str(bad),
                 "--report", str(tmp_path / "r.json")]) == 2


def test_config_file_defaults_and_flag_precedence(small_dataset, tmp_path):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"extract": {"k_prime": 16, "kind": "comp"}}))
    out = tmp_path / "from_config.csv"
    assert main(["--config", str(config), "extract", "--data", str(small_dataset),
                 "--out", str(out)]) == 0
    assert read_features(out).values.shape[1] == 32  # 2 * K' from config
    out2 = tmp_path / "flag_wins.csv"
    assert main(["--config", str(config), "extract", "--data", str(small_dataset),
                 "--out", str(out2), "--k-prime", "12"]) == 0
    assert read_features(out2).values.shape[1] == 24


@pytest.mark.parametrize("mode", ["baseband", "cube"])
def test_extract_non_finite_sample_exits_2(tmp_path, capsys, mode):
    data = tmp_path / "ds"
    duration = "10" if mode == "baseband" else "4"
    assert main(["synth", "--out", str(data), "--days", "1", "--repetitions", "1",
                 "--duration", duration, "--seed", "3", "--mode", mode]) == 0
    manifest = json.loads((data / "manifest.json").read_text())
    record = manifest["records"][2]
    samples = read_iq(data / record["file"])
    samples[123] = np.nan
    write_iq(data / record["file"], samples)
    capsys.readouterr()
    assert main(["extract", "--data", str(data), "--out", str(tmp_path / "f.csv")]) == 2
    err = capsys.readouterr().err
    sample_id = f"{record['label']}_{record['session_id']}_r{record['repetition']}"
    if mode == "cube":  # 123 = element 0, fast-time bin 123 of the first chirp
        assert RadarConfig.n_fast > 123
        assert sample_id in err and "index (0, 0, 123) " in err
        assert "; 1 of 614400 are not finite" in err  # 400 x 12 x 128 complex64 samples
    else:
        assert sample_id in err and "index 123 " in err


@pytest.mark.parametrize(
    "kind, alternating",
    [("amp", False), ("ph", False), ("comp", False), ("prop", False), ("comp", True)],
    ids=["amp", "ph", "comp", "prop", "comp_alternating_samples"],
)
def test_extract_overflowing_features_exit_2(tmp_path, capsys, kind, alternating):
    # fs^2 is finite, but the STFT of the second derivative overflows to inf, and
    # inf * 0 in the filter-bank trapezoid gave an all-NaN CSV with exit 0.  Finite
    # samples alternating +-1 overflow in the derivative itself (4 fs^2), which was
    # blamed on the record as a non-finite sample at index 0
    data = tmp_path / "ds"
    assert main(["synth", "--out", str(data), "--days", "1", "--repetitions", "1",
                 "--duration", "4"]) == 0
    manifest = json.loads((data / "manifest.json").read_text())
    (data / "manifest.json").write_text(json.dumps({**manifest, "fs": 1e154}))
    if alternating:
        write_iq(data / manifest["records"][0]["file"],
                 np.where(np.arange(400) % 2, -1.0, 1.0).astype(np.complex128))
    out = tmp_path / "f.csv"
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["extract", "--data", str(data), "--out", str(out), "--kind", kind,
                     "--window", "2e-152", "--hop", "1e-153", "--n-filters", "8",
                     "--k-prime", "4"]) == 2
    assert not out.exists()
    # the error line is all the user sees: no numpy RuntimeWarning before it
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == (
        f"error: sample p1_d1am_r1 segment 0: {kind} features overflow float64 at "
        "fs=1e+154 Hz, window 2e-152 s, hop 1e-153 s\n")


@pytest.mark.parametrize("duration, mode", [("1e15", "baseband"), ("1e12", "cube")])
def test_size_beyond_memory_exits_2(tmp_path, capsys, duration, mode):
    # a valid array length far beyond memory: numpy refuses the allocation up front;
    # a cube needs 1536 times its displacement's memory on disk, so the disk check stops it
    argv = ["synth", "--out", str(tmp_path / "ds"), "--days", "1", "--repetitions", "1",
            "--duration", duration, "--mode", mode]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    if mode == "cube":
        assert err.startswith(f"error: {tmp_path / 'ds'}: 12 cube files need "
                              f"{12 * 10**14 * 12 * 128 * 8} bytes, but its disk has ")
    else:
        assert err.startswith("error: synth: Unable to allocate ")
    assert not (tmp_path / "ds").exists()


@pytest.fixture
def pool_width(monkeypatch):
    """Sets how many cube records ``synth`` renders at once, whatever the CPU count."""
    in_order = cohort.in_order

    def set_width(width):
        monkeypatch.setattr(cohort, "in_order", lambda fn, jobs, _: in_order(fn, jobs, width))

    return set_width


CUBE_SYNTH = ["--mode", "cube", "--days", "1", "--repetitions", "1", "--duration", "2"]


def test_pooled_cube_synth_same_bytes_as_one_at_a_time(tmp_path, pool_width):
    files, threads = {}, threading.active_count()
    for width in (2, 1):
        pool_width(width)
        out = tmp_path / f"w{width}"
        assert main(["synth", "--out", str(out), "--seed", "5", *CUBE_SYNTH]) == 0
        assert threading.active_count() == threads
        files[width] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert files[2] == files[1] and len(files[1]) == 13  # 12 cubes and the manifest


def test_synth_failing_record_exits_as_in_record_order(tmp_path, capsys, monkeypatch, pool_width):
    # the second record fails after rendering; the third fails at once, so it
    # fails first when the two render side by side
    simulate = cohort.simulate_measurement

    def failing(profile, session_id, rep, *args):
        if (profile.id, session_id) == ("p2", "d1am"):
            raise PipelineError("third record")
        m = simulate(profile, session_id, rep, *args)
        if (profile.id, session_id) == ("p1", "d1pm"):
            raise PipelineError("second record")
        return m

    monkeypatch.setattr(cohort, "simulate_measurement", failing)
    threads, outcomes = threading.active_count(), []
    for width in (1, 2):
        pool_width(width)
        out = tmp_path / f"w{width}"
        capsys.readouterr()
        outcomes.append((main(["synth", "--out", str(out), *CUBE_SYNTH]),
                         capsys.readouterr().err))
        assert threading.active_count() == threads
        assert (out / "p1_d1am_r1.iq").exists() and not (out / "manifest.json").exists()
    assert outcomes == [(2, "error: second record\n")] * 2


def test_interrupted_resynth_leaves_no_manifest_for_extract(tmp_path, capsys, monkeypatch):
    # a re-synth into an existing dataset, stopped at its fifth record, left the old
    # manifest over a mix of two seeds' records, which extract read as whole
    data, argv = tmp_path / "ds", ["--days", "2", "--repetitions", "1", "--duration", "5"]
    assert main(["synth", "--out", str(data), "--seed", "0", *argv]) == 0
    files = {p.name: p.read_bytes() for p in data.iterdir()}
    assert len(files) == 25  # 24 records and the manifest
    capsys.readouterr()
    assert main(["synth", "--out", str(data), "--seed", "7", *argv, "--duration", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert {p.name: p.read_bytes() for p in data.iterdir()} == files  # rejected: untouched
    write_iq, written = dataio.write_iq, []

    def interrupted(path, samples):
        if len(written) == 4:
            raise KeyboardInterrupt
        written.append(path)
        write_iq(path, samples)

    monkeypatch.setattr(dataio, "write_iq", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["synth", "--out", str(data), "--seed", "7", *argv])
    assert len(written) == 4 and not (data / "manifest.json").exists()
    capsys.readouterr()
    assert main(["extract", "--data", str(data), "--out", str(tmp_path / "f.csv")]) == 2
    assert capsys.readouterr().err == f"error: no manifest.json in {data}\n"
    assert not (tmp_path / "f.csv").exists()


def test_synth_cube_beyond_the_free_disk_space_exits_2(tmp_path, capsys, monkeypatch):
    usage = shutil.disk_usage(tmp_path)
    monkeypatch.setattr(shutil, "disk_usage", lambda path: usage._replace(free=10**6))
    capsys.readouterr()
    assert main(["synth", "--out", str(tmp_path / "ds"), *CUBE_SYNTH]) == 2
    assert capsys.readouterr().err == (f"error: {tmp_path / 'ds'}: 12 cube files need "
                                       "29491200 bytes, but its disk has 1000000 free\n")
    assert not (tmp_path / "ds").exists()


def _synth_on_a_shrinking_disk(out, room, widths, capsys, monkeypatch, pool_width):
    """``synth`` of the 12 ``CUBE_SYNTH`` cubes at each width, with ``room`` bytes free
    less what is written under ``out``: (exit code, stderr, files left) per width."""
    usage = shutil.disk_usage(out.parent)
    monkeypatch.setattr(shutil, "disk_usage", lambda path: usage._replace(
        free=room - sum(f.stat().st_size for f in out.glob("*"))))
    outcomes, switch = {}, sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # the threads interleave often, four of them on fewer CPUs
    try:
        for width in widths:
            pool_width(width)
            capsys.readouterr()
            outcomes[width] = (main(["synth", "--out", str(out), *CUBE_SYNTH]),
                               capsys.readouterr().err,
                               sorted(p.name for p in out.iterdir()) if out.exists() else None)
            shutil.rmtree(out, ignore_errors=True)
    finally:
        sys.setswitchinterval(switch)
    return outcomes


def test_pooled_cube_synth_near_a_full_disk_fails_as_one_at_a_time(tmp_path, capsys,
                                                                  monkeypatch, pool_width):
    # room for one and a half 2457600-byte cubes: the cohort fails before its first render
    out = tmp_path / "ds"
    outcomes = _synth_on_a_shrinking_disk(out, 3686400, (1, 2, 4), capsys, monkeypatch,
                                          pool_width)
    assert outcomes[1] == (2, f"error: {out}: 12 cube files need 29491200 bytes, but its "
                              "disk has 3686400 free\n", None)
    assert outcomes[2] == outcomes[4] == outcomes[1]


def test_pooled_cube_synth_passes_with_exact_room_and_fails_one_byte_short(
        tmp_path, capsys, monkeypatch, pool_width):
    # the space shrinks as the files grow, so a cohort that passes its call-time check
    # never fails the check that each cube file makes as it is opened
    out, widths = tmp_path / "ds", (1, 2, 4)
    exact = _synth_on_a_shrinking_disk(out, 29491200, widths, capsys, monkeypatch, pool_width)
    short = _synth_on_a_shrinking_disk(out, 29491199, widths, capsys, monkeypatch, pool_width)
    files = sorted([*(cohort.record_file(f"p{i}", s, 1) for i in range(1, 7)
                      for s in ("d1am", "d1pm")), "manifest.json"])
    for width in widths:
        assert exact[width][0] == 0 and exact[width][2] == files
        assert short[width] == (2, f"error: {out}: 12 cube files need 29491200 bytes, but "
                                   "its disk has 29491199 free\n", None)


@pytest.fixture(scope="module")
def long_dataset(tmp_path_factory):
    """12 baseband records of 60 s: 580 STFT frames each, above the two-lane gate."""
    data = tmp_path_factory.mktemp("long")
    assert main(["synth", "--out", str(data), "--days", "1", "--repetitions", "1",
                 "--duration", "60", "--seed", "3"]) == 0
    return data


@pytest.fixture
def extract_lanes(monkeypatch):
    """Sets the lanes that ``extract`` uses above its gate, and records each run's width."""
    widths, in_order = [], cohort.in_order

    def spy(fn, jobs, width):
        widths.append(width)
        return in_order(fn, jobs, width)

    def set_lanes(lanes):
        monkeypatch.setattr(cohort, "lanes", lambda: lanes)
        return widths

    monkeypatch.setattr(cohort, "in_order", spy)
    return set_lanes


# size: STFT frames of a baseband lane's workspace, or chirps of a cube lane's profiles
@pytest.mark.parametrize("duration, segment, mode, size", [
    (60, None, "baseband", 581), (60, 30.0, "baseband", 281), (60, 20.0, "baseband", None),
    (60, 5.0, "baseband", None), (20, None, "baseband", None), (60, None, "cube", 6000),
    (60, 5.0, "cube", 500), (20, None, "cube", 2000),
    # segments that extract rejects later: no series is sized beyond the record
    (60, -1.0, "baseband", None), (60, float("nan"), "baseband", 581),
    (60, float("inf"), "baseband", 581), (60, 1e308, "baseband", 581),
])
def test_extract_runs_cubes_on_lanes_always_and_baseband_only_when_long(monkeypatch, tmp_path,
                                                                       duration, segment, mode,
                                                                       size):
    # the gate reads the frames per series from the manifest, segment, window and hop;
    # one baseband lane, in the calling thread, takes fresh arrays (no workspace)
    monkeypatch.setattr(cohort, "lanes", lambda: 2)
    cube = mode == "cube"
    sample_bytes = 8 * (RadarConfig.n_virtual * RadarConfig.n_fast if cube else 1)
    with open(tmp_path / "r.iq", "wb") as f:  # sparse: the record file only bounds the size
        f.truncate(duration * 100 * sample_bytes)
    record = {"n_slow" if cube else "n_samples": duration * 100, "file": "r.iq"}
    manifest = {"fs": 100.0, "mode": mode, "records": [record] * 3}
    args = cli.build_parser().parse_args(["extract", "--data", str(tmp_path), "--out", "o"])
    args.segment = segment
    work = cli._workspaces(args, manifest)
    if cube:
        assert size == cli._series_length(args, manifest)
        assert len(work) == 2 and work[0][1] is not work[1][1]
        assert all(stft is None and len(front.profiles) == size for stft, front in work)
    elif size is None:
        assert work == [(None, None)]
    else:
        assert len(work) == 2 and work[0][0] is not work[1][0]
        assert all(front is None and stft.modulus.size == stft.spectrum.size == size * 200
                   for stft, front in work)
    monkeypatch.setattr(cohort, "lanes", lambda: 1)  # a single CPU
    work = cli._workspaces(args, manifest)
    if cube:
        assert len(work) == 1 and work[0][0] is None and len(work[0][1].profiles) == size
    else:
        assert work == [(None, None)]


def _extract_on_two_lanes_and_one(data, out_dir, extract_lanes, extra):
    """``extract`` of ``data`` on two lanes and on one: the CSV's bytes per lane count."""
    out, threads = {}, threading.active_count()
    for lanes in (2, 1):
        widths = extract_lanes(lanes)
        path = out_dir / f"w{lanes}.csv"
        assert main(["extract", "--data", str(data), "--out", str(path), *extra]) == 0
        assert widths[-1] == lanes and threading.active_count() == threads
        out[lanes] = path.read_bytes()
    return out


@pytest.mark.parametrize("extra", [["--kind", "amp"], ["--kind", "ph"], ["--kind", "comp"],
                                   ["--kind", "prop"], ["--log-energies"], ["--segment", "30"]])
def test_two_lane_extract_same_bytes_as_one_lane(long_dataset, tmp_path, extract_lanes, extra):
    out = _extract_on_two_lanes_and_one(long_dataset, tmp_path, extract_lanes, extra)
    assert out[2] == out[1] and out[1].count(b"\n") == (25 if "--segment" in extra else 13)


@pytest.mark.parametrize("segment", [[], SEGMENTS["2s"]], ids=["whole", "2s"])
def test_two_lane_cube_extract_same_bytes_as_one_lane(cube_dataset, tmp_path, extract_lanes,
                                                      segment):
    # each lane's front-end workspace takes every other record or its segments
    out = _extract_on_two_lanes_and_one(cube_dataset, tmp_path, extract_lanes, segment)
    assert out[2] == out[1] and out[1].count(b"\n") == (25 if segment else 13)


def _extract_exits_on_one_lane_and_two(data, out, capsys, extract_lanes):
    """(exit code, stderr) of ``extract`` of ``data`` on one lane and on two."""
    outcomes, threads = {}, threading.active_count()
    for lanes in (1, 2):
        widths = extract_lanes(lanes)
        capsys.readouterr()
        outcomes[lanes] = (main(["extract", "--data", str(data), "--out", str(out)]),
                           capsys.readouterr().err)
        assert widths[-1] == lanes and threading.active_count() == threads
    assert not out.exists()
    return outcomes


def test_two_lane_extract_of_a_non_finite_record_exits_as_one_lane(long_dataset, tmp_path,
                                                                    capsys, extract_lanes):
    # record 2 holds a NaN while record 3 runs beside it
    data = tmp_path / "ds"
    shutil.copytree(long_dataset, data)
    record = json.loads((data / "manifest.json").read_text())["records"][2]
    samples = read_iq(data / record["file"])
    samples[4321] = np.nan
    write_iq(data / record["file"], samples)
    outcomes = _extract_exits_on_one_lane_and_two(data, tmp_path / "f.csv", capsys,
                                                  extract_lanes)
    assert outcomes[2] == outcomes[1] == (2, "error: sample p2_d1am_r1: non-finite sample at "
                                             "index 4321 ((nan+0j)); 1 of 6000 are not finite\n")


def test_two_lane_cube_extract_of_non_finite_records_exits_on_the_earliest(cube_dataset, tmp_path,
                                                                          capsys, extract_lanes):
    # record 2 holds a NaN in its last block, and record 3, beside it, in its first
    data = _relinked(cube_dataset, tmp_path / "ds", {})
    for index, chirp in ((2, 390), (3, 10)):
        record = json.loads((data / "manifest.json").read_text())["records"][index]
        samples = read_iq(cube_dataset / record["file"]).reshape(400, -1)
        samples[chirp, 7] = np.nan
        (data / record["file"]).unlink()
        write_iq(data / record["file"], samples)
    outcomes = _extract_exits_on_one_lane_and_two(data, tmp_path / "f.csv", capsys,
                                                  extract_lanes)
    assert outcomes[2] == outcomes[1] == (2, "error: sample p2_d1am_r1: non-finite sample at "
                                             "index (390, 0, 7) ((nan+0j)); 1 of 614400 are "
                                             "not finite\n")


def _assert_four_lanes_share_no_workspace(argv, out_dir, monkeypatch, extract_lanes, module,
                                          name, work_of):
    """``extract`` on 4 lanes, threads switching every microsecond, uses 4 workspaces
    (``work_of`` the arguments of ``module.name``), none in two calls at once, and
    writes the bytes of one lane."""
    extract_lanes(1)
    assert main([*argv, "--out", str(out_dir / "w1.csv")]) == 0
    fn, lock = getattr(module, name), threading.Lock()
    busy, used, clashes = set(), set(), []

    def watched(*args):
        work = work_of(args)
        with lock:
            if id(work) in busy:
                clashes.append(id(work))
            busy.add(id(work))
            used.add(id(work))
        try:
            return fn(*args)
        finally:
            with lock:
                busy.discard(id(work))

    monkeypatch.setattr(module, name, watched)
    widths, switch = extract_lanes(4), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert main([*argv, "--out", str(out_dir / "w4.csv")]) == 0
    finally:
        sys.setswitchinterval(switch)
    assert widths[-1] == 4 and len(used) == 4 and clashes == []
    assert (out_dir / "w4.csv").read_bytes() == (out_dir / "w1.csv").read_bytes()


def test_extract_on_more_lanes_than_cpus_shares_no_workspace(long_dataset, tmp_path,
                                                             monkeypatch, extract_lanes):
    # a record's lane workspace is reused by the record `lanes` later, which in_order
    # submits only after this record's rows were taken
    argv = ["extract", "--data", str(long_dataset), "--segment", "30", "--kind", "comp"]
    _assert_four_lanes_share_no_workspace(argv, tmp_path, monkeypatch, extract_lanes,
                                          cepstrum, "extract_features", lambda args: args[7])


def test_cube_extract_on_more_lanes_than_cpus_shares_no_front_end_workspace(
        cube_dataset, tmp_path, monkeypatch, extract_lanes):
    # as above, for the front-end workspace that each cube lane passes to beamform
    argv = ["extract", "--data", str(cube_dataset), *SEGMENTS["2s"]]
    _assert_four_lanes_share_no_workspace(argv, tmp_path, monkeypatch, extract_lanes,
                                          radar, "beamform", lambda args: args[1])


@pytest.mark.parametrize("missing", ["accuracy_pct", "macro_auc"])
def test_report_missing_key_exits_2(prop_csv, tmp_path, missing):
    report = tmp_path / "r.json"
    assert main(["eval", "--features", str(prop_csv), "--report", str(report)]) == 0
    payload = json.loads(report.read_text())
    del payload[missing]
    report.write_text(json.dumps(payload))
    assert main(["report", str(report)]) == 2
    not_a_report = tmp_path / "list.json"
    not_a_report.write_text("[1, 2]")
    assert main(["report", str(not_a_report)]) == 2


@pytest.mark.parametrize(
    "config",
    [
        {"extract": {"k_prim": 16}},
        {"extrct": {"k_prime": 16}},
        {"extract": 16},
        [1, 2],
        # values outside an option's type or choices
        {"eval": {"kernel": "poly"}},
        {"extract": {"kind": "bogus"}},
        {"synth": {"cohort": "bogus"}},
        {"synth": {"mode": "bogus"}},
        {"extract": {"k_prime": [1]}},
        {"project": {"method": "umap"}},
        {"train": {"C": 1.0}},  # a section for the removed subcommand
    ],
)
def test_config_unknown_keys_exit_2(small_dataset, tmp_path, config):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "f.csv"
    assert main(["--config", str(path), "extract", "--data", str(small_dataset),
                 "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "value", ["no", "true", 0, 1, None, [True]],
    ids=["string_no", "string_true", "zero", "one", "null", "list"],
)
def test_config_flag_takes_only_a_json_boolean(small_dataset, tmp_path, capsys, value):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"extract": {"log_energies": value}}))
    out = tmp_path / "f.csv"
    capsys.readouterr()
    assert main(["--config", str(path), "extract", "--data", str(small_dataset),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "extract log_energies" in err
    assert not out.exists()


def test_config_flag_true_same_as_command_line_flag(small_dataset, tmp_path):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"extract": {"log_energies": True}}))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["--config", str(path), "extract", "--data", str(small_dataset),
                 "--out", str(a)]) == 0
    assert main(["extract", "--data", str(small_dataset), "--out", str(b),
                 "--log-energies"]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "command,option,value",
    [
        ("eval", "confusion", 9),
        ("project", "svg", 5),
        ("report", "csv", 3.5),
        ("synth", "dataset_id", [1, 2]),
        ("report", "out", {"a": 1}),
        ("eval", "confusion", True),  # last: at fd 1 it would close the test's stdout
    ],
)
def test_config_untyped_option_takes_only_a_json_string(
    prop_csv, tmp_path, capsys, command, option, value
):
    report = tmp_path / "r.json"
    assert main(["eval", "--features", str(prop_csv), "--report", str(report)]) == 0
    argv = {
        "synth": ["--out", str(tmp_path / "ds"), "--days", "1", "--repetitions", "1",
                  "--duration", "5"],
        "eval": ["--features", str(prop_csv), "--report", str(tmp_path / "r2.json")],
        "project": ["--features", str(prop_csv), "--out", str(tmp_path / "p.csv")],
        "report": [str(report)],
    }[command]
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({command: {option: value}}))
    capsys.readouterr()
    assert main(["--config", str(config), command, *argv]) == 2
    captured = capsys.readouterr()
    assert f"config {config}: {command} {option}: " in captured.err
    assert "is not a JSON string" in captured.err and captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["conf.json", "r.json"]


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("params", 5, "key 'params' is 5, not an object"),
        ("accuracy_pct", "x", "key 'accuracy_pct' is 'x', not a number"),
        ("accuracy_pct", [1], "key 'accuracy_pct' is [1], not a number"),
        ("accuracy_pct", True, "key 'accuracy_pct' is True, not a number"),
        ("accuracy_pct", 10**400, "key 'accuracy_pct' is 1000"),
        ("macro_auc", None, "key 'macro_auc' is None, not a number"),
        ("kind", [1, 2], "key 'params.kind' is [1, 2], not a string"),
    ],
    ids=["params_int", "accuracy_str", "accuracy_list", "accuracy_bool", "accuracy_huge_int",
         "auc_null", "kind_list"],
)
def test_report_bad_field_exits_2(prop_csv, tmp_path, capsys, key, value, message):
    report = tmp_path / "r.json"
    assert main(["eval", "--features", str(prop_csv), "--report", str(report)]) == 0
    payload = json.loads(report.read_text())
    (payload["params"] if key == "kind" else payload)[key] = value
    report.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["report", str(report), "--csv", str(tmp_path / "s.csv")]) == 2
    captured = capsys.readouterr()
    assert f"{report}: {message}" in captured.err and captured.out == ""
    assert not (tmp_path / "s.csv").exists()


def test_report_accepts_nan_metric(prop_csv, tmp_path, capsys):
    report = tmp_path / "r.json"
    assert main(["eval", "--features", str(prop_csv), "--report", str(report)]) == 0
    payload = json.loads(report.read_text())
    payload["macro_auc"] = float("nan")
    report.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["report", str(report)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split()[-1] == "nan"


@pytest.mark.parametrize(
    "command,flags,message",
    [
        ("synth", ["--duration", "1e300"], "duration 1e+300 s at fs 100.0 Hz is too many samples"),
        ("synth", ["--fs", "1e300"], "duration 5.0 s at fs 1e+300 Hz is too many samples"),
        ("synth", ["--snr-db", "-3083"], "snr_db must be at least -300 dB, got -3083.0"),
        ("extract", ["--segment", "5e-324"], "segment length 5e-324 s is shorter than one sample"),
        ("project", ["--seed", "-1"], "iterations 60 and seed -1 must be non-negative"),
        ("project", ["--iterations", "-5"], "iterations -5 and seed 0 must be non-negative"),
        ("project", ["--perplexity", "0.5"], "perplexity must be at least 1, got 0.5"),
        # 7 segments of 285 samples would keep 1995 of the 2000
        ("extract", ["--segment", str(20 / 7)], f"segment length {20 / 7} s is not a whole "
         "number of samples: 2000 samples do not split into 7 equal segments"),
        # 0.4 of a sample: no record is rendered, so no empty file is left behind
        ("synth", ["--duration", "0.004"], "duration 0.004 s at fs 100.0 Hz is under one sample"),
        ("synth", ["--duration", "0.004", "--mode", "cube"],
         "duration 0.004 s at fs 100.0 Hz is under one sample"),
    ],
)
def test_out_of_range_setting_exits_2_naming_it(
    small_dataset, prop_csv, tmp_path, capsys, command, flags, message
):
    out = tmp_path / "out"
    argv = {
        "synth": ["--out", str(out), "--days", "1", "--repetitions", "1", "--duration", "5"],
        "extract": ["--data", str(small_dataset), "--out", str(out)],
        "project": ["--features", str(prop_csv), "--out", str(out), "--method", "tsne",
                    "--perplexity", "8", "--iterations", "60"],
    }[command]
    capsys.readouterr()
    assert main([command, *argv, *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "entry",
    [{"fs": "100"}, {"fs": -5}, {"fs": True}, {"fs": float("inf")}, {"fs": float("nan")},
     {"fs": 10**400}, {"mode": "fmcw"}, {"records": 5}, {"records": []}],
    ids=["fs_string", "fs_negative", "fs_bool", "fs_inf", "fs_nan", "fs_int_beyond_float",
         "mode_unknown", "records_int", "records_empty"],
)
def test_extract_bad_manifest_fs_or_mode_exits_2(cube_dataset, tmp_path, capsys, entry):
    bad = _relinked(cube_dataset, tmp_path / "bad", entry)
    out = tmp_path / "f.csv"
    capsys.readouterr()
    assert main(["extract", "--data", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    (key,) = entry
    assert str(bad / "manifest.json") in err and f"key {key!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("size", ["2000", 0, True])
@pytest.mark.parametrize("dataset", ["small_dataset", "cube_dataset"])
def test_extract_bad_record_size_exits_2(request, tmp_path, capsys, dataset, size):
    data = request.getfixturevalue(dataset)
    records = json.loads((data / "manifest.json").read_text())["records"]
    size_key = "n_slow" if dataset == "cube_dataset" else "n_samples"
    records[1][size_key] = size
    bad = _relinked(data, tmp_path / "bad", {"records": records})
    out = tmp_path / "f.csv"
    capsys.readouterr()
    assert main(["extract", "--data", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(bad / "manifest.json") in err and f"records[1] key {size_key!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("segment", [[], SEGMENTS["2s"]], ids=["whole", "2s"])
@pytest.mark.parametrize("n_slow", [10**30, 2**40])
def test_extract_of_a_cube_entry_beyond_its_file_exits_2_naming_it(cube_dataset, tmp_path,
                                                                   capsys, n_slow, segment):
    # the front end's workspace is sized by the files too, so the record's load fails first
    records = json.loads((cube_dataset / "manifest.json").read_text())["records"]
    records[1]["n_slow"] = n_slow
    bad = _relinked(cube_dataset, tmp_path / "bad", {"records": records})
    capsys.readouterr()
    assert main(["extract", "--data", str(bad), "--out", str(tmp_path / "f.csv"), *segment]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: sample p1_d1pm_r1: {bad / records[1]['file']}: 614400 samples, expected ")


@pytest.mark.parametrize("segment", [[], ["--segment", "5"]], ids=["whole", "5s"])
@pytest.mark.parametrize("n_samples", [10**30, 10**9])
def test_extract_of_a_baseband_entry_beyond_its_file_exits_2_naming_it(small_dataset, tmp_path,
                                                                       capsys, n_samples, segment):
    # the STFT workspaces are sized by the files too, so the record's load fails first
    records = json.loads((small_dataset / "manifest.json").read_text())["records"]
    records[1]["n_samples"] = n_samples
    bad = _relinked(small_dataset, tmp_path / "bad", {"records": records})
    sample = f"{records[1]['label']}_{records[1]['session_id']}_r{records[1]['repetition']}"
    capsys.readouterr()
    assert main(["extract", "--data", str(bad), "--out", str(tmp_path / "f.csv"), *segment]) == 2
    assert capsys.readouterr().err == (f"error: sample {sample}: {bad / records[1]['file']}: "
                                       f"2000 samples, manifest says {n_samples}\n")


@pytest.mark.parametrize(
    "key,value",
    [
        ("file", 5), ("file", None), ("file", ""), ("file", "."), ("file", ".."),
        ("file", "/etc/hostname"), ("file", "sub/p1_d1am_r1.iq"), ("file", "OUTSIDE"),
        ("label", [1]), ("label", ""), ("label", 1), ("session_id", None),
        ("session_id", ""), ("repetition", "x"), ("repetition", True), ("repetition", 1.0),
    ],
)
def test_extract_bad_record_entry_exits_2(small_dataset, tmp_path, capsys, key, value):
    records = json.loads((small_dataset / "manifest.json").read_text())["records"]
    if value == "OUTSIDE":  # a real record file, reached through the parent directory
        value = f"../{small_dataset.name}/{records[1]['file']}"
    records[1][key] = value
    bad = _relinked(small_dataset, tmp_path / "bad", {"records": records})
    out = tmp_path / "f.csv"
    capsys.readouterr()
    assert main(["extract", "--data", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(bad / "manifest.json") in err and f"records[1] key {key!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("content", [b"5", b"null", b'"records"', b"\xff\xfe{}"],
                         ids=["int", "null", "string", "not_utf8"])
def test_extract_manifest_not_a_json_object_exits_2(tmp_path, capsys, content):
    (tmp_path / "manifest.json").write_bytes(content)
    out = tmp_path / "f.csv"
    capsys.readouterr()
    assert main(["extract", "--data", str(tmp_path), "--out", str(out)]) == 2
    assert str(tmp_path / "manifest.json") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("where", ["config", "report"])
def test_json_file_not_utf8_exits_2(prop_csv, tmp_path, capsys, where):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    if where == "config":
        argv = ["--config", str(bad), "eval", "--features", str(prop_csv),
                "--report", str(tmp_path / "r.json")]
    else:
        argv = ["report", str(bad), "--out", str(tmp_path / "r.json")]
    capsys.readouterr()
    assert main(argv) == 2
    assert str(bad) in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_cli_import_skips_slow_scipy_modules():
    src = str(Path(heartid.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, heartid.cli; print(sorted(m for m in sys.modules if 'scipy' in m))"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


# runs the pass given as a JSON list of argument lists with every scipy import failing
WITHOUT_SCIPY = """\
import json, sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, NoScipy())
from heartid.cli import main

for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
sys.exit(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy") or 0)
"""

TINY_PASS = [
    ["synth", "--out", "data", "--days", "1", "--repetitions", "2", "--duration", "10"],
    ["extract", "--data", "data", "--out", "prop.csv"],
    ["extract", "--data", "data", "--out", "log.csv", "--log-energies"],
    ["eval", "--features", "prop.csv", "--report", "report.json", "--confusion", "confusion.csv"],
    ["project", "--features", "prop.csv", "--out", "tsne.csv", "--method", "tsne",
     "--perplexity", "5", "--iterations", "60"],
]


def test_pass_without_scipy_same_bytes_as_in_process(tmp_path, monkeypatch):
    src = str(Path(heartid.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    blocked, here = tmp_path / "blocked", tmp_path / "here"
    blocked.mkdir()
    here.mkdir()
    run = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, json.dumps(TINY_PASS)], cwd=blocked,
                         env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    monkeypatch.chdir(here)
    for argv in TINY_PASS:
        assert main(argv) == 0
    outputs = {d: {p.relative_to(d): p.read_bytes() for p in d.rglob("*") if p.is_file()}
               for d in (blocked, here)}
    assert {"prop.csv", "log.csv", "report.json", "confusion.csv", "tsne.csv"} <= {
        str(p) for p in outputs[here]}
    assert outputs[blocked] == outputs[here]


# --- bad input at the file and parameter boundaries ------------------------------

@pytest.mark.parametrize("command", ["eval", "project"])
@pytest.mark.parametrize("cell", ["nan", "-inf", "0.5x", None])
def test_bad_feature_cell_exits_2(prop_csv, tmp_path, capsys, command, cell):
    lines = prop_csv.read_text().splitlines()
    row = lines[3].split(",")
    if cell is None:
        row.pop()  # a ragged row, one cell short
    else:
        row[5 + 7] = cell  # column c7
    lines[3] = ",".join(row)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    out = {"eval": "--report", "project": "--out"}[command]
    capsys.readouterr()
    assert main([command, "--features", str(bad), out, str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and f"sample {row[0]}" in err
    assert cell is None or "column c7" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["eval", "pca", "tsne"])
def test_feature_csv_without_feature_columns_exits_2(tmp_path, capsys, command):
    # eval used to score 24 such rows at 50% with NaN KKT gaps; t-SNE drew a scatter
    bad = tmp_path / "bad.csv"
    bad.write_text("sample_id,label,session_id,segment_index,kind\n" + "".join(
        f"p{i % 2}_s{i},p{i % 2},d{i % 3},0,amp\n" for i in range(24)))
    out = tmp_path / "out"
    if command == "eval":
        argv = ["eval", "--features", str(bad), "--report", str(out)]
    else:
        argv = ["project", "--features", str(bad), "--out", str(out), "--method", command,
                "--perplexity", "5"]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {bad}: no feature columns\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "project"])
@pytest.mark.parametrize("damage", ["oversized_cell", "not_utf8"])
def test_unreadable_feature_csv_exits_2(prop_csv, tmp_path, capsys, command, damage):
    text = prop_csv.read_bytes()
    if damage == "oversized_cell":  # beyond the csv module's 131072-character field limit
        text = text.replace(b",prop,", b",prop" + b"0" * 200_000 + b",", 1)
    else:
        text = b"\xff\xfe" + text
    bad = tmp_path / "bad.csv"
    bad.write_bytes(text)
    out = {"eval": "--report", "project": "--out"}[command]
    capsys.readouterr()
    assert main([command, "--features", str(bad), out, str(tmp_path / "out")]) == 2
    assert f"{bad}: unreadable CSV" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["eval", "pca", "tsne"])
@pytest.mark.parametrize(
    "damage,column",
    [("all_1e308", "c0"), ("cell_1e308", "c7"), ("column_1e200", "c7"), ("cell_-1e153", "c7")],
)
def test_overflowing_feature_exits_2(prop_csv, tmp_path, capsys, command, damage, column):
    lines = [line.split(",") for line in prop_csv.read_text().splitlines()]
    for i, row in enumerate(lines[1:], start=1):
        if damage == "all_1e308":
            row[5:] = ["1e308"] * (len(row) - 5)
        elif damage == "column_1e200":
            row[5 + 7] = "1e200"
        elif i == 3:
            row[5 + 7] = damage.split("_")[1]
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(",".join(row) for row in lines) + "\n")
    out = tmp_path / "out"
    if command == "eval":
        argv = ["eval", "--features", str(bad), "--report", str(out)]
    else:
        argv = ["project", "--features", str(bad), "--out", str(out), "--method", command,
                "--perplexity", "8", "--iterations", "60"]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and f"column {column}:" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "pca", "tsne"])
def test_largest_accepted_features_stay_finite(prop_csv, tmp_path, command):
    # every cell just inside the bound, alternating sign by row: the worst case
    # for the squared sums, 4 * 96 columns * bound**2 = the largest float64
    lines = [line.split(",") for line in prop_csv.read_text().splitlines()]
    bound = np.sqrt(np.finfo(np.float64).max / (4 * (len(lines[0]) - 5)))
    for i, row in enumerate(lines[1:]):
        row[5:] = [f"{(-1) ** i * 0.99 * bound:.17g}"] * (len(row) - 5)
    big = tmp_path / "big.csv"
    big.write_text("\n".join(",".join(row) for row in lines) + "\n")
    out = tmp_path / "out"
    if command == "eval":
        argv = ["eval", "--features", str(big), "--report", str(out)]
    else:
        argv = ["project", "--features", str(big), "--out", str(out), "--method", command,
                "--perplexity", "8", "--iterations", "60"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would end the run with exit 3
        assert main(argv) == 0
    if command == "eval":
        assert np.isfinite(json.loads(out.read_text())["macro_auc"])
    else:
        points = np.loadtxt(out, delimiter=",", skiprows=1, usecols=(2, 3))
        assert np.isfinite(points).all()


@pytest.mark.parametrize("index", ["1" + "0" * 400, "9223372036854775808", "1e3"])
def test_bad_segment_index_exits_2(prop_csv, tmp_path, capsys, index):
    lines = [line.split(",") for line in prop_csv.read_text().splitlines()]
    lines[3][3] = index
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(",".join(row) for row in lines) + "\n")
    capsys.readouterr()
    assert main(["eval", "--features", str(bad), "--report", str(tmp_path / "r.json")]) == 2
    assert f"{bad}: sample {lines[3][0]} column segment_index:" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["truncated", "empty", "no_file"])
def test_extract_record_not_matching_its_file_exits_2(tmp_path, capsys, damage):
    data = tmp_path / "ds"
    assert main(["synth", "--out", str(data), "--days", "1", "--repetitions", "1",
                 "--duration", "10", "--seed", "3"]) == 0
    manifest_path = data / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    record = manifest["records"][2]
    iq = data / record["file"]
    if damage == "truncated":
        iq.write_bytes(iq.read_bytes()[: iq.stat().st_size // 2])
    elif damage == "empty":
        iq.write_bytes(b"")
    else:
        del record["file"]
        manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["extract", "--data", str(data), "--out", str(tmp_path / "f.csv")]) == 2
    err = capsys.readouterr().err
    sample_id = f"{record['label']}_{record['session_id']}_r{record['repetition']}"
    assert ("records[2] lacks file" if damage == "no_file" else sample_id) in err


@pytest.mark.parametrize("via_config", [False, True])
@pytest.mark.parametrize(
    "command,option,value",
    [
        ("extract", "n_filters", 0),
        ("extract", "window", "nan"),
        ("extract", "segment", "nan"),
        ("extract", "segment", "0"),
        ("extract", "f_ref", "1e20"),
        ("extract", "f_prime", "1e-20"),
        ("extract", "f_ref", "1e17"),
        ("eval", "gamma", "nan"),
        ("eval", "gamma", "-1"),
        ("eval", "C", -1),
        ("synth", "fs", 0),
        ("synth", "fs", 1),  # below twice the fastest session's 1.89-Hz heart rate
        ("eval", "max_passes", -1),
        ("eval", "tol", "nan"),
        ("project", "perplexity", "nan"),
    ],
)
def test_invalid_parameter_exits_2(
    small_dataset, prop_csv, tmp_path, command, option, value, via_config
):
    files = {
        "extract": ["--data", str(small_dataset), "--out", str(tmp_path / "f.csv")],
        "eval": ["--features", str(prop_csv), "--report", str(tmp_path / "r.json")],
        "project": ["--features", str(prop_csv), "--out", str(tmp_path / "p.csv"),
                    "--method", "tsne"],
        "synth": ["--out", str(tmp_path / "ds"), "--days", "1", "--repetitions", "1",
                  "--duration", "5"],
    }
    argv = [command, *files[command]]
    if via_config:
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({command: {option: value}}))
        argv = ["--config", str(config), *argv]
    else:
        argv += [f"--{option.replace('_', '-')}", str(value)]
    assert main(argv) == 2
