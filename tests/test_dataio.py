import json
from itertools import chain

import numpy as np
import pytest

from heartid.cohort import Schedule, default_cohort, generate_cohort
from heartid.dataio import (
    FeatureTable,
    _profile_to_dict,
    load_manifest,
    load_record,
    read_cube,
    read_features,
    read_iq,
    save_dataset,
    write_cube,
    write_features,
    write_iq,
)
from heartid.errors import IoError, ManifestError
from heartid.radar import DataCube, RadarConfig


def test_iq_roundtrip_is_exact_at_float32(tmp_path):
    rng = np.random.default_rng(0)
    z = (rng.standard_normal(256) + 1j * rng.standard_normal(256)).astype(np.complex64)
    z = z.astype(np.complex128)  # float32-representable values round-trip exactly
    path = tmp_path / "x.iq"
    write_iq(path, z)
    back = read_iq(path)
    assert np.array_equal(back, z)


def test_iq_file_layout_is_interleaved_little_endian(tmp_path):
    path = tmp_path / "x.iq"
    write_iq(path, np.array([1.0 + 2.0j, 3.0 - 4.0j]))
    raw = np.fromfile(path, dtype="<f4")
    assert np.array_equal(raw, np.array([1.0, 2.0, 3.0, -4.0], dtype="<f4"))


def test_iq_rejects_odd_float_count(tmp_path):
    path = tmp_path / "bad.iq"
    np.array([1.0, 2.0, 3.0], dtype="<f4").tofile(path)
    with pytest.raises(IoError):
        read_iq(path)


def test_cube_roundtrip_and_axis_order(tmp_path):
    cfg = RadarConfig()
    shape = (3, cfg.n_virtual, cfg.n_fast)
    rng = np.random.default_rng(1)
    values = (
        rng.integers(-5, 5, shape) + 1j * rng.integers(-5, 5, shape)
    ).astype(np.complex128)
    cube = DataCube(values, cfg)
    path = tmp_path / "c.iq"
    write_cube(path, cube)
    back = read_cube(path, cfg, n_slow=3)
    assert np.array_equal(back.values, values)
    # fastest-varying index is fast time: first 2 * n_fast floats are slow=0, elem=0
    raw = np.fromfile(path, dtype="<f4")
    n = 2 * cfg.n_fast
    assert np.array_equal(raw[0:n:2], values[0, 0].real)
    assert np.array_equal(raw[1:n:2], values[0, 0].imag)
    with pytest.raises(IoError):
        read_cube(path, cfg, n_slow=5)


def test_dataset_roundtrip(tmp_path):
    profiles = default_cohort()[:2]
    ms = list(generate_cohort(
        profiles, Schedule(days=1, repetitions=2), duration=2.0, snr_db=15.0, seed=3
    ))
    manifest = save_dataset(tmp_path, ms, profiles, seed=3, snr_db=15.0)
    assert len(manifest["records"]) == len(ms) == 8
    loaded = load_manifest(tmp_path)
    assert loaded == json.loads(json.dumps(manifest))
    back = load_record(tmp_path, loaded, loaded["records"][0])
    orig = ms[0]
    assert back.label == orig.label and back.session_id == orig.session_id
    assert np.max(np.abs(back.signal.samples - orig.signal.samples)) <= 1e-6
    assert loaded["profiles"] == json.loads(json.dumps([_profile_to_dict(p) for p in profiles]))
    assert loaded["fs"] == 100.0 and "radar" not in loaded


def test_save_dataset_rejects_empty_and_mixed_measurements(tmp_path):
    profiles = default_cohort()[:2]
    with pytest.raises(ManifestError):
        save_dataset(tmp_path / "empty", iter([]), profiles, seed=0, snr_db=None)
    assert not (tmp_path / "empty").exists()
    schedule = Schedule(days=1, repetitions=1)
    short = generate_cohort(profiles, schedule, duration=2.0, snr_db=None)
    longer = generate_cohort(profiles, schedule, duration=3.0, snr_db=None)
    with pytest.raises(ManifestError):
        save_dataset(tmp_path / "mixed", chain(short, longer), profiles, seed=0, snr_db=None)


def test_manifest_errors(tmp_path):
    with pytest.raises(ManifestError):
        load_manifest(tmp_path)
    (tmp_path / "manifest.json").write_text("{not json")
    with pytest.raises(ManifestError):
        load_manifest(tmp_path)
    (tmp_path / "manifest.json").write_text('{"fs": 100.0}')
    with pytest.raises(ManifestError):
        load_manifest(tmp_path)
    (tmp_path / "manifest.json").write_text(
        '{"fs": 100.0, "mode": "baseband", "records": [{"file": "gone.iq", '
        '"label": "a", "session_id": "s", "repetition": 1, "n_samples": 4}]}'
    )
    manifest = load_manifest(tmp_path)
    with pytest.raises(ManifestError):
        load_record(tmp_path, manifest, manifest["records"][0])


def test_feature_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    values = rng.standard_normal((4, 6))
    rows = [
        {
            "sample_id": f"m{i}",
            "label": "p1" if i < 2 else "p2",
            "session_id": f"s{i % 2}",
            "segment_index": 0,
            "kind": "comp",
            "values": values[i],
        }
        for i in range(4)
    ]
    path = tmp_path / "f.csv"
    write_features(path, rows, 6)
    table = read_features(path)
    assert table.kind == "comp"
    assert table.sample_ids == ["m0", "m1", "m2", "m3"]
    assert np.array_equal(table.values, values)  # %.17g round-trips float64
    header = path.read_text().splitlines()[0]
    assert header == "sample_id,label,session_id,segment_index,kind,c0,c1,c2,c3,c4,c5"


def test_feature_csv_validation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("wrong,header\n")
    with pytest.raises(IoError):
        read_features(path)
    path.write_text(
        "sample_id,label,session_id,segment_index,kind,c0\n"
        "a,p1,s1,0,amp,1.0\nb,p1,s1,0,comp,2.0\n"
    )
    with pytest.raises(IoError):
        read_features(path)  # mixed kinds
    with pytest.raises(IoError):
        read_features(tmp_path / "missing.csv")
    path.write_text("sample_id,label,session_id,segment_index,kind,c0\n")
    with pytest.raises(IoError):
        read_features(path)  # no rows
