import json
import os
import tracemalloc
from itertools import chain

import loop_reference
import numpy as np
import pytest

from heartid import cohort
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
    write_features,
    write_iq,
)
from heartid.errors import IoError, ManifestError, NonFiniteSample
from heartid.radar import _COV_BLOCK, RadarConfig, beamform, extract_slow_time


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
    path = tmp_path / "c.iq"
    write_iq(path, values)  # C order: the bytes of a cube file
    back = read_cube(path, cfg, n_slow=3)
    assert np.array_equal(np.concatenate([b.copy() for b in back.blocks(2)]), values)
    # fastest-varying index is fast time: first 2 * n_fast floats are slow=0, elem=0
    raw = np.fromfile(path, dtype="<f4")
    n = 2 * cfg.n_fast
    assert np.array_equal(raw[0:n:2], values[0, 0].real)
    assert np.array_equal(raw[1:n:2], values[0, 0].imag)
    with pytest.raises(IoError):
        read_cube(path, cfg, n_slow=5)


# --- cube files, read block by block ----------------------------------------

CFG = RadarConfig()
CHIRP = CFG.n_virtual * CFG.n_fast  # samples per slow-time row


def _cube_file(path, n_slow, seed=0):
    """A noisy complex64 cube file of ``n_slow`` chirps with an echo at one cell."""
    rng = np.random.default_rng(seed)
    shape = (n_slow, CFG.n_virtual, CFG.n_fast)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    values[:, :, 30] += 40.0 * np.exp(0.7j * np.arange(CFG.n_virtual))
    write_iq(path, values.astype(np.complex64))
    return path


def assert_same_front_end(streamed, whole):
    a, b = beamform(streamed), beamform(whole)
    assert np.array_equal(a.profiles, b.profiles) and np.array_equal(a.power, b.power)
    sa, sb = extract_slow_time(streamed), extract_slow_time(whole)
    assert np.array_equal(sa.series.samples, sb.series.samples)
    assert (sa.angle_deg, sa.range_m, sa.power) == (sb.angle_deg, sb.range_m, sb.power)


@pytest.mark.parametrize("n_slow", [1, _COV_BLOCK - 1, _COV_BLOCK, _COV_BLOCK + 1,
                                    2 * _COV_BLOCK + 1, 400])
def test_streamed_front_end_bit_identical_to_whole_cube(tmp_path, n_slow):
    path = _cube_file(tmp_path / "c.iq", n_slow, seed=n_slow)
    assert_same_front_end(read_cube(path, CFG, n_slow),
                          loop_reference.read_cube(path, CFG, n_slow))


@pytest.mark.parametrize("start, stop", [(0, 50), (50, 100), (37, 400), (350, 400),
                                         (399, 400), (100, 229)])
def test_cube_file_slow_range_bit_identical_to_whole_cube_slice(tmp_path, start, stop):
    # ranges that start and end mid-block: the blocks fall where the in-memory slice puts them
    path = _cube_file(tmp_path / "c.iq", 400)
    streamed = read_cube(path, CFG, 400).slow_range(start, stop)
    whole = loop_reference.read_cube(path, CFG, 400).slow_range(start, stop)
    assert streamed.n_slow == whole.n_slow == stop - start
    assert streamed.duration == whole.duration
    assert_same_front_end(streamed, whole)


# bytes: one sample short or long, one chirp short, half an I/Q pair long
@pytest.mark.parametrize("delta", [-8, 8, -8 * CHIRP, 4])
def test_cube_file_of_wrong_size_raises_before_reading(tmp_path, delta):
    path = _cube_file(tmp_path / "c.iq", 70)
    os.truncate(path, os.path.getsize(path) + delta)
    with pytest.raises(IoError, match="expected 107520 |not a whole number of I/Q pairs"):
        read_cube(path, CFG, 70)


def test_cube_file_shrinking_during_the_pass_raises_io_error(tmp_path):
    path = _cube_file(tmp_path / "c.iq", 200)
    cube = read_cube(path, CFG, 200)  # the size is checked here
    os.truncate(path, 8 * (150 * CHIRP + 3))
    with pytest.raises(IoError, match=f"read {22 * CHIRP + 3} of the {_COV_BLOCK * CHIRP} "
                                      "samples from chirp 128; the file shrank after its "
                                      "size was checked"):
        beamform(cube)
    with pytest.raises(IoError, match=f"read 3 of the {50 * CHIRP} samples from chirp 150"):
        beamform(cube.slow_range(150, 200))


@pytest.mark.parametrize("start, stop", [(0, 400), (300, 400), (385, 391)])
def test_cube_file_non_finite_sample_names_file_index_and_whole_count(tmp_path, start, stop):
    # NaNs in the last block only: the first named by its index in the file, all counted
    path = _cube_file(tmp_path / "c.iq", 400)
    samples = read_iq(path).reshape(400, CFG.n_virtual, CFG.n_fast)
    samples[390, 5, 7] = complex(np.nan, 1.0)
    samples[399, 11, 127] = complex(0.0, -np.inf)
    write_iq(path, samples)
    with pytest.raises(NonFiniteSample) as whole:
        loop_reference.read_cube(path, CFG, 400)
    with pytest.raises(NonFiniteSample) as streamed:
        beamform(read_cube(path, CFG, 400).slow_range(start, stop))
    assert str(streamed.value) == str(whole.value) == (
        "non-finite sample at index (390, 5, 7) ((nan+1j)); 2 of 614400 are not finite")


def test_cube_front_end_peak_memory_is_its_result_plus_a_few_blocks(tmp_path):
    # a 20-s record: 24.6 MB of complex64 on disk; beamform keeps 23 MB of profiles
    n_slow = 2000
    path = tmp_path / "c.iq"
    np.full(n_slow * CHIRP, 1.0 + 1.0j, dtype="<c8").tofile(path)
    cube_bytes = os.path.getsize(path)
    first_chirp = beamform(read_cube(path, CFG, n_slow).slow_range(0, 1))  # warms the caches
    profile_bytes = n_slow * first_chirp.profiles[0].nbytes
    tracemalloc.start()
    try:
        extract_slow_time(read_cube(path, CFG, n_slow))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the block read, its complex128 FFT and two covariance operands: 4.6 MiB
    # beside the profiles; the whole-cube read held the cube too, 49.2 MiB in all
    block_bytes = _COV_BLOCK * CHIRP * 8
    assert peak - profile_bytes <= 8 * block_bytes < cube_bytes / 3


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


def test_save_dataset_records_streamed_cubes_only_at_their_place(tmp_path, monkeypatch):
    profiles = default_cohort()[:2]
    schedule = Schedule(days=1, repetitions=1)
    kwargs = dict(mode="cube", duration=0.5, seed=3)
    streamed = generate_cohort(profiles, schedule, out_dir=tmp_path / "ds", **kwargs)
    manifest = save_dataset(tmp_path / "ds", streamed, profiles, seed=3, snr_db=20.0)

    def whole_cube_render(d, cfg, *args, path, **kwargs):
        path.parent.mkdir(exist_ok=True)
        write_iq(path, loop_reference.render_cube(d, cfg, *args, **kwargs).values)

    with monkeypatch.context() as patch:
        patch.setattr(cohort, "render_cube", whole_cube_render)
        reference = generate_cohort(profiles, schedule, out_dir=tmp_path / "copy", **kwargs)
        assert save_dataset(tmp_path / "copy", reference, profiles, seed=3,
                            snr_db=20.0) == manifest
    for name in ["manifest.json", *(r["file"] for r in manifest["records"])]:
        assert (tmp_path / "ds" / name).read_bytes() == (tmp_path / "copy" / name).read_bytes()
    elsewhere = generate_cohort(profiles, schedule, out_dir=tmp_path / "other", **kwargs)
    with pytest.raises(ManifestError, match="can only be recorded at its place in the dataset"):
        save_dataset(tmp_path / "ds2", elsewhere, profiles, seed=3, snr_db=20.0)
    elsewhere.close()
    assert not (tmp_path / "ds2" / "manifest.json").exists()


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
