import json
import os
import threading
import tracemalloc
from itertools import chain

import loop_reference
import numpy as np
import pytest

from heartid import cohort, radar
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
from heartid.radar import (
    _COV_BLOCK,
    FrontEndWorkspace,
    RadarConfig,
    beamform,
    extract_slow_time,
    select_echo,
)


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
    buf = np.empty(2 * cfg.n_virtual * cfg.n_fast, dtype="<c8")  # the caller's read buffer
    assert all(b.base is buf for b in back.blocks(2, buf))
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


# --- the front end on two lanes, read from a file ----------------------------

@pytest.fixture
def two_lanes(monkeypatch):
    """Runs a cube of any length on both lanes of a two-lane workspace."""
    monkeypatch.setattr(radar, "_TWO_LANE_BLOCKS", 1)
    return lambda cube: beamform(cube, FrontEndWorkspace(cube.n_slow, 2))


@pytest.mark.parametrize("start, stop", [(0, 400), (1, 330), (37, 400), (100, 229),
                                         (333, 400)])
def test_two_lane_streamed_front_end_same_bits_as_one_lane(tmp_path, two_lanes, start, stop):
    path = _cube_file(tmp_path / "c.iq", 400, seed=start)
    cube = read_cube(path, CFG, 400).slow_range(start, stop)
    one, two = beamform(cube), two_lanes(cube)
    assert np.array_equal(one.profiles, two.profiles) and np.array_equal(one.power, two.power)
    a, b = select_echo(one), select_echo(two)
    assert np.array_equal(a.series.samples, b.series.samples)
    assert (a.angle_deg, a.range_m, a.power, a.low_snr) == (b.angle_deg, b.range_m, b.power,
                                                            b.low_snr)


def _one_and_two_lane_errors(cube, two_lanes):
    """The errors of a one-lane and a two-lane pass over ``cube``; no thread is left running."""
    running, errors = threading.active_count(), []
    for run in (beamform, two_lanes):
        with pytest.raises((IoError, NonFiniteSample)) as info:
            run(cube)
        assert threading.active_count() == running
        errors.append(info.value)
    return errors


# the lanes split chirps 0-399 at chirp 256 and chirps 37-399 at chirp 229; chirp
# 200 is in the first lane's last block, and chirp 10 is before the second range
@pytest.mark.parametrize("chirps", [(200, 300, 399), (300, 399), (10, 300)])
@pytest.mark.parametrize("start", [0, 37])
def test_two_lane_non_finite_samples_raise_the_first_in_the_file(tmp_path, two_lanes, chirps,
                                                                 start):
    path = _cube_file(tmp_path / "c.iq", 400)
    samples = read_iq(path).reshape(400, CFG.n_virtual, CFG.n_fast)
    samples[list(chirps), 5, 7] = complex(np.nan, 1.0)
    write_iq(path, samples)
    one, two = _one_and_two_lane_errors(read_cube(path, CFG, 400).slow_range(start, 400),
                                        two_lanes)
    first = min(c for c in chirps if c >= start)
    assert str(two) == str(one) == (f"non-finite sample at index ({first}, 5, 7) ((nan+1j)); "
                                    f"{len(chirps)} of 614400 are not finite")


def test_a_failing_first_block_releases_the_lanes_waiting_for_its_bins(tmp_path, two_lanes):
    # the second lane reads well but waits for the kept bins that the first block picks
    path = _cube_file(tmp_path / "c.iq", 400)
    samples = read_iq(path).reshape(400, CFG.n_virtual, CFG.n_fast)
    samples[10, 5, 7] = complex(np.nan, 1.0)
    write_iq(path, samples)
    running, errors = threading.active_count(), []

    def run():
        with pytest.raises(NonFiniteSample) as info:
            two_lanes(read_cube(path, CFG, 400))
        errors.append(info.value)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(60)
    assert not thread.is_alive() and threading.active_count() == running
    assert str(errors[0]) == ("non-finite sample at index (10, 5, 7) ((nan+1j)); "
                              "1 of 614400 are not finite")


# bytes left: inside the second lane's share, at its start, and inside the first lane's
@pytest.mark.parametrize("chirps_left", [300.5, 256, 100.25])
def test_two_lane_pass_over_a_shrunk_file_raises_the_one_lane_message(tmp_path, two_lanes,
                                                                      chirps_left):
    path = _cube_file(tmp_path / "c.iq", 400)
    cube = read_cube(path, CFG, 400)  # the size is checked here
    os.truncate(path, int(8 * CHIRP * chirps_left))
    one, two = _one_and_two_lane_errors(cube, two_lanes)
    assert str(two) == str(one)
    assert "the file shrank after its size was checked" in str(one)


@pytest.mark.parametrize("width", [1, 2])
def test_front_end_peak_memory_is_its_profiles_plus_a_constant(tmp_path, monkeypatch, width):
    # what grows with the record is the kept bins' profiles (768 B per chirp)
    # and, on two lanes, the second lane's block products until they are added
    # (138 KiB per 64 chirps); keeping every window bin's profiles would take
    # 11.5 KB per chirp.  Each lane holds a 64-chirp read buffer, a 16-chirp
    # FFT copy and a block's window bins and covariance operands (2.4 MiB), and
    # the power map steers the covariances (1.5 MiB), whatever the length.
    monkeypatch.setattr(radar, "_TWO_LANE_BLOCKS", 1)
    peak = {}
    for n_slow in (500, 2000):
        path = tmp_path / f"c{n_slow}.iq"
        np.full(n_slow * CHIRP, 1.0 + 1.0j, dtype="<c8").tofile(path)
        cube = read_cube(path, CFG, n_slow)
        beamform(cube.slow_range(0, 2 * _COV_BLOCK), FrontEndWorkspace(2 * _COV_BLOCK, width))
        tracemalloc.start()
        try:
            beamform(cube, FrontEndWorkspace(n_slow, width))
            peak[n_slow] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    per_chirp = 3 * 2**10
    assert peak[2000] - peak[500] <= 1500 * per_chirp
    assert peak[2000] <= (width + 1) * 2 * 2**20 + 2000 * per_chirp


def test_cube_front_end_peak_memory_is_its_result_plus_a_few_blocks(tmp_path):
    # a 20-s record: 24.6 MB of complex64 on disk, of which the pass keeps
    # 1.5 MB of profiles; every window bin's would take 23 MB
    n_slow = 2000
    path = tmp_path / "c.iq"
    np.full(n_slow * CHIRP, 1.0 + 1.0j, dtype="<c8").tofile(path)
    cube_bytes = os.path.getsize(path)
    beamform(read_cube(path, CFG, n_slow).slow_range(0, 1))  # warms the caches
    tracemalloc.start()
    try:
        extract_slow_time(read_cube(path, CFG, n_slow))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the kept profiles, one lane's buffers and the power map's steered
    # covariances: 5.4 MiB in all; the whole-cube read held the cube too,
    # 49.2 MiB in all
    block_bytes = _COV_BLOCK * CHIRP * 8
    assert peak <= 8 * block_bytes < cube_bytes / 3


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


def test_feature_csv_formats_values_as_numpy_scalars_did(tmp_path):
    # values are formatted as Python floats; the text is what each numpy scalar gave
    values = np.array([-0.0, 5e-324, 1.7976931348623157e308, 0.1])
    path = tmp_path / "f.csv"
    write_features(path, [{"sample_id": "m0", "label": "p1", "session_id": "s0",
                           "segment_index": 0, "kind": "amp", "values": values}], 4)
    line = path.read_text().splitlines()[1]
    assert line == "m0,p1,s0,0,amp,-0,4.9406564584124654e-324,1.7976931348623157e+308," \
                   "0.10000000000000001"
    assert line.split(",")[5:] == [f"{v:.17g}" for v in values]  # numpy scalars


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
