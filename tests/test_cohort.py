import dataclasses
import os
import shutil
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.signal import detrend

import loop_reference
from heartid import cohort
from heartid.cohort import (
    _RENDER_BLOCK,
    GaussPulse,
    PersonProfile,
    Schedule,
    default_cohort,
    derive_seed,
    displacement,
    generate_cohort,
    hard_cohort,
    render_baseband,
    render_cube,
    segment,
    simulate_measurement,
)
from heartid.errors import InvalidParameter, PipelineError
from heartid.radar import C_LIGHT, RadarConfig
from heartid.signals import phase_unwrapped

CFG = RadarConfig()


def make_profile(**overrides):
    base = dict(
        id="t1",
        heart_rate_hz=1.25,
        hrv_std=0.02,
        pulse_template=(GaussPulse(1.0, 0.15, 0.04), GaussPulse(-0.4, 0.35, 0.06)),
        resp_rate_hz=0.25,
        resp_amp_m=4e-3,
        heart_amp_m=2e-4,
    )
    base.update(overrides)
    return PersonProfile(**base)


# --- profiles ----------------------------------------------------------------

def test_profile_validation():
    with pytest.raises(InvalidParameter, match="heart rate 2.5 outside"):
        make_profile(heart_rate_hz=2.5)
    with pytest.raises(InvalidParameter, match="resp rate 0.05 outside"):
        make_profile(resp_rate_hz=0.05)
    with pytest.raises(InvalidParameter, match="heart amplitude 0.001 outside"):
        make_profile(heart_amp_m=1e-3)
    with pytest.raises(InvalidParameter, match="resp amplitude 0.05 outside"):
        make_profile(resp_amp_m=5e-2)
    with pytest.raises(InvalidParameter, match="at least one lobe"):
        make_profile(pulse_template=())
    for lobe in (GaussPulse(np.inf, 0.1, 0.05), GaussPulse(1.0, np.nan, 0.05),
                 GaussPulse(1.0, 0.1, np.inf), GaussPulse(1.0, 0.1, 0.0)):
        with pytest.raises(InvalidParameter, match="lobes must be finite"):
            make_profile(pulse_template=(lobe,))


def test_presets_are_valid_and_distinct():
    for preset in (default_cohort(), hard_cohort()):
        assert len(preset) == 6
        assert len({p.id for p in preset}) == 6
    rates = [p.heart_rate_hz for p in hard_cohort()]
    assert max(rates) - min(rates) <= 0.2  # overlapping band by design


# --- displacement -------------------------------------------------------------

def test_displacement_without_heartbeat_is_pure_sinusoid():
    # zero-amplitude template lobes silence the heartbeat term while staying
    # inside the profile's amplitude invariants
    profile = make_profile(pulse_template=(GaussPulse(0.0, 0.15, 0.04),), hrv_std=0.0)
    d = displacement(profile, duration=20.0, fs=100.0, seed=3)
    t = np.arange(len(d)) / 100.0
    # fit amplitude/phase of the single tone and compare pointwise
    w = 2 * np.pi * profile.resp_rate_hz
    basis = np.stack([np.sin(w * t), np.cos(w * t)], axis=1)
    coef, *_ = np.linalg.lstsq(basis, d, rcond=None)
    amp = np.hypot(*coef)
    assert abs(amp - profile.resp_amp_m) <= 1e-9 * profile.resp_amp_m
    assert np.max(np.abs(basis @ coef - d)) <= 1e-12


def test_displacement_zero_jitter_is_periodic():
    # heart rate 1.25 Hz at fs 100 gives an 80-sample beat period exactly;
    # isolate the heartbeat by differencing against a muted-template twin
    fs, duration = 100.0, 20.0
    kwargs = dict(duration=duration, fs=fs, seed=11)
    loud = displacement(make_profile(hrv_std=0.0), **kwargs)
    mute = displacement(
        make_profile(hrv_std=0.0, pulse_template=(GaussPulse(0.0, 0.15, 0.04), GaussPulse(0.0, 0.35, 0.06))),
        **kwargs,
    )
    heartbeat = loud - mute
    period = int(fs / 1.25)
    interior = heartbeat[period : -2 * period]
    shifted = heartbeat[2 * period : -period]
    scale = np.max(np.abs(heartbeat))
    assert np.max(np.abs(interior - shifted)) <= 1e-9 * scale


@pytest.mark.parametrize("profile", default_cohort(), ids=lambda p: p.id)
@pytest.mark.parametrize("seed", [0, 1])
def test_displacement_spectral_line_at_heart_rate(profile, seed):
    from scipy.signal import butter, filtfilt, get_window

    d = displacement(profile, duration=60.0, fs=100.0, seed=seed)
    b, a = butter(4, [0.7, 2.0], btype="bandpass", fs=100.0)
    x = filtfilt(b, a, d - d.mean())
    spec = np.abs(np.fft.rfft(x * get_window("hann", x.size), n=1 << 17))
    freqs = np.fft.rfftfreq(1 << 17, d=1.0 / 100.0)
    band = (freqs >= 0.7) & (freqs <= 2.0)
    peak = freqs[band][np.argmax(spec[band])]
    assert abs(peak - profile.heart_rate_hz) <= 0.02


def test_displacement_invalid_duration():
    with pytest.raises(InvalidParameter, match="duration must be positive"):
        displacement(make_profile(), duration=0.0)
    with pytest.raises(InvalidParameter, match="duration 1e\\+300 s at fs 100.0 Hz is too many"):
        displacement(make_profile(), duration=1e300)
    with pytest.raises(InvalidParameter, match="duration 60.0 s at fs 1e\\+300 Hz is too many"):
        displacement(make_profile(), fs=1e300)
    with pytest.raises(InvalidParameter, match="duration 0.004 s at fs 100.0 Hz is under one"):
        displacement(make_profile(), duration=0.004)


def test_displacement_rejects_fs_below_twice_the_beat_rate():
    # at 1e-6 Hz a 1e9-s record holds ~1e9 beats in 1000 samples
    with pytest.raises(InvalidParameter, match="fs 1e-06 Hz cannot sample a 1.25-Hz heartbeat"):
        displacement(make_profile(), duration=1e9, fs=1e-6)
    with pytest.raises(InvalidParameter, match="fs 2.5 Hz cannot sample a 1.3125-Hz heartbeat"):
        displacement(make_profile(), fs=2.5, rate_scale=1.05)
    for rate_scale in (0.0, -1.0, np.nan):
        with pytest.raises(InvalidParameter, match="cannot sample a"):
            displacement(make_profile(), rate_scale=rate_scale)
    assert len(displacement(make_profile(), duration=4.0, fs=2.5)) == 10  # exactly twice


@pytest.mark.parametrize("duration", [60.0, 5.0, 0.3])
@pytest.mark.parametrize("rate_scale", [0.95, 1.0, 1.05])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("preset", [default_cohort, hard_cohort])
def test_displacement_bit_identical_to_beat_loop(preset, seed, rate_scale, duration):
    for profile in preset():
        fast = displacement(profile, duration, 100.0, seed, rate_scale)
        ref = loop_reference.displacement(profile, duration, 100.0, seed, rate_scale)
        assert np.array_equal(fast, ref)


WIDE = (GaussPulse(1.0, 0.5, 0.3),)  # +-1.5 periods: clipped at sample 0 and at n


@pytest.mark.parametrize(
    "overrides,duration,fs",
    [
        ({"hrv_std": 0.0}, 20.0, 100.0),
        ({}, 0.5, 100.0),  # shorter than one 0.8-s beat
        ({"pulse_template": WIDE}, 3.0, 100.0),
        ({"pulse_template": (GaussPulse(1.0, 0.3, 0.05),)}, 20.0, 100.0),  # one lobe
        ({"pulse_template": (GaussPulse(0.5, -3.0, 0.05), *WIDE)}, 10.0, 100.0),  # a window before 0
        ({"hrv_std": 0.3}, 30.0, 100.0),  # jitter often hits the quarter-period floor
        ({}, 20.0, RadarConfig().fs_slow),  # the cube's slow-time rate
        ({}, 20.0, 2.5),  # exactly twice the beat rate
        ({}, 3.0, 1000.0),
    ],
)
@pytest.mark.parametrize("block", [1, 3, None])
def test_displacement_edges_bit_identical_to_beat_loop(monkeypatch, overrides, duration, fs, block):
    if block is not None:  # blocks of 1 and 3 beats: the generator's unused tail never matters
        monkeypatch.setattr(cohort, "_BEAT_BLOCK", block)
    profile = make_profile(**overrides)
    for seed in range(3):
        fast = displacement(profile, duration, fs, seed)
        assert np.array_equal(fast, loop_reference.displacement(profile, duration, fs, seed))


def test_displacement_peak_memory_is_its_output_plus_a_constant():
    d = displacement(make_profile(), duration=10.0, fs=100.0)  # warm numpy's caches
    tracemalloc.start()
    try:
        d = displacement(default_cohort()[5], duration=3600.0, fs=100.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # t, the respiration output and the heartbeat are each the size of the 2.9-MB
    # output; the beat loop, and a scaled copy of the heartbeat, held a fourth,
    # and all 6500 beats in one block took 40.8 MB
    assert peak <= 3 * d.nbytes + 2**20


def test_displacement_deterministic():
    a = displacement(make_profile(), seed=42)
    b = displacement(make_profile(), seed=42)
    assert np.array_equal(a, b)


# --- rendering ----------------------------------------------------------------

def test_render_baseband_zero_displacement():
    s = render_baseband(np.zeros(100), RadarConfig(fs_slow=250.0), snr_db=None)
    assert np.all(s.samples == 1.0 + 0.0j)
    assert s.fs == 250.0  # the series takes the radar's slow-time rate


def test_render_baseband_eighth_wavelength_step():
    d = np.zeros(100)
    d[50:] = CFG.wavelength / 8
    s = render_baseband(d, CFG, snr_db=None)
    step = np.angle(s.samples[60]) - np.angle(s.samples[10])
    assert abs(step - np.pi / 2) <= 1e-12


def test_render_roundtrip_recovers_displacement():
    profile = make_profile()
    d = displacement(profile, duration=30.0, fs=100.0, seed=5)
    d0 = d - d[0]  # start at zero phase
    s = render_baseband(d0, CFG, snr_db=None)
    recovered = phase_unwrapped(s.samples) * CFG.wavelength / (4 * np.pi)
    assert np.max(np.abs(recovered - d0)) <= 1e-9


def test_render_noise_scales_with_snr():
    d = np.zeros(20000)
    for snr in (0.0, 10.0, 20.0):
        s = render_baseband(d, CFG, snr_db=snr, seed=8)
        noise_power = np.mean(np.abs(s.samples - 1.0) ** 2)
        assert abs(noise_power - 10 ** (-snr / 10)) <= 0.05 * 10 ** (-snr / 10)


@pytest.mark.parametrize("snr_db", [-3083.0, -400.0, float("nan")])
def test_render_rejects_noise_a_dataset_cannot_store(snr_db, tmp_path):
    # -3083 dB overflowed 10**(-snr/10); -400 dB wrote infinite complex64 samples
    d = np.zeros(2000)  # 20 s: a 23.4-MiB cube
    for render, kwargs in ((render_baseband, {}), (render_cube, {"path": tmp_path / "c.iq"})):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidParameter, match="snr_db must be at least -300 dB"):
                render(d, CFG, snr_db=snr_db, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"{render.__name__} allocated {peak} B before rejecting"
    assert list(tmp_path.iterdir()) == []


def _reference_noise(x, snr_db, seed):
    """Out-of-place noise formula the in-place one must reproduce bit for bit."""
    if snr_db is None:
        return x
    rng = np.random.default_rng(seed)
    sigma = np.sqrt(10.0 ** (-snr_db / 10.0) / 2.0)
    return x + sigma * (rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape))


def _reference_cube(d, cfg, snr_db, seed, angle_deg, amp_scale, phase_offset, range_m=1.5):
    """Full-phase cube: one exp per (slow, element, fast) sample."""
    r = range_m + d
    t_fast = np.arange(cfg.n_fast) * (cfg.chirp_duration / cfg.n_fast)
    f_beat = 2.0 * cfg.bandwidth * r / (C_LIGHT * cfg.chirp_duration)
    carrier = 4.0 * np.pi * r / cfg.wavelength + phase_offset
    elem = (
        2.0
        * np.pi
        * (cfg.element_spacing / cfg.wavelength)
        * np.sin(np.radians(angle_deg))
        * np.arange(cfg.n_virtual)
    )
    phase3d = (
        2.0 * np.pi * f_beat[:, None, None] * t_fast[None, None, :]
        + carrier[:, None, None]
        + elem[None, :, None]
    )
    return _reference_noise(amp_scale * np.exp(1j * phase3d), snr_db, seed)


NUISANCE = dict(amp_scale=1.37, phase_offset=2.9)


def _rendered(tmp_path, d, *args, **kwargs) -> np.ndarray:
    """The samples that ``render_cube`` streams into a cube file, read back whole."""
    path = tmp_path / "c.iq"
    render_cube(d, CFG, *args, path=path, **kwargs)
    return loop_reference.read_cube(path, CFG, d.size).values


@pytest.mark.parametrize("snr_db", [20.0, None])
def test_render_cube_broadside_bit_identical_to_full_phase(snr_db, tmp_path):
    d = displacement(make_profile(), duration=3.0, fs=100.0, seed=4)
    before = d.copy()
    values = _rendered(tmp_path, d, snr_db, seed=11, **NUISANCE)
    ref = _reference_cube(d, CFG, snr_db, 11, 0.0, **NUISANCE)
    assert np.array_equal(values, ref.astype(np.complex64))
    assert np.array_equal(d, before)


@pytest.mark.parametrize("snr_db", [20.0, None])
@pytest.mark.parametrize("angle_deg", [8.0, -8.0, 20.0, -60.0])
def test_render_cube_off_broadside_matches_full_phase(angle_deg, snr_db, tmp_path):
    d = displacement(make_profile(), duration=3.0, fs=100.0, seed=4)
    before = d.copy()
    values = _rendered(tmp_path, d, snr_db, seed=11, angle_deg=angle_deg, **NUISANCE)
    ref = _reference_cube(d, CFG, snr_db, 11, angle_deg, **NUISANCE)
    # rounding each part to float32 moves a sample by less than one float32 ulp
    # of |ref|; the phasor and full-phase formulas differ by ~1e-12, far less
    assert np.all(np.abs(values - ref) <= np.spacing(np.abs(ref).astype(np.float32)))
    assert np.array_equal(d, before)


ROWS = _RENDER_BLOCK // (CFG.n_virtual * CFG.n_fast)  # chirps per rendering block
# record lengths around one and two block boundaries, plus those around a 2**17-sample
# block (85 chirps): many blocks with a ragged last one
N_SLOW = sorted({1, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 3, 84, 85, 86, 173})


@pytest.mark.parametrize("angle_deg", [0.0, 20.0])
@pytest.mark.parametrize("snr_db", [20.0, None])
@pytest.mark.parametrize("n_slow", N_SLOW)
def test_render_cube_bit_identical_to_unblocked_complex128(n_slow, snr_db, angle_deg, tmp_path):
    d = displacement(make_profile(), duration=n_slow / 100.0, fs=100.0, seed=4)
    assert d.size == n_slow
    ref = loop_reference.unblocked_cube(d, CFG, snr_db, 11, angle_deg=angle_deg, **NUISANCE)
    streamed = tmp_path / "streamed" / "t1.iq"  # its directory is made too
    assert render_cube(d, CFG, snr_db, seed=11, angle_deg=angle_deg, path=streamed,
                       **NUISANCE) is None
    assert streamed.read_bytes() == ref.astype("<c8").tobytes()


def test_render_cube_to_a_file_peaks_at_a_few_blocks(tmp_path):
    d = displacement(make_profile(), duration=60.0, fs=100.0, seed=4)
    tracemalloc.start()
    try:
        render_cube(d, CFG, 20.0, seed=11, path=tmp_path / "c.iq")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cube_bytes = (tmp_path / "c.iq").stat().st_size
    assert cube_bytes == d.size * CFG.n_virtual * CFG.n_fast * 8  # 70.3 MiB
    # 0.87 MiB: one block's buffers and the record's per-chirp arrays
    block_bytes = ROWS * CFG.n_virtual * CFG.n_fast * 16  # one complex128 block
    assert peak <= 5 * block_bytes < cube_bytes / 50


class _FailingRng:
    """A noise generator whose third draw raises, after two blocks are in the file."""

    def __init__(self, seed):
        self.rng, self.draws = np.random.Generator(np.random.PCG64(seed)), 0

    def standard_normal(self, out):
        self.draws += 1
        if self.draws == 3:
            raise MemoryError("third draw")
        return self.rng.standard_normal(out=out)


def test_render_cube_failing_midway_deletes_its_file(tmp_path, monkeypatch):
    d = displacement(make_profile(), duration=1.0, fs=100.0, seed=4)
    monkeypatch.setattr(np.random, "default_rng", _FailingRng)
    with pytest.raises(MemoryError, match="third draw"):
        render_cube(d, CFG, 20.0, seed=11, path=tmp_path / "c.iq")
    assert list(tmp_path.iterdir()) == []


def test_render_cube_beyond_the_free_disk_space_makes_no_file(tmp_path, monkeypatch):
    d = np.zeros(20)
    needed = d.size * CFG.n_virtual * CFG.n_fast * 8
    usage = shutil.disk_usage(tmp_path)
    monkeypatch.setattr(shutil, "disk_usage", lambda path: usage._replace(free=needed - 1))
    with pytest.raises(PipelineError, match=f"needs {needed} bytes, but its disk has "
                                            f"{needed - 1} free"):
        render_cube(d, CFG, 20.0, path=tmp_path / "ds" / "c.iq")
    assert list(tmp_path.iterdir()) == []
    monkeypatch.setattr(shutil, "disk_usage", lambda path: usage._replace(free=needed))
    render_cube(d, CFG, 20.0, path=tmp_path / "ds" / "c.iq")
    assert (tmp_path / "ds" / "c.iq").stat().st_size == needed


@pytest.mark.parametrize("snr_db", [5.0, 20.0, None])
def test_render_baseband_matches_out_of_place_noise(snr_db):
    d = displacement(make_profile(), duration=10.0, fs=100.0, seed=6)
    before = d.copy()
    s = render_baseband(d, CFG, snr_db, 13, **NUISANCE)
    phase = 4.0 * np.pi * d / CFG.wavelength + NUISANCE["phase_offset"]
    ref = _reference_noise(NUISANCE["amp_scale"] * np.exp(1j * phase), snr_db, 13)
    assert np.array_equal(s.samples, ref)
    assert np.array_equal(d, before)


# --- cohort generation ---------------------------------------------------------

def test_cohort_has_paper_protocol_shape():
    ms = list(generate_cohort(default_cohort(), duration=2.0, snr_db=None))
    assert len(ms) == 300  # 6 people x 10 sessions x 5 repetitions
    labels = {m.label for m in ms}
    sessions = {m.session_id for m in ms}
    assert len(labels) == 6 and len(sessions) == 10
    assert {m.repetition for m in ms} == {1, 2, 3, 4, 5}


def test_cohort_deterministic_and_seed_sensitive():
    kwargs = dict(duration=2.0, snr_db=15.0)
    a = generate_cohort(default_cohort(), seed=1, **kwargs)
    b = generate_cohort(default_cohort(), seed=1, **kwargs)
    c = generate_cohort(default_cohort(), seed=2, **kwargs)
    for ma, mb, mc in zip(a, b, c):
        assert np.array_equal(ma.signal.samples, mb.signal.samples)
        assert (ma.label, ma.session_id, ma.repetition) == (
            mc.label,
            mc.session_id,
            mc.repetition,
        )
        assert not np.array_equal(ma.signal.samples, mc.signal.samples)


def test_cohort_session_nuisance_varies():
    ms = generate_cohort(default_cohort()[:2], duration=2.0, snr_db=None, seed=0)
    by_session = {}
    for m in ms:
        if m.label == "p1":
            by_session.setdefault(m.session_id, m)
    amps = [np.abs(m.signal.samples[0]) for m in by_session.values()]
    assert np.std(amps) > 0.01  # amplitude scale differs across sessions


def test_cohort_renders_only_as_iterated(monkeypatch):
    import heartid.cohort as cohort_module

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return simulate_measurement(*args, **kwargs)

    monkeypatch.setattr(cohort_module, "simulate_measurement", counting)
    ms = generate_cohort(default_cohort()[:2], Schedule(days=1, repetitions=2), duration=2.0)
    assert len(calls) == 0
    first = next(ms)
    assert len(calls) == 1 and first.label == "p1" and first.repetition == 1
    assert len(list(ms)) == 7 and len(calls) == 8


def test_cube_cohort_renders_two_at_a_time_in_order_and_ends_its_threads(monkeypatch, tmp_path):
    import heartid.cohort as cohort_module

    calls, threads = [], threading.active_count()

    def counting(*args, **kwargs):
        calls.append(args[:3])
        return simulate_measurement(*args, **kwargs)

    monkeypatch.setattr(cohort_module, "simulate_measurement", counting)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    ms = generate_cohort(default_cohort()[:2], Schedule(days=1, repetitions=2), duration=0.5,
                         mode="cube", out_dir=tmp_path)
    assert calls == [] and threading.active_count() == threads
    first = next(ms)
    assert (first.label, first.session_id, first.repetition) == ("p1", "d1am", 1)
    assert len(calls) == 2  # the next record renders while the caller holds this one
    second = next(ms)
    assert (second.label, second.session_id, second.repetition) == ("p1", "d1am", 2)
    ms.close()  # waits for the record rendering ahead, then ends the threads
    assert len(calls) == 3 and threading.active_count() == threads


def test_cohort_requires_two_profiles_and_schedule():
    with pytest.raises(InvalidParameter, match="at least two profiles"):
        generate_cohort(default_cohort()[:1])
    with pytest.raises(InvalidParameter, match="at least one session"):
        generate_cohort(default_cohort(), Schedule(days=0))


def test_unknown_mode_rejected_at_call_time():
    # checked when the generator is made, before any measurement is rendered
    with pytest.raises(InvalidParameter, match="^mode must be baseband or cube, got 'bogus'$"):
        generate_cohort(default_cohort(), mode="bogus")
    with pytest.raises(InvalidParameter, match="got 'bogus'"):
        simulate_measurement(make_profile(), "d1am", 1, mode="bogus")


def test_cube_mode_without_out_dir_rejected_at_call_time(tmp_path, monkeypatch):
    # a cube record exists only as its file: nothing is rendered, made or started without one
    monkeypatch.chdir(tmp_path)
    rendered, threads = [], threading.active_count()
    monkeypatch.setattr(cohort, "displacement", lambda *args: rendered.append(args))
    with pytest.raises(InvalidParameter, match="^a cube record exists only as its file: "
                                               "cube mode needs out_dir$"):
        generate_cohort(default_cohort(), mode="cube")
    with pytest.raises(InvalidParameter, match="cube mode needs out_dir"):
        simulate_measurement(make_profile(), "d1am", 1, mode="cube")
    assert rendered == [] and threading.active_count() == threads
    assert list(tmp_path.iterdir()) == []


def test_cube_cohort_beyond_the_free_disk_space_raises_at_call_time(tmp_path, monkeypatch):
    # 12 cube files of 200 chirps: one byte short fails before any record is rendered
    calls, usage = [], shutil.disk_usage(tmp_path)
    needed = 12 * 200 * CFG.n_virtual * CFG.n_fast * 8
    monkeypatch.setattr(cohort, "simulate_measurement", lambda *args: calls.append(args))
    monkeypatch.setattr(shutil, "disk_usage", lambda path: usage._replace(free=needed - 1))
    with pytest.raises(PipelineError, match=f"ds: 12 cube files need {needed} bytes, but its "
                                            f"disk has {needed - 1} free$"):
        generate_cohort(default_cohort(), Schedule(days=1, repetitions=1), duration=2.0,
                        mode="cube", out_dir=tmp_path / "ds")
    assert calls == [] and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mode", ["baseband", "cube"])
def test_cohort_under_one_sample_raises_at_call_time(tmp_path, mode):
    with pytest.raises(InvalidParameter, match="^duration 0.004 s at fs 100.0 Hz is under one "
                                               "sample$"):
        generate_cohort(default_cohort(), duration=0.004, mode=mode, out_dir=tmp_path / "ds")
    assert list(tmp_path.iterdir()) == []


def test_cube_mode_matches_baseband_phase(tmp_path):
    profile = make_profile()
    kwargs = dict(seed=21, snr_db=20.0, duration=15.0)
    m_bb, d = simulate_measurement(profile, "d1am", 1, mode="baseband", **kwargs)
    m_cube, d2 = simulate_measurement(profile, "d1am", 1, mode="cube", out_dir=tmp_path, **kwargs)
    assert np.array_equal(d, d2)  # same injected displacement
    from heartid.radar import extract_slow_time

    sel = extract_slow_time(m_cube.signal)
    ph_cube = detrend(phase_unwrapped(sel.series.samples))
    ph_bb = detrend(phase_unwrapped(m_bb.signal.samples))
    assert np.corrcoef(ph_cube, ph_bb)[0, 1] >= 0.99


# --- segmentation ---------------------------------------------------------------

def test_segment_counts():
    m, _ = simulate_measurement(make_profile(), "d1am", 1, duration=60.0, snr_db=None)
    parts = segment(m, 5.0)
    assert len(parts) == 12
    assert all(p.duration == 5.0 for p in parts)
    assert all(p.label == m.label and p.session_id == m.session_id for p in parts)
    joined = np.concatenate([p.signal.samples for p in parts])
    assert np.array_equal(joined, m.signal.samples)


def test_segment_full_length_is_identity():
    m, _ = simulate_measurement(make_profile(), "d1am", 1, duration=10.0, snr_db=None)
    parts = segment(m, 10.0)
    assert len(parts) == 1
    assert np.array_equal(parts[0].signal.samples, m.signal.samples)


def test_segment_non_divisible_length(tmp_path):
    m, _ = simulate_measurement(make_profile(), "d1am", 1, duration=60.0, snr_db=None)
    with pytest.raises(InvalidParameter, match="does not divide"):
        segment(m, 7.0)
    # the length divides the duration, but not into whole samples: 7 x 142 = 994
    # and 30 x 33 = 990 of 1000 samples were kept, shorter than asked for
    m, _ = simulate_measurement(make_profile(), "d1am", 1, duration=10.0, snr_db=None)
    cube, _ = simulate_measurement(
        make_profile(), "d1am", 1, duration=4.0, snr_db=None, mode="cube", out_dir=tmp_path
    )
    for record, seg_len, n, n_seg in ((m, 10 / 7, 1000, 7), (m, 1 / 3, 1000, 30),
                                      (cube, 4 / 7, 400, 7), (cube, 1 / 3, 400, 12)):
        with pytest.raises(InvalidParameter, match=f"not a whole number of samples: {n} "
                                                   f"samples do not split into {n_seg} "):
            segment(record, seg_len)


def test_segment_cube_mode(tmp_path):
    m, _ = simulate_measurement(
        make_profile(), "d1am", 1, duration=4.0, snr_db=None, mode="cube", out_dir=tmp_path
    )
    parts = segment(m, 2.0)
    assert len(parts) == 2
    assert parts[0].signal.n_slow == 200


# --- seeds ----------------------------------------------------------------------

def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
    assert derive_seed(1, "ab") != derive_seed(1, "a", "b")
