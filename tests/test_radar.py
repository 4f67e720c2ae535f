import dataclasses
import inspect
import warnings

import loop_reference
import numpy as np
import pytest
from loop_reference import DataCube, render_cube
from scipy.constants import c as C_LIGHT
from scipy.signal import detrend

from heartid.cohort import default_cohort, displacement
from heartid.dataio import read_cube, write_iq
from heartid.errors import IoError
from heartid.radar import (
    _COV_BLOCK,
    ANGLE_GRID,
    LOW_SNR_POWER,
    RANGE_WINDOW,
    BeamformResult,
    RadarConfig,
    beamform,
    extract_slow_time,
    range_profile,
    select_echo,
    steering_weights,
)
from heartid.signals import phase_unwrapped

CFG = RadarConfig()
# the range bins the echo is searched in
WINDOW_BINS = np.flatnonzero(
    (CFG.range_axis >= RANGE_WINDOW[0]) & (CFG.range_axis <= RANGE_WINDOW[1])
)


def still_target_cube(range_m, angle_deg=0.0, n_slow=64, snr_db=None, seed=0):
    d = np.zeros(n_slow) + 1e-12
    return render_cube(d, CFG, snr_db=snr_db, seed=seed, range_m=range_m, angle_deg=angle_deg)


# --- config -----------------------------------------------------------------

def test_radar_config_defaults_consistent():
    assert abs(CFG.wavelength - C_LIGHT / 79e9) < 1e-12
    assert abs(CFG.element_spacing - CFG.wavelength / 2) < 1e-15
    assert abs(CFG.range_bin_spacing - C_LIGHT / (2 * 3.6e9)) < 1e-15


# --- range profile ----------------------------------------------------------

def test_range_profile_point_target_bin():
    # beat-frequency arithmetic: bin = round(R / (c / 2B))
    cube = still_target_cube(1.5)
    prof = range_profile(cube.values)
    power = np.abs(prof).mean(axis=(0, 1))
    expected_bin = round(1.5 / (C_LIGHT / (2 * CFG.bandwidth)))
    assert expected_bin == 36
    assert int(np.argmax(power)) == expected_bin


def test_range_profile_zero_cube():
    cube = DataCube(np.zeros((8, CFG.n_virtual, CFG.n_fast), complex), CFG)
    assert np.all(range_profile(cube.values) == 0)


def test_range_profile_two_targets_two_peaks():
    c1 = still_target_cube(1.0)
    c2 = still_target_cube(2.5)
    cube = DataCube(c1.values + c2.values, CFG)
    power = np.abs(range_profile(cube.values)).mean(axis=(0, 1))
    b1 = round(1.0 / CFG.range_bin_spacing)
    b2 = round(2.5 / CFG.range_bin_spacing)
    # each expected bin is the local maximum of its neighborhood
    for b in (b1, b2):
        lo, hi = b - 5, b + 6
        assert int(np.argmax(power[lo:hi])) + lo == b


def test_range_profile_preserves_energy():
    rng = np.random.default_rng(5)
    values = rng.standard_normal((16, CFG.n_virtual, CFG.n_fast)) + 1j * rng.standard_normal(
        (16, CFG.n_virtual, CFG.n_fast)
    )
    cube = DataCube(values, CFG)
    prof = range_profile(cube.values)
    assert np.array_equal(cube.values, values)  # the FFT works on a copy
    e_in = np.sum(np.abs(values) ** 2, axis=2)
    e_out = np.sum(np.abs(prof) ** 2, axis=2)
    assert np.max(np.abs(e_in - e_out)) <= 1e-9 * np.max(e_in)


@pytest.mark.parametrize("n_chirps", [1, 7, 64])
@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_range_profile_matches_scipy_fft(n_chirps, dtype):
    rng = np.random.default_rng(n_chirps)
    shape = (n_chirps, CFG.n_virtual, CFG.n_fast)
    values = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(dtype)
    assert np.array_equal(range_profile(values), loop_reference.range_profile(values))


def test_cube_without_slow_time_sample_is_rejected_without_warning(tmp_path):
    # an empty file holds exactly 0 chirps; its pass would divide the covariances by 0
    path = tmp_path / "empty.iq"
    path.write_bytes(b"")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IoError, match="a cube of 0 chirps has no slow-time sample"):
            read_cube(path, CFG, 0)


def test_beamform_without_slow_time_sample_is_rejected_without_warning(tmp_path):
    # beamform takes a cube file, so an empty range of one is stopped before it
    path = tmp_path / "c.iq"
    write_iq(path, still_target_cube(1.5, n_slow=4).values)
    cube = read_cube(path, CFG, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IoError, match="a cube of 0 chirps has no slow-time sample"):
            beamform(cube.slow_range(2, 2))


# --- beamforming ------------------------------------------------------------

def test_beamform_broadside_target():
    cube = still_target_cube(1.5, angle_deg=0.0)
    result = beamform(cube)
    a, r = np.unravel_index(np.argmax(result.power), result.power.shape)
    assert result.angles_deg[a] == 0.0


def test_beamform_off_axis_target_within_one_step():
    cube = still_target_cube(1.5, angle_deg=20.0)
    result = beamform(cube)
    a, _ = np.unravel_index(np.argmax(result.power), result.power.shape)
    assert abs(result.angles_deg[a] - 20.0) <= 1.0


def test_beamform_steering_gain_is_element_count():
    cube = still_target_cube(1.5, angle_deg=0.0)
    prof = range_profile(cube.values)
    result = beamform(cube)
    bin_idx = round(1.5 / CFG.range_bin_spacing)
    window_idx = int(np.flatnonzero(WINDOW_BINS == bin_idx)[0])
    steered_power = result.power[np.flatnonzero(ANGLE_GRID == 0.0)[0], window_idx]
    single_power = np.mean(np.abs(prof[:, 0, bin_idx]) ** 2)
    assert abs(steered_power - CFG.n_virtual * single_power) <= 0.05 * steered_power


def materialized_power(profiles, weights):
    """Reference map: steer every (slow, range) sample, then average |.|^2 over slow time."""
    steered = np.transpose(profiles, (0, 2, 1)) @ weights.T  # (slow, range, angles)
    return (np.abs(steered) ** 2).mean(axis=0).T


# the last four straddle the slow-time block boundaries of the covariance sum
@pytest.mark.parametrize(
    "n_slow", [1, 2, 37, 400, _COV_BLOCK - 1, _COV_BLOCK, _COV_BLOCK + 1, 2 * _COV_BLOCK + 1]
)
@pytest.mark.parametrize("scale", [1e-9, 1.0, 3e7])
@pytest.mark.parametrize("angles", [None, np.array([-60.0, -41.0, -3.0, 0.0, 1.0, 17.0, 60.0])])
def test_beamform_power_matches_materialized_steering(n_slow, scale, angles):
    # None: every row against the result's own weights; otherwise the rows of
    # the given grid angles against weights steered to those angles alone
    rng = np.random.default_rng(n_slow)
    shape = (n_slow, CFG.n_virtual, CFG.n_fast)
    values = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    result = beamform(DataCube(values, CFG))
    profiles = range_profile(values)[:, :, WINDOW_BINS]
    assert np.array_equal(result.profiles, profiles)
    if angles is None:
        power, reference = result.power, materialized_power(profiles, result.weights)
    else:
        rows = np.searchsorted(result.angles_deg, angles)
        assert np.array_equal(result.angles_deg[rows], angles)
        power = result.power[rows]
        reference = materialized_power(profiles, steering_weights(angles))
    assert power.shape == reference.shape
    row_max = reference.max(axis=1, keepdims=True)
    # also bounds a steering null that rounds to a tiny negative, since reference >= 0
    assert np.all(np.abs(power - reference) <= 1e-12 * row_max)
    assert np.argmax(power) == np.argmax(reference)


def _displacement_cube():
    d = displacement(default_cohort()[0], duration=15.0, fs=100.0, seed=4)
    return render_cube(d, CFG, snr_db=20.0, seed=9, range_m=1.5, angle_deg=0.0)


def _two_target_cube(far_m):
    near = still_target_cube(1.0, angle_deg=-10.0)
    far = still_target_cube(far_m, angle_deg=15.0)
    return DataCube(near.values + far.values, CFG)


def _noise_cube():
    rng = np.random.default_rng(1)
    noise = 0.05 * (
        rng.standard_normal((128, CFG.n_virtual, CFG.n_fast))
        + 1j * rng.standard_normal((128, CFG.n_virtual, CFG.n_fast))
    )
    return DataCube(noise, CFG)


CUBES = {
    "broadside": lambda: still_target_cube(1.5, angle_deg=0.0),
    "off_axis_noisy": lambda: still_target_cube(1.5, angle_deg=20.0, snr_db=10.0, seed=3),
    "displacement": _displacement_cube,
    "far_target_outside": lambda: _two_target_cube(4.0),  # far target outside RANGE_WINDOW
    "two_targets": lambda: _two_target_cube(2.5),
}


@pytest.mark.parametrize("make_cube", CUBES.values(), ids=CUBES.keys())
def test_select_echo_same_as_with_materialized_map(make_cube):
    result = beamform(make_cube())
    reference = dataclasses.replace(
        result, power=materialized_power(result.profiles, result.weights)
    )
    sel, ref = select_echo(result), select_echo(reference)
    assert (sel.angle_deg, sel.range_m) == (ref.angle_deg, ref.range_m)
    assert np.array_equal(sel.series.samples, ref.series.samples)


@pytest.mark.parametrize(
    "make_cube",
    [
        lambda: still_target_cube(1.5, angle_deg=0.0),
        lambda: still_target_cube(1.5, angle_deg=20.0, snr_db=10.0, seed=3),
        _displacement_cube,
    ],
    ids=["broadside", "off_axis_noisy", "displacement"],
)
def test_front_end_bit_identical_to_out_of_place_profiles(make_cube):
    cube = make_cube()
    upcast = cube.values.astype(np.complex128)  # cubes are rendered as complex64
    reference = np.fft.fft(upcast, axis=2) / np.sqrt(cube.config.n_fast)
    assert np.array_equal(range_profile(cube.values), reference)
    sel = extract_slow_time(cube)
    r = int(np.flatnonzero(CFG.range_axis == sel.range_m)[0])
    w = BeamformResult.weights[int(np.flatnonzero(ANGLE_GRID == sel.angle_deg)[0])]
    assert np.array_equal(sel.series.samples, reference[:, :, r] @ w)


def whole_cube_front_end(cube):
    """The front end that the single pass replaced, kept as its reference.

    FFT of the whole upcast cube, the covariance map over all range bins and
    an argmax masked to ``RANGE_WINDOW``; returns (series, angle, range, power).
    """
    profiles = np.fft.fft(np.asarray(cube.values, dtype=np.complex128), axis=2)
    profiles /= np.sqrt(CFG.n_fast)
    cov = np.zeros((CFG.n_fast, CFG.n_virtual, CFG.n_virtual), dtype=np.complex128)
    for s0 in range(0, cube.n_slow, _COV_BLOCK):
        blk = np.ascontiguousarray(profiles[s0:s0 + _COV_BLOCK].transpose(2, 1, 0))
        cov += blk @ blk.conj().transpose(0, 2, 1)
    cov /= cube.n_slow
    w = BeamformResult.weights
    power = np.einsum("rai,ai->ar", w[None] @ cov, w.conj()).real
    in_window = np.isin(np.arange(CFG.n_fast), WINDOW_BINS)
    a, r = np.unravel_index(np.argmax(np.where(in_window, power, -np.inf)), power.shape)
    return profiles[:, :, r] @ w[a], ANGLE_GRID[a], CFG.range_axis[r], power[a, r]


def assert_same_as_whole_cube_front_end(cube):
    sel = extract_slow_time(cube)
    series, angle, range_m, power = whole_cube_front_end(cube)
    assert np.array_equal(sel.series.samples, series)
    assert sel.angle_deg == angle and sel.range_m == range_m and sel.power == power
    assert sel.low_snr == (power < LOW_SNR_POWER)


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
@pytest.mark.parametrize(
    "n_slow", [1, _COV_BLOCK - 1, _COV_BLOCK, _COV_BLOCK + 1, 2 * _COV_BLOCK + 1]
)
def test_front_end_same_as_whole_cube_at_block_boundaries(n_slow, dtype):
    cube = still_target_cube(1.5, angle_deg=7.0, n_slow=n_slow, snr_db=10.0, seed=n_slow)
    assert_same_as_whole_cube_front_end(DataCube(cube.values.astype(dtype), CFG))


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
@pytest.mark.parametrize(
    "make_cube", [*CUBES.values(), _noise_cube], ids=[*CUBES.keys(), "noise_only"]
)
def test_front_end_same_as_whole_cube(make_cube, dtype):
    cube = DataCube(make_cube().values.astype(dtype), CFG)
    assert cube.values.dtype == dtype
    assert_same_as_whole_cube_front_end(cube)


def test_front_end_keeps_the_fields_the_benchmark_tracer_reads():
    # perfbench/tracer.py's echo check reads select_echo's `result` argument and
    # its config's bin spacing; its beamform counter reads 3-D profiles and the grid
    assert "result" in inspect.signature(select_echo).parameters
    result = beamform(still_target_cube(1.5))
    assert result.config.range_bin_spacing == CFG.range_bin_spacing
    assert result.profiles.ndim == 3
    assert np.array_equal(result.angles_deg, ANGLE_GRID)


def test_steering_vector_coherent_sum():
    # a plane wave from theta matched by the theta-steered weights sums to
    # sqrt(n) times a single element
    theta = 23.0
    m = np.arange(CFG.n_virtual)
    wave = np.exp(
        2j * np.pi * (CFG.element_spacing / CFG.wavelength) * np.sin(np.radians(theta)) * m
    )
    w = steering_weights(np.array([theta]))[0]
    coherent = abs(np.sum(wave * w))
    assert abs(coherent - np.sqrt(CFG.n_virtual)) <= 1e-9


# --- echo selection ---------------------------------------------------------

def test_select_echo_recovers_displacement_phase():
    profile = default_cohort()[0]
    d = displacement(profile, duration=15.0, fs=100.0, seed=4)
    cube = render_cube(d, CFG, snr_db=20.0, seed=9, range_m=1.5, angle_deg=0.0)
    sel = extract_slow_time(cube)
    assert not sel.low_snr
    recovered = detrend(phase_unwrapped(sel.series.samples))
    truth = detrend(4 * np.pi * d / CFG.wavelength)
    corr = np.corrcoef(recovered, truth)[0, 1]
    assert corr >= 0.99


def test_select_echo_prefers_window():
    near = still_target_cube(1.0, angle_deg=-10.0)
    far = still_target_cube(4.0, angle_deg=15.0)  # beyond the 3.0-m window edge
    cube = DataCube(near.values + far.values, CFG)
    sel = select_echo(beamform(cube))
    assert abs(sel.range_m - 1.0) <= 2 * CFG.range_bin_spacing
    assert abs(sel.angle_deg - (-10.0)) <= 1.0


def test_select_echo_noise_only_sets_low_snr():
    sel = extract_slow_time(_noise_cube())
    assert sel.low_snr
    assert len(sel.series) == 128


def test_select_echo_invariant_to_global_scaling():
    cube = still_target_cube(1.5, angle_deg=7.0, snr_db=15.0, seed=2)
    scaled = DataCube((2.0 - 3.0j) * cube.values, CFG)
    sel_a = select_echo(beamform(cube))
    sel_b = select_echo(beamform(scaled))
    assert sel_a.range_m == sel_b.range_m
    assert sel_a.angle_deg == sel_b.angle_deg

