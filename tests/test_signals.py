import tracemalloc

import loop_reference
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heartid.errors import InvalidParameter, NonFiniteSample, PipelineError
from heartid.signals import (
    _FINITE_SLAB,
    ComplexSeries,
    StftWorkspace,
    check_finite,
    phase_unwrapped,
    second_derivative,
    stft_frames,
    stft_magnitude,
)


def times(duration, fs):
    return np.arange(int(round(duration * fs))) / fs


# --- series types -----------------------------------------------------------

def test_series_reject_empty_and_bad_fs():
    with pytest.raises(ValueError):
        ComplexSeries(np.array([]), 100.0)
    with pytest.raises(ValueError):
        ComplexSeries(np.ones(4), 0.0)
    # frame times count from t0: not finite, or so large that a sample step rounds away
    for t0 in (np.nan, np.inf, -np.inf, 1e20):
        with pytest.raises(InvalidParameter, match="t0"):
            ComplexSeries(np.ones(4), 100.0, t0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)])
def test_complex_series_rejects_non_finite_sample(bad):
    samples = np.ones(10, dtype=np.complex128)
    samples[7] = bad
    with pytest.raises(NonFiniteSample, match="index 7 ") as info:
        ComplexSeries(samples, 100.0)
    assert isinstance(info.value, PipelineError)


@pytest.mark.parametrize(
    "dtype, bad, value",
    [
        (np.complex64, complex(np.nan, 0.5), "(nan+0.5j)"),
        (np.complex64, complex(0.1, np.inf), "(0.10000000149011612+infj)"),
        (np.complex128, complex(np.nan, 0.5), "(nan+0.5j)"),
        (np.complex128, complex(0.1, np.inf), "(0.1+infj)"),
        (np.float64, np.nan, "nan"),
        (np.float64, -np.inf, "-inf"),
    ],
)
@pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided_view"])
def test_check_finite_message_names_first_bad_sample(dtype, bad, value, strided):
    # the message is fixed text: index of the first bad sample, its value, the count
    samples = 0.1 * np.arange(24.0).reshape(4, 6)
    samples = (samples if dtype == np.float64 else samples + 0.5j).astype(dtype)
    samples[2, 3] = samples[3, 5] = bad
    index, size = "(2, 3)", 24
    if strided:
        samples, index, size = samples[:, 1::2], "(2, 1)", 12
    with pytest.raises(NonFiniteSample) as info:
        check_finite(samples)
    assert str(info.value) == (
        f"non-finite sample at index {index} ({value}); 2 of {size} are not finite"
    )


def _brute_force_message(samples):
    finite = np.isfinite(samples)
    bad = np.unravel_index(np.argmin(finite), samples.shape)
    where = tuple(int(i) for i in bad)
    return (f"non-finite sample at index {where[0] if len(where) == 1 else where} "
            f"({samples[bad]}); {samples.size - int(finite.sum())} of {samples.size} "
            "are not finite")


# flat indices on both sides of slab edges; a complex slab holds half as many samples
@pytest.mark.parametrize("dtype", [np.complex64, np.complex128, np.float64])
@pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided_view"])
@pytest.mark.parametrize("bad", [[0], [_FINITE_SLAB // 2 - 1], [_FINITE_SLAB // 2],
                                 [_FINITE_SLAB - 1, _FINITE_SLAB, 3 * _FINITE_SLAB + 5],
                                 [4 * _FINITE_SLAB - 1]])
def test_check_finite_in_slabs_same_as_whole_array_mask(dtype, strided, bad):
    samples = np.ones(8 * _FINITE_SLAB, dtype=dtype)
    if strided:
        samples = samples.reshape(-1, 2)[:, 0].reshape(-1, 16)  # 2-D, every other sample
    np.put(samples, bad, np.nan)
    with pytest.raises(NonFiniteSample) as info:
        check_finite(samples)
    assert str(info.value) == _brute_force_message(samples)


@pytest.mark.parametrize("case", ["finite", "last_is_nan", "strided"])
def test_check_finite_of_a_cube_allocates_under_one_mib(case):
    # a 20-s cube record: 24.6 MB of complex64; a whole-cube mask took 6.1 MB
    cube = np.ones((2000, 12, 128 * (2 if case == "strided" else 1)), dtype=np.complex64)
    if case == "strided":
        cube = cube[:, :, ::2]
    cube[-1, -1, -1] = np.nan if case == "last_is_nan" else 1.0
    check_finite(cube[:1])  # numpy's first-call allocations
    tracemalloc.start()
    try:
        if case == "last_is_nan":
            with pytest.raises(NonFiniteSample, match=r"\(1999, 11, 127\) .*; 1 of 3072000 "):
                check_finite(cube)
        else:
            check_finite(cube)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# --- second derivative ------------------------------------------------------

def test_second_derivative_of_quadratic_is_exact():
    # fs a power of two keeps every intermediate dyadic: the central
    # difference of t^2 comes out exactly 2.0
    fs = 128.0
    t = times(8.0, fs)
    out = second_derivative(t**2, fs)
    assert np.all(out == 2.0)
    assert len(out) == len(t) - 2


def test_second_derivative_of_constant_is_zero():
    out = second_derivative(np.full(100, 3.7), 100.0)
    assert np.all(out == 0.0)


def test_second_derivative_matches_analytic_sine():
    fs = 100.0
    f = 1.2
    t = times(10.0, fs)
    out = second_derivative(np.sin(2 * np.pi * f * t), fs)
    expected = -((2 * np.pi * f) ** 2) * np.sin(2 * np.pi * f * t[1:-1])
    scale = (2 * np.pi * f) ** 2
    assert np.max(np.abs(out - expected)) <= 1e-2 * scale


def test_second_derivative_too_short():
    with pytest.raises(PipelineError, match="need at least 3 samples"):
        second_derivative(np.ones(2), 100.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(-5, 5), st.floats(-5, 5))
def test_second_derivative_linearity(seed, a, b):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(50)
    y = rng.standard_normal(50)
    fs = 100.0
    lhs = second_derivative(a * x + b * y, fs)
    rhs = a * second_derivative(x, fs) + b * second_derivative(y, fs)
    scale = max(np.max(np.abs(rhs)), 1.0)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


def test_complex_second_derivative_of_tone_has_constant_magnitude():
    fs = 100.0
    f = 3.0
    t = times(10.0, fs)
    out = second_derivative(np.exp(2j * np.pi * f * t), fs)
    mags = np.abs(out)
    # discrete central difference of a tone: magnitude 2 fs^2 (1 - cos(w/fs))
    w = 2 * np.pi * f
    discrete = 2 * fs**2 * (1 - np.cos(w / fs))
    assert np.max(np.abs(mags - discrete)) <= 1e-9 * discrete
    assert abs(discrete - w**2) <= 5e-3 * w**2


def test_complex_second_derivative_real_input_stays_real():
    out = second_derivative(np.sin(times(2.0, 100.0)) + 0j, 100.0)
    assert np.all(out.imag == 0.0)
    # complex input stays complex, so its spectrum stays two-sided
    assert np.iscomplexobj(out)


def test_complex_second_derivative_of_ramp_is_zero():
    t = times(2.0, 100.0)
    out = second_derivative((3.0 + 2.0j) * t, 100.0)
    assert np.max(np.abs(out)) <= 1e-9


# --- phase ------------------------------------------------------------------

def test_phase_unwrapped_linear_phase():
    fs = 100.0
    t = times(10.0, fs)
    out = phase_unwrapped(np.exp(2j * np.pi * 0.5 * t))
    assert np.max(np.abs(out - 2 * np.pi * 0.5 * t)) <= 1e-9
    assert np.all(np.diff(out) > 0)


def test_phase_unwrapped_trivia():
    assert np.all(phase_unwrapped(np.full(8, 2.0 + 0j)) == 0.0)
    out = phase_unwrapped(np.full(8, 1j))
    assert np.allclose(out, np.pi / 2, rtol=0, atol=1e-15)


def test_phase_unwrapped_rejects_zero_sample():
    z = np.ones(5, dtype=complex)
    z[2] = 0.0
    with pytest.raises(PipelineError, match="exact zero"):
        phase_unwrapped(z)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_phase_unwrap_idempotent_after_rewrap(seed):
    rng = np.random.default_rng(seed)
    # random walk with steps strictly inside (-pi, pi) is exactly recoverable
    phi = np.cumsum(rng.uniform(-3.0, 3.0, 200))
    phi -= phi[0] - rng.uniform(-np.pi, np.pi) * 0.99
    recovered = phase_unwrapped(np.exp(1j * phi))
    rewrapped = np.angle(np.exp(1j * recovered))
    again = np.unwrap(rewrapped)
    assert np.max(np.abs(again - recovered)) <= 1e-9


# --- STFT -------------------------------------------------------------------

def test_stft_complex_tone_peaks_at_positive_frequency():
    fs = 100.0
    t = times(10.0, fs)
    values, freqs, _ = stft_magnitude(np.exp(2j * np.pi * 3.0 * t), fs, 2.0, 0.1)
    assert freqs[0] < 0  # two-sided
    pos_bin = int(np.argmin(np.abs(freqs - 3.0)))
    neg_bin = int(np.argmin(np.abs(freqs + 3.0)))
    assert np.all(np.argmax(values, axis=1) == pos_bin)
    peak = values[:, pos_bin]
    assert np.all(values[:, neg_bin] <= 1e-9 * peak)


def test_stft_zero_input():
    values, _, _ = stft_magnitude(np.zeros(500), 100.0, 2.0, 0.1)
    assert np.all(values == 0.0)


def test_stft_real_tone_one_sided_peak():
    fs = 100.0
    t = times(10.0, fs)
    # 7 Hz: the 2 s window holds 14 full periods, so there is no leakage
    values, freqs, _ = stft_magnitude(np.sin(2 * np.pi * 7.0 * t), fs, 2.0, 0.1)
    assert freqs[0] == 0.0 and freqs[-1] == fs / 2  # one-sided
    bin7 = int(np.argmin(np.abs(freqs - 7.0)))
    assert np.all(np.argmax(values, axis=1) == bin7)


def test_stft_frame_count_matches_invariant():
    fs = 100.0
    values, freqs, frame_times = stft_magnitude(np.ones(6000), fs, 2.0, 0.1, t0=3.25)
    assert values.shape == (int(np.floor((60.0 - 2.0) / 0.1)) + 1, freqs.size) == (581, 101)
    # frame times are window centers counted from t0
    assert np.array_equal(frame_times, 3.25 + (10 * np.arange(581) + 100) / fs)


@pytest.mark.parametrize("is_complex", [True, False])
@pytest.mark.parametrize(
    "n, window_len, hop",
    [
        (1000, 2.0, 0.1),    # even window
        (1000, 2.01, 0.1),   # odd window
        (1003, 1.51, 0.25),  # odd window, frames stop short of the end
        (201, 2.01, 0.1),    # a single frame
    ],
)
def test_stft_matches_direct_formula(is_complex, n, window_len, hop):
    fs = 100.0
    rng = np.random.default_rng(n)
    z = rng.standard_normal(n) + (1j * rng.standard_normal(n) if is_complex else 0.0)
    values, freqs, _ = stft_magnitude(z, fs, window_len, hop)
    n_win, n_hop = int(round(window_len * fs)), int(round(hop * fs))
    n_frames = (n - n_win) // n_hop + 1
    frames = z[n_hop * np.arange(n_frames)[:, None] + np.arange(n_win)[None, :]]
    if is_complex:
        want = np.abs(np.fft.fftshift(np.fft.fft(frames, axis=1), axes=1))
    else:
        want = np.abs(np.fft.rfft(frames, axis=1))
    assert np.array_equal(values, want * (1.0 / np.sqrt(n_win)))
    assert (freqs[0] < 0) == is_complex


@pytest.mark.parametrize("is_complex", [False, True])
@pytest.mark.parametrize("window_len", [1.99, 2.0, 0.97])  # 199 (odd), 200 and 97 (prime) samples
def test_stft_same_bits_as_scipy_reference(is_complex, window_len):
    # numpy's FFT into a workspace, the modulus written shifted, against scipy.fft
    # and a shifted copy; one workspace is reused across lengths, from the longest down
    fs, hop, rng = 100.0, 0.1, np.random.default_rng(int(window_len * 100))
    n_win = int(round(window_len * fs))
    work = StftWorkspace(stft_frames(6000, fs, window_len, hop)[0] * n_win)
    for n in (6000, 1003, n_win + 1, n_win):
        z = 1e3 * (rng.standard_normal(n) + (1j * rng.standard_normal(n) if is_complex else 0))
        want = loop_reference.stft_magnitude(z, fs, window_len, hop, t0=12.34)
        for w in (work, None, StftWorkspace(10)):  # the last is too small: fresh arrays
            got = stft_magnitude(z, fs, window_len, hop, 12.34, w)
            assert len(got) == len(want) == 3
            for name, a, b in zip(("values", "freqs", "frame_times"), got, want):
                assert np.array_equal(a, b), name
        assert np.shares_memory(stft_magnitude(z, fs, window_len, hop, work=work)[0],
                                work.modulus)


def test_stft_frames_counts_frames_or_gives_zero_where_the_stft_raises():
    assert stft_frames(6000, 100.0, 2.0, 0.1) == (581, 200)
    assert stft_frames(200, 100.0, 2.0, 0.1) == (1, 200)
    for n, window_len, hop in [(199, 2.0, 0.1), (0, 2.0, 0.1), (-5, 2.0, 0.1),
                               (6000, 2.0, 0.0), (6000, float("nan"), 0.1),
                               (6000, 0.01, 0.1), (6000, 2.0, 1e-5)]:
        assert stft_frames(n, 100.0, window_len, hop) == (0, 0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_stft_parseval_per_frame(seed):
    rng = np.random.default_rng(seed)
    fs = 50.0
    n = 300
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    window_len, hop = 1.0, 0.5
    values, _, _ = stft_magnitude(z, fs, window_len, hop)
    n_win = int(window_len * fs)
    n_hop = int(hop * fs)
    for k in range(values.shape[0]):
        frame = z[k * n_hop : k * n_hop + n_win]
        lhs = np.sum(values[k] ** 2)
        rhs = window_len * fs * np.mean(np.abs(frame) ** 2)
        assert abs(lhs - rhs) <= 1e-9 * rhs


def test_stft_errors():
    x = np.ones(100)
    with pytest.raises(PipelineError, match="does not fit a signal"):
        stft_magnitude(x, 100.0, 2.0, 0.1)
    with pytest.raises(InvalidParameter, match="hop must be positive"):
        stft_magnitude(x, 100.0, 0.5, 0.0)
    with pytest.raises(InvalidParameter, match="below one sample"):
        stft_magnitude(x, 100.0, 0.5, 1e-5)
    with pytest.raises(InvalidParameter):
        stft_magnitude(x, 100.0, 0.001, 0.1)
    # one sample has only the 0-Hz bin; a complex one read as one-sided
    with pytest.raises(InvalidParameter, match="below two samples"):
        stft_magnitude(x + 0j, 100.0, 0.01, 0.1)
    with pytest.raises(InvalidParameter):
        stft_magnitude(x, 100.0, float("nan"), 0.1)


def test_stft_hop_past_the_end_gives_one_frame():
    # a hop of 2**63 samples or more overflowed the slice stride
    x = np.random.default_rng(4).standard_normal(100)
    one_values, _, one_times = stft_magnitude(x, 100.0, 0.5, 1.0)
    for hop in (1e17, 2.0**63, 1e300):
        values, _, frame_times = stft_magnitude(x, 100.0, 0.5, hop)
        assert np.array_equal(values, one_values)
        assert np.array_equal(frame_times, one_times)


@pytest.mark.parametrize("fs", [0.0, -1.0, np.inf, np.nan, 1e155, 1e300])
def test_series_rejects_rate_without_finite_square(fs):
    # the second derivative multiplies by fs**2; 1e155 squared overflows
    with pytest.raises(InvalidParameter, match="sampling rate"):
        ComplexSeries(np.ones(10), fs)
