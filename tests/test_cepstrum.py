import tracemalloc

import loop_reference
import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid

from heartid import cepstrum
from heartid.cepstrum import (
    MelBankConfig,
    bank_response_matrix,
    build_mel_bank,
    dct2,
    extract_features,
    mel_energies,
)
from heartid.errors import InvalidParameter, PipelineError
from heartid.signals import (
    ComplexSeries,
    StftWorkspace,
    phase_unwrapped,
    second_derivative,
    stft_magnitude,
)


def naive_dct2(m):
    """Direct double-precision summation of C_k = sum m_n cos(pi k (n+1/2)/N)."""
    m = np.asarray(m, dtype=np.float64)
    n = m.size
    k = np.arange(n)[:, None]
    return (np.cos(np.pi * k * (np.arange(n) + 0.5) / n) * m[None, :]).sum(axis=1)


# --- filter bank ------------------------------------------------------------

def test_mel_bank_bottom_edge_is_zero():
    bank = build_mel_bank(MelBankConfig(), 100.0)
    assert bank[0] == 0.0


def test_mel_bank_edges_are_read_only_and_cached():
    cfg = MelBankConfig(n_filters=12)
    edges = build_mel_bank(cfg, 100.0)
    assert edges.dtype == np.float64 and edges.shape == (14,)
    with pytest.raises(ValueError, match="read-only"):
        edges[1] = 0.0
    shared = cepstrum._cached_bank(cfg, 100.0)
    assert not shared.flags.writeable and np.array_equal(shared, edges)


@pytest.mark.parametrize(
    "cfg",  # (bank settings, sampling rate)
    [
        (MelBankConfig(), 100.0),
        (MelBankConfig(n_filters=16, f_ref=2.0, f_prime=500.0), 40.0),
        (MelBankConfig(n_filters=128, f_ref=10.0, f_prime=2000.0), 1000.0),
        (MelBankConfig(n_filters=1, f_ref=0.5, f_prime=100.0), 10.0),
    ],
)
def test_mel_bank_top_edge_is_nyquist(cfg):
    cfg, fs = cfg
    bank = build_mel_bank(cfg, fs)
    assert abs(bank[-1] - fs / 2) <= 1e-9 * (fs / 2)


@pytest.mark.parametrize(
    "cfg",  # (bank settings, sampling rate)
    [
        (MelBankConfig(f_ref=1e20), 100.0),   # f_prime/f_ref + 1 == 1: a flat warping
        (MelBankConfig(f_prime=1e-20), 100.0),
        (MelBankConfig(f_ref=1e17), 100.0),   # top edge at 44.4 Hz instead of 50 Hz
        (MelBankConfig(), 0.0),
        (MelBankConfig(), -100.0),            # reached math.log of a negative number
        (MelBankConfig(), np.nan),
        (MelBankConfig(), np.inf),
    ],
)
def test_mel_bank_rejects_degenerate_settings(cfg):
    cfg, fs = cfg
    with pytest.raises(InvalidParameter, match="f_ref="):
        build_mel_bank(cfg, fs)


def test_mel_bank_matches_high_precision_oracle():
    # independent evaluation of the closed forms at 60 significant digits
    cfg = MelBankConfig(n_filters=64, f_ref=5.0, f_prime=1000.0)
    bank = build_mel_bank(cfg, 100.0)
    with mpmath.workdps(60):
        f_ref = mpmath.mpf("5.0")
        f_prime = mpmath.mpf("1000.0")
        fs = mpmath.mpf("100.0")
        m_tilde = f_prime / mpmath.log(f_prime / f_ref + 1)
        span = mpmath.log(1 + fs / (2 * f_ref))
        for ell in range(cfg.n_filters + 2):
            m_ell = m_tilde * mpmath.mpf(ell) / (cfg.n_filters + 1) * span
            f_ell = f_ref * (mpmath.exp(m_ell / m_tilde) - 1)
            got = bank[ell]
            if f_ell == 0:
                assert got == 0.0
            else:
                assert abs(got - float(f_ell)) <= 1e-12 * float(f_ell)


def test_filter_response_edges_and_peak():
    bank = build_mel_bank(MelBankConfig(), 100.0)
    for ell in (0, 7, 63):
        f_lo, f_mid, f_hi = bank[ell : ell + 3]
        at_lo, peak, at_hi, below = bank_response_matrix(
            bank, np.array([f_lo, f_mid, f_hi, f_lo - 1.0])
        )[ell]
        assert at_lo == 0.0
        assert abs(peak - 2.0 / (f_hi - f_lo)) <= 1e-12 * peak
        assert at_hi == 0.0
        assert below == 0.0


def test_filter_response_unit_area():
    bank = build_mel_bank(MelBankConfig(), 100.0)
    for ell in range(bank.size - 2):
        f_lo, f_mid, f_hi = bank[ell : ell + 3]
        # trapezoid grid containing the breakpoints integrates the
        # piecewise-linear triangle exactly
        grid = np.unique(
            np.concatenate(
                [np.linspace(f_lo, f_hi, 501), [f_lo, f_mid, f_hi]]
            )
        )
        area = trapezoid(bank_response_matrix(bank, grid)[ell], grid)
        assert abs(area - 1.0) <= 1e-9


# --- mel energies -----------------------------------------------------------

def test_mel_energies_zero_spectrogram():
    bank = build_mel_bank(MelBankConfig(), 100.0)
    positive, negative = mel_energies(
        np.zeros((10, 51)),
        np.linspace(0, 50, 51),
        np.linspace(0, 9, 10),
        bank,
    )
    assert np.all(positive == 0.0)
    assert negative is None


def test_mel_energies_unit_spectrogram_gives_duration():
    # S = 1 everywhere on a dense one-sided grid: each unit-area filter
    # integrates to T0
    bank = build_mel_bank(MelBankConfig(), 100.0)
    t0 = 10.0
    freqs = np.linspace(0, 50, 8001)
    positive, _ = mel_energies(np.ones((21, freqs.size)), freqs, np.linspace(0, t0, 21), bank)
    assert np.max(np.abs(positive - t0)) <= 1e-3 * t0


def _smooth_spectrogram(freqs, frame_times, bumps):
    """Analytic S(t, f): Gaussian bumps in f with a slow time envelope."""
    f = np.asarray(freqs)[None, :]
    t = np.asarray(frame_times)[:, None]
    s = np.zeros((t.size, f.shape[1]))
    for amp, center, width in bumps:
        s += amp * np.exp(-0.5 * ((f - center) / width) ** 2)
    return s * (1.0 + 0.2 * np.sin(t))


def _riemann_oracle(bank, duration, bumps, f_lo, f_hi, n_f, n_t):
    """Brute-force double Riemann sum of S*H at 10x the working grid density.

    Evaluates the analytic S(t, f) directly on the fine grid; endpoints get
    half weight on both axes.  Time rows are chunked to bound memory.
    """
    f_fine = np.linspace(f_lo, f_hi, n_f)
    t_fine = np.linspace(0.0, duration, n_t)
    df = f_fine[1] - f_fine[0]
    dt = t_fine[1] - t_fine[0]
    wf = np.ones(n_f)
    wf[0] = wf[-1] = 0.5
    wt = np.ones(n_t)
    wt[0] = wt[-1] = 0.5
    h = bank_response_matrix(bank, np.abs(f_fine) if f_lo < 0 else f_fine)
    hw = h * wf[None, :]
    out = np.zeros(bank.size - 2)
    for start in range(0, n_t, 128):
        rows = slice(start, min(start + 128, n_t))
        s = _smooth_spectrogram(f_fine, t_fine[rows], bumps)
        out += (hw @ s.T) @ wt[rows]
    return out * df * dt


def test_mel_energies_match_brute_force_quadrature():
    bank = build_mel_bank(MelBankConfig(), 100.0)
    duration = 8.0
    frame_times = np.linspace(0.0, duration, 81)
    freqs = np.linspace(-50.0, 50.0, 8001)
    bumps = [(1.0, 3.0, 0.8), (0.5, 12.0, 2.0), (0.25, -7.0, 1.5)]
    positive, negative = mel_energies(
        _smooth_spectrogram(freqs, frame_times, bumps),
        freqs,
        frame_times,
        bank,
    )
    pos_oracle = _riemann_oracle(bank, duration, bumps, 0.0, 50.0, 40001, 801)
    neg_oracle = _riemann_oracle(bank, duration, bumps, -50.0, 0.0, 40001, 801)
    scale = max(pos_oracle.max(), neg_oracle.max())
    assert np.max(np.abs(positive - pos_oracle)) <= 1e-3 * scale
    assert np.max(np.abs(negative - neg_oracle)) <= 1e-3 * scale
    # filters with substantial energy also meet the entrywise relative bound
    big = pos_oracle > 0.05 * scale
    assert np.all(
        np.abs(positive[big] - pos_oracle[big]) <= 1e-3 * pos_oracle[big]
    )


def test_mel_energies_tone_concentrates_on_positive_side():
    fs = 100.0
    t = np.arange(1000) / fs
    spec = stft_magnitude(np.exp(2j * np.pi * 3.0 * t), fs, 2.0, 0.1)
    bank = build_mel_bank(MelBankConfig(), 100.0)
    positive, negative = mel_energies(*spec, bank)
    assert positive.max() > 0
    assert negative.max() <= 1e-9 * positive.max()
    # energy sits in the filters whose support covers 3 Hz
    covering = [
        ell
        for ell in range(bank.size - 2)
        if bank[ell] <= 3.0 < bank[ell + 2]
    ]
    top = np.argsort(positive)[-len(covering) :]
    assert set(covering) <= set(top.tolist())


def test_mel_energies_real_signal_two_sided_symmetry():
    rng = np.random.default_rng(3)
    fs = 100.0
    x = rng.standard_normal(2000)  # real signal seen as complex
    spec = stft_magnitude(x + 0j, fs, 2.0, 0.1)
    positive, negative = mel_energies(*spec, build_mel_bank(MelBankConfig(), fs))
    scale = positive.max()
    assert np.max(np.abs(positive - negative)) <= 1e-9 * scale


def test_mel_energies_axis_mismatch():
    spec = np.ones((4, 26)), np.linspace(0, 25, 26), np.arange(4.0)
    with pytest.raises(PipelineError, match="exceeds the bank Nyquist"):
        mel_energies(*spec, build_mel_bank(MelBankConfig(), 40.0))  # nyq 20 < 25
    with pytest.raises(PipelineError, match="well short of the bank Nyquist"):
        mel_energies(*spec, build_mel_bank(MelBankConfig(), 200.0))  # nyq 100 >> 25


@pytest.mark.parametrize("is_complex", [False, True])
@pytest.mark.parametrize("broken", ["shape", "freqs", "frame_times", "empty"])
def test_mel_energies_rejects_malformed_spectrogram(broken, is_complex):
    # a spectrogram's three arrays from outside: values whose shape misses the axes,
    # an axis that does not rise strictly, NaN included, where a test for a fall
    # (or any comparison with a NaN) would let it through to finite or NaN energies,
    # or an empty axis (no bins raised a bare ValueError, no frames gave zeros)
    z = np.random.default_rng(3).standard_normal(700) * (1j if is_complex else 1.0)
    values, freqs, frame_times = stft_magnitude(z, 100.0, 2.0, 0.1)
    bank = build_mel_bank(MelBankConfig(), 100.0)
    mel_energies(values, freqs, frame_times, bank)  # as formed, they pass

    def with_entry(a, i, x):
        a = a.copy()
        a[i] = x
        return a

    def falls(a):  # reversed, a NaN, a repeat
        return a[::-1], with_entry(a, 7, np.nan), with_entry(a, 7, a[6])

    match, cases = {
        "shape": ("does not match", [(values, np.arange(3.0), frame_times),
                                     (values, freqs, frame_times[1:]),
                                     (values[0], freqs, frame_times),
                                     (values.T, freqs, frame_times)]),
        "freqs": ("frequency axis must", [(values, f, frame_times) for f in falls(freqs)]),
        "frame_times": ("frame times must", [(values, freqs, t) for t in falls(frame_times)]),
        "empty": ("(frequency axis is|frame times are) empty",
                  [(values[:, :0], freqs[:0], frame_times), (values[:0], freqs, frame_times[:0])]),
    }[broken]
    for case in cases:
        with pytest.raises(PipelineError, match=match):
            mel_energies(*case, bank)


# --- DCT --------------------------------------------------------------------

def test_dct2_constant_vector():
    n = 16
    out = dct2(np.full(n, 2.5))
    assert abs(out[0] - n * 2.5) <= 1e-10
    assert np.max(np.abs(out[1:])) <= 1e-10


def test_dct2_length_one_is_identity():
    assert dct2(np.array([3.25]))[0] == 3.25


def test_dct2_matches_naive_oracle_length_64():
    rng = np.random.default_rng(7)
    m = rng.standard_normal(64)
    got = dct2(m)
    want = naive_dct2(m)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 256))
def test_dct2_matches_naive_oracle_any_length(seed, n):
    rng = np.random.default_rng(seed)
    m = rng.uniform(-10, 10, n)
    got = dct2(m)
    want = naive_dct2(m)
    scale = max(np.max(np.abs(want)), 1.0)
    assert np.max(np.abs(got - want)) <= 1e-10 * scale


def test_dct2_empty_input():
    with pytest.raises(PipelineError, match="DCT input must be nonempty"):
        dct2(np.array([]))


@pytest.mark.parametrize("scale", [1e-300, 1e-12, 1.0, 1e8, 1e300])
def test_dct2_same_bits_as_scipy_reference(scale):
    rng = np.random.default_rng(11)
    # every length up to 300; primes and 4097 = 17 x 241 go through Bluestein's FFT
    for n in [*range(1, 301), 509, 512, 1000, 1021, 1024, 2003, 4096, 4097]:
        for shape in ((n,), (4, n), (7, n), (2, 3, n)):
            m = rng.standard_normal(shape) * scale
            assert np.array_equal(dct2(m), loop_reference.dct2(m)), (n, shape)
        m = rng.standard_normal((n, 5)).T * scale  # rows that are not contiguous
        assert np.array_equal(dct2(m), loop_reference.dct2(m)), (n, "strided")


@pytest.mark.parametrize("rows", range(2, 8))
def test_dct2_of_stacked_rows_same_bits_as_row_by_row(rows):
    rng = np.random.default_rng(rows)
    for cols in (8, 9, 24, 31, 64):
        m = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-6, 6, size=(rows, 1))
        assert np.array_equal(dct2(m), np.stack([dct2(row) for row in m]))


@pytest.mark.parametrize("two_sided", [False, True])
@pytest.mark.parametrize("n", [200, 201, 215, 1003, 6000])  # 1, 2, 3, 81 and 581 frames
def test_time_integral_in_place_same_bits_as_trapezoid(two_sided, n):
    rng = np.random.default_rng(n)
    z = rng.standard_normal(n) + (1j * rng.standard_normal(n) if two_sided else 0)
    work = StftWorkspace(n * 200)
    for t0 in (0.0, 12.34):
        values, _, frame_times = stft_magnitude(z, 100.0, 2.0, 0.1, t0)
        want = loop_reference.time_integral(values, frame_times)
        for w in (None, work, StftWorkspace(1)):
            assert np.array_equal(cepstrum._time_integral(values, frame_times, w), want)
        # as in extraction: the magnitudes are in the workspace whose transform is overwritten
        values, _, frame_times = stft_magnitude(z, 100.0, 2.0, 0.1, t0, work)
        assert np.array_equal(cepstrum._time_integral(values, frame_times, work), want)


# --- end-to-end feature extraction -----------------------------------------

@pytest.fixture(scope="module")
def tone_signal():
    fs = 100.0
    t = np.arange(1500) / fs
    phi = 0.3 * np.sin(2 * np.pi * 1.1 * t) + 0.05 * np.sin(2 * np.pi * 4.0 * t)
    return ComplexSeries((1.2 + 0.1 * np.cos(2 * np.pi * 0.9 * t)) * np.exp(1j * phi), fs)


def test_feature_dimensions(tone_signal):
    cfg = MelBankConfig()
    assert len(extract_features(tone_signal, cfg, 24, "comp")) == 48
    assert len(extract_features(tone_signal, cfg, 24, "amp")) == 24
    assert len(extract_features(tone_signal, cfg, 24, "ph")) == 24


def test_feature_extraction_deterministic(tone_signal):
    cfg = MelBankConfig()
    a = extract_features(tone_signal, cfg, 24, "comp")
    b = extract_features(tone_signal, cfg, 24, "comp")
    assert np.array_equal(a, b)


def test_comp_ordering_symmetric_for_real_signal():
    # a real-valued signal has a conjugate-symmetric spectrum, so the comp
    # vector must read the same from both ends: [C-(K'-1)..C-0, C+0..C+(K'-1)]
    rng = np.random.default_rng(11)
    s = ComplexSeries(rng.standard_normal(1200) + 0j, 100.0)
    vec = extract_features(s, MelBankConfig(), 24, "comp")
    neg, pos = vec[:24][::-1], vec[24:]
    scale = np.max(np.abs(pos))
    assert np.max(np.abs(neg - pos)) <= 1e-9 * scale


def test_amplitude_scaling_covariance(tone_signal):
    cfg = MelBankConfig()
    c = 3.0
    scaled = ComplexSeries(c * tone_signal.samples, tone_signal.fs)
    for kind in ("amp", "comp"):
        base = extract_features(tone_signal, cfg, 24, kind)
        got = extract_features(scaled, cfg, 24, kind)
        assert np.max(np.abs(got - c * base)) <= 1e-12 * np.max(np.abs(c * base))


def test_log_energies_changes_values(tone_signal):
    cfg = MelBankConfig()
    raw = extract_features(tone_signal, cfg, 24, "comp")
    logged = extract_features(tone_signal, cfg, 24, "comp", log_energies=True)
    assert not np.allclose(raw, logged)


def test_extract_errors(tone_signal):
    cfg = MelBankConfig()
    with pytest.raises(InvalidParameter, match="K'=64 must satisfy"):
        extract_features(tone_signal, cfg, 64, "comp")
    with pytest.raises(InvalidParameter, match="K'=0 must satisfy"):
        extract_features(tone_signal, cfg, 0, "comp")
    short = ComplexSeries(tone_signal.samples[:150], tone_signal.fs)
    with pytest.raises(PipelineError, match="does not fit a signal"):
        extract_features(short, cfg, 24, "comp")
    with pytest.raises(InvalidParameter):  # still a ValueError for callers
        extract_features(tone_signal, cfg, 24, "bogus")


def test_fuse_concatenation(tone_signal):
    cfg = MelBankConfig()
    prop = extract_features(tone_signal, cfg, 24, "prop")
    assert prop.shape == (96,) and prop.dtype == np.float64
    assert np.array_equal(prop[:24], extract_features(tone_signal, cfg, 24, "amp"))
    assert np.array_equal(prop[24:48], extract_features(tone_signal, cfg, 24, "ph"))
    assert np.array_equal(prop[48:], extract_features(tone_signal, cfg, 24, "comp"))


# --- single-pass extraction against the public building blocks ---------------

def _reference_features(s, cfg, k_prime, kind, window_len, hop, log_energies):
    """One branch composed from the public blocks, as the paper chains them.

    The complex branch's frame times start at its derivative's first sample,
    the amplitude's and phase's at 0.
    """
    bank = build_mel_bank(cfg, s.fs)

    def cep(m):
        return dct2(np.log(m + 1e-12) if log_energies else m)[:k_prime]

    if kind == "comp":
        spec = stft_magnitude(second_derivative(s.samples, s.fs), s.fs, window_len, hop,
                              s.t0 + 1.0 / s.fs)
        positive, negative = mel_energies(*spec, bank)
        return np.concatenate([cep(negative)[::-1], cep(positive)])
    base = np.abs(s.samples) if kind == "amp" else phase_unwrapped(s.samples)
    spec = stft_magnitude(second_derivative(base, s.fs), s.fs, window_len, hop)
    positive, _ = mel_energies(*spec, bank)
    return cep(positive)


def _heartbeat_like(n, fs, t0, seed):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / fs
    phi = 0.4 * np.sin(2 * np.pi * 1.2 * t) + np.cumsum(rng.normal(0, 0.01, n))
    amp = 1.5 + 0.1 * np.cos(2 * np.pi * 0.25 * t) + 0.02 * rng.standard_normal(n)
    return ComplexSeries(amp * np.exp(1j * phi), fs, t0)


@pytest.mark.parametrize(
    "n, cfg, window_len, hop, k_prime, log_energies, t0",  # cfg: (bank settings, fs)
    [
        (6000, (MelBankConfig(), 100.0), 2.0, 0.1, 24, False, 0.0),   # 60 s, paper settings
        (6000, (MelBankConfig(), 100.0), 2.0, 0.1, 24, True, 0.37),
        (500, (MelBankConfig(), 100.0), 2.0, 0.1, 1, False, 0.0),     # 5-s segment
        (500, (MelBankConfig(), 100.0), 2.01, 0.1, 63, True, 12.5),   # odd window, K' = L-1
        (202, (MelBankConfig(), 100.0), 2.0, 0.1, 24, False, 0.0),    # a single frame
        (1200, (MelBankConfig(n_filters=16), 40.0), 2.0, 0.25, 15, False, 0.0),
        (1200, (MelBankConfig(n_filters=16), 40.0), 1.525, 0.25, 1, True, 3.0),
    ],
)
def test_extraction_bit_identical_to_public_blocks(
    n, cfg, window_len, hop, k_prime, log_energies, t0
):
    cfg, fs = cfg
    s = _heartbeat_like(n, fs, t0, seed=n)
    refs = [_reference_features(s, cfg, k_prime, kind, window_len, hop, log_energies)
            for kind in ("amp", "ph", "comp")]
    # fresh arrays, one workspace shared by every call, and one too small to use
    for work in (None, StftWorkspace(n * int(round(window_len * fs))), StftWorkspace(1)):
        for kind, ref in zip(("amp", "ph", "comp"), refs):
            got = extract_features(s, cfg, k_prime, kind, window_len, hop, log_energies, work)
            assert np.array_equal(got, ref), kind
        prop = extract_features(s, cfg, k_prime, "prop", window_len, hop, log_energies, work)
        assert np.array_equal(prop, np.concatenate(refs))


def test_filter_bank_built_once_per_settings(monkeypatch):
    builds, responses = [], []
    build, respond = cepstrum.build_mel_bank, cepstrum.bank_response_matrix
    monkeypatch.setattr(cepstrum, "build_mel_bank",
                        lambda cfg, fs: builds.append((cfg, fs)) or build(cfg, fs))
    monkeypatch.setattr(
        cepstrum, "bank_response_matrix",
        lambda bank, f: responses.append(f.size) or respond(bank, f),
    )
    cepstrum._cached_bank.cache_clear()
    cepstrum._spectral_sides.cache_clear()
    settings = [MelBankConfig(), MelBankConfig(n_filters=32)]
    for cfg in settings:
        for seed in range(6):
            extract_features(_heartbeat_like(1500, 100.0, 0.0, seed), cfg, kind="prop")
    # one bank per settings; one response matrix per spectral side
    # (one-sided, two-sided positive, two-sided negative)
    assert builds == [(cfg, 100.0) for cfg in settings]
    assert len(responses) == 3 * len(settings)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_branch_intermediates_die_with_their_branch():
    s, cfg = _heartbeat_like(6000, 100.0, 0.0, seed=11), MelBankConfig()
    extract_features(s, cfg, kind="prop")  # warm the bank and response caches
    single = max(_traced_peak(lambda: extract_features(s, cfg, kind=kind))
                 for kind in ("amp", "ph", "comp"))
    assert _traced_peak(lambda: extract_features(s, cfg, kind="prop")) <= single + 64 * 1024
