"""Synthetic vital-sign cohort: chest displacement, baseband/cube rendering.

Stands in for a measured multi-session cohort.  Each simulated person has a
mean heart rate, beat-period jitter, a sum-of-Gaussians per-beat displacement
template (the waveform shape that makes people distinguishable), and a
respiration component.  Measurements follow a days x (am/pm) x repetitions
schedule with per-session nuisance variation so cross-validation folds are
non-trivially distinct.  Everything is a pure function of the seed.  The
displacement is a plain float64 array at the radar's slow-time rate; records
rendered from it are rendered block by block into their stored dtype, with
float64 noise added to the real parts of every block before the imaginary
parts.  A baseband record is a checked :class:`~heartid.signals.ComplexSeries`
in memory; a cube record exists only as its file, into which its complex64
samples are streamed.  Each record draws from its own seeds, so cube records,
whose noise draws release the GIL, render two at a time.  A cohort's record
length, and in cube mode the disk space its cube files need, are checked once,
when it is asked for, before any file or directory is made.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import shutil
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidParameter, PipelineError
from .radar import C_LIGHT, RadarConfig
from .signals import ComplexSeries

if TYPE_CHECKING:
    from .dataio import CubeFile

DEFAULT_DURATION = 60.0
DEFAULT_FS = 100.0
SESSION_AMP_SIGMA = 0.15  # log-normal spread of the per-session amplitude scale
SESSION_RATE_DRIFT = 0.05  # per-session heart-rate scale drawn from 1 +/- this
_RENDER_BLOCK = 2**14  # samples rendered at a time: 10 chirps of a cube
_BEAT_BLOCK = 64  # beats stamped at a time by displacement()


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from arbitrary labeled parts (hash-seed independent)."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True)
class GaussPulse:
    """One Gaussian lobe of the per-beat displacement template.

    Amplitude is relative (the profile's ``heart_amp_m`` sets the physical
    scale); center and width are fractions of the beat period.
    """

    amplitude: float
    center: float
    width: float


@dataclass(frozen=True)
class PersonProfile:
    """Physiological parameters of one simulated participant."""

    id: str
    heart_rate_hz: float
    hrv_std: float
    pulse_template: tuple[GaussPulse, ...]
    resp_rate_hz: float
    resp_amp_m: float
    heart_amp_m: float

    def __post_init__(self):
        if not 0.7 <= self.heart_rate_hz <= 2.0:
            raise InvalidParameter(f"heart rate {self.heart_rate_hz} outside 0.7-2.0 Hz")
        if not 0.1 <= self.resp_rate_hz <= 0.5:
            raise InvalidParameter(f"resp rate {self.resp_rate_hz} outside 0.1-0.5 Hz")
        if not 1e-5 <= self.heart_amp_m <= 5e-4:
            raise InvalidParameter(f"heart amplitude {self.heart_amp_m} outside 1e-5-5e-4 m")
        if not 1e-3 <= self.resp_amp_m <= 1e-2:
            raise InvalidParameter(f"resp amplitude {self.resp_amp_m} outside 1e-3-1e-2 m")
        if self.hrv_std < 0:
            raise InvalidParameter("beat-period jitter must be nonnegative")
        if not self.pulse_template:
            raise InvalidParameter("pulse template must have at least one lobe")
        for lobe in self.pulse_template:
            if not (np.all(np.isfinite([lobe.amplitude, lobe.center, lobe.width]))
                    and lobe.width > 0):
                raise InvalidParameter("pulse template lobes must be finite with width > 0")


@dataclass(frozen=True)
class Measurement:
    """One recorded sample: the rendered or loaded signal plus its bookkeeping labels."""

    signal: ComplexSeries | CubeFile
    label: str
    session_id: str
    repetition: int

    @property
    def duration(self) -> float:
        return self.signal.duration

    @property
    def is_cube(self) -> bool:
        return not isinstance(self.signal, ComplexSeries)


@dataclass(frozen=True)
class Schedule:
    """Measurement plan: one session per (day, half-day), several repetitions."""

    days: int = 5
    repetitions: int = 5

    @property
    def sessions(self) -> list[str]:
        return [f"d{d}{h}" for d in range(1, self.days + 1) for h in ("am", "pm")]


def n_samples(duration: float, fs: float) -> int:
    """The sample count of a ``duration``-s record at ``fs`` Hz.

    A duration that is not positive and finite, or a count that is under one
    or beyond the longest float64 array, raises :class:`InvalidParameter`.
    """
    if not 0 < duration < np.inf:
        raise InvalidParameter(f"duration must be positive and finite, got {duration}")
    if not duration * fs < np.iinfo(np.intp).max // 8:  # the longest float64 array
        raise InvalidParameter(f"duration {duration} s at fs {fs} Hz is too many samples")
    n = round(max(duration * fs, 0.0))
    if n < 1:
        raise InvalidParameter(f"duration {duration} s at fs {fs} Hz is under one sample")
    return n


def displacement(
    profile: PersonProfile,
    duration: float = DEFAULT_DURATION,
    fs: float = DEFAULT_FS,
    seed: int = 0,
    rate_scale: float = 1.0,
) -> np.ndarray:
    """Chest displacement d(t): respiration sinusoid plus a jittered pulse train.

    Returns d in metres as a float64 array sampled at ``fs``.  Beat onsets
    are spaced by 1/heart_rate plus Gaussian jitter (hrv_std); each beat
    stamps the profile's Gaussian template, scaled by heart_amp_m.
    Deterministic given the seed.  ``duration`` and ``fs`` are checked by
    :func:`n_samples`; ``fs`` below twice the beat rate
    ``heart_rate_hz * rate_scale`` raises :class:`InvalidParameter`.

    Beats are stamped ``_BEAT_BLOCK`` at a time, carrying only the next onset,
    so temporaries do not grow with the duration, bit for bit as a beat loop:
    a block's jitter is the generator's next scalar draws (nothing draws after
    the train), ``cumsum`` adds left to right, ``np.add.at`` in (beat, lobe) order.
    """
    n = n_samples(duration, fs)
    rate = profile.heart_rate_hz * rate_scale
    if not 0 < 2.0 * rate <= fs:  # also bounds the beat count by twice the sample count
        raise InvalidParameter(f"fs {fs} Hz cannot sample a {rate:g}-Hz heartbeat (needs twice)")
    rng = np.random.default_rng(seed)
    t = np.arange(n) / fs

    resp_phase = rng.uniform(0.0, 2.0 * np.pi)
    d = profile.resp_amp_m * np.sin(2.0 * np.pi * profile.resp_rate_hz * t + resp_phase)

    period = 1.0 / rate
    centers, sigmas, amps = np.array([(lobe.center * period, lobe.width * period, lobe.amplitude)
                                      for lobe in profile.pulse_template]).T
    # Start one beat before t=0 so the record begins mid-rhythm.
    onset = rng.uniform(0.0, period) - period
    heartbeat = np.zeros(n)
    while onset < duration:
        # maximum() guards against pathological jitter producing non-advancing beats
        steps = np.maximum(0.25 * period, period + rng.normal(0.0, profile.hrv_std, _BEAT_BLOCK))
        onsets = np.cumsum(np.concatenate(([onset], steps)))
        beats, onset = onsets[:-1], onsets[-1]
        mu = beats[beats < duration, None] + centers  # (beat, lobe)
        lo = np.clip(np.floor((mu - 5 * sigmas) * fs), 0, n).astype(np.intp)
        hi = np.clip(np.ceil((mu + 5 * sigmas) * fs) + 1, 0, n).astype(np.intp)
        b, j, k = np.nonzero(np.arange(max(0, int((hi - lo).max()))) < (hi - lo)[..., None])
        idx = lo[b, j] + k  # every stamped sample, in (beat, lobe, sample) order
        x = (t[idx] - mu[b, j]) / sigmas[j]
        np.add.at(heartbeat, idx, amps[j] * np.exp(-0.5 * x**2))
    heartbeat *= profile.heart_amp_m  # in place: no fourth output-sized array
    d += heartbeat
    return d


def _render(shape: tuple, dtype, noiseless, snr_db: float | None, seed: int,
            path: Path | None = None) -> np.ndarray | None:
    """A new ``dtype`` array of ``shape``, or file at ``path``: ``noiseless`` plus complex noise.

    ``noiseless`` writes the complex128 samples of slow-time ``rows``, blocks of
    about ``_RENDER_BLOCK`` samples, into ``buf``.  Noise 10^(-snr_db/10) below
    unit power is added in float64 to every block's real parts, then imaginary parts.
    A file gets the array's bytes without the array being held: the first pass
    writes each block with its real parts, the second reads the block back,
    adds the imaginary parts and rewrites it (see :func:`_new_file`).
    """
    if snr_db is not None and not snr_db >= -300:  # keeps complex64 noise finite
        raise InvalidParameter(f"snr_db must be at least -300 dB, got {snr_db}")
    step = max(1, _RENDER_BLOCK // int(np.prod(shape[1:])))
    # every block reuses these: fresh ones made the allocator return and re-fault their pages
    block = np.empty((min(step, shape[0]), *shape[1:]), np.complex128)
    noise = np.empty(block.shape)
    parts = [None]  # noiseless: each block is stored whole in one pass
    if snr_db is not None:
        rng = np.random.default_rng(seed)
        sigma = np.sqrt(10.0 ** (-snr_db / 10.0) / 2.0)
        parts = ["real", "imag"]
    nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
    with nullcontext() if path is None else _new_file(path, nbytes) as fh:
        out = np.empty(shape if fh is None else block.shape, dtype)  # the array, or a file block
        for part in parts:
            for s0 in range(0, shape[0], step):
                rows, n = slice(s0, s0 + step), min(step, shape[0] - s0)
                dest = out[rows] if fh is None else out[:n]
                at = s0 * out[0].nbytes  # the block's offset in the file
                if fh is not None and part == "imag":
                    fh.seek(at)
                    fh.readinto(dest)
                clean = noiseless(rows, block[:n])
                if part is None:
                    dest[...] = clean
                else:
                    buf = rng.standard_normal(out=noise[:n])
                    buf *= sigma
                    buf += getattr(clean, part)
                    getattr(dest, part)[...] = buf
                if fh is not None:
                    fh.seek(at)
                    fh.write(dest)
    return out if path is None else None


def _check_disk(path: Path, nbytes: int, needs: str = "needs") -> None:
    """Raise :class:`PipelineError` if the disk that holds, or will hold, ``path``
    has less than ``nbytes`` free."""
    free = shutil.disk_usage(next(p for p in (path, *path.parents) if p.exists())).free
    if nbytes > free:
        raise PipelineError(f"{path}: {needs} {nbytes} bytes, but its disk has {free} free")


@contextmanager
def _new_file(path: Path, nbytes: int):
    """``path`` opened as a new file for ``nbytes``, deleted again if the block raises.

    A file larger than its disk's free space, read as the file is opened,
    raises :class:`PipelineError` before it, or its directory, is made.  A
    cohort checks the space of all its cube files once, when it is asked for
    (see :func:`generate_cohort`), so this check fails only a direct
    :func:`render_cube` call or a disk that others fill.  A write can still
    fail on such a disk (an ``OSError``); its partial file is deleted too.
    """
    _check_disk(path, nbytes)
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(path, "w+b") as fh:
            yield fh
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def render_baseband(
    d: np.ndarray,
    cfg: RadarConfig,
    snr_db: float | None = None,
    seed: int = 0,
    amp_scale: float = 1.0,
    phase_offset: float = 0.0,
) -> ComplexSeries:
    """Displacement to unit-amplitude baseband: s(t) = exp(j 4 pi d(t)/lambda).

    ``d`` is sampled at the radar's slow-time rate ``cfg.fs_slow``.  Complex
    circular Gaussian noise of power 10^(-snr_db/10) relative to the unit
    carrier is added by :func:`_render`; ``snr_db=None`` renders noiselessly.
    """
    phase = 4.0 * np.pi * d / cfg.wavelength + phase_offset
    s = _render(phase.shape, np.complex128,
                lambda rows, buf: np.multiply(amp_scale, np.exp(1j * phase[rows]), out=buf),
                snr_db, seed)
    return ComplexSeries(s, cfg.fs_slow)


def render_cube(
    d: np.ndarray,
    cfg: RadarConfig,
    snr_db: float | None = None,
    seed: int = 0,
    range_m: float = 1.5,
    angle_deg: float = 0.0,
    amp_scale: float = 1.0,
    phase_offset: float = 0.0,
    *,
    path: Path,
) -> None:
    """Render displacement as a complex64 FMCW data cube file at ``path`` (stop-and-go beats).

    Per chirp, the target at R = range_m + d(t) produces a beat tone at
    2 B R / (c T_chirp) with carrier phase 4 pi R / lambda.  That chirp phasor
    is formed once per (slow, fast) sample and steered to each element of
    the virtual array by its half-wavelength phase factor.  Blocks of chirps
    are rendered in complex128, noised (see :func:`_render`) and streamed
    into a new cube file as the complex64 it holds; a cube exists only as
    that file, so the render holds a few blocks, not the cube.  Doppler within
    a chirp is neglected.  A file its disk cannot hold, by the free space
    read as the file is opened, raises :class:`PipelineError` before it is
    made; a render that fails deletes its partial file.
    """
    r = range_m + d  # (slow,)
    if np.any(r >= cfg.max_range):
        raise InvalidParameter(
            f"target range {r.max():g} m exceeds the unambiguous "
            f"span {cfg.max_range:g} m"
        )
    t_fast = np.arange(cfg.n_fast) * (cfg.chirp_duration / cfg.n_fast)
    f_beat = 2.0 * cfg.bandwidth * r / (C_LIGHT * cfg.chirp_duration)
    carrier = 4.0 * np.pi * r / cfg.wavelength + phase_offset
    dphi = 2.0 * np.pi * (cfg.element_spacing / cfg.wavelength) * np.sin(np.radians(angle_deg))
    steer = np.exp(1j * (dphi * np.arange(cfg.n_virtual)))[None, :, None]  # per element

    def noiseless(rows, buf):
        chirp = amp_scale * np.exp(
            1j * (2.0 * np.pi * f_beat[rows, None] * t_fast[None, :] + carrier[rows, None])
        )
        return np.multiply(chirp[:, None, :], steer, out=buf)

    _render((r.size, cfg.n_virtual, cfg.n_fast), "<c8", noiseless, snr_db, seed, path)


def session_nuisance(
    profile_id: str, session_id: str, seed: int
) -> tuple[float, float, float]:
    """Deterministic (amp_scale, phase_offset, rate_scale) for one session."""
    rng = np.random.default_rng(derive_seed(seed, "session", profile_id, session_id))
    amp_scale = float(np.exp(rng.normal(0.0, SESSION_AMP_SIGMA)))
    phase_offset = float(rng.uniform(0.0, 2.0 * np.pi))
    rate_scale = float(1.0 + rng.uniform(-SESSION_RATE_DRIFT, SESSION_RATE_DRIFT))
    return amp_scale, phase_offset, rate_scale


def _check_mode(mode: str, out_dir: Path | str | None) -> None:
    if mode not in ("baseband", "cube"):
        raise InvalidParameter(f"mode must be baseband or cube, got {mode!r}")
    if mode == "cube" and out_dir is None:
        raise InvalidParameter("a cube record exists only as its file: cube mode needs out_dir")


def record_file(label: str, session_id: str, repetition: int) -> str:
    """The name of a measurement's raw file in a dataset directory."""
    return f"{label}_{session_id}_r{repetition}.iq"


def simulate_measurement(
    profile: PersonProfile,
    session_id: str,
    repetition: int,
    seed: int = 0,
    snr_db: float | None = 20.0,
    duration: float = DEFAULT_DURATION,
    fs: float = DEFAULT_FS,
    mode: str = "baseband",
    out_dir: Path | str | None = None,
) -> tuple[Measurement, np.ndarray]:
    """Generate one measurement; also returns the injected displacement truth.

    The radar is the fixed :class:`RadarConfig` device at slow-time rate ``fs``.
    A baseband record is held in memory.  A cube record exists only as its
    file: it is streamed into its :func:`record_file` in ``out_dir``, which
    cube mode requires (see :func:`render_cube`), and the measurement reads it
    back block by block.
    """
    _check_mode(mode, out_dir)
    radar = RadarConfig(fs_slow=fs)
    amp_scale, phase_offset, rate_scale = session_nuisance(profile.id, session_id, seed)
    d_seed = derive_seed(seed, "disp", profile.id, session_id, repetition)
    n_seed = derive_seed(seed, "noise", profile.id, session_id, repetition)
    d = displacement(profile, duration, fs, d_seed, rate_scale)
    if mode == "baseband":
        signal: ComplexSeries | CubeFile = render_baseband(
            d, radar, snr_db, n_seed, amp_scale, phase_offset
        )
    else:
        from .dataio import read_cube  # dataio imports this module

        path = Path(out_dir) / record_file(profile.id, session_id, repetition)
        render_cube(d, radar, snr_db, n_seed, amp_scale=amp_scale, phase_offset=phase_offset,
                    path=path)
        signal = read_cube(path, radar, d.size)
    return Measurement(signal, profile.id, session_id, repetition), d


def generate_cohort(
    profiles: list[PersonProfile],
    schedule: Schedule | None = None,
    snr_db: float | None = 20.0,
    seed: int = 0,
    mode: str = "baseband",
    duration: float = DEFAULT_DURATION,
    fs: float = DEFAULT_FS,
    out_dir: Path | str | None = None,
) -> Iterator[Measurement]:
    """One measurement per (profile, session, repetition), deterministic in seed.

    The profile count, schedule, mode and record length (:func:`n_samples`)
    are checked at call time, and in cube mode so is the free space on the
    disk under ``out_dir``, which must hold every cube file; a cohort that
    fails raises before any file or directory is made.  Rendering starts when
    the returned iterator is first advanced.  Cube records render two at a
    time on threads (one on a single CPU), and are handed on in order, so a
    caller that consumes them one by one holds two at a time; baseband
    records, which render in about a millisecond, render one at a time in the
    caller's thread.  A cube record exists only as its file, so cube mode
    requires ``out_dir``: each cube is streamed into its file there (see
    :func:`simulate_measurement`), and a record held is a few blocks, not a cube.

    An error is raised when the record that raised it is reached, as rendering
    one at a time would; the record rendering beside it is finished first.
    Closing the iterator, or exhausting it, ends its threads.
    """
    if len(profiles) < 2:
        raise InvalidParameter("a cohort needs at least two profiles")
    schedule = schedule or Schedule()
    if schedule.days < 1 or schedule.repetitions < 1:
        raise InvalidParameter("schedule must contain at least one session and repetition")
    _check_mode(mode, out_dir)
    n_slow = n_samples(duration, RadarConfig(fs_slow=fs).fs_slow)  # the device checks fs first
    if mode == "cube":  # one complex64 (slow, element, fast) file per record
        records = len(profiles) * len(schedule.sessions) * schedule.repetitions
        cube_bytes = n_slow * RadarConfig.n_virtual * RadarConfig.n_fast * 8
        _check_disk(Path(out_dir), records * cube_bytes, f"{records} cube files need")

    def measure(profile: PersonProfile, session_id: str, rep: int) -> Measurement:
        return simulate_measurement(profile, session_id, rep, seed, snr_db, duration, fs,
                                    mode, out_dir)[0]

    jobs = itertools.product(profiles, schedule.sessions, range(1, schedule.repetitions + 1))
    return in_order(measure, jobs, lanes() if mode == "cube" else 1)


def lanes() -> int:
    """The width of ``in_order`` where side-by-side calls pay: 2, or 1 on a single CPU."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(2, cpus or 1)


def in_order(fn: Callable, jobs: Iterable[tuple], width: int) -> Iterator:
    """``fn(*job)`` for each job, in order, with up to ``width`` calls running on threads.

    A call starts only when the iterator is advanced: each advance tops the
    running calls up to ``width`` and waits for the oldest.  Its exception is
    raised there; the executor then waits for the calls still running, whose
    results and errors a serial run would never have reached.  Job k + width
    starts only after job k's result has been taken, so calls k and k + width
    never run at once and may share what job k % width owns.  A width of 1
    runs each call in the caller's thread.
    """
    if width == 1:
        yield from (fn(*job) for job in jobs)
        return
    with ThreadPoolExecutor(width) as pool:
        running = deque()
        for job in jobs:
            running.append(pool.submit(fn, *job))
            if len(running) == width:
                yield running.popleft().result()
        while running:
            yield running.popleft().result()


def segment(m: Measurement, seg_len: float) -> list[Measurement]:
    """Split a measurement into contiguous non-overlapping segments.

    ``seg_len`` must divide the duration exactly and be a whole number of
    samples, so that no sample is dropped; labels and session are inherited
    by every segment.  A cube's segments are slow-time ranges of its file
    (:meth:`~heartid.dataio.CubeFile.slow_range`), so the file is not read here.
    """
    if not seg_len > 0:  # also rejects NaN; an infinite length divides nothing
        raise InvalidParameter(f"segment length must be positive, got {seg_len}")
    n_seg = m.duration / seg_len
    n = m.signal.n_slow if m.is_cube else len(m.signal)
    if not n_seg <= n:  # also keeps an infinite count away from round()
        raise InvalidParameter(f"segment length {seg_len} s is shorter than one sample")
    if abs(n_seg - round(n_seg)) > 1e-9 or round(n_seg) < 1:
        raise InvalidParameter(
            f"segment length {seg_len} s does not divide {m.duration} s"
        )
    n_seg = int(round(n_seg))
    if n % n_seg:
        raise InvalidParameter(f"segment length {seg_len} s is not a whole number of samples: "
                               f"{n} samples do not split into {n_seg} equal segments")
    step = n // n_seg
    if m.is_cube:
        parts = [m.signal.slow_range(i * step, (i + 1) * step) for i in range(n_seg)]
    else:
        series: ComplexSeries = m.signal
        parts = [
            ComplexSeries(
                series.samples[i * step : (i + 1) * step],
                series.fs,
                series.t0 + i * step / series.fs,
            )
            for i in range(n_seg)
        ]
    return [Measurement(p, m.label, m.session_id, m.repetition) for p in parts]


def default_cohort() -> list[PersonProfile]:
    """Six well-separated participants: spread heart rates, distinct templates."""
    return [
        PersonProfile(
            "p1", 0.92, 0.020,
            (GaussPulse(1.0, 0.15, 0.060), GaussPulse(0.35, 0.45, 0.090)),
            0.22, 4.5e-3, 2.2e-4,
        ),
        PersonProfile(
            "p2", 1.10, 0.015,
            (GaussPulse(0.90, 0.10, 0.050), GaussPulse(0.55, 0.42, 0.045)),
            0.18, 5.5e-3, 1.6e-4,
        ),
        PersonProfile(
            "p3", 1.28, 0.030,
            (GaussPulse(1.0, 0.15, 0.025), GaussPulse(-0.30, 0.34, 0.040),
             GaussPulse(0.20, 0.50, 0.090)),
            0.30, 3.2e-3, 3.0e-4,
        ),
        PersonProfile(
            "p4", 1.45, 0.025,
            (GaussPulse(0.80, 0.08, 0.060), GaussPulse(0.35, 0.50, 0.030)),
            0.26, 6.0e-3, 1.2e-4,
        ),
        PersonProfile(
            "p5", 1.62, 0.022,
            (GaussPulse(1.0, 0.20, 0.045), GaussPulse(0.50, 0.60, 0.060),
             GaussPulse(-0.25, 0.80, 0.050)),
            0.35, 2.5e-3, 2.6e-4,
        ),
        PersonProfile(
            "p6", 1.80, 0.020,
            (GaussPulse(0.95, 0.10, 0.030), GaussPulse(-0.50, 0.25, 0.050),
             GaussPulse(0.30, 0.45, 0.040)),
            0.15, 5.0e-3, 1.9e-4,
        ),
    ]


def hard_cohort() -> list[PersonProfile]:
    """Stress preset: heart rates packed into 1.05-1.20 Hz (overlapping once
    session drift is applied), so identity rides almost entirely on the pulse
    waveform shape."""
    return [
        PersonProfile(
            "h1", 1.05, 0.030,
            (GaussPulse(1.0, 0.10, 0.030), GaussPulse(-0.50, 0.28, 0.050),
             GaussPulse(0.30, 0.55, 0.070)),
            0.24, 4.2e-3, 3.2e-4,
        ),
        PersonProfile(
            "h2", 1.08, 0.035,
            (GaussPulse(0.95, 0.14, 0.055), GaussPulse(0.45, 0.40, 0.035),
             GaussPulse(-0.25, 0.70, 0.060)),
            0.26, 4.8e-3, 2.8e-4,
        ),
        PersonProfile(
            "h3", 1.11, 0.028,
            (GaussPulse(1.0, 0.08, 0.040), GaussPulse(0.55, 0.30, 0.080),
             GaussPulse(0.20, 0.62, 0.035)),
            0.22, 4.5e-3, 3.6e-4,
        ),
        PersonProfile(
            "h4", 1.14, 0.040,
            (GaussPulse(0.85, 0.12, 0.065), GaussPulse(-0.40, 0.35, 0.030),
             GaussPulse(0.35, 0.58, 0.050)),
            0.28, 4.0e-3, 2.5e-4,
        ),
        PersonProfile(
            "h5", 1.17, 0.032,
            (GaussPulse(1.0, 0.16, 0.035), GaussPulse(0.40, 0.44, 0.060),
             GaussPulse(-0.30, 0.75, 0.045)),
            0.25, 5.0e-3, 3.0e-4,
        ),
        PersonProfile(
            "h6", 1.20, 0.036,
            (GaussPulse(0.90, 0.09, 0.050), GaussPulse(-0.55, 0.32, 0.040),
             GaussPulse(0.45, 0.50, 0.030)),
            0.23, 4.4e-3, 3.4e-4,
        ),
    ]


COHORT_PRESETS = {"default": default_cohort, "hard": hard_cohort}
