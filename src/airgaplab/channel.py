"""Parameterized software channel models for each exfiltration medium.

Each physical medium is reduced to what the published measurements actually
pin down - an achievable bit rate and a time budget for a 256-bit key - so
the models are throughput-faithful bit pipes (bandpass + AWGN for waveform
channels, multiplicative timing jitter for event channels), not field
simulations.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from collections.abc import Callable
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from .modem import EventTrace, Waveform

WAVEFORM = "waveform"
TRACE = "trace"

DEFAULT_SNR_DB = 30.0
DEFAULT_JITTER = 0.10

# Fraction of a preset's catalog rate vs. the top of its published time
# window that still counts as in-budget once framing overhead is added.
TIME_BUDGET_FACTOR = 2.5

# Samples per block when the burst power scans for the burst's edges.
_SCAN_BLOCK = 4096
# Longest piece that the burst power squares, or that the noise scaling
# reads and writes, as one array: a piece stays in cache between passes.
_PIECE = 32768


@dataclass(frozen=True)
class ChannelPreset:
    """One named channel model, pinned to a published time-budget row."""

    name: str
    nominal_bit_rate: float  # bits/second
    band: tuple[float, float] | None  # passband in Hz, None = full band
    jitter_fraction: float  # event-channel timing jitter, 0..0.5
    table_time_range: tuple[float, float]  # published seconds for a 256-bit key
    kind: str  # WAVEFORM or TRACE

    def __post_init__(self) -> None:
        if self.nominal_bit_rate <= 0:
            raise ValueError("nominal_bit_rate must be positive")
        lo, hi = self.table_time_range
        if lo > hi:
            raise ValueError("table_time_range min > max")
        if not 0.0 <= self.jitter_fraction <= 0.5:
            raise ValueError("jitter_fraction outside 0..0.5")
        if self.kind not in (WAVEFORM, TRACE):
            raise ValueError(f"unknown kind {self.kind!r}")


def _wf(name, rate, trange, band=None):
    return ChannelPreset(name, rate, band, 0.0, trange, WAVEFORM)


def _tr(name, rate, trange):
    return ChannelPreset(name, rate, None, DEFAULT_JITTER, trange, TRACE)


# Published per-channel figures: bit rates where the source reports one,
# otherwise 256 bits divided across the published time window.
_PRESETS = (
    _wf("airhopper", 480.0, (0.0, 1.0)),
    _wf("gsmem", 2.0, (300.0, 300.0)),
    _wf("radiot", 50.0, (1.0, 50.0)),
    _wf("powerhammer", 10.0, (30.0, 300.0)),
    _wf("magnetic", 2.0, (70.0, 1000.0)),
    _wf("ultrasonic", 20.0, (1.0, 20.0), band=(15000.0, 21000.0)),
    _wf("mosquito", 20.0, (2.0, 20.0), band=(15000.0, 21000.0)),
    _tr("fansmitter", 0.2, (1000.0, 2000.0)),
    _tr("diskfiltration", 1.7, (100.0, 200.0)),
    _tr("kbd_led", 3.4, (50.0, 100.0)),
    _tr("hdd_led", 6.4, (10.0, 100.0)),
)

_BY_NAME = {p.name: p for p in _PRESETS}


def preset_catalog() -> list[ChannelPreset]:
    """All channel presets, one per published time-budget row."""
    return list(_PRESETS)


def lookup(name: str) -> ChannelPreset:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown channel preset {name!r}; see preset_catalog()") from None


def catalog_csv() -> str:
    """Catalog dump: name,rate,snr,band_lo,band_hi,jitter,tmin,tmax,kind."""
    lines = ["name,rate,snr,band_lo,band_hi,jitter,tmin,tmax,kind"]
    for p in _PRESETS:
        lo = f"{p.band[0]:g}" if p.band else ""
        hi = f"{p.band[1]:g}" if p.band else ""
        lines.append(
            f"{p.name},{p.nominal_bit_rate:g},{DEFAULT_SNR_DB:g},{lo},{hi},"
            f"{p.jitter_fraction:g},{p.table_time_range[0]:g},{p.table_time_range[1]:g},{p.kind}"
        )
    return "\n".join(lines) + "\n"


def _bandpass(samples: np.ndarray, band: tuple[float, float], sample_rate: int) -> np.ndarray:
    from scipy.signal import butter, lfilter  # here, not at the top: it dominates import time

    nyq = sample_rate / 2.0
    lo = max(band[0], 1e-6) / nyq
    hi = min(band[1], nyq * 0.999999) / nyq
    b, a = butter(1, [lo, hi], btype="bandpass")  # one biquad: 2nd-order recursive
    return lfilter(b, a, samples)


def _first_above(samples: np.ndarray, floor: float) -> int | None:
    """Index of the first sample whose magnitude exceeds floor, scanned a
    block at a time; None when there is none."""
    for a in range(0, len(samples), _SCAN_BLOCK):
        hits = np.flatnonzero(np.abs(samples[a : a + _SCAN_BLOCK]) > floor)
        if hits.size:
            return a + int(hits[0])
    return None


def _square_sum(x: np.ndarray) -> float:
    """np.add.reduce(x * x), bit for bit, with no full-length squares array.

    numpy sums a contiguous float64 array pairwise, splitting a run of n at
    n // 16 * 8; splitting at the same places, down to pieces of at most
    _PIECE, and adding the halves' sums repeats its every addition.
    """
    if len(x) <= _PIECE:
        return np.add.reduce(x * x)
    half = len(x) // 16 * 8
    return _square_sum(x[:half]) + _square_sum(x[half:])


def _burst_power(samples: np.ndarray) -> float:
    """Mean power over the active burst, excluding leading/trailing silence.

    The burst edges come from blocks scanned in from each end and the
    squares are summed a piece at a time, so nothing full-length is built;
    the result is np.mean(burst * burst).
    """
    if not len(samples):
        return 0.0
    peak = max(samples.max(), -samples.min())
    if peak <= 0.0:
        return 0.0
    floor = 1e-6 * peak
    first = _first_above(samples, floor)
    if first is None:  # nothing above a NaN or inf peak's floor: the whole signal
        burst = samples
    else:
        burst = samples[first : len(samples) - _first_above(samples[::-1], floor)]
    return float(_square_sum(burst) / len(burst))


def _rng(seed: int) -> np.random.Generator:
    """Noise stream of a seed taken mod 2**64, so negative seeds work."""
    return np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)


def _snr_ratio(snr_db: float) -> float:
    """Signal-to-noise power ratio; ValueError when it is NaN or not above 0."""
    try:
        ratio = 10.0 ** (snr_db / 10.0)
    except OverflowError:  # finite but above ~3082 dB: the noise scales to zero
        ratio = math.inf
    if not ratio > 0.0:
        raise ValueError(f"SNR must be +inf or a number of dB above about -3200, not {snr_db}")
    return ratio


_worker = None
_worker_lock = threading.Lock()


def _noise_worker():
    """The process's one noise-drawing thread pool, made on first use: a
    pool per run paid a thread start and join every run."""
    global _worker
    with _worker_lock:
        if _worker is None:
            from concurrent.futures import ThreadPoolExecutor  # here: runs that draw no noise skip its import

            _worker = ThreadPoolExecutor(1, thread_name_prefix="airgaplab-noise")
        return _worker


def _forget_worker() -> None:
    """In a forked child: the parent's worker thread does not exist there,
    and its pool, which counts the thread as idle, would never run a draw."""
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_worker)


@contextmanager
def noise_draw(preset: ChannelPreset, n_samples: int, snr_db: float = DEFAULT_SNR_DB, seed: int = 0):
    """Start the unit-variance noise of one waveform channel pass.

    Yields a pending draw of n_samples for apply_waveform_channel's `noise`,
    which adds it to a signal of that length for the same preset, SNR and
    seed.  The SNR is checked before anything is drawn.  At finite SNR the
    block's thread allocates the buffer and one long-lived worker thread
    fills it while the block runs; leaving the block, also by an exception,
    waits for the fill.  At infinite SNR, where the channel asks for no
    noise, nothing is allocated or started.
    """
    if preset.kind != WAVEFORM:
        raise ValueError(f"preset {preset.name!r} is not a waveform channel")
    _snr_ratio(snr_db)
    if math.isinf(snr_db):
        yield functools.partial(_rng(seed).standard_normal, n_samples)
        return
    # Allocated on this thread: an array the worker allocated came from its
    # own malloc arena and took about 1 000 page faults a gsmem run.
    # standard_normal(out=buf) draws the stream standard_normal(n) returns.
    buf = np.empty(n_samples)
    pending = _noise_worker().submit(_rng(seed).standard_normal, out=buf)
    try:
        yield pending.result
    finally:
        pending.exception()  # waits for the fill without raising its error over the block's


def apply_waveform_channel(
    w: Waveform,
    preset: ChannelPreset,
    snr_db: float = DEFAULT_SNR_DB,
    seed: int = 0,
    noise: Callable[[], np.ndarray] | None = None,
) -> Waveform:
    """Bandpass -> additive white Gaussian noise, seeded.

    Noise variance is calibrated against the mean power of the active burst
    of the (filtered) signal so the requested SNR is what a receiver
    actually measures.  An infinite SNR with no passband is the identity;
    a NaN or -inf SNR, or one so low that its power ratio underflows to
    zero, raises ValueError before any noise is drawn.  `noise` is a draw
    from noise_draw started for this call; without one the call starts its
    own, so the noise worker draws while this thread filters and measures
    the burst.  numpy's normal(0, s) is 0 + s*z over the same standard
    normal stream, so the samples are those of normal(0, s, n) + filtered
    either way.
    """
    with nullcontext(noise) if noise is not None else noise_draw(preset, len(w.samples), snr_db, seed) as noise:
        if preset.band is None:
            if math.isinf(snr_db):
                return Waveform(w.sample_rate, w.samples.copy())
            out = w.samples
        else:
            out = _bandpass(w.samples, preset.band, w.sample_rate)
            if math.isinf(snr_db):
                return Waveform(w.sample_rate, out)
        power = _burst_power(out)
        samples = noise()
    scale = math.sqrt(power / _snr_ratio(snr_db))
    for a in range(0, len(samples), _PIECE):
        piece = samples[a : a + _PIECE]
        piece *= scale
        piece += out[a : a + _PIECE]
    return Waveform(w.sample_rate, samples)


def apply_trace_channel(t: EventTrace, preset: ChannelPreset, seed: int = 0) -> EventTrace:
    """Scale every event duration by an independent uniform jitter factor."""
    if preset.kind != TRACE:
        raise ValueError(f"preset {preset.name!r} is not a trace channel")
    j = preset.jitter_fraction
    if j == 0.0:
        return EventTrace(list(t.events))
    factors = _rng(seed).uniform(1.0 - j, 1.0 + j, len(t.events))
    return EventTrace([(state, dur * f) for (state, dur), f in zip(t.events, factors)])
