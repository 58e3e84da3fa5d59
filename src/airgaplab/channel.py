"""Parameterized software channel models for each exfiltration medium.

Each physical medium is reduced to what the published measurements actually
pin down - an achievable bit rate and a time budget for a 256-bit key - so
the models are throughput-faithful bit pipes (bandpass + AWGN for waveform
channels, multiplicative timing jitter for event channels), not field
simulations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.signal import butter, lfilter

from .modem import EventTrace, Waveform

WAVEFORM = "waveform"
TRACE = "trace"

DEFAULT_SNR_DB = 30.0
DEFAULT_JITTER = 0.10

# Fraction of a preset's catalog rate vs. the top of its published time
# window that still counts as in-budget once framing overhead is added.
TIME_BUDGET_FACTOR = 2.5


@dataclass(frozen=True)
class ChannelPreset:
    """One named channel model, pinned to a published time-budget row."""

    name: str
    nominal_bit_rate: float  # bits/second
    snr_db: float  # default signal-to-noise ratio (waveform kinds)
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


def _wf(name, rate, trange, band=None, snr=DEFAULT_SNR_DB):
    return ChannelPreset(name, rate, snr, band, 0.0, trange, WAVEFORM)


def _tr(name, rate, trange, jitter=DEFAULT_JITTER):
    return ChannelPreset(name, rate, DEFAULT_SNR_DB, None, jitter, trange, TRACE)


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
            f"{p.name},{p.nominal_bit_rate:g},{p.snr_db:g},{lo},{hi},"
            f"{p.jitter_fraction:g},{p.table_time_range[0]:g},{p.table_time_range[1]:g},{p.kind}"
        )
    return "\n".join(lines) + "\n"


def _bandpass(samples: np.ndarray, band: tuple[float, float], sample_rate: int) -> np.ndarray:
    nyq = sample_rate / 2.0
    lo = max(band[0], 1e-6) / nyq
    hi = min(band[1], nyq * 0.999999) / nyq
    b, a = butter(1, [lo, hi], btype="bandpass")  # one biquad: 2nd-order recursive
    return lfilter(b, a, samples)


def _burst_power(samples: np.ndarray) -> float:
    """Mean power over the active burst, excluding leading/trailing silence."""
    mag = np.abs(samples)
    peak = mag.max() if len(mag) else 0.0
    if peak <= 0.0:
        return 0.0
    active = np.nonzero(mag > 1e-6 * peak)[0]
    first, last = int(active[0]), int(active[-1])
    burst = samples[first : last + 1]
    return float(np.mean(burst * burst))


def apply_waveform_channel(
    w: Waveform,
    preset: ChannelPreset,
    snr_db: float | None = None,
    seed: int = 0,
) -> Waveform:
    """Bandpass -> additive white Gaussian noise, seeded.

    Noise variance is calibrated against the mean power of the active burst
    of the (filtered) signal so the requested SNR is what a receiver
    actually measures.  An infinite SNR with no passband is the identity.
    """
    if preset.kind != WAVEFORM:
        raise ValueError(f"preset {preset.name!r} is not a waveform channel")
    if snr_db is None:
        snr_db = preset.snr_db
    if math.isinf(snr_db) and snr_db > 0 and preset.band is None:
        return Waveform(w.sample_rate, w.samples.copy())
    out = w.samples
    if preset.band is not None:
        out = _bandpass(out, preset.band, w.sample_rate)
    if not (math.isinf(snr_db) and snr_db > 0):
        power = _burst_power(out)
        noise_var = power / (10.0 ** (snr_db / 10.0))
        rng = np.random.default_rng(seed)
        out = out + rng.normal(0.0, math.sqrt(noise_var), len(out))
    return Waveform(w.sample_rate, out)


def apply_trace_channel(t: EventTrace, preset: ChannelPreset, seed: int = 0) -> EventTrace:
    """Scale every event duration by an independent uniform jitter factor."""
    if preset.kind != TRACE:
        raise ValueError(f"preset {preset.name!r} is not a trace channel")
    j = preset.jitter_fraction
    if j == 0.0:
        return EventTrace(list(t.events))
    rng = np.random.default_rng(seed)
    factors = rng.uniform(1.0 - j, 1.0 + j, len(t.events))
    return EventTrace([(state, dur * f) for (state, dur), f in zip(t.events, factors)])


def with_jitter(preset: ChannelPreset, jitter_fraction: float) -> ChannelPreset:
    return replace(preset, jitter_fraction=jitter_fraction)
