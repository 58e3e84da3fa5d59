"""Physical layer: bits to waveforms (OOK / binary FSK) and on-off event traces.

Waveform modems cover the acoustic channels and the modeled EM/electric/
magnetic pipes; event traces cover blink/RPM-style timing channels (keyboard
LEDs, HDD LED, fan and disk noise) where the observable is just on/off state
over time.
"""

from __future__ import annotations

import csv
import math
import struct
import wave
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyTrace, MalformedInput, NyquistViolation, SignalTooShort, SymbolRateTooHigh
from .keyframe import HEADER_PATTERN, find_header

MIN_SAMPLES_PER_SYMBOL = 8

# Preamble-based symbol-timing search: offsets up to +/-1 symbol are scored
# by how preamble-like (alternating) the first decision windows look, but a
# shifted grid is only adopted when its decoded bits actually contain the
# frame header and the unshifted bits do not.  Payload data that merely
# tends to alternate therefore never pulls the grid sideways, which keeps
# arbitrary (unframed) bit round trips exact, while a genuinely misaligned
# frame still snaps into place.
TIMING_SCORE_GATE = 0.75
TIMING_PROBE_SYMBOLS = 16
HEADER_MATCH_TOLERANCE = 2


@dataclass
class Waveform:
    """Sampled real-valued signal; the carrier for audio-class channels."""

    sample_rate: int
    samples: np.ndarray

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass
class ModemConfig:
    scheme: str = "ook"  # "ook" or "bfsk"
    symbol_rate: float = 20.0
    sample_rate: int = 48000
    f_carrier: float = 18000.0  # OOK tone
    f0: float = 17500.0  # BFSK space tone
    f1: float = 18500.0  # BFSK mark tone
    amplitude: float = 0.8

    @property
    def samples_per_symbol(self) -> float:
        return self.sample_rate / self.symbol_rate

    def tones(self) -> list[float]:
        return [self.f_carrier] if self.scheme == "ook" else [self.f0, self.f1]

    def validate(self) -> None:
        if self.scheme not in ("ook", "bfsk"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.symbol_rate <= 0:
            raise ValueError("symbol_rate must be positive")
        if not 0.0 <= self.amplitude <= 1.0:
            raise ValueError("amplitude must lie in [0, 1]")
        if self.scheme == "bfsk" and self.f0 == self.f1:
            raise ValueError("BFSK requires two distinct tones")
        for tone in self.tones():
            if tone >= self.sample_rate / 2:
                raise NyquistViolation(f"tone {tone} Hz >= Nyquist {self.sample_rate / 2} Hz")
        if self.samples_per_symbol < MIN_SAMPLES_PER_SYMBOL:
            raise SymbolRateTooHigh(
                f"{self.samples_per_symbol:.2f} samples/symbol < {MIN_SAMPLES_PER_SYMBOL}"
            )


@dataclass
class EventTrace:
    """Ordered (state, duration_ms) sequence; state is 'on' or 'off'."""

    events: list[tuple[str, float]] = field(default_factory=list)

    def total_ms(self) -> float:
        return sum(d for _, d in self.events)

    def normalized(self) -> "EventTrace":
        """Merge consecutive same-state events and drop zero durations."""
        merged: list[tuple[str, float]] = []
        for state, dur in self.events:
            if dur <= 0:
                continue
            if merged and merged[-1][0] == state:
                merged[-1] = (state, merged[-1][1] + dur)
            else:
                merged.append((state, dur))
        return EventTrace(merged)


def _symbol_boundaries(n_symbols: int, cfg: ModemConfig) -> np.ndarray:
    """Per-symbol sample boundaries, rounded without accumulating drift."""
    idx = np.arange(n_symbols + 1, dtype=np.float64)
    return np.round(idx * cfg.sample_rate / cfg.symbol_rate).astype(np.int64)


def ook_modulate(bits, cfg: ModemConfig) -> Waveform:
    """On-off keying: '1' is a sine burst at f_carrier, '0' is silence."""
    cfg.validate()
    if cfg.scheme != "ook":
        raise ValueError("config scheme is not OOK")
    bits = np.asarray(list(bits), dtype=np.int8)
    if bits.size == 0:
        return Waveform(cfg.sample_rate, np.zeros(0))
    bounds = _symbol_boundaries(bits.size, cfg)
    total = int(bounds[-1])
    gate = np.repeat(bits.astype(np.float64), np.diff(bounds))
    n = np.arange(total, dtype=np.float64)
    carrier = np.sin(2.0 * np.pi * cfg.f_carrier * n / cfg.sample_rate)
    return Waveform(cfg.sample_rate, cfg.amplitude * gate * carrier)


def bfsk_modulate(bits, cfg: ModemConfig) -> Waveform:
    """Binary FSK, continuous phase: '0' -> f0, '1' -> f1."""
    cfg.validate()
    if cfg.scheme != "bfsk":
        raise ValueError("config scheme is not BFSK")
    bits = np.asarray(list(bits), dtype=np.int8)
    if bits.size == 0:
        return Waveform(cfg.sample_rate, np.zeros(0))
    bounds = _symbol_boundaries(bits.size, cfg)
    freqs = np.where(bits > 0, cfg.f1, cfg.f0).astype(np.float64)
    omega = np.repeat(2.0 * np.pi * freqs / cfg.sample_rate, np.diff(bounds))
    # Phase accumulator carried over symbol boundaries; first sample at phase 0.
    phase = np.concatenate(([0.0], np.cumsum(omega[:-1])))
    return Waveform(cfg.sample_rate, cfg.amplitude * np.sin(phase))


class _ToneBank:
    """Cumulative single-bin correlators, computed once per waveform.

    Window sums at any offset are then two array lookups, so the timing
    search over nine candidate offsets costs no extra passes over the
    signal.
    """

    def __init__(self, samples: np.ndarray, cfg: ModemConfig):
        self.n_samples = len(samples)
        self.cfg = cfg
        n = np.arange(self.n_samples, dtype=np.float64)
        self._cums = {}
        for tone in cfg.tones():
            angles = 2.0 * np.pi * tone * n / cfg.sample_rate
            ccum = np.concatenate(([0.0], np.cumsum(samples * np.cos(angles))))
            scum = np.concatenate(([0.0], np.cumsum(samples * np.sin(angles))))
            self._cums[tone] = (ccum, scum)

    def _energies(self, tone: float, bounds: np.ndarray) -> np.ndarray:
        ccum, scum = self._cums[tone]
        starts = np.clip(bounds[:-1], 0, self.n_samples)
        ends = np.clip(bounds[1:], 0, self.n_samples)
        c = ccum[ends] - ccum[starts]
        s = scum[ends] - scum[starts]
        return c * c + s * s

    def soft_symbols(self, offset: int, n_symbols: int) -> np.ndarray:
        """Per-symbol decision statistic at a given sample offset.

        OOK: correlation energy at the carrier.  BFSK: energy(f1) - energy(f0).
        """
        bounds = _symbol_boundaries(n_symbols, self.cfg) + offset
        if self.cfg.scheme == "ook":
            return self._energies(self.cfg.f_carrier, bounds)
        return self._energies(self.cfg.f1, bounds) - self._energies(self.cfg.f0, bounds)


def _alternation_score(soft: np.ndarray) -> float:
    """How strongly the first windows alternate high/low (preamble shape)."""
    centered = soft - soft.mean()
    denom = np.abs(centered).sum()
    if denom <= 0:
        return 0.0
    signs = np.where(np.arange(len(centered)) % 2 == 0, 1.0, -1.0)
    return float(abs((signs * centered).sum()) / denom)


def _propose_offset(bank: _ToneBank, n_symbols: int) -> int:
    sps = bank.cfg.samples_per_symbol
    step = max(1, int(round(sps / 4)))
    probe = min(TIMING_PROBE_SYMBOLS, n_symbols)
    if probe < 8:
        return 0
    zero_score = _alternation_score(bank.soft_symbols(0, probe))
    best_off, best_score = 0, zero_score
    for k in sorted(range(-4, 5), key=abs):
        if k == 0:
            continue
        off = k * step
        score = _alternation_score(bank.soft_symbols(off, probe))
        if score > best_score + 1e-12:
            best_off, best_score = off, score
    if best_off != 0 and best_score < TIMING_SCORE_GATE:
        return 0
    return best_off


def _ook_threshold(energies: np.ndarray, cfg: ModemConfig) -> float:
    """Midpoint between the two energy clusters (2-means), gain-agnostic.

    Degenerate single-cluster inputs (all-silence or all-tone) fall back to
    an absolute quarter-of-nominal-burst-energy test.
    """
    lo, hi = float(energies.min()), float(energies.max())
    nominal = (cfg.amplitude * cfg.samples_per_symbol / 2.0) ** 2
    if hi <= 0.0 or hi - lo <= 1e-9 * hi:
        center = (hi + lo) / 2.0
        return -1.0 if center > nominal / 4.0 else nominal / 4.0
    c_lo, c_hi = lo, hi
    for _ in range(16):
        mid = (c_lo + c_hi) / 2.0
        low_side = energies[energies <= mid]
        high_side = energies[energies > mid]
        if len(low_side) == 0 or len(high_side) == 0:
            break
        c_lo, c_hi = float(low_side.mean()), float(high_side.mean())
    if (c_hi - c_lo) < 0.25 * max(c_hi, 1e-300):
        # One real cluster: decide it collectively against the nominal burst.
        center = (c_hi + c_lo) / 2.0
        return -1.0 if center > nominal / 4.0 else nominal / 4.0
    return (c_lo + c_hi) / 2.0


def _harden(soft: np.ndarray, cfg: ModemConfig) -> list[int]:
    if cfg.scheme == "ook":
        threshold = _ook_threshold(soft, cfg)
        return [1 if e > threshold else 0 for e in soft]
    return [1 if v > 0 else 0 for v in soft]


def _demodulate(w: Waveform, cfg: ModemConfig) -> list[int]:
    if w.sample_rate != cfg.sample_rate:
        raise ValueError("waveform/config sample rate mismatch")
    sps = cfg.samples_per_symbol
    n_symbols = int(round(len(w.samples) / sps))
    if n_symbols < 1:
        raise SignalTooShort(f"{len(w.samples)} samples < one symbol ({sps:.0f})")
    bank = _ToneBank(w.samples, cfg)
    aligned = _harden(bank.soft_symbols(0, n_symbols), cfg)
    proposed = _propose_offset(bank, n_symbols)
    if proposed == 0:
        return aligned
    shifted = _harden(bank.soft_symbols(proposed, n_symbols), cfg)
    if find_header(shifted, HEADER_PATTERN, HEADER_MATCH_TOLERANCE) and not find_header(
        aligned, HEADER_PATTERN, HEADER_MATCH_TOLERANCE
    ):
        return shifted
    return aligned


def ook_demodulate(w: Waveform, cfg: ModemConfig) -> list[int]:
    """Energy detection per symbol window with adaptive threshold."""
    cfg.validate()
    if cfg.scheme != "ook":
        raise ValueError("config scheme is not OOK")
    return _demodulate(w, cfg)


def bfsk_demodulate(w: Waveform, cfg: ModemConfig) -> list[int]:
    """Per-symbol tone comparison: '1' iff energy at f1 exceeds energy at f0."""
    cfg.validate()
    if cfg.scheme != "bfsk":
        raise ValueError("config scheme is not BFSK")
    return _demodulate(w, cfg)


def trace_modulate(bits, on_ms: float, off_ms: float) -> EventTrace:
    """Time-slot code: a '1' slot is on for on_ms then off for off_ms;
    a '0' slot stays off for the whole on_ms+off_ms."""
    if on_ms <= 0 or off_ms <= 0:
        raise ValueError("slot durations must be positive")
    events: list[tuple[str, float]] = []
    for bit in bits:
        if bit:
            events.append(("on", float(on_ms)))
            events.append(("off", float(off_ms)))
        else:
            events.append(("off", float(on_ms) + float(off_ms)))
    return EventTrace(events)


def trace_demodulate(trace: EventTrace, on_ms: float, off_ms: float) -> list[int]:
    """Re-slot a (possibly jittered) trace back into bits.

    The slot grid is re-anchored at every on/off edge, so per-event timing
    jitter never accumulates across the trace: each off event is mapped to
    a whole number of '0' slots on its own, which stays exact for jitter
    below half a slot.
    """
    if on_ms <= 0 or off_ms <= 0:
        raise ValueError("slot durations must be positive")
    if not trace.events:
        raise EmptyTrace("trace contains no events")
    slot = float(on_ms) + float(off_ms)
    bits: list[int] = []
    prev_on = False
    for state, dur in trace.events:
        if dur < 0:
            raise ValueError("negative event duration")
        if state == "on":
            bits.extend([1] * max(1, int(round(dur / on_ms))))
            prev_on = True
        elif state == "off":
            tail = off_ms if prev_on else 0.0
            bits.extend([0] * max(0, int(round((dur - tail) / slot))))
            prev_on = False
        else:
            raise ValueError(f"unknown event state {state!r}")
    return bits


# ---- file formats ----


def write_wav(path: str, w: Waveform) -> None:
    """RIFF/PCM mono, 16-bit signed little-endian; samples scaled by 32767."""
    pcm = np.clip(np.round(w.samples * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(path, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(w.sample_rate)
        fh.writeframes(pcm.tobytes())


def read_wav(path: str) -> Waveform:
    with wave.open(path, "rb") as fh:
        if fh.getnchannels() != 1 or fh.getsampwidth() != 2:
            raise ValueError("expected mono 16-bit PCM")
        rate = fh.getframerate()
        raw = fh.readframes(fh.getnframes())
    count = len(raw) // 2
    samples = np.array(struct.unpack(f"<{count}h", raw), dtype=np.float64) / 32767.0
    return Waveform(rate, samples)


def write_trace_csv(path: str, trace: EventTrace) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["state", "duration_ms"])
        for state, dur in trace.events:
            writer.writerow([state, f"{dur:.6f}"])


def read_trace_csv(path: str) -> EventTrace:
    """Parse state,duration_ms rows; the header row is optional."""
    events: list[tuple[str, float]] = []
    with open(path, newline="") as fh:
        for number, row in enumerate(csv.reader(fh), 1):
            if not row or (number == 1 and row[0] == "state"):
                continue
            try:
                duration = float(row[1])
            except (IndexError, ValueError):
                raise MalformedInput(f"trace row {number}: want state,duration_ms, got {row}") from None
            if not math.isfinite(duration):
                raise MalformedInput(f"trace row {number}: duration {row[1]!r} is not finite")
            events.append((row[0], duration))
    return EventTrace(events)
