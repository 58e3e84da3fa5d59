"""Physical layer: bits to waveforms (OOK / binary FSK) and on-off event traces.

Waveform modems cover the acoustic channels and the modeled EM/electric/
magnetic pipes; event traces cover blink/RPM-style timing channels (keyboard
LEDs, HDD LED, fan and disk noise) where the observable is just on/off state
over time.
"""

from __future__ import annotations

import csv
import math
import wave
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EmptyTrace, NyquistViolation, SignalTooShort, SymbolRateTooHigh
from .keyframe import HEADER_PATTERN, find_header

MIN_SAMPLES_PER_SYMBOL = 8
# Largest (symbols x ceil(samples per symbol)) grid the transmitter builds:
# 512 MiB of float64 rows, far above the 1.25 M samples of a preset's key frame.
MAX_TX_SAMPLES = 2**26

HEADER_MATCH_TOLERANCE = 2

# Peak of every transmitted tone: a constant, not a setting, because the
# channel scales its noise to the received power, so the SNR sets the errors.
AMPLITUDE = 0.8


@dataclass
class Waveform:
    """Sampled real-valued signal; the carrier for audio-class channels."""

    sample_rate: int
    samples: np.ndarray

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class ModemConfig:
    """One tone is OOK at that carrier; two tones are BFSK, as (space, mark).

    Checked once, on construction: a config that exists is valid.
    """

    tones: tuple[float, ...] = (18000.0,)
    symbol_rate: float = 20.0
    sample_rate: int = 48000

    @property
    def scheme(self) -> str:
        return "ook" if len(self.tones) == 1 else "bfsk"

    @property
    def samples_per_symbol(self) -> float:
        return self.sample_rate / self.symbol_rate

    def __post_init__(self) -> None:
        if len(set(self.tones)) != len(self.tones) or not 1 <= len(self.tones) <= 2:
            raise ValueError(f"tones {self.tones}: OOK takes one tone, BFSK two distinct ones")
        if not self.symbol_rate > 0:
            raise ValueError("symbol_rate must be positive")
        for tone in self.tones:
            if tone >= self.sample_rate / 2:
                raise NyquistViolation(f"tone {tone} Hz >= Nyquist {self.sample_rate / 2} Hz")
            if not math.isfinite(tone):
                raise ValueError(f"tone {tone} Hz is not finite")
        if self.samples_per_symbol < MIN_SAMPLES_PER_SYMBOL:
            raise SymbolRateTooHigh(
                f"{self.samples_per_symbol:.2f} samples/symbol < {MIN_SAMPLES_PER_SYMBOL}"
            )


@dataclass
class EventTrace:
    """Ordered (state, duration_ms) sequence; state is 'on' or 'off'."""

    events: list[tuple[str, float]] = field(default_factory=list)


def _symbol_boundaries(n_symbols: int, cfg: ModemConfig) -> np.ndarray:
    """Per-symbol sample boundaries, rounded without accumulating drift."""
    idx = np.arange(n_symbols + 1, dtype=np.float64)
    return np.round(idx * cfg.sample_rate / cfg.symbol_rate).astype(np.int64)


def sample_count(n_symbols: int, cfg: ModemConfig) -> int:
    """Samples in the waveform of n_symbols symbols on cfg's grid.

    Raises ValueError when the transmit grid (symbols x ceil(sps)) exceeds
    MAX_TX_SAMPLES, so a caller can size a buffer before any is built.
    """
    sps = cfg.samples_per_symbol
    width = math.ceil(sps) if math.isfinite(sps) else sps  # math.ceil would overflow; an inf or NaN grid fails below
    if not n_symbols * width <= MAX_TX_SAMPLES:
        raise ValueError(f"{n_symbols} symbols of {width} samples exceed the {MAX_TX_SAMPLES}-sample limit")
    return int(_symbol_boundaries(n_symbols, cfg)[-1])


def _synthesize(bits, cfg: ModemConfig) -> Waveform:
    """Continuous-phase tone per symbol, from per-bit cos/sin tables.

    Symbol k sends A*sin(phi_k + w*j) for j < its length, which equals
    sin(phi_k)*A*cos(w*j) + cos(phi_k)*A*sin(w*j): one row of a
    (symbols x 4) by (4 x ceil(sps)) product.  phi_k does not drift: it is
    the tone cycles f*N/sample_rate of the N samples each tone has sent so
    far, reduced mod 1 from f's whole part (an exact integer product) and
    its fraction separately.  On an integer grid the rows are the samples;
    otherwise rows for floor(sps)-long symbols lose their last column to a
    mask.
    """
    bits = np.asarray(list(bits))
    if not np.all((bits == 0) | (bits == 1)):
        raise ValueError("bits must be 0 or 1")
    total = sample_count(bits.size, cfg)
    width = math.ceil(cfg.samples_per_symbol)
    bits = bits.astype(np.intp)
    # Tone and amplitude of bit 0 and bit 1.  An OOK '0' is the carrier at
    # zero amplitude, so the carrier's phase keeps running through it.
    freqs = np.resize(np.asarray(cfg.tones, np.float64), 2)
    gains = np.array([0.0 if cfg.scheme == "ook" else AMPLITUDE, AMPLITUDE])
    lengths = np.diff(_symbol_boundaries(bits.size, cfg))
    per_tone = lengths[:, None] * (bits[:, None] == np.arange(2))
    sent = np.cumsum(per_tone, axis=0) - per_tone  # samples at each tone before symbol k
    whole = np.floor(freqs)
    cycles = (np.fmod(sent * whole, cfg.sample_rate) + sent * (freqs - whole)) / cfg.sample_rate
    phase = 2.0 * np.pi * np.remainder(cycles.sum(axis=1), 1.0)
    coef = np.zeros((bits.size, 2, 2))
    coef[np.arange(bits.size), bits] = np.column_stack((np.sin(phase), np.cos(phase)))
    angles = np.outer(2.0 * np.pi * freqs / cfg.sample_rate, np.arange(width))
    table = np.stack((np.cos(angles), np.sin(angles)), axis=1) * gains[:, None, None]
    # einsum, not @: this 4-deep product is memory-bound; threaded BLAS only slows it.
    rows = np.einsum("kt,tj->kj", coef.reshape(bits.size, 4), table.reshape(4, width))
    if total == rows.size:  # every symbol is width samples long
        return Waveform(cfg.sample_rate, rows.reshape(-1))
    return Waveform(cfg.sample_rate, rows[np.arange(width) < lengths[:, None]])


def _checked(cfg: ModemConfig, scheme: str) -> ModemConfig:
    """cfg, once it is of the entry point's scheme."""
    if cfg.scheme != scheme:
        raise ValueError(f"config scheme is not {scheme.upper()}")
    return cfg


def ook_modulate(bits, cfg: ModemConfig) -> Waveform:
    """On-off keying: '1' is a sine burst at the one tone, '0' is silence."""
    return _synthesize(bits, _checked(cfg, "ook"))


def bfsk_modulate(bits, cfg: ModemConfig) -> Waveform:
    """Binary FSK, continuous phase: '0' -> the space tone, '1' -> the mark tone."""
    return _synthesize(bits, _checked(cfg, "bfsk"))


class _ToneBank:
    """Single-bin (DFT-bin / Goertzel) correlators over every symbol window.

    A window's energy |sum x[n] exp(-j w n)|^2 does not depend on where n
    starts counting, so each window, as a row of samples, is dotted with
    every row of one small (2*tones x width) cos/sin table.  Windows are
    gathered BLOCK at a time straight from the samples; a window past
    either end reads zeros there, as if clipped.
    """

    BLOCK = 64

    def __init__(self, samples: np.ndarray, cfg: ModemConfig):
        self.cfg = cfg
        self.width = math.ceil(cfg.samples_per_symbol)
        self.samples = np.asarray(samples, dtype=np.float64)
        angles = np.outer(2.0 * np.pi * np.asarray(cfg.tones) / cfg.sample_rate, np.arange(self.width))
        self._table = np.vstack((np.cos(angles), np.sin(angles)))

    def _windows(self, starts: np.ndarray) -> np.ndarray:
        """A fresh (len(starts) x width) array of the windows at ascending starts."""
        lo, hi = int(starts[0]), int(starts[-1]) + self.width
        n = len(self.samples)
        if 0 <= lo and hi <= n:
            return sliding_window_view(self.samples, self.width)[starts]
        span = np.zeros(hi - lo)
        a, b = max(lo, 0), min(hi, n)
        if a < b:
            span[a - lo : b - lo] = self.samples[a:b]
        return sliding_window_view(span, self.width)[starts - lo]

    def soft_symbols(self, offset: int, n_symbols: int) -> np.ndarray:
        """Per-symbol decision statistic at a given sample offset.

        OOK: correlation energy at the carrier.  BFSK: energy(mark) - energy(space).
        """
        bounds = _symbol_boundaries(n_symbols, self.cfg) + offset
        starts, short = bounds[:-1], np.diff(bounds) < self.width  # short: floor(sps)-long windows
        proj = np.empty((n_symbols, len(self._table)))
        for i in range(0, n_symbols, self.BLOCK):
            windows = self._windows(starts[i : i + self.BLOCK])
            windows[short[i : i + self.BLOCK], -1] = 0.0
            # Per-window dot products, not a threaded windows @ table GEMM:
            # after the GEMM, OpenBLAS workers hold the second CPU that the
            # channel's noise thread needs.
            proj[i : i + self.BLOCK] = np.vecdot(windows[:, None, :], self._table)
        energies = (proj.reshape(len(proj), 2, -1) ** 2).sum(axis=1)  # cos^2 + sin^2 per tone
        if self.cfg.scheme == "ook":
            return energies[:, 0]
        return energies[:, 1] - energies[:, 0]


def _acquire(bank: _ToneBank, n_symbols: int) -> int:
    """The grid offset, in sps/8 steps out to one symbol either way, whose
    first soft symbols best match the frame header.

    Each offset scores the Pearson correlation of its first (up to 32) soft
    symbols with the header as +/-1; a flat row scores 0.  Offsets are tried
    nearest first, so a tie keeps the unshifted grid.
    """
    probe = min(len(HEADER_PATTERN), n_symbols)
    offsets = [round(k * bank.cfg.samples_per_symbol / 8) for k in sorted(range(-8, 9), key=abs)]
    rows = np.array([bank.soft_symbols(off, probe) for off in offsets])
    rows -= rows.mean(axis=1, keepdims=True)
    header = 2.0 * np.array(HEADER_PATTERN[:probe]) - 1.0
    header -= header.mean()
    norms = np.sqrt((rows**2).sum(axis=1) * (header**2).sum())
    live = (np.ptp(rows, axis=1) > 0) & (norms > 0)  # a flat row has no correlation
    scores = np.divide((rows * header).sum(axis=1), norms, out=np.zeros(len(rows)), where=live)
    return offsets[int(np.argmax(scores))]


def _ook_threshold(energies: np.ndarray, cfg: ModemConfig) -> float:
    """Midpoint between the two energy clusters (2-means), gain-agnostic.

    Degenerate single-cluster inputs (all-silence or all-tone) fall back to
    an absolute quarter-of-nominal-burst-energy test.
    """
    lo, hi = float(energies.min()), float(energies.max())
    nominal = (AMPLITUDE * cfg.samples_per_symbol / 2.0) ** 2
    c_lo, c_hi = lo, hi  # a degenerate input skips the loop and falls to the collective test
    for _ in range(16 if hi > 0.0 and hi - lo > 1e-9 * hi else 0):
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
    """Bits on the unshifted symbol grid, or on the grid _acquire finds when
    only that one holds the frame header: unframed bits never move."""
    if w.sample_rate != cfg.sample_rate:
        raise ValueError("waveform/config sample rate mismatch")
    sps = cfg.samples_per_symbol
    n_symbols = int(round(len(w.samples) / sps))
    if n_symbols < 1:
        raise SignalTooShort(f"{len(w.samples)} samples < one symbol ({sps:.0f})")
    bank = _ToneBank(w.samples, cfg)
    aligned = _harden(bank.soft_symbols(0, n_symbols), cfg)
    if find_header(aligned, HEADER_PATTERN, HEADER_MATCH_TOLERANCE):
        return aligned
    offset = _acquire(bank, n_symbols)
    if offset == 0:
        return aligned
    shifted = _harden(bank.soft_symbols(offset, n_symbols), cfg)
    return shifted if find_header(shifted, HEADER_PATTERN, HEADER_MATCH_TOLERANCE) else aligned


def ook_demodulate(w: Waveform, cfg: ModemConfig) -> list[int]:
    """Energy detection per symbol window with adaptive threshold."""
    return _demodulate(w, _checked(cfg, "ook"))


def bfsk_demodulate(w: Waveform, cfg: ModemConfig) -> list[int]:
    """Per-symbol tone comparison: '1' iff the mark tone's energy exceeds the space tone's."""
    return _demodulate(w, _checked(cfg, "bfsk"))


def trace_modulate(bits, on_ms: float, off_ms: float) -> EventTrace:
    """Time-slot code: a '1' slot is on for on_ms then off for off_ms;
    a '0' slot stays off for the whole on_ms+off_ms."""
    if not (0 < on_ms < math.inf and 0 < off_ms < math.inf):
        raise ValueError("slot durations must be positive and finite")
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
    if not (0 < on_ms < math.inf and 0 < off_ms < math.inf):
        raise ValueError("slot durations must be positive and finite")
    if not trace.events:
        raise EmptyTrace("trace contains no events")
    states, durations = zip(*trace.events)
    on = np.array([state == "on" for state in states])
    known = on | np.array([state == "off" for state in states])
    if not known.all():
        raise ValueError(f"unknown event state {states[known.argmin()]!r}")
    dur = np.array(durations, np.float64)
    if not np.isfinite(dur).all():
        raise ValueError("non-finite event duration")
    if (dur < 0).any():
        raise ValueError("negative event duration")
    # An off event right after an on event begins with that slot's off part.
    tail = np.where(np.r_[False, on[:-1]], float(off_ms), 0.0)
    slots = np.where(on, np.maximum(1, np.rint(dur / on_ms)),
                     np.maximum(0, np.rint((dur - tail) / (float(on_ms) + float(off_ms)))))
    if slots.sum() > MAX_TX_SAMPLES:
        raise ValueError(f"trace of {slots.sum():.0f} slots exceeds the {MAX_TX_SAMPLES}-slot limit")
    return np.repeat(on.astype(np.uint8), slots.astype(np.int64)).tolist()


# ---- file formats ----


def write_wav(path: str, w: Waveform) -> None:
    """RIFF/PCM mono, 16-bit signed little-endian; samples scaled by 32767."""
    pcm = np.clip(np.round(w.samples * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(path, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(w.sample_rate)
        fh.writeframes(pcm.tobytes())


def write_trace_csv(path: str, trace: EventTrace) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["state", "duration_ms"])
        for state, dur in trace.events:
            writer.writerow([state, f"{dur:.6f}"])
