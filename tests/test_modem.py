"""Modem tests: OOK/BFSK waveforms, event traces, WAV and CSV round trips."""

import csv
import dataclasses
import math
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import hilbert

from airgaplab.errors import (
    EmptyTrace,
    NyquistViolation,
    SignalTooShort,
    SymbolRateTooHigh,
)
from airgaplab.keyframe import frame_decode, frame_encode
from airgaplab.modem import (
    AMPLITUDE,
    MAX_TX_SAMPLES,
    MIN_SAMPLES_PER_SYMBOL,
    EventTrace,
    ModemConfig,
    Waveform,
    bfsk_demodulate,
    bfsk_modulate,
    ook_demodulate,
    ook_modulate,
    trace_demodulate,
    trace_modulate,
    write_trace_csv,
    write_wav,
)
from airgaplab.modem import _demodulate, _symbol_boundaries, _synthesize, _ToneBank, sample_count

OOK = ModemConfig(tones=(1000,), symbol_rate=100, sample_rate=8000)
BFSK = ModemConfig(tones=(17500, 18500), symbol_rate=20, sample_rate=48000)


def random_bits(rng, n):
    return [rng.getrandbits(1) for _ in range(n)]


class TestConfigValidation:
    def test_nyquist_violation(self):
        with pytest.raises(NyquistViolation):
            ModemConfig(tones=(4000,), symbol_rate=100, sample_rate=8000)

    def test_symbol_rate_too_high(self):
        with pytest.raises(SymbolRateTooHigh):
            ModemConfig(tones=(1000,), symbol_rate=2000, sample_rate=8000)

    @pytest.mark.parametrize("tones", [(), (17000, 17500, 18500)], ids=["no-tone", "three-tones"])
    def test_one_or_two_tones(self, tones):
        with pytest.raises(ValueError, match="OOK takes one tone, BFSK two"):
            ModemConfig(tones, symbol_rate=20, sample_rate=48000)

    def test_bfsk_needs_distinct_tones(self):
        with pytest.raises(ValueError):
            ModemConfig(tones=(18000, 18000), symbol_rate=10, sample_rate=48000)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(tones=(math.nan, 18500), symbol_rate=20, sample_rate=48000),
            dict(tones=(-math.inf,), symbol_rate=100, sample_rate=8000),
            dict(tones=(1000,), symbol_rate=math.nan, sample_rate=8000),
        ],
        ids=["nan-f0", "minus-inf-carrier", "nan-symbol-rate"],
    )
    def test_non_finite_tone_or_rate_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ModemConfig(**kwargs)

    @pytest.mark.parametrize("field, value", [("tones", (4000,)), ("symbol_rate", 2000), ("sample_rate", 8000)])
    def test_fields_cannot_be_reassigned(self, field, value):
        """A config is checked once, so no field may change after that check."""
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(OOK, field, value)
        assert OOK == ModemConfig(tones=(1000,), symbol_rate=100, sample_rate=8000)

    @pytest.mark.parametrize(
        "entry, arg, cfg",
        [
            (ook_modulate, [1, 0], BFSK),
            (bfsk_modulate, [1, 0], OOK),
            (ook_demodulate, Waveform(48000, np.zeros(4800)), BFSK),
            (bfsk_demodulate, Waveform(8000, np.zeros(800)), OOK),
        ],
        ids=["ook_modulate", "bfsk_modulate", "ook_demodulate", "bfsk_demodulate"],
    )
    def test_entry_point_refuses_the_other_scheme(self, entry, arg, cfg):
        with pytest.raises(ValueError, match="config scheme is not"):
            entry(arg, cfg)

    def test_subnormal_symbol_rate_refused_before_synthesis(self):
        cfg = ModemConfig(tones=(1000,), symbol_rate=1e-320, sample_rate=8000)
        with pytest.raises(ValueError, match="exceed"):
            ook_modulate([], cfg)


class TestOok:
    def test_empty_bits_empty_waveform(self):
        assert len(ook_modulate([], OOK).samples) == 0

    def test_all_zero_bits_all_silence(self):
        w = ook_modulate([0] * 10, OOK)
        assert np.all(w.samples == 0.0)

    def test_frame_duration_at_20_symbols_per_second(self):
        cfg = ModemConfig(tones=(1000,), symbol_rate=20, sample_rate=8000)
        w = ook_modulate([1] * 522, cfg)
        assert w.duration == pytest.approx(26.1, abs=1e-9)

    def test_peak_amplitude_bounded(self):
        rng = random.Random(0)
        w = ook_modulate(random_bits(rng, 200), OOK)
        assert np.abs(w.samples).max() <= AMPLITUDE + 1e-12

    def test_round_trip_100_random_blocks(self):
        rng = random.Random(1)
        # The unframed alternating run looks like a preamble without the sync word.
        for bits in [random_bits(rng, 128) for _ in range(100)] + [[1, 0] * 64]:
            assert ook_demodulate(ook_modulate(bits, OOK), OOK) == bits

    def test_round_trip_all_ones(self):
        assert ook_demodulate(ook_modulate([1] * 64, OOK), OOK) == [1] * 64

    def test_silence_decodes_to_zeros(self):
        assert ook_demodulate(Waveform(8000, np.zeros(8000)), OOK) == [0] * 100

    def test_signal_too_short(self):
        with pytest.raises(SignalTooShort):
            ook_demodulate(Waveform(8000, np.zeros(10)), OOK)

    def test_duration_law_no_drift(self):
        # awkward ratio: 8000/30 = 266.67 samples/symbol
        cfg = ModemConfig(tones=(1000,), symbol_rate=30, sample_rate=8000)
        for n in (1, 7, 100, 522):
            w = ook_modulate([1] * n, cfg)
            assert abs(len(w.samples) - n * cfg.samples_per_symbol) < 1.0


class TestBfsk:
    def test_single_one_is_pure_mark_tone(self):
        cfg = ModemConfig(tones=(17500, 18500), symbol_rate=10, sample_rate=48000)
        w = bfsk_modulate([1], cfg)
        assert len(w.samples) == 4800
        n = np.arange(4800)
        assert np.allclose(w.samples, AMPLITUDE * np.sin(2 * np.pi * 18500 * n / 48000), atol=1e-9)

    def test_round_trip_random_blocks(self):
        rng = random.Random(2)
        for bits in [random_bits(rng, 96) for _ in range(40)] + [[1, 0] * 64]:
            assert bfsk_demodulate(bfsk_modulate(bits, BFSK), BFSK) == bits

    def test_silence_decodes_to_zeros(self):
        assert bfsk_demodulate(Waveform(48000, np.zeros(48000)), BFSK) == [0] * 20

    def test_phase_continuity(self):
        rng = random.Random(3)
        w = bfsk_modulate(random_bits(rng, 40), BFSK)
        bound = 2 * np.pi * max(BFSK.tones) / BFSK.sample_rate
        # The Hilbert estimate rings ~0.5% at frequency steps; a true phase
        # discontinuity overshoots by tens of percent (see negative control).
        assert self._max_phase_step(w.samples) <= bound * 1.05

    def test_phase_continuity_negative_control(self):
        # Tone switching without a phase accumulator must fail the same check.
        # Tones with fractional cycles per symbol (here x.5) make the naive
        # per-symbol restart genuinely discontinuous.
        sps = int(BFSK.samples_per_symbol)
        rng = random.Random(3)
        bits = random_bits(rng, 40)
        t = np.arange(sps) / BFSK.sample_rate
        chunks = [np.sin(2 * np.pi * (18550 if b else 17450) * t) for b in bits]
        discontinuous = 0.8 * np.concatenate(chunks)
        bound = 2 * np.pi * 18550 / BFSK.sample_rate
        assert self._max_phase_step(discontinuous) > bound * 1.05

    @staticmethod
    def _max_phase_step(samples):
        phase = np.unwrap(np.angle(hilbert(samples)))
        return np.abs(np.diff(phase)[500:-500]).max()  # trim transform edge effects

    def test_framed_payload_round_trip(self):
        rng = random.Random(4)
        key = bytes(rng.randrange(256) for _ in range(32))
        bits = frame_encode(key)
        assert frame_decode(bfsk_demodulate(bfsk_modulate(bits, BFSK), BFSK)) == key


@pytest.mark.parametrize("modulate, cfg", [(ook_modulate, OOK), (bfsk_modulate, BFSK)])
class TestBitValues:
    @pytest.mark.parametrize("bits", [[0, 2, 1], [1, -1], [0.5], np.array([1, 0, 3], dtype=np.uint8)])
    def test_non_binary_bits_rejected(self, modulate, cfg, bits):
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            modulate(bits, cfg)

    def test_bools_and_uint8_arrays_match_int_lists(self, modulate, cfg):
        bits = [1, 0, 0, 1, 1]
        want = modulate(bits, cfg).samples
        assert np.array_equal(modulate([bool(b) for b in bits], cfg).samples, want)
        assert np.array_equal(modulate(np.array(bits, dtype=np.uint8), cfg).samples, want)


class TestBerAt30Db:
    def test_ook_zero_errors_over_ten_thousand_bits(self):
        from airgaplab.channel import apply_waveform_channel, lookup

        rng = random.Random(30)
        bits = random_bits(rng, 10_000)
        cfg = ModemConfig(tones=(6000,), symbol_rate=800, sample_rate=48000)
        rx = apply_waveform_channel(ook_modulate(bits, cfg), lookup("airhopper"), snr_db=30, seed=77)
        errors = sum(a != b for a, b in zip(ook_demodulate(rx, cfg), bits))
        assert errors == 0

    def test_bfsk_zero_errors_over_ten_thousand_bits(self):
        from airgaplab.channel import apply_waveform_channel, lookup

        rng = random.Random(31)
        bits = random_bits(rng, 10_000)
        cfg = ModemConfig(tones=(16500, 18500), symbol_rate=400, sample_rate=48000)
        rx = apply_waveform_channel(bfsk_modulate(bits, cfg), lookup("ultrasonic"), snr_db=30, seed=78)
        errors = sum(a != b for a, b in zip(bfsk_demodulate(rx, cfg), bits))
        assert errors == 0


class TestTimingRecovery:
    @pytest.mark.parametrize("start", [k / 10 for k in range(-9, 10)])
    @pytest.mark.parametrize("modulate, demodulate, cfg",
                             [(ook_modulate, ook_demodulate, OOK), (bfsk_modulate, bfsk_demodulate, BFSK)],
                             ids=["ook", "bfsk"])
    def test_recording_start_recovered(self, start, modulate, demodulate, cfg):
        # A late start leads with silence; an early one (negative) cuts the first samples.
        rng = random.Random(5)
        key = bytes(rng.randrange(256) for _ in range(32))
        samples = modulate(frame_encode(key), cfg).samples
        n = round(abs(start) * cfg.samples_per_symbol)
        samples = np.concatenate([np.zeros(n), samples]) if start > 0 else samples[n:]
        assert frame_decode(demodulate(Waveform(cfg.sample_rate, samples), cfg)) == key

    def test_late_start_recovered_through_the_channel(self):
        from airgaplab.channel import apply_waveform_channel, lookup
        from airgaplab.harness import waveform_modem_config

        preset = lookup("radiot")
        cfg = waveform_modem_config(preset)
        lead = np.zeros(round(0.45 * cfg.samples_per_symbol))
        for seed in range(10):
            rng = random.Random(seed)
            key = bytes(rng.randrange(256) for _ in range(32))
            tx = Waveform(cfg.sample_rate, np.concatenate([lead, ook_modulate(frame_encode(key), cfg).samples]))
            rx = apply_waveform_channel(tx, preset, snr_db=30, seed=seed)
            assert frame_decode(ook_demodulate(rx, cfg)) == key, seed

    def test_quarter_symbol_offset_recovered(self):
        rng = random.Random(6)
        key = bytes(rng.randrange(256) for _ in range(32))
        bits = frame_encode(key)
        w = bfsk_modulate(bits, BFSK)
        shift = int(BFSK.samples_per_symbol * 0.75)
        shifted = Waveform(BFSK.sample_rate, np.concatenate([np.zeros(shift), w.samples]))
        assert frame_decode(bfsk_demodulate(shifted, BFSK)) == key

    @pytest.mark.parametrize(
        "cfg",
        [
            ModemConfig(tones=(1000,), symbol_rate=30, sample_rate=8000),
            ModemConfig(tones=(1500, 2500), symbol_rate=30, sample_rate=8000),
        ],
    )
    def test_three_quarter_symbol_offset_at_non_integer_sps(self, cfg):
        # 8000/30 = 266.67 samples/symbol: windows are 266 or 267 samples long.
        rng = random.Random(11)
        key = bytes(rng.randrange(256) for _ in range(32))
        ook = cfg.scheme == "ook"
        w = (ook_modulate if ook else bfsk_modulate)(frame_encode(key), cfg)
        shift = int(cfg.samples_per_symbol * 0.75)
        shifted = Waveform(cfg.sample_rate, np.concatenate([np.zeros(shift), w.samples]))
        assert frame_decode((ook_demodulate if ook else bfsk_demodulate)(shifted, cfg)) == key


def brute_force_soft_symbols(samples, cfg, offset, n_symbols):
    """Decision statistic one clipped window [a, b) at a time, with absolute
    sample indices n: energy = (sum x[n] cos wn)^2 + (sum x[n] sin wn)^2.
    Returns the statistics and the largest single-tone energy."""
    soft, peak = [], 0.0
    for i in range(n_symbols):
        a, b = (
            min(max(round(j * cfg.sample_rate / cfg.symbol_rate) + offset, 0), len(samples)) for j in (i, i + 1)
        )
        energy = {}
        for tone in cfg.tones:
            c = s = 0.0
            for n in range(a, b):
                angle = 2.0 * math.pi * tone * n / cfg.sample_rate
                c += samples[n] * math.cos(angle)
                s += samples[n] * math.sin(angle)
            energy[tone] = c * c + s * s
            peak = max(peak, energy[tone])
        soft.append(energy[cfg.tones[0]] if cfg.scheme == "ook" else energy[cfg.tones[1]] - energy[cfg.tones[0]])
    return np.array(soft), peak


@st.composite
def receiver_cases(draw):
    """A config with integer or non-integer samples/symbol, a random signal,
    a symbol count and a timing offset within about one symbol."""
    symbol_rate = draw(st.one_of(st.integers(20, 500), st.floats(20.0, 500.0)))
    if isinstance(symbol_rate, int) and draw(st.booleans()):
        sample_rate = symbol_rate * draw(st.integers(MIN_SAMPLES_PER_SYMBOL, 48))
    else:
        sample_rate = draw(st.integers(math.ceil(MIN_SAMPLES_PER_SYMBOL * symbol_rate), int(48 * symbol_rate)))
    tone = st.floats(0.0, sample_rate / 2, exclude_max=True)
    scheme = draw(st.sampled_from(["ook", "bfsk"]))
    f0, f1 = draw(tone), draw(tone)
    assume(scheme == "ook" or f0 != f1)
    cfg = ModemConfig(tones=(f0,) if scheme == "ook" else (f0, f1), symbol_rate=symbol_rate, sample_rate=sample_rate)
    sps = cfg.samples_per_symbol
    samples = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(
        draw(st.integers(math.ceil(sps), 12 * math.ceil(sps)))
    )
    n_symbols = draw(st.integers(1, round(len(samples) / sps)))
    reach = math.floor(sps) + 2
    offset = draw(st.sampled_from([-reach, reach]) | st.integers(-reach, reach))
    return cfg, samples, n_symbols, offset


def padded_soft_symbols(samples, cfg, offset, n_symbols):
    """The receiver's soft symbols gathered all at once from one copy of the
    samples zero-padded by more than any offset up to width + 2."""
    width = math.ceil(cfg.samples_per_symbol)
    pad = width + 2
    zeros = np.zeros(pad + width)
    rows = sliding_window_view(np.concatenate((zeros[:pad], samples, zeros)), width)
    bounds = _symbol_boundaries(n_symbols, cfg) + offset
    windows = rows[bounds[:-1] + pad]
    windows[np.diff(bounds) < width, -1] = 0.0
    angles = np.outer(2.0 * np.pi * np.asarray(cfg.tones) / cfg.sample_rate, np.arange(width))
    proj = np.vecdot(windows[:, None, :], np.vstack((np.cos(angles), np.sin(angles))))
    energies = (proj.reshape(len(proj), 2, -1) ** 2).sum(axis=1)
    return energies[:, 0] if cfg.scheme == "ook" else energies[:, 1] - energies[:, 0]


@st.composite
def block_gather_cases(draw):
    """A config with integer or non-integer samples/symbol, a signal from
    shorter than one window to a few blocks of windows, a symbol count whose
    windows start inside the signal, and an offset within the old padding."""
    symbol_rate = draw(st.integers(200, 2000) | st.floats(200.0, 2000.0))
    if isinstance(symbol_rate, int) and draw(st.booleans()):
        sample_rate = symbol_rate * draw(st.integers(MIN_SAMPLES_PER_SYMBOL, 24))
    else:
        sample_rate = draw(st.integers(math.ceil(MIN_SAMPLES_PER_SYMBOL * symbol_rate), int(24 * symbol_rate)))
    scheme = draw(st.sampled_from(["ook", "bfsk"]))
    tones = (sample_rate / 7,) if scheme == "ook" else (sample_rate / 9, sample_rate / 5)
    cfg = ModemConfig(tones, symbol_rate, sample_rate)
    width = math.ceil(cfg.samples_per_symbol)
    length = draw(st.integers(0, width) | st.integers(0, 3 * _ToneBank.BLOCK * width))
    samples = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(length)
    n_symbols = draw(st.integers(1, 1 + int(length / cfg.samples_per_symbol)))
    pad = width + 2
    offset = draw(st.sampled_from([-pad, pad]) | st.integers(-pad, pad))
    return cfg, samples, n_symbols, offset


class TestReceiverOracle:
    @settings(deadline=None)
    @given(case=receiver_cases())
    def test_soft_symbols_match_brute_force_windows(self, case):
        cfg, samples, n_symbols, offset = case
        got = _ToneBank(samples, cfg).soft_symbols(offset, n_symbols)
        want, peak = brute_force_soft_symbols(samples, cfg, offset, n_symbols)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-9 * peak

    @settings(deadline=None)
    @given(case=block_gather_cases())
    def test_block_gather_equals_padded_copy_exactly(self, case):
        cfg, samples, n_symbols, offset = case
        received = samples.copy()
        got = _ToneBank(received, cfg).soft_symbols(offset, n_symbols)
        assert np.array_equal(got, padded_soft_symbols(samples, cfg, offset, n_symbols))
        if round(len(samples) / cfg.samples_per_symbol) >= 1:
            _demodulate(Waveform(cfg.sample_rate, received), cfg)
        assert np.array_equal(received, samples)  # short windows are zeroed in the gathered copy only

    @pytest.mark.parametrize("preset", ["airhopper", "gsmem", "radiot", "powerhammer", "magnetic", "ultrasonic", "mosquito"])
    def test_preset_grid_reads_windows_in_place(self, monkeypatch, preset):
        from airgaplab.harness import ScenarioConfig, run_scenario, waveform_modem_config
        from airgaplab.channel import lookup

        cfg = waveform_modem_config(lookup(preset))
        samples = run_scenario(ScenarioConfig(channel=preset, seed=4)).received.samples
        n_symbols = round(len(samples) / cfg.samples_per_symbol)
        monkeypatch.setattr(_ToneBank, "_windows", lambda bank, starts: pytest.fail("windows gathered"))
        got = _ToneBank(samples, cfg).soft_symbols(0, n_symbols)
        assert np.array_equal(got, padded_soft_symbols(samples, cfg, 0, n_symbols))


def exact_phase_waveform(bits, cfg):
    """Each sample from its exact phase.  The tone cycles elapsed before a
    symbol are summed as exact fractions of the float tones and reduced
    mod 1 before any rounding; only the offset within a symbol is a float."""
    out, elapsed = [], Fraction(0)
    for k, bit in enumerate(bits):
        length = round((k + 1) * cfg.sample_rate / cfg.symbol_rate) - round(k * cfg.sample_rate / cfg.symbol_rate)
        if cfg.scheme == "ook":
            tone, gain = cfg.tones[0], AMPLITUDE * bit
        else:
            tone, gain = cfg.tones[bit], AMPLITUDE
        step = Fraction(tone) / cfg.sample_rate
        cycles = float(elapsed) + float(step) * np.arange(length)
        out.append(gain * np.sin(2.0 * np.pi * cycles))
        elapsed = (elapsed + step * length) % 1
    return np.concatenate(out)


@st.composite
def transmitter_cases(draw):
    """Random bits on a config with integer or non-integer samples/symbol
    (up to 2400, so up to ~10^5 samples) and arbitrary tones below Nyquist."""
    symbol_rate = draw(st.sampled_from([7, 20, 30]) | st.integers(20, 400) | st.floats(7.0, 400.0))
    sample_rate = draw(st.sampled_from([8000, 44100, 48000]) | st.integers(math.ceil(8 * symbol_rate), 48000))
    tone = st.floats(0.0, sample_rate / 2, exclude_max=True) | st.integers(0, math.ceil(sample_rate / 2) - 1)
    scheme = draw(st.sampled_from(["ook", "bfsk"]))
    f0, f1 = draw(tone), draw(tone)
    assume(scheme == "ook" or f0 != f1)
    cfg = ModemConfig((f0,) if scheme == "ook" else (f0, f1), symbol_rate, sample_rate)
    max_symbols = max(1, min(64, int(100_000 / cfg.samples_per_symbol)))
    bits = draw(st.lists(st.integers(0, 1), min_size=1, max_size=max_symbols))
    return cfg, bits


class TestTransmitterOracle:
    @settings(deadline=None)
    @given(case=transmitter_cases())
    def test_synthesize_matches_exact_phase(self, case):
        cfg, bits = case
        got = _synthesize(bits, cfg).samples
        want = exact_phase_waveform(bits, cfg)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-9 * AMPLITUDE

    @pytest.mark.parametrize("preset", ["ultrasonic", "airhopper", "gsmem", "radiot", "powerhammer"])
    def test_preset_frames_match_exact_phase(self, preset):
        from airgaplab.channel import lookup
        from airgaplab.harness import waveform_modem_config

        cfg = waveform_modem_config(lookup(preset))
        bits = frame_encode(bytes(range(32)))
        got = _synthesize(bits, cfg).samples
        assert np.abs(got - exact_phase_waveform(bits, cfg)).max() <= 1e-9 * AMPLITUDE


class TestSampleCount:
    @pytest.mark.parametrize(
        "preset, rate",
        [(name, None) for name in ("airhopper", "gsmem", "radiot", "powerhammer", "magnetic", "ultrasonic", "mosquito")]
        + [("radiot", 37.5), ("ultrasonic", 19.3)],
    )
    def test_equals_modulated_length(self, preset, rate):
        from airgaplab.channel import lookup
        from airgaplab.harness import waveform_modem_config

        cfg = waveform_modem_config(lookup(preset), rate)
        bits = frame_encode(bytes(range(32)))
        modulate = bfsk_modulate if cfg.scheme == "bfsk" else ook_modulate
        assert sample_count(len(bits), cfg) == len(modulate(bits, cfg).samples)

    def test_refuses_oversized_grid(self):
        cfg = ModemConfig((17500, 18500), symbol_rate=1e-6, sample_rate=48000)
        with pytest.raises(ValueError, match="sample limit"):
            sample_count(522, cfg)

    def test_integer_grid_returns_the_rows_unmasked(self):
        bits = random_bits(random.Random(4), 50)
        samples = _synthesize(bits, BFSK).samples
        width = math.ceil(BFSK.samples_per_symbol)
        lengths = np.diff(_symbol_boundaries(len(bits), BFSK))
        rows = samples.reshape(len(bits), width)
        assert np.array_equal(rows[np.arange(width) < lengths[:, None]], samples)
        assert samples.base is not None  # a view of the rows, not a masked copy


class TestEventTraces:
    def test_modulate_example_pattern(self):
        trace = trace_modulate([1, 0], on_ms=50, off_ms=50)
        assert trace.events == [("on", 50.0), ("off", 50.0), ("off", 100.0)]

    @pytest.mark.parametrize("slot", [math.inf, math.nan])
    def test_non_finite_slot_rejected(self, slot):
        with pytest.raises(ValueError):
            trace_modulate([1, 0], slot, slot)
        with pytest.raises(ValueError):
            trace_demodulate(EventTrace([("on", 50.0), ("off", 50.0)]), slot, slot)

    def test_empty_bits_empty_trace(self):
        assert trace_modulate([], 50, 50).events == []

    def test_total_duration_is_slot_arithmetic(self):
        rng = random.Random(7)
        bits = random_bits(rng, 200)
        trace = trace_modulate(bits, 30, 70)
        assert sum(d for _, d in trace.events) == pytest.approx(len(bits) * 100.0)

    def test_round_trip_random_bits(self):
        rng = random.Random(8)
        for _ in range(50):
            bits = random_bits(rng, 256)
            trace = trace_modulate(bits, 50, 50)
            assert trace_demodulate(trace, 50, 50) == bits

    def test_round_trip_under_ten_percent_jitter(self):
        rng = random.Random(9)
        nprng = np.random.default_rng(10)
        for _ in range(30):
            bits = random_bits(rng, 522)
            trace = trace_modulate(bits, 73.5, 73.5)
            jittered = EventTrace(
                [(s, d * f) for (s, d), f in zip(trace.events, nprng.uniform(0.9, 1.1, len(trace.events)))]
            )
            assert trace_demodulate(jittered, 73.5, 73.5) == bits

    def test_all_off_trace_decodes_to_zeros(self):
        assert trace_demodulate(EventTrace([("off", 1000.0)]), 50, 50) == [0] * 10

    def test_empty_trace_raises(self):
        with pytest.raises(EmptyTrace):
            trace_demodulate(EventTrace([]), 50, 50)

    @pytest.mark.parametrize("state", ["on", "off"])
    @pytest.mark.parametrize("duration", [math.inf, -math.inf, math.nan])
    def test_non_finite_duration_rejected(self, state, duration):
        with pytest.raises(ValueError, match="non-finite"):
            trace_demodulate(EventTrace([("on", 50.0), (state, duration)]), 50, 50)

    @pytest.mark.parametrize("state", ["on", "off"])
    def test_oversized_trace_rejected_before_allocating(self, state):
        events = [(state, 100.0 * (MAX_TX_SAMPLES + 1)), (state, 1e18)]
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="slot limit"):
                trace_demodulate(EventTrace(events), 50, 50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @settings(deadline=None, max_examples=200)
    @given(
        events=st.lists(st.tuples(st.sampled_from(["on", "off"]),
                                  st.one_of(st.floats(0, 2000), st.integers(0, 80).map(lambda h: 12.5 * h))),
                        min_size=1, max_size=40),
        on_ms=st.sampled_from([5, 25.0, 50, 73.5]),
        off_ms=st.sampled_from([5, 25.0, 50, 73.5]),
    )
    def test_equals_event_by_event_reference(self, events, on_ms, off_ms):
        """Durations on and between half-slot ties: round half to even, as the reference does."""
        assert trace_demodulate(EventTrace(events), on_ms, off_ms) == reference_trace_demodulate(events, on_ms, off_ms)

    def test_normalized_trace_still_decodes_when_runs_are_short(self):
        bits = [1, 0, 1, 1, 0, 1, 0, 0, 1, 1]
        # trace_modulate(bits, 50, 50) with each run of equal states merged into one event
        trace = EventTrace([("on", 50.0), ("off", 150.0), ("on", 50.0), ("off", 50.0), ("on", 50.0),
                            ("off", 150.0), ("on", 50.0), ("off", 250.0), ("on", 50.0), ("off", 50.0),
                            ("on", 50.0), ("off", 50.0)])
        assert trace_demodulate(trace, 50, 50) == bits


def reference_trace_demodulate(events, on_ms, off_ms) -> list[int]:
    """Reference: the trace re-slotted one event at a time."""
    slot = float(on_ms) + float(off_ms)
    bits: list[int] = []
    prev_on = False
    for state, dur in events:
        if state == "on":
            bits.extend([1] * max(1, int(round(dur / on_ms))))
        else:
            tail = off_ms if prev_on else 0.0
            bits.extend([0] * max(0, int(round((dur - tail) / slot))))
        prev_on = state == "on"
    return bits


class TestFileFormats:
    """The writers checked against independent readers: scipy for WAV, csv for traces."""

    def test_wav_round_trip(self, tmp_path):
        from scipy.io import wavfile

        rng = random.Random(10)
        w = ook_modulate(random_bits(rng, 64), OOK)
        path = str(tmp_path / "sig.wav")
        write_wav(path, w)
        rate, data = wavfile.read(path)
        back = Waveform(rate, data / 32767.0)
        assert back.sample_rate == w.sample_rate
        assert len(back.samples) == len(w.samples)
        assert np.abs(back.samples - w.samples).max() < 1.0 / 32000
        # 16-bit PCM quantization must still round-trip the bits
        assert ook_demodulate(back, OOK) == ook_demodulate(w, OOK)

    def test_wav_bytes_deterministic(self, tmp_path):
        w = bfsk_modulate([1, 0, 1], BFSK)
        p1, p2 = str(tmp_path / "a.wav"), str(tmp_path / "b.wav")
        write_wav(p1, w)
        write_wav(p2, w)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_wav_readable_by_independent_reader(self, tmp_path):
        from scipy.io import wavfile

        w = bfsk_modulate([1, 0, 1, 1], BFSK)
        path = str(tmp_path / "x.wav")
        write_wav(path, w)
        rate, data = wavfile.read(path)
        assert rate == BFSK.sample_rate
        assert data.dtype == np.int16 and data.ndim == 1
        assert np.abs(data / 32767.0 - w.samples).max() < 1.0 / 32000

    def test_trace_csv_round_trip(self, tmp_path):
        trace = trace_modulate([1, 0, 1, 1], 12.5, 37.5)
        path = str(tmp_path / "trace.csv")
        write_trace_csv(path, trace)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["state", "duration_ms"]
        assert rows[1:] == [[state, f"{dur:.6f}"] for state, dur in trace.events]
