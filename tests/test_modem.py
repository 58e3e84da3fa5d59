"""Modem tests: OOK/BFSK waveforms, event traces, WAV and CSV round trips."""

import math
import random
import wave
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.signal import hilbert

from airgaplab.errors import (
    EmptyTrace,
    MalformedInput,
    NyquistViolation,
    SignalTooShort,
    SymbolRateTooHigh,
)
from airgaplab.keyframe import frame_decode, frame_encode
from airgaplab.modem import (
    MIN_SAMPLES_PER_SYMBOL,
    EventTrace,
    ModemConfig,
    Waveform,
    bfsk_demodulate,
    bfsk_modulate,
    ook_demodulate,
    ook_modulate,
    read_trace_csv,
    read_wav,
    trace_demodulate,
    trace_modulate,
    write_trace_csv,
    write_wav,
)
from airgaplab.modem import _ToneBank

OOK = ModemConfig(scheme="ook", symbol_rate=100, sample_rate=8000, f_carrier=1000, amplitude=0.8)
BFSK = ModemConfig(scheme="bfsk", symbol_rate=20, sample_rate=48000, f0=17500, f1=18500, amplitude=0.8)


def random_bits(rng, n):
    return [rng.getrandbits(1) for _ in range(n)]


class TestConfigValidation:
    def test_nyquist_violation(self):
        cfg = ModemConfig(scheme="ook", symbol_rate=100, sample_rate=8000, f_carrier=4000)
        with pytest.raises(NyquistViolation):
            cfg.validate()

    def test_symbol_rate_too_high(self):
        cfg = ModemConfig(scheme="ook", symbol_rate=2000, sample_rate=8000, f_carrier=1000)
        with pytest.raises(SymbolRateTooHigh):
            cfg.validate()

    def test_bfsk_needs_distinct_tones(self):
        cfg = ModemConfig(scheme="bfsk", symbol_rate=10, sample_rate=48000, f0=18000, f1=18000)
        with pytest.raises(ValueError):
            cfg.validate()


class TestOok:
    def test_empty_bits_empty_waveform(self):
        assert len(ook_modulate([], OOK).samples) == 0

    def test_all_zero_bits_all_silence(self):
        w = ook_modulate([0] * 10, OOK)
        assert np.all(w.samples == 0.0)

    def test_frame_duration_at_20_symbols_per_second(self):
        cfg = ModemConfig(scheme="ook", symbol_rate=20, sample_rate=8000, f_carrier=1000)
        w = ook_modulate([1] * 522, cfg)
        assert w.duration == pytest.approx(26.1, abs=1e-9)

    def test_peak_amplitude_bounded(self):
        rng = random.Random(0)
        w = ook_modulate(random_bits(rng, 200), OOK)
        assert np.abs(w.samples).max() <= OOK.amplitude + 1e-12

    def test_round_trip_100_random_blocks(self):
        rng = random.Random(1)
        for _ in range(100):
            bits = random_bits(rng, 128)
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
        cfg = ModemConfig(scheme="ook", symbol_rate=30, sample_rate=8000, f_carrier=1000)
        for n in (1, 7, 100, 522):
            w = ook_modulate([1] * n, cfg)
            assert abs(len(w.samples) - n * cfg.samples_per_symbol) < 1.0


class TestBfsk:
    def test_single_one_is_pure_mark_tone(self):
        cfg = ModemConfig(scheme="bfsk", symbol_rate=10, sample_rate=48000, f0=17500, f1=18500, amplitude=1.0)
        w = bfsk_modulate([1], cfg)
        assert len(w.samples) == 4800
        n = np.arange(4800)
        assert np.allclose(w.samples, np.sin(2 * np.pi * 18500 * n / 48000), atol=1e-9)

    def test_zero_amplitude_all_zero_samples(self):
        cfg = ModemConfig(scheme="bfsk", symbol_rate=20, sample_rate=48000, f0=17500, f1=18500, amplitude=0.0)
        assert np.all(bfsk_modulate([1, 0, 1], cfg).samples == 0.0)

    def test_round_trip_random_blocks(self):
        rng = random.Random(2)
        for _ in range(40):
            bits = random_bits(rng, 96)
            assert bfsk_demodulate(bfsk_modulate(bits, BFSK), BFSK) == bits

    def test_silence_decodes_to_zeros(self):
        assert bfsk_demodulate(Waveform(48000, np.zeros(48000)), BFSK) == [0] * 20

    def test_phase_continuity(self):
        rng = random.Random(3)
        w = bfsk_modulate(random_bits(rng, 40), BFSK)
        bound = 2 * np.pi * max(BFSK.f0, BFSK.f1) / BFSK.sample_rate
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


class TestBerAt30Db:
    def test_ook_zero_errors_over_ten_thousand_bits(self):
        from airgaplab.channel import apply_waveform_channel, lookup

        rng = random.Random(30)
        bits = random_bits(rng, 10_000)
        cfg = ModemConfig(scheme="ook", symbol_rate=800, sample_rate=48000, f_carrier=6000, amplitude=0.8)
        rx = apply_waveform_channel(ook_modulate(bits, cfg), lookup("airhopper"), snr_db=30, seed=77)
        errors = sum(a != b for a, b in zip(ook_demodulate(rx, cfg), bits))
        assert errors == 0

    def test_bfsk_zero_errors_over_ten_thousand_bits(self):
        from airgaplab.channel import apply_waveform_channel, lookup

        rng = random.Random(31)
        bits = random_bits(rng, 10_000)
        cfg = ModemConfig(scheme="bfsk", symbol_rate=400, sample_rate=48000, f0=16500, f1=18500, amplitude=0.8)
        rx = apply_waveform_channel(bfsk_modulate(bits, cfg), lookup("ultrasonic"), snr_db=30, seed=78)
        errors = sum(a != b for a, b in zip(bfsk_demodulate(rx, cfg), bits))
        assert errors == 0


class TestTimingRecovery:
    def test_half_symbol_leading_silence_recovered(self):
        rng = random.Random(5)
        key = bytes(rng.randrange(256) for _ in range(32))
        bits = frame_encode(key)
        w = ook_modulate(bits, OOK)
        half = int(OOK.samples_per_symbol // 2)
        shifted = Waveform(OOK.sample_rate, np.concatenate([np.zeros(half), w.samples]))
        assert frame_decode(ook_demodulate(shifted, OOK)) == key

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
            ModemConfig(scheme="ook", symbol_rate=30, sample_rate=8000, f_carrier=1000),
            ModemConfig(scheme="bfsk", symbol_rate=30, sample_rate=8000, f0=1500, f1=2500),
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
        for tone in cfg.tones():
            c = s = 0.0
            for n in range(a, b):
                angle = 2.0 * math.pi * tone * n / cfg.sample_rate
                c += samples[n] * math.cos(angle)
                s += samples[n] * math.sin(angle)
            energy[tone] = c * c + s * s
            peak = max(peak, energy[tone])
        soft.append(energy[cfg.f_carrier] if cfg.scheme == "ook" else energy[cfg.f1] - energy[cfg.f0])
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
    cfg = ModemConfig(scheme=scheme, symbol_rate=symbol_rate, sample_rate=sample_rate, f_carrier=f0, f0=f0, f1=f1)
    cfg.validate()
    sps = cfg.samples_per_symbol
    samples = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(
        draw(st.integers(math.ceil(sps), 12 * math.ceil(sps)))
    )
    n_symbols = draw(st.integers(1, round(len(samples) / sps)))
    reach = math.floor(sps) + 2
    offset = draw(st.sampled_from([-reach, reach]) | st.integers(-reach, reach))
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


class TestEventTraces:
    def test_modulate_example_pattern(self):
        trace = trace_modulate([1, 0], on_ms=50, off_ms=50)
        assert trace.events == [("on", 50.0), ("off", 50.0), ("off", 100.0)]

    def test_empty_bits_empty_trace(self):
        assert trace_modulate([], 50, 50).events == []

    def test_total_duration_is_slot_arithmetic(self):
        rng = random.Random(7)
        bits = random_bits(rng, 200)
        trace = trace_modulate(bits, 30, 70)
        assert trace.total_ms() == pytest.approx(len(bits) * 100.0)

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

    def test_normalized_merges_adjacent_states(self):
        trace = EventTrace([("off", 10.0), ("off", 20.0), ("on", 5.0), ("off", 0.0), ("on", 5.0)])
        assert trace.normalized().events == [("off", 30.0), ("on", 10.0)]

    def test_normalized_trace_still_decodes_when_runs_are_short(self):
        bits = [1, 0, 1, 1, 0, 1, 0, 0, 1, 1]
        trace = trace_modulate(bits, 50, 50).normalized()
        assert trace_demodulate(trace, 50, 50) == bits


class TestFileFormats:
    def test_wav_round_trip(self, tmp_path):
        rng = random.Random(10)
        w = ook_modulate(random_bits(rng, 64), OOK)
        path = str(tmp_path / "sig.wav")
        write_wav(path, w)
        back = read_wav(path)
        assert back.sample_rate == w.sample_rate
        assert len(back.samples) == len(w.samples)
        assert np.abs(back.samples - w.samples).max() < 1.0 / 32000
        # 16-bit PCM quantization must still round-trip the bits
        assert ook_demodulate(back, OOK) == ook_demodulate(w, OOK)

    @staticmethod
    def _write_pcm(path, channels, width):
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(channels)
            fh.setsampwidth(width)
            fh.setframerate(8000)
            fh.writeframes(b"\x00" * 64)

    @pytest.mark.parametrize("channels, width", [(2, 2), (1, 1)])
    def test_wav_rejects_stereo_and_8_bit(self, tmp_path, channels, width):
        path = tmp_path / "bad.wav"
        self._write_pcm(path, channels, width)
        with pytest.raises(MalformedInput):
            read_wav(str(path))

    def test_wav_rejects_garbage_and_truncated_header(self, tmp_path):
        good = tmp_path / "good.wav"
        self._write_pcm(good, 1, 2)
        full = tmp_path / "full.wav"
        write_wav(str(full), Waveform(8000, np.zeros(1000)))
        cuts = [("header-only.wav", full.read_bytes()[:44]), ("short-data.wav", full.read_bytes()[:544])]
        for name, data in [("garbage.wav", b"not a wav!"), ("cut.wav", good.read_bytes()[:30])] + cuts:
            path = tmp_path / name
            path.write_bytes(data)
            with pytest.raises(MalformedInput):
                read_wav(str(path))

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
        assert np.array_equal(read_wav(path).samples, data / 32767.0)

    def test_trace_csv_round_trip(self, tmp_path):
        trace = trace_modulate([1, 0, 1, 1], 12.5, 37.5)
        path = str(tmp_path / "trace.csv")
        write_trace_csv(path, trace)
        text = Path(path).read_text()
        assert text.splitlines()[0] == "state,duration_ms"
        back = read_trace_csv(path)
        assert [s for s, _ in back.events] == [s for s, _ in trace.events]
        assert all(math.isclose(a, b) for (_, a), (_, b) in zip(back.events, trace.events))

    @pytest.mark.parametrize(
        "text",
        [
            "state,duration_ms\non\n",  # short row
            "on\n",  # short first row, no header
            "state,duration_ms\non,12.5\noff,soon\n",  # non-numeric duration
            "state,duration_ms\non,nan\n",  # non-finite duration
        ],
    )
    def test_trace_csv_rejects_malformed_rows(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(MalformedInput):
            read_trace_csv(str(path))
