"""Channel-model tests: preset catalog, AWGN calibration, trace jitter."""

import math
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from airgaplab.channel import (
    TIME_BUDGET_FACTOR,
    apply_trace_channel,
    apply_waveform_channel,
    catalog_csv,
    lookup,
    noise_draw,
    preset_catalog,
    _bandpass,
    _burst_power,
    _rng,
)
from airgaplab.modem import EventTrace, ModemConfig, Waveform, bfsk_modulate, trace_modulate

BFSK = ModemConfig(tones=(17500, 18500), symbol_rate=20, sample_rate=48000)

# Bit rate and time-window figures pinned to the published per-channel rows.
EXPECTED_PRESETS = {
    "airhopper": (480.0, (0.0, 1.0), "waveform"),
    "gsmem": (2.0, (300.0, 300.0), "waveform"),
    "radiot": (50.0, (1.0, 50.0), "waveform"),
    "powerhammer": (10.0, (30.0, 300.0), "waveform"),
    "magnetic": (2.0, (70.0, 1000.0), "waveform"),
    "ultrasonic": (20.0, (1.0, 20.0), "waveform"),
    "mosquito": (20.0, (2.0, 20.0), "waveform"),
    "fansmitter": (0.2, (1000.0, 2000.0), "trace"),
    "diskfiltration": (1.7, (100.0, 200.0), "trace"),
    "kbd_led": (3.4, (50.0, 100.0), "trace"),
    "hdd_led": (6.4, (10.0, 100.0), "trace"),
}


class TestCatalog:
    def test_exactly_eleven_presets(self):
        assert len(preset_catalog()) == 11

    def test_names_rates_ranges_kinds(self):
        for preset in preset_catalog():
            rate, trange, kind = EXPECTED_PRESETS[preset.name]
            assert preset.nominal_bit_rate == rate, preset.name
            assert preset.table_time_range == trange, preset.name
            assert preset.kind == kind, preset.name

    def test_ultrasonic_rate(self):
        assert lookup("ultrasonic").nominal_bit_rate == 20

    def test_powerhammer_rate(self):
        assert lookup("powerhammer").nominal_bit_rate == 10

    def test_raw_key_time_within_table_max(self):
        for preset in preset_catalog():
            raw_seconds = 256 / preset.nominal_bit_rate
            assert raw_seconds <= preset.table_time_range[1], preset.name

    def test_raw_key_time_within_budget_factor(self):
        for preset in preset_catalog():
            raw_seconds = 256 / preset.nominal_bit_rate
            assert raw_seconds <= TIME_BUDGET_FACTOR * preset.table_time_range[1], preset.name

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            lookup("thermal")

    def test_csv_schema(self):
        lines = catalog_csv().strip().splitlines()
        assert lines[0] == "name,rate,snr,band_lo,band_hi,jitter,tmin,tmax,kind"
        assert len(lines) == 12
        assert all(line.count(",") == 8 for line in lines)


class TestWaveformChannel:
    def test_infinite_snr_no_band_is_identity(self):
        rng = random.Random(0)
        w = bfsk_modulate([rng.getrandbits(1) for _ in range(50)], BFSK)
        out = apply_waveform_channel(w, lookup("gsmem"), snr_db=math.inf, seed=1)
        assert np.array_equal(out.samples, w.samples)

    def test_deterministic_under_seed(self):
        rng = random.Random(1)
        w = bfsk_modulate([rng.getrandbits(1) for _ in range(50)], BFSK)
        a = apply_waveform_channel(w, lookup("ultrasonic"), snr_db=15, seed=42)
        b = apply_waveform_channel(w, lookup("ultrasonic"), snr_db=15, seed=42)
        assert np.array_equal(a.samples, b.samples)

    def test_different_seeds_differ(self):
        rng = random.Random(2)
        w = bfsk_modulate([rng.getrandbits(1) for _ in range(50)], BFSK)
        a = apply_waveform_channel(w, lookup("ultrasonic"), snr_db=15, seed=1)
        b = apply_waveform_channel(w, lookup("ultrasonic"), snr_db=15, seed=2)
        assert not np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("target_db", [0.0, 10.0, 20.0, 30.0])
    def test_measured_snr_within_half_db(self, target_db):
        """Power-ratio measurement oracle over a 10 s signal."""
        rng = random.Random(3)
        preset = lookup("ultrasonic")
        w = bfsk_modulate([rng.getrandbits(1) for _ in range(200)], BFSK)  # 10 s
        out = apply_waveform_channel(w, preset, snr_db=target_db, seed=7)
        filtered = _bandpass(w.samples, preset.band, w.sample_rate)
        noise = out.samples - filtered
        measured = 10 * math.log10(_burst_power(filtered) / float(np.mean(noise**2)))
        assert abs(measured - target_db) < 0.5

    def test_band_none_skips_filtering(self):
        rng = random.Random(4)
        w = bfsk_modulate([rng.getrandbits(1) for _ in range(50)], BFSK)
        out = apply_waveform_channel(w, lookup("powerhammer"), snr_db=60, seed=9)
        # at 60 dB the residual is pure noise around the *unfiltered* signal
        assert float(np.mean((out.samples - w.samples) ** 2)) < 1e-4

    def test_silence_input_stays_silent(self):
        out = apply_waveform_channel(Waveform(48000, np.zeros(1000)), lookup("gsmem"), snr_db=20, seed=3)
        assert np.all(out.samples == 0.0)

    def test_kind_mismatch_rejected(self):
        w = Waveform(48000, np.zeros(100))
        with pytest.raises(ValueError):
            apply_waveform_channel(w, lookup("kbd_led"), snr_db=20, seed=0)

    @pytest.mark.parametrize("preset", ["ultrasonic", "powerhammer"])
    def test_negative_seed_is_taken_mod_2_64(self, preset):
        rng = random.Random(5)
        w = bfsk_modulate([rng.getrandbits(1) for _ in range(10)], BFSK)
        a = apply_waveform_channel(w, lookup(preset), snr_db=10, seed=-1)
        b = apply_waveform_channel(w, lookup(preset), snr_db=10, seed=2**64 - 1)
        assert np.array_equal(a.samples, b.samples)


def normal_oracle(w, preset, snr_db, seed):
    """The channel as one numpy normal() draw added to the filtered signal."""
    out = w.samples if preset.band is None else _bandpass(w.samples, preset.band, w.sample_rate)
    scale = math.sqrt(_burst_power(out) / 10.0 ** (snr_db / 10.0))
    return _rng(seed).normal(0.0, scale, len(out)) + out


class TestNoiseStream:
    @pytest.fixture(scope="class")
    def frame(self):
        rng = random.Random(8)
        return bfsk_modulate([rng.getrandbits(1) for _ in range(40)], BFSK)

    @pytest.mark.parametrize("seed", [0, 7, -1])
    @pytest.mark.parametrize("snr_db", [-10.0, 0.0, 30.0])
    @pytest.mark.parametrize("preset", ["ultrasonic", "radiot"])
    def test_equals_normal_draw_plus_signal(self, frame, preset, snr_db, seed):
        got = apply_waveform_channel(frame, lookup(preset), snr_db=snr_db, seed=seed)
        assert np.array_equal(got.samples, normal_oracle(frame, lookup(preset), snr_db, seed))

    def test_concurrent_calls_match_sequential(self, frame):
        preset, seeds = lookup("ultrasonic"), [11, 12, 13, 14]
        want = {s: apply_waveform_channel(frame, preset, snr_db=5.0, seed=s).samples for s in seeds}
        got, errors = {}, []

        def work(seed):
            try:
                for _ in range(3):
                    got.setdefault(seed, []).append(apply_waveform_channel(frame, preset, snr_db=5.0, seed=seed).samples)
            except Exception as exc:  # reported below: a thread's exception is otherwise lost
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(s,)) for s in seeds]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(old_interval)
        assert errors == []
        for s in seeds:
            assert len(got[s]) == 3
            assert all(np.array_equal(samples, want[s]) for samples in got[s])


class TestNoiseDraw:
    @pytest.mark.parametrize("snr_db", [-10.0, 30.0, math.inf])
    @pytest.mark.parametrize("preset", ["ultrasonic", "radiot"])
    def test_handed_in_draw_equals_the_channels_own(self, preset, snr_db):
        w = bfsk_modulate([1, 0, 1, 1, 0, 0, 1], BFSK)
        with noise_draw(lookup(preset), len(w.samples), snr_db, seed=5) as noise:
            got = apply_waveform_channel(w, lookup(preset), snr_db=snr_db, seed=5, noise=noise)
        want = apply_waveform_channel(w, lookup(preset), snr_db=snr_db, seed=5)
        assert np.array_equal(got.samples, want.samples)

    @pytest.mark.parametrize("preset, snr_db", [("radiot", 10.0), ("ultrasonic", math.inf)])
    def test_no_worker_thread_without_band_or_noise(self, monkeypatch, preset, snr_db):
        def submit(*args, **kwargs):
            pytest.fail("noise drawn on a worker thread")

        monkeypatch.setattr(ThreadPoolExecutor, "submit", submit)
        w = bfsk_modulate([1, 0, 1], BFSK)
        with noise_draw(lookup(preset), len(w.samples), snr_db, seed=5) as noise:
            apply_waveform_channel(w, lookup(preset), snr_db=snr_db, seed=5, noise=noise)
        apply_waveform_channel(w, lookup(preset), snr_db=snr_db, seed=5)

    @pytest.mark.parametrize("snr_db", [math.nan, -math.inf, -4000.0])
    def test_unusable_snr_rejected_before_the_draw_starts(self, monkeypatch, snr_db):
        def submit(*args, **kwargs):
            pytest.fail("noise drawn for an unusable SNR")

        monkeypatch.setattr(ThreadPoolExecutor, "submit", submit)
        with pytest.raises(ValueError, match="SNR"):
            with noise_draw(lookup("ultrasonic"), 10, snr_db, seed=5):
                pass

    def test_trace_preset_rejected(self):
        with pytest.raises(ValueError, match="not a waveform channel"):
            with noise_draw(lookup("kbd_led"), 10):
                pass


class TestHostileSnr:
    @pytest.mark.parametrize("snr_db", [math.nan, -math.inf, -4000.0])
    @pytest.mark.parametrize("preset", ["ultrasonic", "radiot"])
    def test_unusable_snr_rejected(self, preset, snr_db):
        w = bfsk_modulate([1, 0, 1, 1], BFSK)
        with pytest.raises(ValueError, match="SNR"):
            apply_waveform_channel(w, lookup(preset), snr_db=snr_db, seed=7)

    @pytest.mark.parametrize("preset", ["ultrasonic", "radiot"])
    def test_snr_past_float_range_adds_no_noise(self, preset):
        w = bfsk_modulate([1, 0, 1, 1], BFSK)
        clean = apply_waveform_channel(w, lookup(preset), snr_db=math.inf, seed=7)
        loud = apply_waveform_channel(w, lookup(preset), snr_db=4000.0, seed=7)
        assert np.array_equal(loud.samples, clean.samples)


def nonzero_burst_power(samples):
    """The burst-power formula that lists every active index."""
    mag = np.abs(samples)
    peak = mag.max() if len(mag) else 0.0
    if peak <= 0.0:
        return 0.0
    active = np.nonzero(mag > 1e-6 * peak)[0]
    burst = samples[active[0] : active[-1] + 1]
    return float(np.mean(burst * burst))


level = st.floats(-1e6, 1e6) | st.floats(-1e-3, 1e-3) | st.just(0.0)


@st.composite
def bursts(draw):
    """A burst, possibly silent or a single sample, between runs of zeros."""
    core = draw(st.lists(level, max_size=40))
    lead, trail = draw(st.integers(0, 30)), draw(st.integers(0, 30))
    return np.concatenate((np.zeros(lead), np.asarray(core, dtype=np.float64), np.zeros(trail)))


class TestBurstPower:
    @given(samples=bursts())
    def test_matches_nonzero_formula_exactly(self, samples):
        assert _burst_power(samples) == nonzero_burst_power(samples)

    @pytest.mark.parametrize(
        "samples, want",
        [
            ([], 0.0),
            ([0.0, 0.0, 0.0], 0.0),
            ([0.0, 0.0, -2.0, 0.0], 4.0),
            ([0.0, 3.0, 0.0, 0.0, -1.0, 0.0], 10.0 / 4),
            ([0.0, 1e-9, -1.0, 1e-9, 0.0], 1.0),
        ],
        ids=["empty", "all-silent", "single-negative-peak", "leading-and-trailing-silence", "below-threshold-edges"],
    )
    def test_examples(self, samples, want):
        assert _burst_power(np.asarray(samples, dtype=np.float64)) == want


class TestTraceChannel:
    def test_zero_jitter_is_identity(self):
        trace = trace_modulate([1, 0, 1, 1, 0], 50, 50)
        out = apply_trace_channel(trace, replace(lookup("kbd_led"), jitter_fraction=0.0), seed=5)
        assert out.events == trace.events

    def test_deterministic_under_seed(self):
        trace = trace_modulate([1, 0, 1, 1, 0], 50, 50)
        a = apply_trace_channel(trace, lookup("kbd_led"), seed=12)
        b = apply_trace_channel(trace, lookup("kbd_led"), seed=12)
        assert a.events == b.events

    def test_total_duration_within_jitter_bound_100_seeds(self):
        rng = random.Random(6)
        bits = [rng.getrandbits(1) for _ in range(256)]
        trace = trace_modulate(bits, 50, 50)
        preset = lookup("hdd_led")
        for seed in range(100):
            out = apply_trace_channel(trace, preset, seed=seed)
            ratio = sum(d for _, d in out.events) / sum(d for _, d in trace.events)
            assert 1 - preset.jitter_fraction <= ratio <= 1 + preset.jitter_fraction

    def test_every_duration_within_jitter_band(self):
        trace = trace_modulate([1, 0, 1], 40, 60)
        preset = lookup("fansmitter")
        out = apply_trace_channel(trace, preset, seed=8)
        for (_, before), (_, after) in zip(trace.events, out.events):
            assert (1 - preset.jitter_fraction) * before <= after <= (1 + preset.jitter_fraction) * before

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_trace_channel(EventTrace([("on", 5.0)]), lookup("ultrasonic"), seed=0)

    def test_negative_seed_is_taken_mod_2_64(self):
        trace = trace_modulate([1, 0, 1, 1, 0], 50, 50)
        a = apply_trace_channel(trace, lookup("kbd_led"), seed=-1)
        assert a.events == apply_trace_channel(trace, lookup("kbd_led"), seed=2**64 - 1).events
        assert a.events != apply_trace_channel(trace, lookup("kbd_led"), seed=1).events
