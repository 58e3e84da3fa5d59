"""Scenario-runner tests: airtime arithmetic, end-to-end runs, sweeps, budgets."""

import math
import random
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest

from airgaplab.channel import lookup, preset_catalog
from airgaplab.harness import (
    RUN_CSV_HEADER,
    ScenarioConfig,
    derive_key,
    estimate_time,
    payload_ber,
    run_scenario,
    sweep,
    sweep_csv,
    table4_csv,
    table4_report,
)
from airgaplab.keyframe import frame_encode


class TestEstimateTime:
    def test_ultrasonic_key_airtime(self):
        assert estimate_time("ultrasonic", 32) == pytest.approx(26.1)

    def test_gsmem_vs_published_300s(self):
        seconds = estimate_time("gsmem", 32)
        assert seconds == pytest.approx(261.0)
        assert seconds / 300.0 == pytest.approx(0.87)

    def test_airhopper_within_budget_factor(self):
        seconds = estimate_time("airhopper", 32)
        assert seconds == pytest.approx(1.0875)
        assert seconds <= 2.5 * lookup("airhopper").table_time_range[1]

    def test_formula_matches_frame_size(self):
        for n in (1, 7, 255):
            assert estimate_time("powerhammer", n) == (32 + 14 * (n + 3)) / 10.0

    def test_rejects_empty_payload(self):
        with pytest.raises(ValueError):
            estimate_time("ultrasonic", 0)


class TestRunScenario:
    def test_ultrasonic_40db_success_and_airtime(self):
        result = run_scenario(ScenarioConfig(channel="ultrasonic", snr_db=40, seed=5))
        report = result.report
        assert report.success and report.ber == 0.0 and report.error_kind == ""
        assert report.bits_sent == 522
        assert abs(report.airtime_s - 26.1) <= 1 / 20.0  # within one symbol

    def test_powerhammer_40db_airtime_in_published_window(self):
        report = run_scenario(ScenarioConfig(channel="powerhammer", snr_db=40, seed=6)).report
        assert report.success
        assert report.airtime_s == pytest.approx(52.2)
        tmin, tmax = lookup("powerhammer").table_time_range
        assert tmin <= report.airtime_s <= tmax

    def test_minus_20db_fails_with_sync_or_crc(self):
        for seed in range(8):
            report = run_scenario(ScenarioConfig(channel="powerhammer", snr_db=-20, seed=seed)).report
            assert not report.success
            assert report.error_kind in ("SyncNotFound", "CrcMismatch")
            assert report.ber > 0.0

    def test_long_symbols_need_deeper_noise_to_fail(self):
        # 2400 samples/symbol buy ~34 dB of correlation gain, so the
        # ultrasonic link still decodes at -20 dB and dies around -40 dB.
        assert run_scenario(ScenarioConfig(channel="ultrasonic", snr_db=-20, seed=0)).report.success
        for seed in range(4):
            report = run_scenario(ScenarioConfig(channel="ultrasonic", snr_db=-40, seed=seed)).report
            assert not report.success
            assert report.error_kind in ("SyncNotFound", "CrcMismatch")

    @pytest.mark.parametrize("name, rate", [("ultrasonic", 7), ("airhopper", 333)])
    def test_non_integer_samples_per_symbol(self, name, rate):
        # 48000/7 = 6857.14 and 48000/333 = 144.14 samples/symbol, preset SNR.
        report = run_scenario(ScenarioConfig(channel=name, symbol_rate=rate, seed=12)).report
        assert report.success and report.ber == 0.0

    def test_explicit_key_recovered(self):
        key = bytes(range(32))
        result = run_scenario(ScenarioConfig(channel="radiot", key=key, snr_db=35, seed=9))
        assert result.key == key and result.report.success

    def test_trace_channel_run(self):
        report = run_scenario(ScenarioConfig(channel="hdd_led", seed=10)).report
        assert report.success
        assert report.airtime_s == pytest.approx(522 / 6.4)

    def test_deterministic_reports(self):
        a = run_scenario(ScenarioConfig(channel="ultrasonic", snr_db=12, seed=77)).report
        b = run_scenario(ScenarioConfig(channel="ultrasonic", snr_db=12, seed=77)).report
        assert a == b

    def test_airtime_law(self):
        for name in ("gsmem", "kbd_led"):
            report = run_scenario(ScenarioConfig(channel=name, seed=3)).report
            rate = lookup(name).nominal_bit_rate
            assert abs(report.airtime_s * rate - report.bits_sent) <= 1.0


def traced_peak(fn, *args):
    """fn(*args) and the tracemalloc peak in bytes while it ran; an exception
    fn raises is returned in place of its result."""
    tracemalloc.start()
    try:
        try:
            result = fn(*args)
        except Exception as exc:  # handed back for the caller to check
            result = exc
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryBudget:
    @pytest.mark.parametrize("channel, bound", [("ultrasonic", 4.25), ("gsmem", 2.5)])
    def test_warm_run_peak_is_a_few_outputs(self, channel, bound):
        run_scenario(ScenarioConfig(channel=channel, seed=1))
        result, peak = traced_peak(run_scenario, ScenarioConfig(channel=channel, seed=2))
        assert peak <= bound * result.received.samples.nbytes


class TestRefusalOrder:
    @pytest.mark.parametrize("override", [{"snr_db": math.nan}, {"symbol_rate": 1e-6}], ids=["nan-snr", "oversized-grid"])
    def test_refused_before_the_noise_draw_starts(self, monkeypatch, override):
        def submit(*args, **kwargs):
            pytest.fail("work submitted to a thread pool before the run was refused")

        monkeypatch.setattr(ThreadPoolExecutor, "submit", submit)
        raised, peak = traced_peak(run_scenario, ScenarioConfig(channel="ultrasonic", seed=1, **override))
        assert isinstance(raised, ValueError)
        assert peak < 4 * 2**20


class TestPayloadBer:
    def test_zero_on_clean_frame(self):
        rng = random.Random(1)
        key = bytes(rng.randrange(256) for _ in range(32))
        assert payload_ber(key, frame_encode(key)) == 0.0

    def test_counts_corrupted_payload_bits(self):
        rng = random.Random(2)
        key = bytes(rng.randrange(256) for _ in range(32))
        bits = frame_encode(key)
        # double-flip the first payload FEC block: Hamming miscorrects it
        bits[46] ^= 1
        bits[47] ^= 1
        assert payload_ber(key, bits) > 0.0

    def test_truncated_bits_count_as_errors(self):
        rng = random.Random(3)
        key = bytes(rng.randrange(256) for _ in range(32))
        assert payload_ber(key, frame_encode(key)[:100]) > 0.2


class TestSweep:
    def test_zero_width_sweep_yields_trials_rows(self):
        reports = sweep("radiot", 30, 30, 1, trials=4, base_seed=100)
        assert len(reports) == 4
        assert [r.seed for r in reports] == [100, 101, 102, 103]

    def test_high_snr_endpoint_all_success(self):
        reports = sweep("radiot", 25, 35, 5, trials=3, base_seed=0)
        top = [r for r in reports if r.snr_db == 35]
        assert top and all(r.success for r in top)

    def test_csv_has_eight_columns(self):
        text = sweep_csv(sweep("radiot", 30, 30, 1, trials=2))
        lines = text.strip().splitlines()
        assert lines[0] == RUN_CSV_HEADER
        assert all(len(line.split(",")) == 8 for line in lines)

    def test_rows_ordered_by_snr_then_trial(self):
        reports = sweep("airhopper", 10, 20, 10, trials=2, base_seed=50)
        order = [(r.snr_db, r.seed) for r in reports]
        assert order == [(10, 50), (10, 51), (20, 50), (20, 51)]

    def test_trace_preset_rejected(self):
        with pytest.raises(ValueError):
            sweep("kbd_led", 0, 10, 5, trials=1)

    def test_step_validation(self):
        with pytest.raises(ValueError):
            sweep("radiot", 0, 10, 0, trials=1)

    @pytest.mark.parametrize(
        "start, end, step",
        [(0, math.inf, 1), (-math.inf, 0, 1), (0, 10, math.inf), (math.nan, 10, 1), (0, math.nan, 1), (0, 10, math.nan)],
    )
    def test_non_finite_range_rejected(self, start, end, step):
        with pytest.raises(ValueError, match="finite"):
            sweep("radiot", start, end, step, trials=1)

    @pytest.mark.parametrize("start, end, step", [(0, 1e300, 1e-300), (-1e308, 1e308, 1)])
    def test_step_count_past_float_range_rejected(self, start, end, step):
        with pytest.raises(ValueError, match="too many steps"):
            sweep("radiot", start, end, step, trials=1)


class TestTable4:
    def test_eleven_rows_all_pass(self):
        rows, all_pass = table4_report()
        assert len(rows) == 11
        assert all_pass
        assert all(r.verdict == "pass" for r in rows)

    def test_known_airtimes(self):
        rows = {r.preset: r for r in table4_report()[0]}
        assert rows["ultrasonic"].airtime_s == pytest.approx(26.1)
        assert rows["powerhammer"].airtime_s == pytest.approx(52.2)
        assert rows["gsmem"].airtime_s == pytest.approx(261.0)
        assert rows["fansmitter"].airtime_s == pytest.approx(2610.0)

    def test_verdict_bound_is_2_5x_table_max(self):
        for row in table4_report()[0]:
            assert row.bound_s == pytest.approx(2.5 * row.table_max_s)
            assert row.airtime_s <= row.bound_s

    def test_csv_covers_catalog(self):
        lines = table4_csv(table4_report()[0]).strip().splitlines()
        assert len(lines) == 1 + len(preset_catalog())


class TestSeedDerivation:
    def test_key_depends_only_on_seed(self):
        assert derive_key(123) == derive_key(123)
        assert derive_key(123) != derive_key(124)
        assert len(derive_key(0)) == 32

    def test_key_and_noise_streams_are_decorrelated(self):
        # same seed feeds both stages yet runs still succeed and reproduce
        a = run_scenario(ScenarioConfig(channel="airhopper", snr_db=30, seed=0))
        b = run_scenario(ScenarioConfig(channel="airhopper", snr_db=30, seed=0))
        assert a.key == b.key and a.report == b.report
