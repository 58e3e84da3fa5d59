"""End-to-end scenario runner: frame -> modulate -> channel -> demodulate -> compare.

One 64-bit seed drives everything; sub-stages (key generation, channel
noise) derive their own streams by XORing the seed with a fixed stage
constant, so runs are reproducible bit-for-bit while stages stay
decorrelated.  The module also reproduces the published per-channel
time budgets for a framed 256-bit key.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channel as chan
from . import keyframe, modem
from .errors import AirgapError

# Stage constants for the splittable seed derivation (seed XOR constant).
STAGE_KEY = 0x517CC1B727220A95
STAGE_NOISE = 0x9E3779B97F4A7C15

KEY_BITS = 8 * keyframe.KEY_BYTES

# Spec'd default near-ultrasonic pair: inaudible on consumer hardware,
# comfortably below Nyquist at the standard 48 kHz rate.
ULTRASONIC_SAMPLE_RATE = 48000
ULTRASONIC_F0 = 17500.0
ULTRASONIC_F1 = 18500.0

TX_AMPLITUDE = 0.8


@dataclass
class ScenarioConfig:
    channel: str
    key: bytes | keyframe.PrivateKey | None = None  # None: derive from the seed
    snr_db: float | None = None  # None: preset default
    seed: int = 0
    symbol_rate: float | None = None  # None: preset nominal bit rate
    f0: float | None = None
    f1: float | None = None

    def key_bytes(self) -> bytes | None:
        if isinstance(self.key, keyframe.PrivateKey):
            return self.key.data
        return self.key


@dataclass
class RunReport:
    preset: str
    seed: int
    snr_db: float
    bits_sent: int
    airtime_s: float
    ber: float
    success: bool
    error_kind: str

    def csv_row(self) -> str:
        return (
            f"{self.preset},{self.snr_db:g},{self.seed},{self.bits_sent},"
            f"{self.airtime_s:.4f},{self.ber:.6f},{str(self.success).lower()},{self.error_kind}"
        )


RUN_CSV_HEADER = "preset,snr_db,seed,bits_sent,airtime_s,ber,success,error_kind"


@dataclass
class RunResult:
    report: RunReport
    key: bytes
    transmitted: modem.Waveform | modem.EventTrace
    received: modem.Waveform | modem.EventTrace


def derive_key(seed: int) -> bytes:
    rng = np.random.default_rng((seed ^ STAGE_KEY) & 0xFFFFFFFFFFFFFFFF)
    return rng.integers(0, 256, keyframe.KEY_BYTES, dtype=np.uint8).tobytes()


def waveform_modem_config(
    preset: chan.ChannelPreset,
    symbol_rate: float | None = None,
    f0: float | None = None,
    f1: float | None = None,
) -> modem.ModemConfig:
    """Modem parameters standing in for each waveform medium.

    The acoustic presets use the real near-ultrasonic BFSK pair at 48 kHz;
    the modeled EM/electric/magnetic pipes run OOK at a carrier and sample
    rate scaled to their bit rate (16 cycles per symbol, >=100 samples per
    symbol), which keeps slow channels cheap to synthesize.
    """
    rate = symbol_rate if symbol_rate is not None else preset.nominal_bit_rate
    if preset.band is not None:
        return modem.ModemConfig(
            scheme="bfsk",
            symbol_rate=rate,
            sample_rate=ULTRASONIC_SAMPLE_RATE,
            f0=f0 if f0 is not None else ULTRASONIC_F0,
            f1=f1 if f1 is not None else ULTRASONIC_F1,
            amplitude=TX_AMPLITUDE,
        )
    sample_rate = min(48000, max(1000, int(round(200 * rate))))
    return modem.ModemConfig(
        scheme="ook",
        symbol_rate=rate,
        sample_rate=sample_rate,
        f_carrier=(f0 if f0 is not None else 16.0 * rate),
        amplitude=TX_AMPLITUDE,
    )


def trace_slot_ms(preset: chan.ChannelPreset, symbol_rate: float | None = None) -> tuple[float, float]:
    """Equal on/off halves of one bit slot at the preset's bit rate."""
    rate = symbol_rate if symbol_rate is not None else preset.nominal_bit_rate
    slot = 1000.0 / rate
    return slot / 2.0, slot / 2.0


def payload_ber(key: bytes, received_bits: list[int]) -> float:
    """Best-effort bit error rate over the payload region only.

    Uses the known transmit framing (payload FEC blocks start at
    keyframe.PAYLOAD_START) rather than the receive-side sync search, so it
    stays defined even when frame decoding fails outright; missing tail bits
    read as zeros.
    """
    decoded = keyframe.decode_body(received_bits, keyframe.PAYLOAD_START, len(key))
    wrong = sum(bin(got ^ sent).count("1") for got, sent in zip(decoded, key))
    return wrong / (8 * len(key))


def run_scenario(cfg: ScenarioConfig) -> RunResult:
    """One deterministic exfiltration attempt through a channel preset."""
    preset = chan.lookup(cfg.channel)
    key = cfg.key_bytes()
    if key is None:
        key = derive_key(cfg.seed)
    bits = keyframe.frame_encode(key)
    noise_seed = (cfg.seed ^ STAGE_NOISE) & 0xFFFFFFFFFFFFFFFF
    snr = cfg.snr_db if cfg.snr_db is not None else preset.snr_db

    if preset.kind == chan.WAVEFORM:
        mcfg = waveform_modem_config(preset, cfg.symbol_rate, cfg.f0, cfg.f1)
        modulate = modem.bfsk_modulate if mcfg.scheme == "bfsk" else modem.ook_modulate
        demodulate = modem.bfsk_demodulate if mcfg.scheme == "bfsk" else modem.ook_demodulate
        tx = modulate(bits, mcfg)
        rx = chan.apply_waveform_channel(tx, preset, snr_db=snr, seed=noise_seed)
        received_bits = demodulate(rx, mcfg)
        airtime = len(bits) / mcfg.symbol_rate
    else:
        on_ms, off_ms = trace_slot_ms(preset, cfg.symbol_rate)
        tx = modem.trace_modulate(bits, on_ms, off_ms)
        rx = chan.apply_trace_channel(tx, preset, seed=noise_seed)
        received_bits = modem.trace_demodulate(rx, on_ms, off_ms)
        airtime = len(bits) * (on_ms + off_ms) / 1000.0

    success = False
    error_kind = ""
    try:
        decoded = keyframe.frame_decode(received_bits)
        success = decoded == key
        if not success:
            error_kind = "PayloadMismatch"
    except AirgapError as exc:
        error_kind = type(exc).__name__
    ber = 0.0 if success else payload_ber(key, received_bits)

    report = RunReport(
        preset=preset.name,
        seed=cfg.seed,
        snr_db=snr,
        bits_sent=len(bits),
        airtime_s=airtime,
        ber=ber,
        success=success,
        error_kind=error_kind,
    )
    return RunResult(report, key, tx, rx)


def estimate_time(preset: chan.ChannelPreset | str, payload_bytes: int) -> float:
    """Framed airtime in seconds: (32 + 14*(payload+3)) / bit rate."""
    if isinstance(preset, str):
        preset = chan.lookup(preset)
    if payload_bytes < 1:
        raise ValueError("payload_bytes must be at least 1")
    return keyframe.frame_bit_count(payload_bytes) / preset.nominal_bit_rate


def sweep(
    channel_name: str,
    snr_start: float,
    snr_end: float,
    snr_step: float,
    trials: int,
    base_seed: int = 0,
    key: bytes | None = None,
) -> list[RunReport]:
    """Grid of runs over SNR x trial; row order is (snr, trial) regardless
    of execution order, and trial t uses seed base_seed + t."""
    if snr_step <= 0:
        raise ValueError("snr_step must be positive")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    preset = chan.lookup(channel_name)
    if preset.kind != chan.WAVEFORM:
        raise ValueError("sweep varies SNR and therefore needs a waveform preset")
    count = int(round((snr_end - snr_start) / snr_step)) + 1
    if count < 1:
        raise ValueError("empty SNR range")
    reports = []
    for i in range(count):
        snr = snr_start + i * snr_step
        for trial in range(trials):
            cfg = ScenarioConfig(
                channel=channel_name, key=key, snr_db=snr, seed=base_seed + trial
            )
            reports.append(run_scenario(cfg).report)
    return reports


def sweep_csv(reports: list[RunReport]) -> str:
    return "\n".join([RUN_CSV_HEADER] + [r.csv_row() for r in reports]) + "\n"


@dataclass
class Table4Row:
    preset: str
    bit_rate: float
    airtime_s: float
    table_min_s: float
    table_max_s: float
    bound_s: float
    verdict: str


def table4_report() -> tuple[list[Table4Row], bool]:
    """Framed 256-bit airtime vs the published time budget for every preset.

    A row passes when the framed airtime stays within TIME_BUDGET_FACTOR of
    the top of the published window (the published figures exclude framing
    overhead and carry one significant digit).
    """
    rows = []
    all_pass = True
    for preset in chan.preset_catalog():
        airtime = estimate_time(preset, keyframe.KEY_BYTES)
        tmin, tmax = preset.table_time_range
        bound = chan.TIME_BUDGET_FACTOR * tmax
        ok = airtime <= bound
        all_pass &= ok
        rows.append(
            Table4Row(preset.name, preset.nominal_bit_rate, airtime, tmin, tmax, bound,
                      "pass" if ok else "fail")
        )
    return rows, all_pass


TABLE4_CSV_HEADER = "preset,bit_rate,airtime_s,table_min_s,table_max_s,bound_s,verdict"


def table4_csv(rows: list[Table4Row]) -> str:
    lines = [TABLE4_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.preset},{r.bit_rate:g},{r.airtime_s:.4f},{r.table_min_s:g},"
            f"{r.table_max_s:g},{r.bound_s:g},{r.verdict}"
        )
    return "\n".join(lines) + "\n"
