"""End-to-end scenario runner: frame -> modulate -> channel -> demodulate -> compare.

One 64-bit seed drives everything; sub-stages (key generation, channel
noise) derive their own streams by XORing the seed with a fixed stage
constant, so runs are reproducible bit-for-bit while stages stay
decorrelated.  The module also reproduces the published per-channel
time budgets for a framed 256-bit key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channel as chan
from . import keyframe, modem
from .errors import AirgapError

# Stage constants for the splittable seed derivation (seed XOR constant).
STAGE_KEY = 0x517CC1B727220A95
STAGE_NOISE = 0x9E3779B97F4A7C15

# Spec'd default near-ultrasonic pair: inaudible on consumer hardware,
# comfortably below Nyquist at the standard 48 kHz rate.
ULTRASONIC_SAMPLE_RATE = 48000
ULTRASONIC_F0 = 17500.0
ULTRASONIC_F1 = 18500.0


@dataclass
class ScenarioConfig:
    channel: str
    key: bytes | None = None  # None: derive from the seed
    snr_db: float | None = None  # None: channel.DEFAULT_SNR_DB
    seed: int = 0
    symbol_rate: float | None = None  # None: preset nominal bit rate
    f0: float | None = None
    f1: float | None = None


@dataclass
class RunReport:
    preset: str
    seed: int
    snr_db: float
    bits_sent: int
    airtime_s: float
    ber: float
    error_kind: str  # "" when the key came back exact

    @property
    def success(self) -> bool:
        return self.error_kind == ""

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
    received: modem.Waveform | modem.EventTrace


def derive_key(seed: int) -> bytes:
    rng = np.random.default_rng((seed ^ STAGE_KEY) & 0xFFFFFFFFFFFFFFFF)
    return rng.integers(0, 256, keyframe.KEY_BYTES, dtype=np.uint8).tobytes()


def _bit_rate(preset: chan.ChannelPreset, symbol_rate: float | None) -> float:
    """The symbol rate override, or the preset's nominal bit rate."""
    rate = symbol_rate if symbol_rate is not None else preset.nominal_bit_rate
    if not 0.0 < rate < math.inf:
        raise ValueError(f"symbol rate must be finite and positive, not {rate}")
    return rate


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
    symbol), which keeps slow channels cheap to synthesize.  f0 and f1
    override the BFSK space and mark tones, or f0 the OOK carrier; an OOK
    preset has no second tone, so f1 there raises ValueError.
    """
    rate = _bit_rate(preset, symbol_rate)
    if preset.band is not None:
        return modem.ModemConfig(
            tones=(f0 if f0 is not None else ULTRASONIC_F0, f1 if f1 is not None else ULTRASONIC_F1),
            symbol_rate=rate,
            sample_rate=ULTRASONIC_SAMPLE_RATE,
        )
    if f1 is not None:
        raise ValueError(f"{preset.name} sends OOK on one tone, set by f0; f1 has no tone to set")
    return modem.ModemConfig(
        tones=(f0 if f0 is not None else 16.0 * rate,),
        symbol_rate=rate,
        sample_rate=int(round(min(48000.0, max(1000.0, 200 * rate)))),
    )


def trace_slot_ms(preset: chan.ChannelPreset, symbol_rate: float | None = None) -> tuple[float, float]:
    """Equal on/off halves of one bit slot at the preset's bit rate."""
    slot = 1000.0 / _bit_rate(preset, symbol_rate)
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
    if preset.kind != chan.WAVEFORM and (cfg.f0 is not None or cfg.f1 is not None):
        raise ValueError(f"{preset.name} is an event trace with no tones; f0 and f1 have nothing to set")
    rate = _bit_rate(preset, cfg.symbol_rate)
    key = cfg.key if cfg.key is not None else derive_key(cfg.seed)
    bits = keyframe.frame_encode(key)
    noise_seed = (cfg.seed ^ STAGE_NOISE) & 0xFFFFFFFFFFFFFFFF
    snr = cfg.snr_db if cfg.snr_db is not None else chan.DEFAULT_SNR_DB

    if preset.kind == chan.WAVEFORM:
        mcfg = waveform_modem_config(preset, rate, cfg.f0, cfg.f1)
        modulate = modem.bfsk_modulate if mcfg.scheme == "bfsk" else modem.ook_modulate
        demodulate = modem.bfsk_demodulate if mcfg.scheme == "bfsk" else modem.ook_demodulate
        # Checked before the noise draw starts: it is sized from this count.
        n_samples = modem.sample_count(len(bits), mcfg)
        with chan.noise_draw(preset, n_samples, snr, noise_seed) as noise:
            tx = modulate(bits, mcfg)
            rx = chan.apply_waveform_channel(tx, preset, snr_db=snr, seed=noise_seed, noise=noise)
        received_bits = demodulate(rx, mcfg)
    else:
        on_ms, off_ms = trace_slot_ms(preset, rate)
        tx = modem.trace_modulate(bits, on_ms, off_ms)
        rx = chan.apply_trace_channel(tx, preset, seed=noise_seed)
        received_bits = modem.trace_demodulate(rx, on_ms, off_ms)

    error_kind = ""
    try:
        if keyframe.frame_decode(received_bits) != key:
            error_kind = "PayloadMismatch"
    except AirgapError as exc:
        error_kind = type(exc).__name__
    ber = payload_ber(key, received_bits) if error_kind else 0.0

    report = RunReport(
        preset=preset.name,
        seed=cfg.seed,
        snr_db=snr,
        bits_sent=len(bits),
        airtime_s=len(bits) / rate,
        ber=ber,
        error_kind=error_kind,
    )
    return RunResult(report, key, rx)


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
    if not all(map(math.isfinite, (snr_start, snr_end, snr_step))):
        raise ValueError("SNR start, end and step must be finite")
    if snr_step <= 0:
        raise ValueError("snr_step must be positive")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    preset = chan.lookup(channel_name)
    if preset.kind != chan.WAVEFORM:
        raise ValueError("sweep varies SNR and therefore needs a waveform preset")
    steps = (snr_end - snr_start) / snr_step
    if not math.isfinite(steps):
        raise ValueError("SNR range has too many steps")
    count = int(round(steps)) + 1
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
