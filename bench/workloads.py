"""The benchmark's workloads: seeded inputs, one op, and the checks on it.

Each workload is a closed loop with one client: the next op starts when the
previous one has returned, with no worker threads or processes.  Inputs
derive from (seed, workload, op index) alone, so one seed gives the same ops
in the same order, and the program sees only the generated keys, texts and
sizes.  Ops call the program through module attributes
(``harness.run_scenario``, ``optstego.stego_embed``, ...) resolved at call
time, which is what lets the traced run wrap them from outside.

An op returns its outputs; ``check`` then verifies them outside the timed
region and returns the op's deterministic outcome record, which feeds the
determinism digest.
"""

from __future__ import annotations

import hashlib
import io
import zlib
from dataclasses import dataclass

import numpy as np

from airgaplab import channel as chan
from airgaplab import harness, keyframe, mediahide, modem, optstego
from airgaplab.errors import AirgapError
from measure import Checked

KEY_BYTES = 32
# Raw 32-bit preamble+sync, then length, key and CRC-16 as Hamming(7,4)
# coded nibbles: 14 bits per byte.
FRAME_BITS = 32 + 14 * (1 + KEY_BYTES + 2)

# How a scenario may end without the op failing, when decoding may fail.
DECODE_OUTCOMES = ("SyncNotFound", "CrcMismatch", "LengthOutOfRange", "PayloadMismatch")


def op_rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode()), index])


def sha256(data) -> str:
    return hashlib.sha256(data).hexdigest()


# ---- channel scenarios ----


def wav_bytes(w: modem.Waveform) -> bytes:
    """The WAV file the program writes for a waveform, built in memory."""
    buf = io.BytesIO()
    modem.write_wav(buf, w)
    return buf.getvalue()


def decode_received(result: harness.RunResult, preset_name: str) -> bytes | str:
    """Demodulate and deframe a scenario's received signal independently of
    run_scenario's own bookkeeping: the decoded key or the error name."""
    preset = chan.lookup(preset_name)
    if preset.kind == chan.WAVEFORM:
        mcfg = harness.waveform_modem_config(preset)
        demodulate = modem.bfsk_demodulate if mcfg.scheme == "bfsk" else modem.ook_demodulate
        bits = demodulate(result.received, mcfg)
    else:
        bits = modem.trace_demodulate(result.received, *harness.trace_slot_ms(preset))
    try:
        return keyframe.frame_decode(bits)
    except AirgapError as exc:
        return type(exc).__name__


class ScenarioWorkload:
    """Ops made of ``harness.run_scenario`` calls, one per (preset, snr)."""

    name = ""
    decode_may_fail = False
    window = 0  # ops whose outcomes form the digest, recovery rate and counts
    # ops rerun at the end of a run to check they repeat exactly; their
    # received signals are also decoded again by the benchmark itself
    replay = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def scenarios(self, index: int) -> list[tuple[str, float | None]]:
        """(preset, snr_db) of each scenario in op `index`; None: preset default."""
        raise NotImplementedError

    def make_input(self, index: int) -> list[harness.ScenarioConfig]:
        rng = op_rng(self.seed, self.name, index)
        key = rng.bytes(KEY_BYTES)
        scenario_seed = int(rng.integers(0, 2**63))
        return [
            harness.ScenarioConfig(channel=name, key=key, snr_db=snr, seed=scenario_seed)
            for name, snr in self.scenarios(index)
        ]

    def run(self, configs: list[harness.ScenarioConfig]) -> list[harness.RunResult]:
        return [harness.run_scenario(cfg) for cfg in configs]

    def check(self, configs, results, in_window: bool, redecode: bool = False) -> Checked:
        problems: list[str] = []
        record = []
        recovered = 0
        for cfg, result in zip(configs, results):
            rep = result.report
            if rep.preset != cfg.channel or result.key != cfg.key:
                problems.append("report names another preset or key")
            if rep.bits_sent != FRAME_BITS:
                problems.append(f"bits_sent {rep.bits_sent} != {FRAME_BITS}")
            if rep.airtime_s != harness.estimate_time(cfg.channel, KEY_BYTES):
                problems.append("airtime_s differs from estimate_time")
            if rep.success:
                recovered += 1
                if rep.ber != 0.0 or rep.error_kind:
                    problems.append("success reported with bit errors")
            elif not self.decode_may_fail:
                problems.append(f"decode failed: {rep.error_kind}")
            elif rep.error_kind not in DECODE_OUTCOMES or not 0.0 <= rep.ber <= 1.0:
                problems.append(f"unexpected outcome {rep.error_kind} ber={rep.ber}")
            if redecode:
                decoded = decode_received(result, cfg.channel)
                if rep.success and decoded != cfg.key:
                    problems.append("reported success does not decode to the exact key")
                if not rep.success and decoded == cfg.key:
                    problems.append("reported failure decodes to the exact key")
            outcome = [rep.preset, rep.success, rep.error_kind, rep.ber]
            if in_window and isinstance(result.received, modem.Waveform):
                outcome.append(sha256(wav_bytes(result.received)))
            record.append(outcome)
        return Checked(problems, record, recovered, len(configs))


class AcousticExfil(ScenarioWorkload):
    """ultrasonic and mosquito at 30 dB, alternating: 48 kHz BFSK with
    1.25 M samples per run, where modem and channel do nearly all the work."""

    name = "acoustic-exfil"
    window = 8
    replay = 2
    PRESETS = ("ultrasonic", "mosquito")
    SNR_DB = 30.0

    def scenarios(self, index):
        return [(self.PRESETS[index % 2], self.SNR_DB)]


def snr_grid(start: float, end: float, step: float) -> list[float]:
    """The SNR steps harness.sweep visits for the same arguments."""
    count = int(round((end - start) / step)) + 1
    return [start + i * step for i in range(count)]


class LowrateCliff(ScenarioWorkload):
    """One pass: every OOK preset at one SNR step of the cliff, plus the four
    trace presets at catalog jitter, all with one key and one seed."""

    name = "lowrate-cliff"
    decode_may_fail = True
    window = 60  # ten passes over the six SNR steps
    replay = 6
    OOK_PRESETS = ("airhopper", "radiot", "powerhammer", "gsmem", "magnetic")
    TRACE_PRESETS = ("fansmitter", "diskfiltration", "kbd_led", "hdd_led")
    SNR_STEPS = snr_grid(-18.0, -3.0, 3.0)

    def scenarios(self, index):
        snr = self.SNR_STEPS[index % len(self.SNR_STEPS)]
        return [(name, snr) for name in self.OOK_PRESETS] + [
            (name, None) for name in self.TRACE_PRESETS
        ]


# ---- QR and FAT16 artifacts ----

# Level-M data codewords of QR versions 1..10 (ISO/IEC 18004, table 7).
QR_M_DATA_CODEWORDS = (16, 28, 44, 64, 86, 108, 124, 154, 182, 216)
STEGO_PAD_BYTES = 1 + KEY_BYTES  # length byte + key in the padding region
OVERLAY_AMPLITUDE = 6
OVERLAY_SCALE = 4
OVERLAY_OFFSET = (8, 8)
IMAGE_MIB = (4, 16, 64)
VISIBLE_FILES = 4
HIDE_SLACK_BYTES = 5 + KEY_BYTES  # magic, length byte, key
CLUSTER = 2048


def stego_text_lengths() -> dict[int, range]:
    """Text lengths for which a byte-mode level-M symbol carrying a key in
    its padding needs exactly version v, from the standard's capacities."""
    out: dict[int, range] = {}
    low = 1
    for version, codewords in enumerate(QR_M_DATA_CODEWORDS, start=1):
        cap = 8 * codewords
        count_bits = 8 if version < 10 else 16
        high = low - 1
        while True:
            used = 4 + count_bits + 8 * (high + 1)
            if used > cap or (cap - used - min(4, cap - used)) // 8 < STEGO_PAD_BYTES:
                break
            high += 1
        if high >= low:
            out[version] = range(low, high + 1)
            low = high + 1
    return out


@dataclass
class SymbolInput:
    version: int
    text: bytes
    carrier: optstego.GrayImage  # smooth gradient with +-3 grey noise


@dataclass
class ArtifactInput:
    key: bytes
    symbols: list[SymbolInput]
    files: list[tuple[str, bytes]]  # the first one carries the slack secret


class ArtifactRoundtrip:
    """One key hidden and recovered through QR padding stego (via PBM) and
    the low-contrast overlay of that symbol, in two symbols whose versions
    pair up as (3, 10), (4, 9), (5, 8), (6, 7), and through FAT16 slack plus
    a hidden entry in a 4, a 16 and a 64 MiB image.  Pairing the versions
    and writing every image size in every op keeps op costs alike, so the
    latency distribution has one mode."""

    name = "artifact-roundtrip"
    TEXT_LENGTHS = stego_text_lengths()
    VERSIONS = sorted(TEXT_LENGTHS)
    VERSION_PAIRS = list(zip(VERSIONS[: len(VERSIONS) // 2], VERSIONS[::-1]))
    window = len(VERSION_PAIRS)  # every version once
    replay = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def _symbol_input(self, rng: np.random.Generator, version: int) -> SymbolInput:
        lengths = self.TEXT_LENGTHS[version]
        length = int(rng.integers(lengths.start, lengths.stop))
        text = rng.integers(0x20, 0x7F, length).astype(np.uint8).tobytes()
        side = (17 + 4 * version) * OVERLAY_SCALE + 2 * OVERLAY_OFFSET[0]
        yy, xx = np.mgrid[0:side, 0:side] / side
        gx, gy = rng.uniform(-8.0, 8.0, 2)
        smooth = rng.uniform(100.0, 156.0) + gx * xx + gy * yy
        noise = rng.integers(-3, 4, (side, side))
        pixels = np.clip(np.round(smooth) + noise, 0, 255).astype(np.uint8)
        return SymbolInput(version, text, optstego.GrayImage(side, side, pixels))

    def make_input(self, index: int) -> ArtifactInput:
        rng = op_rng(self.seed, self.name, index)
        key = rng.bytes(KEY_BYTES)
        pair = self.VERSION_PAIRS[index % len(self.VERSION_PAIRS)]
        symbols = [self._symbol_input(rng, version) for version in pair]
        carrier_size = CLUSTER * int(rng.integers(0, 3)) + int(
            rng.integers(1, CLUSTER - HIDE_SLACK_BYTES + 1))
        sizes = [carrier_size] + [int(s) for s in rng.integers(100, 6001, VISIBLE_FILES - 1)]
        files = [(f"FILE{i}.DAT", rng.bytes(size)) for i, size in enumerate(sizes)]
        return ArtifactInput(key, symbols, files)

    @staticmethod
    def _symbol_roundtrip(key: bytes, s: SymbolInput) -> dict:
        symbol = optstego.stego_embed(s.text, key, "M")
        pbm = optstego.to_pbm(symbol)
        parsed = optstego.from_pbm(pbm)
        stamped = optstego.invisible_embed(
            s.carrier, symbol, amplitude=OVERLAY_AMPLITUDE, scale=OVERLAY_SCALE,
            offset=OVERLAY_OFFSET)
        seen = optstego.invisible_extract(
            stamped, symbol.version, scale=OVERLAY_SCALE, offset=OVERLAY_OFFSET)
        return {
            "symbol": symbol,
            "pbm": pbm,
            "parsed": parsed,
            "pbm_secret": optstego.stego_extract(parsed),
            "pbm_text": optstego.qr_decode(parsed),
            "stamped": stamped,
            "seen": seen,
            "overlay_secret": optstego.stego_extract(seen),
            "overlay_text": optstego.qr_decode(seen),
        }

    def run(self, inp: ArtifactInput) -> dict:
        out = {"symbols": [self._symbol_roundtrip(inp.key, s) for s in inp.symbols],
               "images": []}
        carrier_name = inp.files[0][0]
        for mib in IMAGE_MIB:
            img = mediahide.create_image(mib * 2**20)
            for name, data in inp.files:
                mediahide.add_file(img, name, data)
            mediahide.hide_slack(img, carrier_name, inp.key)
            mediahide.hide_entry(img, inp.key)
            out["images"].append({
                "image": img,
                "fsck": mediahide.fsck(img),
                "slack_secret": mediahide.extract_slack(img, carrier_name),
                "entry_secret": mediahide.extract_entry(img),
                "files": [mediahide.read_file(img, name) for name, _ in inp.files],
            })
        return out

    def check(self, inp: ArtifactInput, out: dict, in_window: bool,
              redecode: bool = False) -> Checked:
        problems: list[str] = []
        secrets = []
        record = []
        for s, o in zip(inp.symbols, out["symbols"]):
            symbol = o["symbol"]
            expected = {
                "version": (symbol.version, s.version),
                "level": (symbol.ec_level, "M"),
                "PBM modules": (o["parsed"].modules, symbol.modules),
                "PBM text": (o["pbm_text"], s.text),
                "overlay text": (o["overlay_text"], s.text),
            }
            problems += [f"v{s.version} {what} differs"
                         for what, (got, want) in expected.items() if got != want]
            delta = np.abs(o["stamped"].pixels.astype(np.int16) - s.carrier.pixels)
            if int(delta.max()) > OVERLAY_AMPLITUDE:
                problems.append(f"v{s.version} overlay moves a pixel by more than its amplitude")
            secrets += [o["pbm_secret"], o["overlay_secret"]]
            # The overlay is a noisy channel: module errors are an outcome
            # that Reed-Solomon absorbs, so they are recorded, not checked.
            module_errors = sum(a != b for seen_row, row in zip(o["seen"].modules, symbol.modules)
                                for a, b in zip(seen_row, row))
            record.append([symbol.version, module_errors, sha256(o["pbm"].encode())])
        for mib, image in zip(IMAGE_MIB, out["images"]):
            if len(image["image"].data) != mib * 2**20:
                problems.append(f"{mib} MiB image changed size")
            if image["fsck"].findings or not image["fsck"].ok:
                problems.append(f"{mib} MiB image fails fsck: {image['fsck'].findings}")
            if image["files"] != [data for _, data in inp.files]:
                problems.append(f"{mib} MiB image returns other file contents")
            secrets += [image["slack_secret"], image["entry_secret"]]
        wrong = sum(secret != inp.key for secret in secrets)
        if wrong:
            problems.append(f"{wrong} of {len(secrets)} extracted secrets differ from the key")
        if in_window:
            record.append([sha256(image["image"].data) for image in out["images"]])
        return Checked(problems, record, int(not wrong), 1)


WORKLOADS = {w.name: w for w in (AcousticExfil, LowrateCliff, ArtifactRoundtrip)}
