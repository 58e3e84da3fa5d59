"""Acceptance suite: one test per exit criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
The end-to-end criterion synthesizes every waveform preset 100 times and is
the bulk of the runtime (about a minute).
"""

import hashlib
import random
import shutil
import subprocess
import time
from pathlib import Path

import numpy as np

from airgaplab.channel import TIME_BUDGET_FACTOR, preset_catalog
from airgaplab.cli import main
from airgaplab.errors import SecretTooLarge
from airgaplab.harness import ScenarioConfig, run_scenario, table4_report
from airgaplab.keyframe import HEADER_BITS, crc16, frame_decode, frame_encode, hamming74_decode, hamming74_encode
from airgaplab.mediahide import (
    add_file,
    create_image,
    extract_entry,
    extract_slack,
    fsck,
    hide_entry,
    hide_slack,
    list_files,
    read_file,
)
from airgaplab.optstego import (
    GrayImage,
    invisible_embed,
    invisible_extract,
    qr_decode,
    stego_embed,
    stego_extract,
)
from airgaplab.optstego.qr import ECC_PER_BLOCK, byte_mode_capacity

SNR_GATE_DB = 30.0
JITTER_GATE = 0.10
RUNS_PER_PRESET = 100
# sha256 of repr() of criterion 2's (preset, seed, success, ber, error_kind) rows.
CRITERION_2_ROWS_SHA256 = "11cfebae2902fd22efbac49920f4539a609389e72ed121546a2e696707d32b1e"


def _verdict(number: int, label: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {label}{suffix}")
    assert passed, f"criterion {number} failed: {label} {suffix}"


def test_criterion_1_table4_reproduction():
    t0 = time.time()
    rows, all_pass = table4_report()
    elapsed = time.time() - t0
    checks = [len(rows) == 11, all_pass, elapsed < 1.0]
    expected = {"ultrasonic": 26.1, "powerhammer": 52.2, "gsmem": 261.0, "fansmitter": 2610.0}
    by_name = {r.preset: r for r in rows}
    for name, airtime in expected.items():
        checks.append(abs(by_name[name].airtime_s - airtime) < 1e-6)
        checks.append(by_name[name].airtime_s <= TIME_BUDGET_FACTOR * by_name[name].table_max_s)
    _verdict(
        1,
        "table4 airtimes within 2.5x of published ranges for all 11 presets",
        all(checks),
        f"{elapsed * 1000:.0f} ms",
    )


def test_criterion_2_end_to_end_exfiltration():
    failures, rows = [], []
    for preset in preset_catalog():
        snr = SNR_GATE_DB if preset.kind == "waveform" else None
        if preset.kind == "trace":
            assert preset.jitter_fraction <= JITTER_GATE
        for seed in range(RUNS_PER_PRESET):
            report = run_scenario(ScenarioConfig(channel=preset.name, snr_db=snr, seed=seed)).report
            rows.append((report.preset, report.seed, report.success, report.ber, report.error_kind))
            if not (report.success and report.ber == 0.0):
                failures.append((preset.name, seed, report.error_kind))
    _verdict(
        2,
        f"exact key recovery in {RUNS_PER_PRESET} seeded runs per preset "
        f"(waveform @ {SNR_GATE_DB:g} dB, trace @ {JITTER_GATE:.0%} jitter)",
        not failures,
        f"{11 * RUNS_PER_PRESET} runs" + (f", failures: {failures[:5]}" if failures else ""),
    )
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == CRITERION_2_ROWS_SHA256


def test_criterion_3_fec_crc_oracle_suite():
    ok = True
    # Hamming: all 16 nibbles x 7 single-bit flips corrected.
    for nibble in range(16):
        word = hamming74_encode(nibble)
        ok &= hamming74_decode(word) == (nibble, False)
        for pos in range(7):
            ok &= hamming74_decode(word ^ (1 << pos)) == (nibble, True)

    # Whole-frame sweep: one flip in every 7-bit block of a 522-bit frame,
    # every block position, individually and all blocks at once.
    rng = random.Random(101)
    key = bytes(rng.randrange(256) for _ in range(32))
    bits = frame_encode(key)
    n_blocks = (len(bits) - HEADER_BITS) // 7
    ok &= len(bits) == 522 and n_blocks == 70
    for position in range(7):
        blanket = bits[:]
        for block in range(n_blocks):
            blanket[HEADER_BITS + 7 * block + position] ^= 1
        ok &= frame_decode(blanket) == key
    for block in range(n_blocks):
        single = bits[:]
        single[HEADER_BITS + 7 * block + (block % 7)] ^= 1
        ok &= frame_decode(single) == key

    # CRC: exhaustive 1- and 2-bit corruption of the 35-byte decoded frame.
    body = bytes([32]) + key
    region = bytearray(body + crc16(body).to_bytes(2, "big"))
    n_bits = 8 * len(region)

    def undetected(buf: bytearray) -> bool:
        return crc16(bytes(buf[:33])) == int.from_bytes(buf[33:], "big")

    misses = 0
    for i in range(n_bits):
        region[i // 8] ^= 1 << (7 - i % 8)
        misses += undetected(region)
        region[i // 8] ^= 1 << (7 - i % 8)
    for i in range(n_bits):
        region[i // 8] ^= 1 << (7 - i % 8)
        for j in range(i + 1, n_bits):
            region[j // 8] ^= 1 << (7 - j % 8)
            misses += undetected(region)
            region[j // 8] ^= 1 << (7 - j % 8)
        region[i // 8] ^= 1 << (7 - i % 8)
    ok &= misses == 0
    _verdict(3, "exhaustive Hamming correction and 1/2-bit CRC detection, zero misses", ok,
             f"{n_bits + n_bits * (n_bits - 1) // 2} CRC corruptions")


def test_criterion_4_qr_semantic_transparency():
    # ISO byte-mode capacity tops out at 271 bytes for version 10 level L;
    # with a 32-byte secret plus length prefix the visible text can reach
    # 238 bytes, so the random texts are drawn up to that physical bound.
    level = "L"
    max_text = byte_mode_capacity(10, level) - 33
    assert max_text == 238
    rng = random.Random(202)
    ok = True
    for _ in range(100):
        text = bytes(rng.randrange(256) for _ in range(rng.randint(1, max_text)))
        secret = bytes(rng.randrange(256) for _ in range(32))
        matrix = stego_embed(text, secret, level)
        ok &= qr_decode(matrix) == text
        ok &= stego_extract(matrix) == secret

    # Beyond the bound the embedder must refuse rather than corrupt.
    try:
        stego_embed(bytes(max_text + 1), bytes(32), level)
        ok = False
    except SecretTooLarge:
        pass

    # RS corrector: half the per-block budget injected into a stego symbol.
    from test_qr import _block_data_positions, _corrupt_codewords

    for _ in range(10):
        text = bytes(rng.randrange(256) for _ in range(rng.randint(20, 150)))
        secret = bytes(rng.randrange(256) for _ in range(32))
        matrix = stego_embed(text, secret, "M")
        ecc = ECC_PER_BLOCK["M"][matrix.version - 1]
        chosen = []
        for block_positions in _block_data_positions(matrix.version, "M"):
            chosen += rng.sample(block_positions, min(ecc // 2, len(block_positions)))
        damaged = _corrupt_codewords(matrix, chosen, rng)
        ok &= qr_decode(damaged) == text
        ok &= stego_extract(damaged) == secret
    _verdict(4, "stego symbols decode to the plain text and yield the exact secret "
                "(100 pairs, plus half-budget RS injection)", ok,
             f"text lengths 1..{max_text} at level {level}")


def test_criterion_5_invisible_qr():
    from airgaplab.optstego import qr_encode

    text = b"01000000017b1eabe0209b1fe794124575ef807057c77ada2138ae4f8a14"
    matrix = qr_encode(text, "M")
    side = matrix.size * 4 + 16
    ok = True

    carrier = GrayImage.uniform(side, side, 128)
    stamped = invisible_embed(carrier, matrix, amplitude=6, scale=4, offset=(8, 8))
    ok &= int(np.abs(stamped.pixels.astype(int) - carrier.pixels.astype(int)).max()) <= 6
    recovered = invisible_extract(stamped, matrix.version, scale=4, offset=(8, 8))
    ok &= recovered.modules == matrix.modules and qr_decode(recovered) == text

    yy, xx = np.mgrid[0:side, 0:side]
    gradient = 15.0 * (xx + yy) / (2 * side) - 7.5
    for seed in range(20):
        rng = np.random.default_rng(seed)
        base = np.clip(128 + gradient + rng.normal(0, 6, (side, side)), 0, 255).astype(np.uint8)
        noisy = GrayImage(side, side, base)
        stamped = invisible_embed(noisy, matrix, amplitude=6, scale=4, offset=(8, 8))
        ok &= int(np.abs(stamped.pixels.astype(int) - noisy.pixels.astype(int)).max()) <= 6
        recovered = invisible_extract(stamped, matrix.version, scale=4, offset=(8, 8))
        try:
            ok &= qr_decode(recovered) == text
        except Exception:
            ok = False
    _verdict(5, "amplitude-6 invisible symbol decodes on mid-gray and 20 noisy carriers, "
                "per-pixel delta bounded", ok)


def test_criterion_6_media_hide_transparency():
    rng = random.Random(303)
    image = create_image(16 * 1024 * 1024)
    files = {
        f"FILE{i}.DAT": bytes(rng.randrange(256) for _ in range(rng.randint(100, 6000)))
        for i in range(5)
    }
    for name, contents in files.items():
        add_file(image, name, contents)
    secret = bytes(rng.randrange(256) for _ in range(32))
    hide_slack(image, "FILE0.DAT", secret)
    hide_entry(image, secret)

    ok = fsck(image).ok
    ok &= all(read_file(image, name) == contents for name, contents in files.items())
    ok &= {n for n, _, _ in list_files(image, include_hidden=False)} == set(files)
    ok &= extract_slack(image, "FILE0.DAT") == secret
    ok &= extract_entry(image) == secret

    mount_note = "OS driver check skipped: no FAT tool in environment"
    tool = shutil.which("fsck.fat") or shutil.which("dosfsck")
    if tool and ok:
        import tempfile

        with tempfile.NamedTemporaryFile(suffix=".img") as fh:
            fh.write(image.data)
            fh.flush()
            result = subprocess.run([tool, "-n", fh.name], capture_output=True)
            ok &= result.returncode == 0
            mount_note = f"{tool} -n exit {result.returncode}"
    _verdict(6, "hide_slack + hide_entry leave a consistent image with visible files intact "
                "and both secrets recoverable", ok, mount_note)


def test_criterion_7_cli_determinism(tmp_path, capsys):
    grabs = []
    for tag in ("first", "second"):
        wav = str(tmp_path / f"{tag}.wav")
        swp = str(tmp_path / f"{tag}_sweep.csv")
        t4 = str(tmp_path / f"{tag}_table4.csv")
        pbm = str(tmp_path / f"{tag}.pbm")
        img = str(tmp_path / f"{tag}.img")
        trc = str(tmp_path / f"{tag}_trace.csv")
        text = tmp_path / f"{tag}.txt"
        text.write_bytes(b"same visible transaction")
        assert main(["exfil", "--channel", "mosquito", "--seed", "2024", "--wav", wav]) == 0
        assert main(["exfil", "--channel", "diskfiltration", "--seed", "2024", "--trace", trc]) == 0
        assert main(["sweep", "--channel", "airhopper", "--snr-from", "20", "--snr-to", "30",
                     "--step", "5", "--trials", "2", "--out", swp]) == 0
        assert main(["table4", "--out", t4]) == 0
        assert main(["qr-stego", "embed", "--text", str(text), "--secret", "ee" * 32, "--pbm", pbm]) == 0
        assert main(["usb", "create", "--image", img, "--size-mib", "8"]) == 0
        assert main(["usb", "hide-entry", "--image", img, "--secret", "ee" * 32]) == 0
        grabs.append(tuple(Path(p).read_bytes() for p in (wav, swp, t4, pbm, img, trc)))
    capsys.readouterr()  # keep the verdict line as the visible output
    _verdict(7, "identical seeded CLI invocations produce byte-identical "
                "WAV/CSV/PBM/IMG outputs", grabs[0] == grabs[1])
