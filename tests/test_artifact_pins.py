"""Byte pins: seeded QR, FAT16, bitstream and transmit WAV artifacts hash to
recorded values.

Drift in the QR interleave, data-cell order, function patterns or format
words, the Hamming(7,4) tables, the FAT16 boot sector (16-bit and 32-bit
total-sectors forms), entry and hidden-payload layout, or the OOK/BFSK
transmitter's samples changes a hash here.  A last test pins the Python
types at the API boundary, which callers serialise as JSON.
"""

import hashlib
import json
import random

import pytest

from airgaplab.channel import lookup
from airgaplab.harness import waveform_modem_config
from airgaplab.keyframe import frame_encode
from airgaplab.mediahide import add_file, create_image, hide_entry, hide_slack
from airgaplab.modem import (
    bfsk_demodulate,
    bfsk_modulate,
    ook_demodulate,
    ook_modulate,
    trace_demodulate,
    trace_modulate,
    write_wav,
)
from airgaplab.optstego import (
    EC_LEVELS,
    GrayImage,
    from_pbm,
    invisible_embed,
    invisible_extract,
    qr_encode,
    stego_embed,
    to_pbm,
)
from airgaplab.optstego.qr import byte_mode_capacity

QR_V3_TO_V10_SHA256 = "3012eb9416a1ffb01914157c17bbcc6d8caaf2ad749fbfa246e5b0a62772d097"
# PBM bytes of a full-capacity symbol at every version 1-10 and level L/M/Q/H:
# function patterns, version bits and all 32 format words in both copies.
QR_EVERY_VERSION_AND_LEVEL_SHA256 = "fc0fc3765344c3daf0174d4d285a54f0a70af3ace01d1945a668dc751cf3b379"
IMAGE_SHA256 = {
    4: "6742ef089bd6a9694d177c7e4ef95d308d08975f1a9f1fbe139367803d1b4900",
    16: "85b3523bc5b88181bb50fc454aa6a73484059781464fd29b505406332767a117",
    # Only a volume of 0x10000 sectors or more sets the 32-bit total-sectors field.
    64: "38042794d5efe27f30da8f0dcff449363e33cac7631c343a4b4126cdf06ef9d4",
}
FRAME_SHA256 = "aa7e9f0264980e480d2dad3ec1147cb462a4be1517771729c195386ed549e691"
# WAV bytes of each waveform preset's transmitted frame of bytes(range(32)).
# gsmem and magnetic share one modem config, as do ultrasonic and mosquito.
TRANSMIT_WAV_SHA256 = {
    "airhopper": "7d9a01e2fa7013577b8b09880230ee2159521dcaad43d57061e4653f004b00e8",
    "gsmem": "58ff80e42a66210ad9154bbcb41268707cee262017d3f1ac7ed3f298c6a7fde4",
    "radiot": "9ea664693e75dad71b9571dfa24d517ac205433efc16c4c34daccb1f9283d041",
    "powerhammer": "2109ed84d6c71f06612350f7a0599031e82206126b551ca2712a6c2b9eab12be",
    "magnetic": "58ff80e42a66210ad9154bbcb41268707cee262017d3f1ac7ed3f298c6a7fde4",
    # Exact-phase BFSK: 217 259 of these 1 252 800 samples differ by one LSB
    # from a per-sample cumsum phase, which drifts by up to 3e-5.
    "ultrasonic": "6e30c27640518168a0e5915f2476b606f5bf7f155eab7dda229d8c8ef216a68b",
    "mosquito": "6e30c27640518168a0e5915f2476b606f5bf7f155eab7dda229d8c8ef216a68b",
}


def test_seeded_artifacts_keep_their_bytes():
    rng = random.Random(2018)
    secret = bytes(rng.randrange(256) for _ in range(32))

    symbols = hashlib.sha256()
    for version in range(3, 11):
        # Text that leaves exactly the 33 padding bytes the secret needs.
        text = bytes(rng.randrange(256) for _ in range(byte_mode_capacity(version, "M") - 33))
        matrix = stego_embed(text, secret, "M")
        assert matrix.version == version
        symbols.update(to_pbm(matrix).encode())

    txn = bytes(rng.randrange(256) for _ in range(3000))
    images = {}
    for mib in IMAGE_SHA256:
        img = create_image(mib * 1024 * 1024)
        add_file(img, "TXN.DAT", txn)
        add_file(img, "NOTE.TXT", b"cold wallet notes\n" * 50)
        hide_slack(img, "TXN.DAT", secret)
        hide_entry(img, secret)
        images[mib] = hashlib.sha256(img.data).hexdigest()

    frame = "".join(map(str, frame_encode(bytes(range(32))))) + "\n"

    assert symbols.hexdigest() == QR_V3_TO_V10_SHA256
    assert images == IMAGE_SHA256
    assert hashlib.sha256(frame.encode()).hexdigest() == FRAME_SHA256


def test_every_version_and_level_keeps_its_symbol_bytes():
    rng = random.Random(2018)
    symbols = hashlib.sha256()
    for level in EC_LEVELS:
        for version in range(1, 11):
            matrix = qr_encode(bytes(rng.randrange(256) for _ in range(byte_mode_capacity(version, level))), level)
            assert matrix.version == version
            symbols.update(to_pbm(matrix).encode())
    assert symbols.hexdigest() == QR_EVERY_VERSION_AND_LEVEL_SHA256


@pytest.mark.parametrize("preset", sorted(TRANSMIT_WAV_SHA256))
def test_transmitted_frame_keeps_its_wav_bytes(preset, tmp_path):
    cfg = waveform_modem_config(lookup(preset))
    modulate = bfsk_modulate if cfg.scheme == "bfsk" else ook_modulate
    path = tmp_path / "tx.wav"
    write_wav(str(path), modulate(frame_encode(bytes(range(32))), cfg))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRANSMIT_WAV_SHA256[preset]


def test_results_are_python_values():
    """Bits are a list of int and QR modules are bool, never numpy scalars."""
    bits = frame_encode(bytes(range(32)))
    results = {"frame_encode": bits, "trace_demodulate": trace_demodulate(trace_modulate(bits, 5, 5), 5, 5)}
    for preset, demodulate in (("airhopper", ook_demodulate), ("ultrasonic", bfsk_demodulate)):
        cfg = waveform_modem_config(lookup(preset))
        modulate = bfsk_modulate if cfg.scheme == "bfsk" else ook_modulate
        results[demodulate.__name__] = demodulate(modulate(bits, cfg), cfg)
    for name, got in results.items():
        assert type(got) is list and {type(b) for b in got} == {int}, name
        assert got == bits, name
    symbol = qr_encode(b"cold wallet")
    matrices = [symbol, stego_embed(b"cold wallet", bytes(32), "M"), from_pbm(to_pbm(symbol)),
                invisible_extract(invisible_embed(GrayImage.uniform(100, 100), symbol), symbol.version)]
    for m in matrices:
        assert {type(cell) for row in m.modules for cell in row} == {bool}
    json.dumps([results, [m.modules for m in matrices]])
