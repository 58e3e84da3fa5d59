"""Byte pins: seeded QR, FAT16 and bitstream artifacts hash to recorded values.

Drift in the QR interleave or data-cell order, the Hamming(7,4) tables, or
the FAT16 entry and hidden-payload layout changes a hash here.
"""

import hashlib
import random

from airgaplab.keyframe import bits_to_text, frame_encode
from airgaplab.mediahide import add_file, create_image, hide_entry, hide_slack
from airgaplab.optstego import stego_embed, to_pbm
from airgaplab.optstego.qr import byte_mode_capacity

QR_V3_TO_V10_SHA256 = "3012eb9416a1ffb01914157c17bbcc6d8caaf2ad749fbfa246e5b0a62772d097"
IMAGE_SHA256 = "6742ef089bd6a9694d177c7e4ef95d308d08975f1a9f1fbe139367803d1b4900"
FRAME_SHA256 = "aa7e9f0264980e480d2dad3ec1147cb462a4be1517771729c195386ed549e691"


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

    img = create_image(4 * 1024 * 1024)
    add_file(img, "TXN.DAT", bytes(rng.randrange(256) for _ in range(3000)))
    add_file(img, "NOTE.TXT", b"cold wallet notes\n" * 50)
    hide_slack(img, "TXN.DAT", secret)
    hide_entry(img, secret)

    frame = bits_to_text(frame_encode(bytes(range(32))))

    assert symbols.hexdigest() == QR_V3_TO_V10_SHA256
    assert hashlib.sha256(img.data).hexdigest() == IMAGE_SHA256
    assert hashlib.sha256(frame.encode()).hexdigest() == FRAME_SHA256
