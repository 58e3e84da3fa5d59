"""Byte pins: seeded QR, FAT16 and bitstream artifacts hash to recorded values.

Drift in the QR interleave or data-cell order, the Hamming(7,4) tables, or
the FAT16 boot sector (16-bit and 32-bit total-sectors forms), entry and
hidden-payload layout changes a hash here.
"""

import hashlib
import random

from airgaplab.keyframe import bits_to_text, frame_encode
from airgaplab.mediahide import add_file, create_image, hide_entry, hide_slack
from airgaplab.optstego import stego_embed, to_pbm
from airgaplab.optstego.qr import byte_mode_capacity

QR_V3_TO_V10_SHA256 = "3012eb9416a1ffb01914157c17bbcc6d8caaf2ad749fbfa246e5b0a62772d097"
IMAGE_SHA256 = {
    4: "6742ef089bd6a9694d177c7e4ef95d308d08975f1a9f1fbe139367803d1b4900",
    16: "85b3523bc5b88181bb50fc454aa6a73484059781464fd29b505406332767a117",
    # Only a volume of 0x10000 sectors or more sets the 32-bit total-sectors field.
    64: "38042794d5efe27f30da8f0dcff449363e33cac7631c343a4b4126cdf06ef9d4",
}
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

    txn = bytes(rng.randrange(256) for _ in range(3000))
    images = {}
    for mib in IMAGE_SHA256:
        img = create_image(mib * 1024 * 1024)
        add_file(img, "TXN.DAT", txn)
        add_file(img, "NOTE.TXT", b"cold wallet notes\n" * 50)
        hide_slack(img, "TXN.DAT", secret)
        hide_entry(img, secret)
        images[mib] = hashlib.sha256(img.data).hexdigest()

    frame = bits_to_text(frame_encode(bytes(range(32))))

    assert symbols.hexdigest() == QR_V3_TO_V10_SHA256
    assert images == IMAGE_SHA256
    assert hashlib.sha256(frame.encode()).hexdigest() == FRAME_SHA256
