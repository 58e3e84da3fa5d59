"""Secrets inside QR padding codewords.

A byte-mode symbol shorter than its data capacity is completed with the
fixed 0xEC/0x11 fill, which every standard reader skips.  Replacing that
fill with a length-prefixed secret costs zero error-correction budget and
leaves the visible payload byte-identical to a plain symbol.
"""

from __future__ import annotations

from ..errors import NoSecret, PayloadTooLarge, SecretTooLarge
from .qr import (
    PAD_BYTES,
    QrMatrix,
    assemble_data_codewords,
    decode_data_codewords,
    matrix_from_data_codewords,
    padding_room,
    parse_byte_segment,
    select_version,
)


def stego_capacity(version: int, ec_level: str, payload_len: int) -> int:
    """Padding bytes left after mode/length/payload/terminator."""
    room = padding_room(version, ec_level, payload_len)
    if room < 0:
        raise PayloadTooLarge(
            f"{payload_len} bytes exceed version {version}-{ec_level} capacity"
        )
    return room


def stego_embed(text: bytes, secret: bytes, ec_level: str = "M") -> QrMatrix:
    """Encode `text` normally but carry `secret` in the padding region.

    The version is bumped past the plain auto-selected one if the secret
    needs more padding room; a standard decoder still returns `text`.
    """
    if isinstance(text, str):
        text = text.encode("utf-8")
    if len(secret) > 255:
        raise SecretTooLarge("secret length byte caps secrets at 255 bytes")
    select_version(len(text), ec_level)  # text itself must fit: PayloadTooLarge
    try:
        version = select_version(len(text), ec_level, extra_pad_bytes=1 + len(secret))
    except PayloadTooLarge as exc:
        raise SecretTooLarge(
            f"no version <= 10 leaves {1 + len(secret)} padding bytes after {len(text)} text bytes"
        ) from exc
    codewords = assemble_data_codewords(
        text, version, ec_level, pad_override=[len(secret)] + list(secret)
    )
    return matrix_from_data_codewords(codewords, version, ec_level)


def stego_extract(m: QrMatrix) -> bytes:
    """Read the length-prefixed secret back out of the padding region.

    A pristine symbol (untouched 0xEC/0x11 fill or no padding at all)
    raises NoSecret; RS correction runs first, so optical damage within
    budget does not corrupt the secret.
    """
    data_codewords, _level = decode_data_codewords(m)
    _text, pad_start = parse_byte_segment(data_codewords, m.version)
    pad = data_codewords[pad_start:]
    if not pad:
        raise NoSecret("symbol has no padding region")
    if all(byte == PAD_BYTES[i % 2] for i, byte in enumerate(pad)):
        raise NoSecret("padding region is pristine")
    length = pad[0]
    if length > len(pad) - 1:
        raise NoSecret(f"implausible secret length {length} for {len(pad) - 1} padding bytes")
    return bytes(pad[1 : 1 + length])
