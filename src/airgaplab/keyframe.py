"""Link layer: turn a secret payload into a robust self-synchronizing bitstream.

Frame layout (bits, MSB-first everywhere):

    +----------+--------+--------------------------------------+
    | PREAMBLE |  SYNC  |  Hamming(7,4)-coded body             |
    | 0xAAAA   | 0x2DD4 |  LENGTH(1B) | PAYLOAD(1..255B) | CRC |
    +----------+--------+--------------------------------------+

The preamble/sync header is sent raw (32 bits); the body is FEC-coded one
nibble at a time, so a frame with an L-byte payload is exactly
32 + 14*(L+3) bits long.  CRC-16/CCITT-FALSE over LENGTH||PAYLOAD catches
whatever double-bit damage slips past the per-block single-bit Hamming
correction.
"""

from __future__ import annotations

import binascii

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CrcMismatch, EmptyPayload, LengthOutOfRange, MalformedInput, PayloadTooLong, SyncNotFound

PREAMBLE = 0xAAAA
SYNC_WORD = 0x2DD4
HEADER_BITS = 32
MAX_PAYLOAD = 255
KEY_BYTES = 32

# Sliding sync match accepts up to 2 of 16 bits wrong (clipped preamble or
# channel noise); false-sync probability per offset is 137/65536.
SYNC_MAX_MISMATCH = 2

CRC_INIT = 0xFFFF


def crc16(data: bytes) -> int:
    """CRC-16/CCITT-FALSE: poly 0x1021, init 0xFFFF, MSB-first, no final XOR."""
    return binascii.crc_hqx(data, CRC_INIT)


def hamming74_encode(nibble: int) -> int:
    """Encode a 4-bit value into a 7-bit systematic Hamming codeword.

    Codeword bit order, MSB-first: p1 p2 d1 p3 d2 d3 d4 with
    p1 = d1^d2^d4, p2 = d1^d3^d4, p3 = d2^d3^d4.
    """
    if not 0 <= nibble <= 15:
        raise ValueError(f"nibble out of range: {nibble}")
    return _HAMMING_ENCODE[nibble]


def hamming74_decode(codeword: int) -> tuple[int, bool]:
    """Decode a 7-bit codeword, correcting at most one flipped bit.

    Returns (nibble, corrected).  Two-bit errors miscorrect silently; the
    frame CRC is the backstop for those.
    """
    if not 0 <= codeword <= 127:
        raise ValueError(f"codeword out of range: {codeword}")
    nibble = int(_NIBBLE_OF[codeword])
    return nibble, _HAMMING_ENCODE[nibble] != codeword


def _hamming_encode_one(nibble: int) -> int:
    d1 = (nibble >> 3) & 1
    d2 = (nibble >> 2) & 1
    d3 = (nibble >> 1) & 1
    d4 = nibble & 1
    p1 = d1 ^ d2 ^ d4
    p2 = d1 ^ d3 ^ d4
    p3 = d2 ^ d3 ^ d4
    return (p1 << 6) | (p2 << 5) | (d1 << 4) | (p3 << 3) | (d2 << 2) | (d3 << 1) | d4


_HAMMING_ENCODE = [_hamming_encode_one(n) for n in range(16)]
# The same 16 codewords as rows of 7 bits, MSB first.
_CODEWORD_BITS = np.unpackbits(np.array(_HAMMING_ENCODE, np.uint8)[:, None], axis=1)[:, 1:]

# The code is perfect: every 7-bit word is a codeword or one bit flip away
# from exactly one, so the decode table is the codewords and their neighbours.
_NIBBLE_OF = np.zeros(128, np.uint8)
for _flip in (0, 1, 2, 4, 8, 16, 32, 64):
    _NIBBLE_OF[np.array(_HAMMING_ENCODE) ^ _flip] = np.arange(16)


HEADER_PATTERN = np.unpackbits(np.array([PREAMBLE, SYNC_WORD], ">u2").view(np.uint8)).tolist()
SYNC_PATTERN = HEADER_PATTERN[16:]

# First coded payload bit of a transmitted frame: header plus coded length byte.
PAYLOAD_START = HEADER_BITS + 14


def frame_bit_count(payload_len: int) -> int:
    """Exact frame size in bits for an L-byte payload: 32 + 14*(L+3)."""
    return HEADER_BITS + 14 * (payload_len + 3)


def frame_encode(payload: bytes) -> list[int]:
    """Frame and FEC-code a payload into a transmit-ready bit list."""
    if len(payload) == 0:
        raise EmptyPayload("payload must contain at least one byte")
    if len(payload) > MAX_PAYLOAD:
        raise PayloadTooLong(f"payload of {len(payload)} bytes exceeds {MAX_PAYLOAD}")
    head = bytes([len(payload)]) + payload
    body = np.frombuffer(head + crc16(head).to_bytes(2, "big"), np.uint8)
    nibbles = np.column_stack((body >> 4, body & 0x0F))
    return HEADER_PATTERN + _CODEWORD_BITS[nibbles].ravel().tolist()


def find_header(bits: list[int], pattern: list[int], max_mismatch: int) -> list[tuple[int, int]]:
    """Every (offset, matches) where `pattern` fits `bits` with at most
    `max_mismatch` wrong bits, best match count first, then earliest offset."""
    width = len(pattern)
    if len(bits) < width:
        return []
    matches = (sliding_window_view(np.asarray(bits), width) == np.asarray(pattern)).sum(axis=1)
    offsets = np.flatnonzero(matches >= width - max_mismatch)
    order = np.argsort(-matches[offsets], kind="stable")
    return [(int(offsets[i]), int(matches[offsets[i]])) for i in order]


def decode_body(bits: list[int], start: int, count: int) -> bytes:
    """FEC-decode `count` body bytes whose first coded bit sits at `start`.

    Each byte is two Hamming(7,4) codewords, high nibble first; bits past
    the end of `bits` read as zeros.
    """
    present = bits[start : start + 14 * count]
    coded = np.zeros((count, 2, 7), np.uint8)
    coded.reshape(-1)[: len(present)] = present
    nibbles = _NIBBLE_OF[np.packbits(coded, axis=2)[..., 0] >> 1]  # 7 bits pack into the top of a byte
    return ((nibbles[:, 0] << 4) | nibbles[:, 1]).tobytes()


def _decode_at(bits: list[int], start: int) -> bytes:
    """FEC-decode a frame body whose first coded bit sits at `start`."""
    length = decode_body(bits, start, 1)[0]
    if not 1 <= length <= MAX_PAYLOAD:
        raise LengthOutOfRange(f"length byte {length} outside 1..{MAX_PAYLOAD}")
    body = decode_body(bits, start + 14, length + 2)
    if crc16(bytes([length]) + body[:length]) != int.from_bytes(body[length:], "big"):
        raise CrcMismatch("frame checksum failed")
    return body[:length]


def frame_decode(bits: list[int]) -> bytes:
    """Locate the sync word, FEC-decode, verify length and CRC.

    Candidate sync offsets are tried best-correlation-first; a candidate
    that fails to decode falls through to the next one.  Truncated tails
    are zero-filled so damage beyond the bit count surfaces as CrcMismatch
    rather than an index error.
    """
    candidates = find_header(bits, SYNC_PATTERN, SYNC_MAX_MISMATCH)
    if not candidates:
        raise SyncNotFound("no 16-bit window matches the sync word within tolerance")
    first_error: Exception | None = None
    for off, _ in candidates:
        try:
            return _decode_at(bits, off + len(SYNC_PATTERN))
        except (LengthOutOfRange, CrcMismatch) as exc:
            if first_error is None:
                first_error = exc
    assert first_error is not None
    raise first_error


def bits_to_text(bits: list[int]) -> str:
    """Serialize bits as one ASCII '0'/'1' per bit, newline-terminated."""
    return "".join("1" if b else "0" for b in bits) + "\n"


def text_to_bits(text: str) -> list[int]:
    stripped = text.strip()
    if any(ch not in "01" for ch in stripped):
        raise MalformedInput("bitstream text may contain only '0' and '1'")
    return [1 if ch == "1" else 0 for ch in stripped]
