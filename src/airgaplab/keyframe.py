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

import secrets
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CrcMismatch, EmptyPayload, LengthOutOfRange, PayloadTooLong, SyncNotFound

PREAMBLE = 0xAAAA
SYNC_WORD = 0x2DD4
HEADER_BITS = 32
MAX_PAYLOAD = 255
KEY_BYTES = 32

# Sliding sync match accepts up to 2 of 16 bits wrong (clipped preamble or
# channel noise); false-sync probability per offset is 137/65536.
SYNC_MAX_MISMATCH = 2

CRC_POLY = 0x1021
CRC_INIT = 0xFFFF

_CRC_TABLE = []
for _b in range(256):
    _r = _b << 8
    for _ in range(8):
        _r = ((_r << 1) ^ CRC_POLY) & 0xFFFF if _r & 0x8000 else (_r << 1) & 0xFFFF
    _CRC_TABLE.append(_r)


def crc16(data: bytes) -> int:
    """CRC-16/CCITT-FALSE: poly 0x1021, init 0xFFFF, MSB-first, no final XOR."""
    reg = CRC_INIT
    for byte in data:
        reg = ((reg << 8) & 0xFFFF) ^ _CRC_TABLE[(reg >> 8) ^ byte]
    return reg


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
    return _HAMMING_DECODE[codeword]


def _hamming_encode_one(nibble: int) -> int:
    d1 = (nibble >> 3) & 1
    d2 = (nibble >> 2) & 1
    d3 = (nibble >> 1) & 1
    d4 = nibble & 1
    p1 = d1 ^ d2 ^ d4
    p2 = d1 ^ d3 ^ d4
    p3 = d2 ^ d3 ^ d4
    return (p1 << 6) | (p2 << 5) | (d1 << 4) | (p3 << 3) | (d2 << 2) | (d3 << 1) | d4


def _hamming_decode_one(codeword: int) -> tuple[int, bool]:
    # Bits by position 1..7 = p1 p2 d1 p3 d2 d3 d4 (MSB of the int is p1).
    r = [(codeword >> (6 - i)) & 1 for i in range(7)]
    s1 = r[0] ^ r[2] ^ r[4] ^ r[6]
    s2 = r[1] ^ r[2] ^ r[5] ^ r[6]
    s3 = r[3] ^ r[4] ^ r[5] ^ r[6]
    syndrome = (s3 << 2) | (s2 << 1) | s1
    if syndrome:
        r[syndrome - 1] ^= 1
    nibble = (r[2] << 3) | (r[4] << 2) | (r[5] << 1) | r[6]
    return nibble, syndrome != 0


_HAMMING_ENCODE = [_hamming_encode_one(n) for n in range(16)]
_HAMMING_DECODE = [_hamming_decode_one(c) for c in range(128)]


@dataclass(frozen=True)
class PrivateKey:
    """An exactly-32-byte secret payload (the exfiltration subject)."""

    data: bytes

    def __post_init__(self) -> None:
        if len(self.data) != KEY_BYTES:
            raise ValueError(f"private key must be {KEY_BYTES} bytes, got {len(self.data)}")

    @classmethod
    def generate(cls) -> "PrivateKey":
        return cls(secrets.token_bytes(KEY_BYTES))

    @classmethod
    def from_hex(cls, text: str) -> "PrivateKey":
        return cls(bytes.fromhex(text))

    def hex(self) -> str:
        return self.data.hex()


@dataclass(frozen=True)
class Frame:
    """Length-prefixed payload with its checksum, the unit the FEC protects."""

    length: int
    payload: bytes
    crc: int

    def __post_init__(self) -> None:
        if not 1 <= self.length <= MAX_PAYLOAD:
            raise LengthOutOfRange(f"length byte {self.length} outside 1..{MAX_PAYLOAD}")
        if self.length != len(self.payload):
            raise ValueError(f"length byte {self.length} != payload size {len(self.payload)}")
        if self.crc != crc16(bytes([self.length]) + self.payload):
            raise CrcMismatch("frame checksum failed")

    @classmethod
    def for_payload(cls, payload: bytes) -> "Frame":
        if len(payload) == 0:
            raise EmptyPayload("payload must contain at least one byte")
        if len(payload) > MAX_PAYLOAD:
            raise PayloadTooLong(f"payload of {len(payload)} bytes exceeds {MAX_PAYLOAD}")
        return cls(len(payload), payload, crc16(bytes([len(payload)]) + payload))

    def body(self) -> bytes:
        return bytes([self.length]) + self.payload + self.crc.to_bytes(2, "big")


def int_to_bits(value: int, width: int) -> list[int]:
    return [(value >> (width - 1 - i)) & 1 for i in range(width)]


def bits_to_int(bits: list[int]) -> int:
    value = 0
    for b in bits:
        value = (value << 1) | (b & 1)
    return value


def bytes_to_bits(data: bytes) -> list[int]:
    out = []
    for byte in data:
        out.extend(int_to_bits(byte, 8))
    return out


def bits_to_bytes(bits: list[int]) -> bytes:
    if len(bits) % 8:
        raise ValueError("bit count not a multiple of 8")
    return bytes(bits_to_int(bits[i : i + 8]) for i in range(0, len(bits), 8))


HEADER_PATTERN = int_to_bits(PREAMBLE, 16) + int_to_bits(SYNC_WORD, 16)
SYNC_PATTERN = HEADER_PATTERN[16:]

# First coded payload bit of a transmitted frame: header plus coded length byte.
PAYLOAD_START = HEADER_BITS + 14


def frame_bit_count(payload_len: int) -> int:
    """Exact frame size in bits for an L-byte payload: 32 + 14*(L+3)."""
    return HEADER_BITS + 14 * (payload_len + 3)


def frame_encode(payload: bytes) -> list[int]:
    """Frame and FEC-code a payload into a transmit-ready bit list."""
    bits = list(HEADER_PATTERN)
    for byte in Frame.for_payload(payload).body():
        bits.extend(int_to_bits(hamming74_encode(byte >> 4), 7))
        bits.extend(int_to_bits(hamming74_encode(byte & 0x0F), 7))
    return bits


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
    coded = list(bits[start : start + 14 * count])
    coded += [0] * (14 * count - len(coded))
    nibbles = [hamming74_decode(bits_to_int(coded[i : i + 7]))[0] for i in range(0, len(coded), 7)]
    return bytes((hi << 4) | lo for hi, lo in zip(nibbles[::2], nibbles[1::2]))


def _decode_at(bits: list[int], start: int) -> bytes:
    """FEC-decode a frame body whose first coded bit sits at `start`."""
    length = decode_body(bits, start, 1)[0]
    if not 1 <= length <= MAX_PAYLOAD:
        raise LengthOutOfRange(f"length byte {length} outside 1..{MAX_PAYLOAD}")
    body = decode_body(bits, start + 14, length + 2)
    # Frame construction re-verifies length and checksum consistency.
    frame = Frame(length, body[:length], int.from_bytes(body[length:], "big"))
    return frame.payload


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
        raise ValueError("bitstream text may contain only '0' and '1'")
    return [1 if ch == "1" else 0 for ch in stripped]
