"""Framing-layer tests: CRC-16, Hamming(7,4), frame encode/decode."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from airgaplab.errors import CrcMismatch, EmptyPayload, LengthOutOfRange, PayloadTooLong, SyncNotFound
from airgaplab.keyframe import (
    Frame,
    HEADER_BITS,
    HEADER_PATTERN,
    PREAMBLE,
    SYNC_PATTERN,
    SYNC_WORD,
    PrivateKey,
    bits_to_int,
    bits_to_text,
    crc16,
    decode_body,
    find_header,
    frame_bit_count,
    frame_decode,
    frame_encode,
    hamming74_decode,
    hamming74_encode,
    int_to_bits,
    text_to_bits,
)


def crc16_longdivision(data: bytes) -> int:
    """Independent oracle: textbook mod-2 long division, bit by bit.

    CRC-16/CCITT-FALSE equals the remainder of the message bits (with the
    first 16 bits inverted, which realizes the 0xFFFF initial register)
    followed by 16 zero bits, divided by x^16 + x^12 + x^5 + 1.
    """
    bits = []
    for byte in data:
        bits.extend((byte >> (7 - i)) & 1 for i in range(8))
    for i in range(min(16, len(bits))):
        bits[i] ^= 1
    bits += [0] * 16
    divisor = [(0x1021 >> (15 - j)) & 1 for j in range(16)]  # x^16+x^12+x^5+1 sans top bit
    for i in range(len(bits) - 16):
        if bits[i]:
            bits[i] = 0
            for j, d in enumerate(divisor):
                bits[i + 1 + j] ^= d
    rem = 0
    for b in bits[-16:]:
        rem = (rem << 1) | b
    return rem


class TestCrc16:
    def test_empty_input_leaves_register_at_init(self):
        assert crc16(b"") == 0xFFFF

    def test_check_value(self):
        assert crc16(b"123456789") == 0x29B1

    def test_matches_long_division_oracle(self):
        rng = random.Random(2024)
        for length in [2, 3, 9, 16, 35, 64]:
            data = bytes(rng.randrange(256) for _ in range(length))
            assert crc16(data) == crc16_longdivision(data), data.hex()

    def test_every_single_bit_flip_changes_crc(self):
        rng = random.Random(7)
        data = bytes(rng.randrange(256) for _ in range(35))
        reference = crc16(data)
        for bit in range(35 * 8):
            mutated = bytearray(data)
            mutated[bit // 8] ^= 1 << (7 - bit % 8)
            assert crc16(bytes(mutated)) != reference, f"bit {bit} undetected"


class TestHamming74:
    def test_zero_codeword(self):
        assert hamming74_encode(0b0000) == 0b0000000

    def test_all_ones_codeword(self):
        assert hamming74_encode(0b1111) == 0b1111111

    def test_clean_round_trip_all_nibbles(self):
        for n in range(16):
            assert hamming74_decode(hamming74_encode(n)) == (n, False)

    def test_corrects_every_single_bit_flip(self):
        for n in range(16):
            word = hamming74_encode(n)
            for pos in range(7):
                assert hamming74_decode(word ^ (1 << pos)) == (n, True)

    def test_single_flip_of_zero_codeword(self):
        assert hamming74_decode(0b0000001) == (0b0000, True)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            hamming74_encode(16)
        with pytest.raises(ValueError):
            hamming74_decode(128)


class TestFrameEncode:
    def test_key_frame_is_522_bits(self):
        assert len(frame_encode(bytes(32))) == 32 + 14 * 35 == 522

    def test_single_byte_frame_is_88_bits(self):
        assert len(frame_encode(b"\x00")) == 32 + 14 * 4 == 88

    def test_bit_count_formula_and_round_trip_all_lengths(self):
        rng = random.Random(3)
        for length in range(1, 256):
            payload = bytes(rng.randrange(256) for _ in range(length))
            bits = frame_encode(payload)
            assert len(bits) == frame_bit_count(length)
            assert frame_decode(bits) == payload

    def test_header_constant(self):
        bits = frame_encode(b"whatever")
        expected = int_to_bits(PREAMBLE, 16) + int_to_bits(SYNC_WORD, 16)
        assert bits[:HEADER_BITS] == expected
        assert (PREAMBLE << 16) | SYNC_WORD == 0xAAAA2DD4

    def test_empty_payload_rejected(self):
        with pytest.raises(EmptyPayload):
            frame_encode(b"")

    def test_oversize_payload_rejected(self):
        with pytest.raises(PayloadTooLong):
            frame_encode(bytes(256))


class TestFrameDecode:
    def test_round_trip_100_random_payloads(self):
        rng = random.Random(11)
        for _ in range(100):
            payload = bytes(rng.randrange(256) for _ in range(rng.randint(1, 255)))
            assert frame_decode(frame_encode(payload)) == payload

    def test_single_flip_per_fec_block_recovers(self):
        rng = random.Random(12)
        payload = bytes(rng.randrange(256) for _ in range(32))
        bits = frame_encode(payload)
        n_blocks = (len(bits) - HEADER_BITS) // 7
        for position_in_block in range(7):
            corrupted = bits[:]
            for block in range(n_blocks):
                corrupted[HEADER_BITS + 7 * block + position_in_block] ^= 1
            assert frame_decode(corrupted) == payload

    def test_all_zero_bits_sync_not_found(self):
        with pytest.raises(SyncNotFound):
            frame_decode([0] * 1000)

    def test_leading_garbage_tolerated(self):
        rng = random.Random(13)
        payload = bytes(rng.randrange(256) for _ in range(16))
        bits = [rng.getrandbits(1) for _ in range(40)] + frame_encode(payload)
        assert frame_decode(bits) == payload

    def test_two_sync_bit_errors_tolerated(self):
        payload = b"tolerant"
        bits = frame_encode(payload)
        bits[16] ^= 1
        bits[20] ^= 1
        assert frame_decode(bits) == payload

    def test_crc_mismatch_on_payload_damage(self):
        bits = frame_encode(b"abcdef")
        # two flips inside one FEC block defeat the single-bit correction
        bits[HEADER_BITS + 14 * 3 + 1] ^= 1
        bits[HEADER_BITS + 14 * 3 + 2] ^= 1
        with pytest.raises(CrcMismatch):
            frame_decode(bits)

    def test_length_out_of_range(self):
        # craft: header + coded zero length byte
        bits = int_to_bits(PREAMBLE, 16) + int_to_bits(SYNC_WORD, 16)
        bits += int_to_bits(hamming74_encode(0), 7) * 2  # length = 0x00
        bits += [0] * 200
        with pytest.raises(LengthOutOfRange):
            frame_decode(bits)

    def test_truncated_tail_reported_as_crc_mismatch(self):
        bits = frame_encode(bytes(range(64)))
        with pytest.raises(CrcMismatch):
            frame_decode(bits[: len(bits) - 40])

    def test_crc_detects_all_one_and_two_bit_frame_corruptions(self):
        """Exhaustive 1- and 2-bit damage on the decoded 35-byte frame region."""
        rng = random.Random(14)
        payload = bytes(rng.randrange(256) for _ in range(32))
        body = bytes([32]) + payload
        stored = crc16(body)
        region = bytearray(body + stored.to_bytes(2, "big"))
        n_bits = 8 * len(region)
        assert n_bits == 280

        def crc_passes(buf: bytearray) -> bool:
            return crc16(bytes(buf[:33])) == int.from_bytes(buf[33:], "big")

        assert crc_passes(region)
        misses = 0
        for i in range(n_bits):
            region[i // 8] ^= 1 << (7 - i % 8)
            if crc_passes(region):
                misses += 1
            region[i // 8] ^= 1 << (7 - i % 8)
        for i in range(n_bits):
            region[i // 8] ^= 1 << (7 - i % 8)
            for j in range(i + 1, n_bits):
                region[j // 8] ^= 1 << (7 - j % 8)
                if crc_passes(region):
                    misses += 1
                region[j // 8] ^= 1 << (7 - j % 8)
            region[i // 8] ^= 1 << (7 - i % 8)
        assert misses == 0


class TestPrivateKey:
    def test_requires_exactly_32_bytes(self):
        with pytest.raises(ValueError):
            PrivateKey(bytes(31))
        assert PrivateKey(bytes(32)).data == bytes(32)

    def test_hex_round_trip(self):
        key = PrivateKey.generate()
        assert PrivateKey.from_hex(key.hex()) == key


class TestFrame:
    def test_for_payload_computes_checksum(self):
        frame = Frame.for_payload(b"abc")
        assert frame.length == 3
        assert frame.crc == crc16(b"\x03abc")
        assert frame.body() == b"\x03abc" + frame.crc.to_bytes(2, "big")

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            Frame(2, b"abc", crc16(b"\x02ab"))  # length != payload size
        with pytest.raises(CrcMismatch):
            Frame(3, b"abc", 0x1234)
        with pytest.raises(LengthOutOfRange):
            Frame(0, b"", 0)


class TestBitstreamText:
    def test_round_trip(self):
        bits = frame_encode(b"fixture")
        text = bits_to_text(bits)
        assert text.endswith("\n")
        assert set(text.strip()) <= {"0", "1"}
        assert text_to_bits(text) == bits

    def test_rejects_foreign_characters(self):
        with pytest.raises(ValueError):
            text_to_bits("0101x01")


def brute_force_header_search(bits, pattern, max_mismatch):
    """Reference: score every window in plain Python, then sort."""
    width = len(pattern)
    found = []
    for off in range(len(bits) - width + 1):
        matches = sum(1 for i in range(width) if bits[off + i] == pattern[i])
        if matches >= width - max_mismatch:
            found.append((off, matches))
    found.sort(key=lambda item: (-item[1], item[0]))
    return found


def per_nibble_body_reader(bits, start, count):
    """Reference: read each byte as two zero-padded 7-bit codewords."""
    out = []
    for i in range(count):
        pos = start + 14 * i
        hi_bits = list(bits[pos : pos + 7])
        lo_bits = list(bits[pos + 7 : pos + 14])
        hi_bits += [0] * (7 - len(hi_bits))
        lo_bits += [0] * (7 - len(lo_bits))
        hi, _ = hamming74_decode(bits_to_int(hi_bits))
        lo, _ = hamming74_decode(bits_to_int(lo_bits))
        out.append((hi << 4) | lo)
    return bytes(out)


@st.composite
def bits_with_planted_headers(draw):
    """Random bits with up to three copies of a pattern, each with 0-3 flips."""
    pattern = draw(st.sampled_from([SYNC_PATTERN, HEADER_PATTERN]))
    bits = draw(st.lists(st.integers(0, 1), max_size=120))
    for _ in range(draw(st.integers(0, 3))):
        copy = list(pattern)
        for i in draw(st.lists(st.integers(0, len(pattern) - 1), max_size=3)):
            copy[i] ^= 1
        at = draw(st.integers(0, len(bits)))
        bits[at:at] = copy
    return bits, pattern


class TestFindHeader:
    @given(case=bits_with_planted_headers(), max_mismatch=st.integers(0, 3))
    def test_matches_brute_force(self, case, max_mismatch):
        bits, pattern = case
        assert find_header(bits, pattern, max_mismatch) == brute_force_header_search(
            bits, pattern, max_mismatch
        )

    def test_patterns_are_the_transmitted_header(self):
        assert HEADER_PATTERN == int_to_bits(PREAMBLE, 16) + int_to_bits(SYNC_WORD, 16)
        assert SYNC_PATTERN == HEADER_PATTERN[16:] and len(HEADER_PATTERN) == HEADER_BITS

    def test_shorter_than_pattern_finds_nothing(self):
        assert find_header(SYNC_PATTERN[:15], SYNC_PATTERN, 3) == []


class TestDecodeBody:
    def test_matches_per_nibble_reader_on_damaged_and_truncated_streams(self):
        rng = random.Random(15)
        for _ in range(200):
            bits = frame_encode(bytes(rng.randrange(256) for _ in range(rng.randint(1, 40))))
            for _ in range(rng.randint(0, 30)):
                bits[rng.randrange(len(bits))] ^= 1
            bits = bits[: rng.randint(0, len(bits))]
            start = rng.randint(0, len(bits) + 20)
            count = rng.randint(0, 45)
            assert decode_body(bits, start, count) == per_nibble_body_reader(bits, start, count)

    def test_clean_body_round_trip(self):
        payload = b"body"
        frame = Frame.for_payload(payload)
        assert decode_body(frame_encode(payload), HEADER_BITS, 7) == frame.body()
