"""QR codec tests: GF(256)/RS algebra, capacity oracle, matrix round trips,
error injection up to and beyond the correction budget."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airgaplab.errors import AirgapError, MalformedFormatInfo, MalformedInput, PayloadTooLarge, UncorrectableErrors
from airgaplab.optstego import EC_LEVELS, from_pbm, qr_decode, qr_encode, stego_extract, to_pbm
from airgaplab.optstego.qr import (
    ECC_PER_BLOCK,
    GF_EXP,
    NUM_BLOCKS,
    TOTAL_CODEWORDS,
    QrMatrix,
    byte_mode_capacity,
    data_codeword_count,
    format_code,
    function_mask,
    gf_mul,
    gf_poly_eval,
    matrix_from_data_codewords,
    matrix_from_modules,
    rs_correct,
    rs_encode,
    rs_generator,
    _split_block_lengths,
    _zigzag_coords,
)

# Byte-mode character capacities from the published symbol capacity tables;
# the implementation must land on these independently via its block tables.
PUBLISHED_BYTE_CAPACITY = {
    "L": [17, 32, 53, 78, 106, 134, 154, 192, 230, 271],
    "M": [14, 26, 42, 62, 84, 106, 122, 152, 180, 213],
    "Q": [11, 20, 32, 46, 60, 74, 86, 108, 130, 151],
    "H": [7, 14, 24, 34, 44, 58, 64, 84, 98, 119],
}


class TestGf256:
    def test_exp_log_consistency(self):
        for a in range(1, 256):
            for b in (1, 2, 87, 255):
                product = gf_mul(a, b)
                assert 0 < product < 256

    def test_generator_roots(self):
        """g(x) vanishes exactly at alpha^0..alpha^(d-1)."""
        for degree in (7, 10, 16, 30):
            gen = list(rs_generator(degree))
            ascending = list(reversed(gen))
            for i in range(degree):
                assert gf_poly_eval(ascending, GF_EXP[i]) == 0
            assert gf_poly_eval(ascending, GF_EXP[degree]) != 0

    def test_parity_makes_codeword_divisible(self):
        """RS algebra: data+parity evaluates to zero at every code root."""
        rng = random.Random(0)
        for degree in (7, 13, 22, 28):
            data = [rng.randrange(256) for _ in range(30)]
            block = data + rs_encode(data, degree)
            ascending = list(reversed(block))
            for i in range(degree):
                assert gf_poly_eval(ascending, GF_EXP[i]) == 0

    def test_correct_within_budget(self):
        rng = random.Random(1)
        for _ in range(200):
            degree = rng.choice([7, 10, 13, 16, 18, 20, 22, 24, 26, 28, 30])
            data = [rng.randrange(256) for _ in range(rng.randint(1, 50))]
            block = data + rs_encode(data, degree)
            n_errors = rng.randint(0, degree // 2)
            corrupted = list(block)
            for pos in rng.sample(range(len(block)), n_errors):
                corrupted[pos] ^= rng.randint(1, 255)
            fixed, reported = rs_correct(corrupted, degree)
            assert fixed == block
            assert reported == sum(1 for a, b in zip(block, corrupted) if a != b)

    def test_reencoding_corrected_data_reproduces_parity(self):
        rng = random.Random(2)
        degree = 16
        data = [rng.randrange(256) for _ in range(40)]
        block = data + rs_encode(data, degree)
        corrupted = list(block)
        for pos in rng.sample(range(len(block)), degree // 2):
            corrupted[pos] ^= rng.randint(1, 255)
        fixed, _ = rs_correct(corrupted, degree)
        assert rs_encode(fixed[:40], degree) == fixed[40:]

    def test_beyond_budget_raises(self):
        rng = random.Random(3)
        degree = 16
        for _ in range(60):
            data = [rng.randrange(256) for _ in range(40)]
            block = data + rs_encode(data, degree)
            corrupted = list(block)
            for pos in rng.sample(range(len(block)), degree // 2 + 1):
                corrupted[pos] ^= rng.randint(1, 255)
            with pytest.raises(UncorrectableErrors):
                fixed, _ = rs_correct(corrupted, degree)
                assert fixed == block  # a silent miscorrection would trip here


class TestCapacity:
    def test_matches_published_tables(self):
        for level, caps in PUBLISHED_BYTE_CAPACITY.items():
            for version in range(1, 11):
                assert byte_mode_capacity(version, level) == caps[version - 1]

    def test_block_structure_consistency(self):
        """Block split must account for every codeword exactly once."""
        for level in "LMQH":
            for version in range(1, 11):
                lengths, ecc = _split_block_lengths(version, level)
                assert sum(lengths) + ecc * len(lengths) == TOTAL_CODEWORDS[version]
                assert len(lengths) == NUM_BLOCKS[level][version - 1]
                assert ecc == ECC_PER_BLOCK[level][version - 1]


class TestEncodeDecode:
    def test_round_trip_100_random_texts(self):
        # lengths 10..200 fit every version-10 symbol at L and M
        rng = random.Random(4)
        for _ in range(100):
            length = rng.randint(10, 200)
            text = bytes(rng.randrange(256) for _ in range(length))
            level = rng.choice("LM")
            matrix = qr_encode(text, level)
            assert matrix.version <= 10
            assert qr_decode(matrix) == text

    def test_round_trip_high_ec_levels(self):
        rng = random.Random(14)
        for level in "QH":
            for _ in range(20):
                length = rng.randint(1, PUBLISHED_BYTE_CAPACITY[level][9])
                text = bytes(rng.randrange(256) for _ in range(length))
                matrix = qr_encode(text, level)
                assert qr_decode(matrix) == text

    def test_empty_text(self):
        matrix = qr_encode(b"", "M")
        assert qr_decode(matrix) == b""

    def test_smallest_version_selected(self):
        assert qr_encode(b"x" * 14, "M").version == 1
        assert qr_encode(b"x" * 15, "M").version == 2

    def test_370_char_transaction_hex_string(self):
        """A signed-transaction hex string of 370 chars is 185 raw bytes,
        which fits a version <= 10 symbol (published v10-M capacity is 213)."""
        rng = random.Random(5)
        tx_hex = "".join(rng.choice("0123456789abcdef") for _ in range(370))
        payload = bytes.fromhex(tx_hex)
        assert len(payload) == 185
        assert len(payload) <= PUBLISHED_BYTE_CAPACITY["M"][9]
        matrix = qr_encode(payload, "M")
        assert matrix.version <= 10
        assert qr_decode(matrix).hex() == tx_hex

    def test_payload_too_large(self):
        with pytest.raises(PayloadTooLarge):
            qr_encode(bytes(272), "L")

    def test_grid_side_matches_version(self):
        for text, expected in ((b"", 21), (b"x" * 100, 41)):
            matrix = qr_encode(text, "M")
            assert matrix.size == 17 + 4 * matrix.version == expected


def _corrupt_codewords(matrix: QrMatrix, interleaved_indices, rng) -> QrMatrix:
    """Flip a random nonzero bit pattern inside each chosen codeword byte."""
    coords = list(_zigzag_coords(matrix.version))
    out = matrix.clone()
    for index in interleaved_indices:
        bit_mask = rng.randint(1, 255)
        for bit in range(8):
            if bit_mask & (1 << (7 - bit)):
                x, y = coords[8 * index + bit]
                out.modules[y][x] = not out.modules[y][x]
    return out


def _block_data_positions(version: int, level: str) -> list[list[int]]:
    """Interleaved stream positions of each block's data codewords."""
    lengths, _ = _split_block_lengths(version, level)
    positions: list[list[int]] = [[] for _ in lengths]
    idx = 0
    for i in range(max(lengths)):
        for b, length in enumerate(lengths):
            if i < length:
                positions[b].append(idx)
                idx += 1
    return positions


class TestErrorInjection:
    @pytest.mark.parametrize("level", ["L", "M", "Q", "H"])
    def test_half_ec_budget_per_block_recovers(self, level):
        rng = random.Random(6)
        for _ in range(8):
            text = bytes(rng.randrange(256) for _ in range(rng.randint(20, 100)))
            matrix = qr_encode(text, level)
            ecc = ECC_PER_BLOCK[level][matrix.version - 1]
            chosen = []
            for block_positions in _block_data_positions(matrix.version, level):
                chosen += rng.sample(block_positions, min(ecc // 2, len(block_positions)))
            corrupted = _corrupt_codewords(matrix, chosen, rng)
            assert qr_decode(corrupted) == text

    def test_over_budget_in_one_block_raises(self):
        rng = random.Random(7)
        failures = 0
        for _ in range(10):
            text = bytes(rng.randrange(256) for _ in range(60))
            matrix = qr_encode(text, "M")
            ecc = ECC_PER_BLOCK["M"][matrix.version - 1]
            block0 = _block_data_positions(matrix.version, "M")[0]
            chosen = rng.sample(block0, min(ecc // 2 + 1, len(block0)))
            corrupted = _corrupt_codewords(matrix, chosen, rng)
            try:
                if qr_decode(corrupted) != text:
                    failures += 1
            except UncorrectableErrors:
                failures += 1
        assert failures == 10  # generic over-budget patterns never pass silently


class TestStandardConformance:
    """Anchors against independently published reference values."""

    def test_published_format_information_words(self):
        assert format_code("L", 0) == 0b111011111000100
        assert format_code("M", 5) == 0b100000011001110
        assert format_code("H", 7) == 0b000100000111011
        assert format_code("Q", 2) == 0b011111100110001

    def test_published_version_information_words(self):
        from airgaplab.optstego.qr import version_code

        assert version_code(7) == 0b000111110010010100
        assert version_code(8) == 0b001000010110111100
        assert version_code(10) == 0b001010010011010011

    def test_published_alignment_pattern_positions(self):
        from airgaplab.optstego.qr import alignment_positions

        published = {
            1: [], 2: [6, 18], 3: [6, 22], 4: [6, 26], 5: [6, 30],
            6: [6, 34], 7: [6, 22, 38], 8: [6, 24, 42], 9: [6, 26, 46],
            10: [6, 28, 50],
        }
        for version, positions in published.items():
            assert alignment_positions(version) == positions

    def test_published_rs_generator_degree_7(self):
        # alpha-exponent form of g(x) for 7 parity codewords: {0,87,229,146,149,238,102,21}
        from airgaplab.optstego.qr import GF_LOG

        gen = list(rs_generator(7))
        assert [GF_LOG[c] if c else None for c in gen] == [0, 87, 229, 146, 149, 238, 102, 21]


class TestFunctionMask:
    # Remainder bits after the last codeword, from the standard's capacity table.
    REMAINDER_BITS = {1: 0, 2: 7, 3: 7, 4: 7, 5: 7, 6: 7, 7: 0, 8: 0, 9: 0, 10: 0}

    @pytest.mark.parametrize("version", range(1, 11))
    def test_data_modules_hold_codewords_and_remainder(self, version):
        data_modules = sum(not cell for row in function_mask(version) for cell in row)
        assert data_modules == 8 * TOTAL_CODEWORDS[version] + self.REMAINDER_BITS[version]


class TestFormatInfo:
    def test_format_codes_distinct_and_separated(self):
        codes = [format_code(level, mask) for level in "LMQH" for mask in range(8)]
        assert len(set(codes)) == 32
        for i, a in enumerate(codes):
            for b in codes[i + 1 :]:
                assert bin(a ^ b).count("1") >= 5

    def test_single_format_bit_damage_tolerated(self):
        matrix = qr_encode(b"format-damage", "Q")
        matrix.modules[8][0] = not matrix.modules[8][0]
        assert qr_decode(matrix) == b"format-damage"

    def test_blank_grid_malformed_format(self):
        size = 21
        blank = matrix_from_modules([[False] * size for _ in range(size)])
        with pytest.raises(MalformedFormatInfo):
            qr_decode(blank)


class TestPbm:
    def test_round_trip(self):
        matrix = qr_encode(b"pbm round trip", "M")
        restored = from_pbm(to_pbm(matrix))
        assert restored.modules == matrix.modules
        assert restored.version == matrix.version
        assert restored.ec_level == "M"

    def test_header_and_payload_shape(self):
        matrix = qr_encode(b"", "L")
        lines = to_pbm(matrix).splitlines()
        assert lines[0] == "P1"
        assert lines[1] == "21 21"
        assert len(lines) == 2 + 21

    def test_rejects_non_pbm(self):
        with pytest.raises(ValueError):
            from_pbm("P2\n2 2\n255\n0 0 0 0\n")

    @pytest.mark.parametrize(
        "text",
        [
            "P1\n21\n",  # truncated header
            "P1\n21 x\n",  # non-integer dimension
            "P1\n-21 -21\n",  # negative dimensions
            "P1\n2 2\n0 1 1\n",  # truncated raster
            "P1\n2 2\n0 1 2 0\n",  # pixel other than 0/1
            "P1\n21 22\n" + "0 " * 21 * 22,  # not square
            "P1\n20 20\n" + "0 " * 400,  # no QR version has side 20
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(MalformedInput):
            from_pbm(text)


@st.composite
def _data_codewords(draw):
    version = draw(st.integers(1, 10))
    level = draw(st.sampled_from(EC_LEVELS))
    n = data_codeword_count(version, level)
    return draw(st.lists(st.integers(0, 255), min_size=n, max_size=n)), version, level


@settings(deadline=None, max_examples=200)
@given(_data_codewords())
def test_readers_raise_only_airgap_errors_on_arbitrary_data_codewords(drawn):
    """Any segment mode, length or padding behind valid RS: no bare exception escapes."""
    codewords, version, level = drawn
    m = from_pbm(to_pbm(matrix_from_data_codewords(codewords, version, level)))
    for reader in (qr_decode, stego_extract):
        try:
            reader(m)
        except AirgapError:
            pass
