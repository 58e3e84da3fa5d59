"""QR codec tests: GF(256)/RS algebra, capacity oracle, matrix round trips,
error injection up to and beyond the correction budget."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airgaplab.errors import AirgapError, MalformedFormatInfo, MalformedInput, PayloadTooLarge, UncorrectableErrors
from airgaplab.optstego import EC_LEVELS, from_pbm, qr_decode, qr_encode, stego_extract, to_pbm
from airgaplab.optstego.qr import (
    ECC_PER_BLOCK,
    GF_EXP,
    MASK_PATTERNS,
    NUM_BLOCKS,
    TOTAL_CODEWORDS,
    QrMatrix,
    assemble_data_codewords,
    byte_mode_capacity,
    char_count_bits,
    data_codeword_count,
    format_code,
    function_mask,
    gf_mul,
    gf_poly_eval,
    matrix_from_data_codewords,
    parse_byte_segment,
    read_format,
    rs_correct,
    rs_encode,
    rs_generator,
    _format_cells,
    _split_block_lengths,
    _syndromes,
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


def _shift_register_parity(data: list[int], degree: int) -> list[int]:
    """Reference: systematic RS parity from a shift register fed one data byte at a time."""
    gen = rs_generator(degree)
    rem = [0] * degree
    for byte in data:
        factor = byte ^ rem[0]
        rem = rem[1:] + [0]
        for i in range(degree):
            rem[i] ^= gf_mul(gen[i + 1], factor)
    return rem


# Every (data length, parity length) of a block in versions 1-10 at every level.
BLOCK_SHAPES = sorted({
    (length, ecc)
    for level in EC_LEVELS
    for version in range(1, 11)
    for lengths, ecc in [_split_block_lengths(version, level)]
    for length in lengths
})


def _random_bytes(rng: random.Random, n: int) -> list[int]:
    """Random bytes, a third of them zero (the log table's special case)."""
    return [rng.randrange(256) if rng.random() < 2 / 3 else 0 for _ in range(n)]


class TestTableOracles:
    """The log/exp-table RS paths against scalar GF(256) references."""

    @pytest.mark.parametrize("length,ecc", BLOCK_SHAPES)
    def test_parity_equals_shift_register(self, length, ecc):
        rng = random.Random(length << 8 | ecc)
        for _ in range(6):
            data = _random_bytes(rng, length)
            assert rs_encode(data, ecc) == _shift_register_parity(data, ecc)
        assert rs_encode([0] * length, ecc) == [0] * ecc

    @pytest.mark.parametrize("length,ecc", BLOCK_SHAPES)
    def test_syndromes_equal_horner(self, length, ecc):
        rng = random.Random(length << 8 | ecc)
        for _ in range(6):
            block = _random_bytes(rng, length + ecc)
            horner = [gf_poly_eval(block[::-1], GF_EXP[j]) for j in range(ecc)]
            assert _syndromes(block, ecc).tolist() == horner

    @pytest.mark.parametrize("mask", range(8))
    def test_reader_unmasks_every_pattern(self, mask):
        """A symbol re-masked cell by cell with the scalar mask formulas
        decodes to its text."""
        rng = random.Random(mask)
        for version in range(1, 11):
            text = bytes(rng.randrange(256) for _ in range(byte_mode_capacity(version, "Q")))
            m = matrix_from_data_codewords(assemble_data_codewords(text, version, "Q"), version, "Q")
            cells = [(y, x) for x, y in _zigzag_coords(version)
                     if (MASK_PATTERNS[0](x, y) == 0) != (MASK_PATTERNS[mask](x, y) == 0)]
            # The format cells that must change to hold this mask's word.
            word = format_code("Q", mask)
            ys, xs = _format_cells(m.size)
            for copy_ys, copy_xs in zip(ys.tolist(), xs.tolist()):
                cells += [(y, x) for i, (y, x) in enumerate(zip(copy_ys, copy_xs))
                          if m.grid[y, x] != ((word >> i) & 1 == 1)]
            assert qr_decode(_with_flips(m, cells)) == text


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


def _with_flips(matrix: QrMatrix, cells) -> QrMatrix:
    """A new symbol with each (y, x) of `cells` inverted; asserts that its grid
    differs from the clean one in exactly those cells, so no flip is lost."""
    grid = matrix.grid.copy()
    for y, x in cells:
        grid[y, x] = not grid[y, x]
    out = QrMatrix(grid)
    assert set(map(tuple, np.argwhere(out.grid != matrix.grid).tolist())) == set(cells)
    return out


def _corrupt_codewords(matrix: QrMatrix, interleaved_indices, rng) -> QrMatrix:
    """Flip a random nonzero bit pattern inside each chosen codeword byte."""
    coords = list(_zigzag_coords(matrix.version))
    cells = []
    for index in interleaved_indices:
        bit_mask = rng.randint(1, 255)
        for bit in range(8):
            if bit_mask & (1 << (7 - bit)):
                x, y = coords[8 * index + bit]
                cells.append((y, x))
    return _with_flips(matrix, cells)


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
        assert qr_decode(_with_flips(matrix, [(8, 0)])) == b"format-damage"

    def test_blank_grid_malformed_format(self):
        size = 21
        blank = QrMatrix([[False] * size for _ in range(size)])
        with pytest.raises(MalformedFormatInfo):
            qr_decode(blank)


def _reference_read_format(m: QrMatrix) -> tuple[str, int]:
    """Reference: the per-cell reader.  Each copy's 15 cells are summed into
    a word in Python, and the 32 words are scanned copy 1 first, then levels
    L, M, Q, H with masks 0-7, keeping the first nearest."""
    ys, xs = _format_cells(m.size)
    best = None
    for copy_ys, copy_xs in zip(ys.tolist(), xs.tolist()):
        received = sum(1 << i for i, (y, x) in enumerate(zip(copy_ys, copy_xs)) if m.modules[y][x])
        for level in "LMQH":
            for mask in range(8):
                distance = bin(received ^ format_code(level, mask)).count("1")
                if best is None or distance < best[0]:
                    best = (distance, level, mask)
    distance, level, mask = best
    if distance > 3:
        raise MalformedFormatInfo(f"best format-code distance {distance} exceeds 3")
    return level, mask


_WORDS = [format_code(level, mask) for level in "LMQH" for mask in range(8)]


def _assert_format_reads_like_reference(first: int, second: int) -> None:
    """read_format on a grid holding `first` in copy 1 and `second` in copy 2
    returns the reference's (level, mask), or raises its error with its message."""
    ys, xs = _format_cells(25)
    grid = np.zeros((25, 25), bool)
    grid[ys, xs] = np.array([[first], [second]]) >> np.arange(15) & 1
    m = QrMatrix(grid)
    try:
        want = _reference_read_format(m)
    except MalformedFormatInfo as exc:
        with pytest.raises(MalformedFormatInfo) as got:
            read_format(m.grid)
        assert str(got.value) == str(exc)
    else:
        assert read_format(m.grid) == want


def _flip(word: int, rng: random.Random, count: int) -> int:
    return word ^ sum(1 << bit for bit in rng.sample(range(15), count))


class TestReadFormatReference:
    @pytest.mark.parametrize("flips", range(5))
    def test_every_word_damaged_in_either_copy(self, flips):
        """Each word with `flips` bits flipped, beside itself, a damaged copy
        of itself, another table word or a random word, in either order."""
        rng = random.Random(flips)
        for word in _WORDS:
            for _ in range(6):
                damaged = _flip(word, rng, flips)
                for other in (word, _flip(word, rng, rng.randrange(5)), rng.choice(_WORDS), rng.getrandbits(15)):
                    _assert_format_reads_like_reference(damaged, other)
                    _assert_format_reads_like_reference(other, damaged)

    def test_random_word_pairs(self):
        rng = random.Random(15)
        for _ in range(3000):
            _assert_format_reads_like_reference(rng.getrandbits(15), rng.getrandbits(15))

    @pytest.mark.parametrize("flips", range(5))
    def test_ties_between_copies(self, flips):
        """Two different words, each `flips` bits from its copy: the same
        distance in both copies, so the tie rule picks copy 1's word."""
        rng = random.Random(100 + flips)
        for _ in range(200):
            a, b = rng.sample(_WORDS, 2)
            _assert_format_reads_like_reference(_flip(a, rng, flips), _flip(b, rng, flips))

    def test_ties_between_table_entries(self):
        """A copy halfway between two words 8 bits apart (the words are 7, 8
        or 15 bits apart, so a tie within a copy is at 4 bits and refused):
        as copy 1 beside a random copy 2, and as copy 2 beside a copy 1 as
        far from its own word."""
        rng = random.Random(8)
        ties = 0
        for a in _WORDS:
            for b in _WORDS:
                differ = [bit for bit in range(15) if (a ^ b) >> bit & 1]
                if a == b or len(differ) % 2:
                    continue
                halfway = a ^ sum(1 << bit for bit in rng.sample(differ, len(differ) // 2))
                assert bin(halfway ^ a).count("1") == bin(halfway ^ b).count("1")
                ties += 1
                _assert_format_reads_like_reference(halfway, rng.getrandbits(15))
                _assert_format_reads_like_reference(_flip(a, rng, len(differ) // 2), halfway)
        assert ties > 0


class TestReadOnlyGrid:
    """A symbol keeps its own read-only grid: no write reaches it, and
    none is dropped without an error."""

    def test_grid_is_read_only(self):
        m = qr_encode(b"read only", "M")
        assert m.grid.dtype == bool and m.grid.shape == (m.size, m.size)
        assert not m.grid.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            m.grid[0, 0] = not m.grid[0, 0]

    @pytest.mark.parametrize("wrap", [QrMatrix], ids=["QrMatrix"])
    def test_source_array_written_after_construction(self, wrap):
        source = qr_encode(b"x" * 20, "M").grid.copy()
        m = wrap(source)
        clean, pbm = m.grid.copy(), to_pbm(m)
        source[:] = ~source
        assert np.array_equal(m.grid, clean) and to_pbm(m) == pbm

    def test_modules_rows_refuse_a_cell_write(self):
        m = qr_encode(b"tuple rows", "M")
        assert type(m.modules) is tuple and {type(row) for row in m.modules} == {tuple}
        with pytest.raises(TypeError):
            m.modules[0][0] = True
        assert np.array_equal(m.modules, m.grid)


class TestDerivedLabels:
    """A symbol is its grid: the side fixes the version and the format
    information names the level, so no label can contradict the grid."""

    @pytest.mark.parametrize("side", range(21, 58, 4))
    def test_side_gives_the_version(self, side):
        assert QrMatrix(np.zeros((side, side), bool)).version == (side - 17) // 4

    @pytest.mark.parametrize("side", [17, 20, 22, 61])
    def test_side_of_no_version_refused(self, side):
        with pytest.raises(MalformedInput, match=f"symbol side {side} is not a version 1..10 QR"):
            QrMatrix(np.zeros((side, side), bool))

    def test_labels_are_not_arguments(self):
        """A version 1 grid once wrapped as version 2 ended in a bare
        IndexError; the grid alone now says version 1, and decodes."""
        grid = qr_encode(b"a").grid
        with pytest.raises(TypeError):
            QrMatrix(2, "M", grid)
        m = QrMatrix(grid)
        assert (m.version, m.ec_level, qr_decode(m)) == (1, "M", b"a")

    @pytest.mark.parametrize("level", EC_LEVELS)
    def test_level_read_from_the_format_information(self, level):
        for version in range(1, 11):
            m = matrix_from_data_codewords(assemble_data_codewords(b"", version, level), version, level)
            assert (m.version, m.ec_level) == (version, level)

    def test_unreadable_format_gives_no_level(self):
        """Both format copies set to a word more than 3 bits from every
        format word: no level, and the decoder refuses the symbol."""
        far = next(w for w in range(1 << 15) if min(bin(w ^ word).count("1") for word in _WORDS) > 3)
        grid = qr_encode(b"format", "Q").grid.copy()
        grid[_format_cells(len(grid))] = far >> np.arange(15) & 1
        m = QrMatrix(grid)
        assert m.ec_level is None
        with pytest.raises(MalformedFormatInfo):
            qr_decode(m)


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

    def test_comments_are_skipped(self):
        matrix = qr_encode(b"pbm comments", "Q")
        magic, dims, *rows = to_pbm(matrix).splitlines()
        text = "\n".join([magic + "# ASCII bitmap", "# 1 1 0 0", dims, *(row + " # 0 1" for row in rows)])
        restored = from_pbm(text)
        assert restored.modules == matrix.modules
        assert qr_decode(restored) == b"pbm comments"

    def test_rejects_non_pbm(self):
        with pytest.raises(ValueError):
            from_pbm("P2\n2 2\n255\n0 0 0 0\n")

    @pytest.mark.parametrize(
        "source",
        [
            "P1\n21\n",  # truncated header
            "P1\n21 x\n",  # non-integer dimension
            "P1\n-21 -21\n",  # negative dimensions
            "P1\n2 2\n0 1 1\n",  # truncated raster
            "P1\n2 2\n0 1 2 0\n",  # pixel other than 0/1
            "P1\n21 22\n" + "0 " * 21 * 22,  # not square
            "P1\n20 20\n" + "0 " * 400,  # no QR version has side 20
            "P1\n\u0662\u0661 \u0662\u0661\n" + "0 " * 441,  # Arabic-Indic digits "21 21"
            "P1\n\uff12\uff11 21\n" + "0 " * 441,  # fullwidth digits "21"
            pytest.param([[False] * 20 for _ in range(21)], id="grid-21-rows-of-20"),
            pytest.param([[False] * 25 for _ in range(21)], id="grid-21-rows-of-25"),
            pytest.param([[False] * 21 for _ in range(20)] + [[False] * 22], id="grid-ragged"),
            pytest.param([False] * 21, id="grid-1-d"),
        ],
    )
    def test_rejects_malformed(self, source):
        """PBM text, or a module grid handed straight to the wrapper."""
        read = from_pbm if isinstance(source, str) else QrMatrix
        with pytest.raises(MalformedInput):
            read(source)


def _reference_from_pbm(text: str) -> QrMatrix:
    """Reference: the per-token reader, splitting each line of
    str.splitlines with str.split after cutting it at its first '#', and
    testing each pixel token against "0" and "1" in Python."""
    tokens: list[str] = []
    for line in text.splitlines():
        tokens.extend(line.split("#", 1)[0].split())
    if not tokens or tokens[0] != "P1":
        raise MalformedInput("not an ASCII netpbm (P1) file")
    fields = tokens[1:3]
    if len(fields) < 2 or not all(f.isascii() and f.isdecimal() for f in fields):
        raise MalformedInput(f"P1 header needs 2 non-negative integers, got {fields}")
    try:
        width, height = map(int, fields)
    except ValueError:  # past the interpreter's digit limit for int(str)
        raise MalformedInput("P1 header field has too many digits") from None
    bits = tokens[3 : 3 + width * height]
    if len(bits) < width * height:
        raise MalformedInput("PBM pixel data truncated")
    if any(bit not in ("0", "1") for bit in bits):
        raise MalformedInput("PBM pixels must be 0 or 1")
    if width != height:
        raise MalformedInput("QR symbol must be square")
    rows = [bits[y * width : (y + 1) * width] for y in range(height)]
    return QrMatrix([[bit == "1" for bit in row] for row in rows])


def _assert_reads_like_reference(text: str) -> None:
    """from_pbm returns the reference's symbol, or raises its error with its message."""
    try:
        want = _reference_from_pbm(text)
    except MalformedInput as exc:
        with pytest.raises(MalformedInput) as got:
            from_pbm(text)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
    else:
        got = from_pbm(text)
        assert (got.modules, got.version, got.ec_level) == (want.modules, want.version, want.ec_level)


_PBM_TEXT = to_pbm(qr_encode(b"differential", "M"))
# What str.split treats as whitespace in ASCII; all but \x1f and the space
# also end a line for str.splitlines.
_ASCII_SPACES = "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "
# Non-ASCII characters that str.split or str.splitlines also break at.
_WIDE_SPACES = "\x85\xa0\u1680\u2000\u2028\u2029\u202f\u3000"


def _codepoints(text: str) -> str:
    return "-".join(f"U+{ord(c):04X}" for c in text)


class TestPbmReference:
    @pytest.mark.parametrize("sep", list(_ASCII_SPACES + _WIDE_SPACES), ids=_codepoints)
    def test_every_separator(self, sep):
        _assert_reads_like_reference(_PBM_TEXT.replace(" ", sep))
        _assert_reads_like_reference(_PBM_TEXT.replace("\n", sep))

    @pytest.mark.parametrize("end", [*_ASCII_SPACES, *_WIDE_SPACES, "\r\n", "x"], ids=_codepoints)
    def test_comment_ended_by_each_byte(self, end):
        """A line break ends the comment and the header follows; any other byte leaves it commented out."""
        magic, rest = _PBM_TEXT.split("\n", 1)
        _assert_reads_like_reference(f"{magic}# 5 5 1{end}{rest}")
        _assert_reads_like_reference(f"{magic}\n#{end}{rest}")

    @pytest.mark.parametrize(
        "text",
        [
            _PBM_TEXT.replace("P1\n", "P1#glued\n", 1),
            _PBM_TEXT.replace(" 1 ", " 1#glued\n", 1),
            _PBM_TEXT.replace("\n", " #\n"),
            _PBM_TEXT.replace("\n", "\r\n"),
            _PBM_TEXT.replace("\n", "\r"),
            "#" + _PBM_TEXT,
            "P1#",
            "",
            "##\n\n#",
            _PBM_TEXT.replace(" ", "  \t ") + "trailing 7 tokens",
            _PBM_TEXT.replace(" 1 ", " 10 ", 1),
            _PBM_TEXT.replace(" 1 ", " \ud800 ", 1),
            _PBM_TEXT.replace(" 1 ", " \u0661 ", 1),
            _PBM_TEXT.replace(" 1 ", " 2 ", 1),
            _PBM_TEXT.replace(" 1 ", " / ", 1),
        ],
        ids=["hash-on-magic", "hash-on-pixel", "hash-before-every-break", "crlf", "cr", "commented-out",
             "magic-then-hash", "empty", "comments-only", "extra-tokens", "two-digit-pixel",
             "lone-surrogate-pixel", "arabic-indic-one-pixel", "pixel-2", "pixel-below-0"],
    )
    def test_edge_texts(self, text):
        _assert_reads_like_reference(text)

    def test_huge_header_is_truncated(self):
        """10**30 x 10**30 pixels against a short raster: no OverflowError or MemoryError."""
        text = f"P1 {10**30} {10**30}\n" + "0 " * 441
        _assert_reads_like_reference(text)
        with pytest.raises(MalformedInput, match="truncated"):
            from_pbm(text)

    @pytest.mark.parametrize("fields", ["1" * 5000 + " 0", "21 " + "1" * 5000], ids=["width", "height"])
    def test_header_field_past_the_int_digit_limit_is_malformed(self, fields):
        """int() refuses more than 4300 digits by default; that is malformed input, not a bare ValueError."""
        text = f"P1 {fields}\n" + "0 " * 441
        _assert_reads_like_reference(text)
        with pytest.raises(MalformedInput, match="too many digits"):
            from_pbm(text)


# Pixel tokens of a real symbol with each row end a token of its own, and
# token soup: numbers, comments, line breaks, separators of every kind.
_SOUP_PIXELS = " \n ".join(_PBM_TEXT.splitlines()[2:]).split(" ")
_SOUP = st.one_of(
    st.integers(-3, 30).map(str),
    st.sampled_from(["0", "1", "#", "# note\n", "\n", "\u0663", "\uff12", "\u0662\u0661", "1#", "#1", "\r\n"]),
    st.sampled_from(list(_ASCII_SPACES + _WIDE_SPACES)),
    st.text(max_size=4),
)


@settings(deadline=None, max_examples=300)
@given(
    dims=st.lists(st.one_of(st.just("21"), _SOUP), min_size=2, max_size=2),
    edits=st.lists(st.tuples(st.integers(0, len(_SOUP_PIXELS)), st.booleans(), _SOUP), max_size=4),
    sep=st.sampled_from(list(" " + _ASCII_SPACES + _WIDE_SPACES)),
)
def test_from_pbm_matches_reference_tokenizer_on_token_soup(dims, edits, sep):
    pixels = list(_SOUP_PIXELS)
    for at, replace, token in edits:
        pixels[at : at + replace] = [token]
    _assert_reads_like_reference(sep.join(["P1", *dims, "\n", *pixels]))


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


def _bits(value: int, width: int) -> list[int]:
    return [(value >> (width - 1 - i)) & 1 for i in range(width)]


def _value(bits: list[int]) -> int:
    value = 0
    for b in bits:
        value = (value << 1) | b
    return value


def _reference_parse(data_codewords: list[int], version: int) -> tuple[bytes, int]:
    """Reference: the byte-mode segment read one bit at a time."""
    bits = [b for c in data_codewords for b in _bits(c, 8)]
    if _value(bits[0:4]) == 0:
        return b"", 1
    if _value(bits[0:4]) != 0b0100:
        raise MalformedInput("mode")
    cc = char_count_bits(version)
    count = _value(bits[4 : 4 + cc])
    used = 4 + cc + 8 * count
    if used > len(bits):
        raise MalformedInput("length")
    text = bytes(_value(bits[i : i + 8]) for i in range(4 + cc, used, 8))
    return text, (used + min(4, len(bits) - used) + 7) // 8


@settings(deadline=None, max_examples=300)
@given(
    version=st.integers(1, 10),
    text=st.binary(max_size=60),
    codewords=st.lists(st.integers(0, 255), max_size=40),
    mode=st.sampled_from([0, 0b0100, 0b0010]),
)
def test_segment_codec_matches_bit_by_bit_reference(version, text, codewords, mode):
    """Writer and reader of the mode/count/payload/terminator segment agree
    with a bit-list reference, on valid segments and arbitrary codewords."""
    if byte_mode_capacity(version, "L") >= len(text):
        cc = char_count_bits(version)
        bits = _bits(0b0100, 4) + _bits(len(text), cc) + [b for c in text for b in _bits(c, 8)] + [0] * 4
        want = [_value(bits[i : i + 8]) for i in range(0, len(bits), 8)]
        assembled = assemble_data_codewords(text, version, "L")
        assert assembled[: len(want)] == want
        assert parse_byte_segment(assembled, version) == _reference_parse(assembled, version)
    if codewords:
        codewords[0] = mode << 4 | codewords[0] & 0x0F
    try:
        want = _reference_parse(codewords, version)
    except MalformedInput:
        with pytest.raises(MalformedInput):
            parse_byte_segment(codewords, version)
    else:
        assert parse_byte_segment(codewords, version) == want
