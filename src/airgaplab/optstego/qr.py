"""QR symbol codec: byte mode, versions 1-10, Reed-Solomon over GF(256).

Encoding fixes mask pattern 0 (declared in the format information, so any
conformant reader accepts the symbol); decoding is a full conformant reader:
it recovers level and mask from the format information, unmasks with any of
the eight patterns, deinterleaves, and RS-corrects each block.

The padding codewords (0xEC/0x11 fill after the terminator) are built
through the same codeword assembler the steganographic layer taps into.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import MalformedFormatInfo, MalformedInput, PayloadTooLarge, UncorrectableErrors

MIN_VERSION = 1
MAX_VERSION = 10
EC_LEVELS = ("L", "M", "Q", "H")

GF_POLY = 0x11D  # x^8 + x^4 + x^3 + x^2 + 1

PAD_BYTES = (0xEC, 0x11)

FORMAT_XOR_MASK = 0x5412
FORMAT_GENERATOR = 0x537  # BCH(15,5)
VERSION_GENERATOR = 0x1F25  # BCH(18,6)

# Format-information 2-bit codes per error correction level.
FORMAT_BITS = {"L": 1, "M": 0, "Q": 3, "H": 2}

# Total codewords (data + error correction) per version.
TOTAL_CODEWORDS = {
    1: 26, 2: 44, 3: 70, 4: 100, 5: 134, 6: 172, 7: 196, 8: 242, 9: 292, 10: 346,
}

# Error-correction codewords per block, versions 1..10.
ECC_PER_BLOCK = {
    "L": (7, 10, 15, 20, 26, 18, 20, 24, 30, 18),
    "M": (10, 16, 26, 18, 24, 16, 18, 22, 22, 26),
    "Q": (13, 22, 18, 26, 18, 24, 18, 22, 20, 24),
    "H": (17, 28, 22, 16, 22, 28, 26, 26, 24, 28),
}

# Number of error-correction blocks, versions 1..10.
NUM_BLOCKS = {
    "L": (1, 1, 1, 1, 1, 2, 2, 2, 2, 4),
    "M": (1, 1, 1, 2, 2, 4, 4, 4, 5, 5),
    "Q": (1, 1, 2, 2, 4, 4, 6, 6, 8, 8),
    "H": (1, 1, 2, 4, 4, 4, 5, 6, 8, 8),
}

MASK_PATTERNS = (
    lambda x, y: (x + y) % 2,
    lambda x, y: y % 2,
    lambda x, y: x % 3,
    lambda x, y: (x + y) % 3,
    lambda x, y: (x // 3 + y // 2) % 2,
    lambda x, y: x * y % 2 + x * y % 3,
    lambda x, y: (x * y % 2 + x * y % 3) % 2,
    lambda x, y: ((x + y) % 2 + x * y % 3) % 2,
)


# ---- GF(256) arithmetic ----

GF_EXP = [0] * 512
GF_LOG = [0] * 256
_x = 1
for _i in range(255):
    GF_EXP[_i] = _x
    GF_LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= GF_POLY
for _i in range(255, 512):
    GF_EXP[_i] = GF_EXP[_i - 255]

# numpy copies for the table expressions.  The log of 0 is a sentinel past
# any sum of two real logs (each at most 254), and the exp table reads 0 from
# there on, so _EXP[_LOG[a] + _LOG[b]] == gf_mul(a, b) with no zero masking.
_LOG_ZERO = 512
_EXP = np.zeros(2 * _LOG_ZERO + 1, np.uint8)
_EXP[:512] = GF_EXP
_LOG = np.array(GF_LOG, np.intp)
_LOG[0] = _LOG_ZERO


def _read_only(a: np.ndarray) -> np.ndarray:
    """Flag a cached array read-only, since every caller shares it."""
    a.flags.writeable = False
    return a


def gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return GF_EXP[GF_LOG[a] + GF_LOG[b]]


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("inverse of 0 in GF(256)")
    return GF_EXP[255 - GF_LOG[a]]


def gf_poly_eval(poly: list[int], x: int) -> int:
    """Evaluate a polynomial given coefficients in ascending-power order."""
    acc = 0
    for coef in reversed(poly):
        acc = gf_mul(acc, x) ^ coef
    return acc


@lru_cache(maxsize=None)
def rs_generator(degree: int) -> tuple[int, ...]:
    """Coefficients (descending powers, monic) of prod (x - a^i), i<degree."""
    gen = [1]  # ascending powers while building
    for i in range(degree):
        root = GF_EXP[i]
        nxt = [0] * (len(gen) + 1)
        for j, coef in enumerate(gen):
            nxt[j] ^= gf_mul(coef, root)
            nxt[j + 1] ^= coef
        gen = nxt
    return tuple(reversed(gen))


# Log-form parity rows per RS degree: row p is the parity of a lone 1 byte p
# places before the end of the data, x^(p + degree) mod g(x).  Grown on
# demand to the longest block encoded so far.
_PARITY_ROWS: dict[int, np.ndarray] = {}


def _parity_rows(degree: int, count: int) -> np.ndarray:
    rows = _PARITY_ROWS.get(degree, np.empty((0, degree), np.intp))
    if len(rows) < count:
        gen = rs_generator(degree)[1:]
        # x^(degree-1) is its own remainder; each row is the last times x mod g(x).
        rem = _EXP[rows[-1]].tolist() if len(rows) else [1] + [0] * (degree - 1)
        new = []
        for _ in range(count - len(rows)):
            factor = rem[0]
            rem = [r ^ gf_mul(g, factor) for r, g in zip(rem[1:] + [0], gen)]
            new.append(rem)
        rows = _PARITY_ROWS[degree] = _read_only(np.concatenate([rows, _LOG[new]]))
    return rows


def rs_encode(data: list[int], degree: int) -> list[int]:
    """Reed-Solomon parity codewords for a data block: the XOR over data
    bytes of each byte times the parity row of its position."""
    rows = _parity_rows(degree, len(data))[: len(data)][::-1]
    return np.bitwise_xor.reduce(_EXP[_LOG[data][:, None] + rows], axis=0).tolist()


@lru_cache(maxsize=None)
def _syndrome_exponents(n: int, count: int) -> np.ndarray:
    """j * (n - 1 - i) mod 255 for syndrome j and byte i of an n-byte block."""
    return _read_only(np.arange(count)[:, None] * np.arange(n - 1, -1, -1) % 255)


def _syndromes(block: list[int], count: int) -> np.ndarray:
    """S_j = block(alpha^j) for j < count, block[0] the highest-degree coefficient."""
    return np.bitwise_xor.reduce(_EXP[_LOG[block] + _syndrome_exponents(len(block), count)], axis=1)


def rs_correct(block: list[int], ec_count: int) -> tuple[list[int], int]:
    """Correct up to floor(ec_count/2) byte errors in data+parity.

    Returns (corrected block, number of corrected bytes); raises
    UncorrectableErrors when the error pattern exceeds the code's budget.
    """
    n = len(block)
    syndromes = _syndromes(block, ec_count)
    if not syndromes.any():
        return list(block), 0
    syndromes = syndromes.tolist()

    # Berlekamp-Massey: find the error locator sigma (ascending powers).
    sigma = [1]
    prev = [1]
    l = 0
    m = 1
    b = 1
    for step in range(ec_count):
        delta = syndromes[step]
        for i in range(1, l + 1):
            delta ^= gf_mul(sigma[i], syndromes[step - i])
        if delta == 0:
            m += 1
            continue
        old = sigma
        coef = gf_mul(delta, gf_inv(b))
        sigma = sigma + [0] * (len(prev) + m - len(sigma))
        for i, pc in enumerate(prev):
            sigma[i + m] ^= gf_mul(coef, pc)
        if 2 * l <= step:
            l = step + 1 - l
            prev = old
            b = delta
            m = 1
        else:
            m += 1
    while sigma and sigma[-1] == 0:
        sigma.pop()
    n_errors = len(sigma) - 1
    if n_errors > ec_count // 2:
        raise UncorrectableErrors(f"{n_errors} errors exceed budget {ec_count // 2}")

    # Chien search over actual byte positions.
    positions = []
    for idx in range(n):
        exponent = n - 1 - idx
        x_inv = GF_EXP[(255 - exponent) % 255]
        if gf_poly_eval(sigma, x_inv) == 0:
            positions.append(idx)
    if len(positions) != n_errors:
        raise UncorrectableErrors("error locator roots do not match error count")

    # Forney magnitudes: omega = S*sigma mod x^ec.
    omega = [0] * ec_count
    for i, sc in enumerate(sigma):
        for j, sy in enumerate(syndromes):
            if i + j < ec_count:
                omega[i + j] ^= gf_mul(sc, sy)
    sigma_deriv = [sigma[i] for i in range(1, len(sigma), 2)]  # odd coefficients
    corrected = list(block)
    for idx in positions:
        exponent = n - 1 - idx
        x_inv = GF_EXP[(255 - exponent) % 255]
        denom = gf_poly_eval(sigma_deriv, gf_mul(x_inv, x_inv))
        if denom == 0:
            raise UncorrectableErrors("degenerate error locator derivative")
        num = gf_mul(gf_poly_eval(omega, x_inv), GF_EXP[exponent])
        corrected[idx] ^= gf_mul(num, gf_inv(denom))

    if _syndromes(corrected, ec_count).any():
        raise UncorrectableErrors("residual syndromes after correction")
    return corrected, n_errors


# ---- version geometry and capacity ----


def size_for_version(version: int) -> int:
    return 17 + 4 * version


def _check_version(version: int) -> None:
    if not MIN_VERSION <= version <= MAX_VERSION:
        raise ValueError(f"version {version} outside {MIN_VERSION}..{MAX_VERSION}")


def _check_level(ec_level: str) -> None:
    if ec_level not in EC_LEVELS:
        raise ValueError(f"ec_level must be one of {EC_LEVELS}, got {ec_level!r}")


def data_codeword_count(version: int, ec_level: str) -> int:
    _check_version(version)
    _check_level(ec_level)
    return TOTAL_CODEWORDS[version] - ECC_PER_BLOCK[ec_level][version - 1] * NUM_BLOCKS[ec_level][version - 1]


def char_count_bits(version: int) -> int:
    return 8 if version <= 9 else 16


def byte_mode_capacity(version: int, ec_level: str) -> int:
    """Maximum byte-mode payload length for a version/level."""
    return (data_codeword_count(version, ec_level) * 8 - 4 - char_count_bits(version)) // 8


def padding_room(version: int, ec_level: str, payload_len: int) -> int:
    """Pad codewords left after a byte-mode segment and its terminator.

    Mode, count and the 4-bit terminator always fill whole codewords, so
    this is the spare byte capacity; it is negative when the payload does
    not fit.
    """
    return byte_mode_capacity(version, ec_level) - payload_len


def alignment_positions(version: int) -> list[int]:
    _check_version(version)
    if version == 1:
        return []
    numalign = version // 7 + 2
    step = (version * 4 + numalign * 2 + 1) // (2 * numalign - 2) * 2
    positions = [6]
    pos = version * 4 + 10
    for _ in range(numalign - 1):
        positions.insert(1, pos)
        pos -= step
    return positions


@lru_cache(maxsize=None)
def _format_cells(size: int) -> tuple[np.ndarray, np.ndarray]:
    """(ys, xs) of format bits 0-14, each 2x15: row 0 is the copy beside the
    top-left finder, row 1 the copy split between the other two."""
    ys = [[*range(6), 7, 8, 8, *[8] * 6], [*[8] * 8, *range(size - 7, size)]]
    xs = [[*[8] * 8, 7, *range(5, -1, -1)], [*range(size - 1, size - 9, -1), *[8] * 7]]
    return _read_only(np.array(ys)), _read_only(np.array(xs))


def _bch_remainder(data: int, n_rounds: int, generator: int, top_shift: int) -> int:
    rem = data
    for _ in range(n_rounds):
        rem = (rem << 1) ^ ((rem >> top_shift) * generator)
    return rem


# The 15-bit format word of every (level, mask): levels L, M, Q, H, each with masks 0-7.
_FORMAT_WORDS = {
    (level, mask): (data << 10 | _bch_remainder(data, 10, FORMAT_GENERATOR, 9)) ^ FORMAT_XOR_MASK
    for level in EC_LEVELS
    for mask in range(8)
    for data in [FORMAT_BITS[level] << 3 | mask]
}
_FORMAT_WORD_TABLE = _read_only(np.array(list(_FORMAT_WORDS.values())))  # the same, in order


def format_code(ec_level: str, mask: int) -> int:
    """The 15-bit format information word for a level/mask pair."""
    return _FORMAT_WORDS[ec_level, mask]


def version_code(version: int) -> int:
    rem = _bch_remainder(version, 12, VERSION_GENERATOR, 11)
    return (version << 12) | rem


def _square(modules: np.typing.ArrayLike) -> np.ndarray:
    """The module grid as a bool array, refused unless square, 2-D and not empty."""
    try:
        grid = np.asarray(modules, bool)
    except ValueError:  # ragged rows
        grid = None
    if grid is None or grid.ndim != 2 or grid.shape[0] != grid.shape[1] or not grid.size:
        raise MalformedInput("QR symbol must be square")
    return grid


@dataclass(eq=False)
class QrMatrix:
    """A square module grid; True is a dark module.  A grid of a version's
    side is accepted and kept as a read-only bool copy, `grid`; the side
    fixes the version, and the format information names the level."""

    grid: np.ndarray

    def __post_init__(self) -> None:
        grid = _square(self.grid)
        version, rest = divmod(len(grid) - 17, 4)
        if rest or not MIN_VERSION <= version <= MAX_VERSION:
            raise MalformedInput(f"symbol side {len(grid)} is not a version {MIN_VERSION}..{MAX_VERSION} QR")
        self.grid = _read_only(grid.copy())

    @property
    def version(self) -> int:
        return (self.size - 17) // 4

    @property
    def ec_level(self) -> str | None:
        """The level the format information names, or None when neither copy
        is near a format word; read on each access, never by the decoder."""
        try:
            return read_format(self.grid)[0]
        except MalformedFormatInfo:
            return None

    @property
    def modules(self) -> tuple[tuple[bool, ...], ...]:
        """The rows as tuples of Python bools, built on each access."""
        return tuple(map(tuple, self.grid.tolist()))

    @property
    def size(self) -> int:
        return len(self.grid)


# ---- codeword assembly ----


def assemble_data_codewords(
    data: bytes, version: int, ec_level: str, pad_override: list[int] | None = None
) -> list[int]:
    """Mode/length/payload/terminator plus padding codewords.

    `pad_override` replaces the leading padding bytes (the steganographic
    hook); any remaining fill continues the 0xEC/0x11 alternation by pad
    index, so untouched symbols stay bit-identical to a standard encoder.
    """
    pad_count = padding_room(version, ec_level, len(data))
    if pad_count < 0:
        raise PayloadTooLarge(f"{len(data)} bytes exceed version {version}-{ec_level} capacity")
    # Mode 0100, count, payload and the 4-bit terminator fill whole bytes (the count is 8 or 16 bits).
    cc = char_count_bits(version)
    segment = ((0b0100 << cc | len(data)) << 8 * len(data) | int.from_bytes(data, "big")) << 4
    codewords = list(segment.to_bytes(len(data) + cc // 8 + 1, "big"))
    pad = [PAD_BYTES[i % 2] for i in range(pad_count)]
    if pad_override is not None:
        if len(pad_override) > pad_count:
            raise PayloadTooLarge("padding region overrun")
        pad[: len(pad_override)] = pad_override
    return codewords + pad


def _split_block_lengths(version: int, ec_level: str) -> tuple[list[int], int]:
    """Per-block data lengths and the ec codeword count per block."""
    total = TOTAL_CODEWORDS[version]
    ecc = ECC_PER_BLOCK[ec_level][version - 1]
    nblocks = NUM_BLOCKS[ec_level][version - 1]
    short_len = total // nblocks
    num_short = nblocks - total % nblocks
    return [short_len - ecc + (0 if i < num_short else 1) for i in range(nblocks)], ecc


@lru_cache(maxsize=None)
def _stream_order(version: int, ec_level: str) -> np.ndarray:
    """Index into the concatenated blocks (each one's data, then its parity)
    of every codeword in placement order.

    Data codewords go column by column across the blocks (the shorter
    blocks skip the last column), then the parity codewords likewise.
    """
    lengths, ecc = _split_block_lengths(version, ec_level)
    starts = [sum(lengths[:b]) + b * ecc for b in range(len(lengths))]
    data = [starts[b] + i for i in range(max(lengths)) for b, length in enumerate(lengths) if i < length]
    parity = [starts[b] + length + i for i in range(ecc) for b, length in enumerate(lengths)]
    return _read_only(np.array(data + parity))


def interleave(data_codewords: list[int], version: int, ec_level: str) -> np.ndarray:
    """Block-split, append RS parity, and interleave for placement."""
    lengths, ecc = _split_block_lengths(version, ec_level)
    blocks = []
    k = 0
    for length in lengths:
        chunk = data_codewords[k : k + length]
        blocks += chunk + rs_encode(chunk, ecc)
        k += length
    assert k == len(data_codewords)
    return np.array(blocks, np.uint8)[_stream_order(version, ec_level)]


# ---- matrix construction ----


# Chebyshev distance from the centre of a 9x9 square.  A finder is dark at
# distances 0, 1 and 3 and its separator light at 4; clipped to the symbol,
# the square covers finder plus separator in each corner.  An alignment
# pattern is dark at 0 and 2.
_RINGS = np.maximum(*np.abs(np.mgrid[-4:5, -4:5]))
_FINDER = _read_only(~np.isin(_RINGS, (2, 4)))
_ALIGNMENT = _read_only(_RINGS[2:7, 2:7] != 1)


@lru_cache(maxsize=None)
def _function_template(version: int) -> tuple[np.ndarray, np.ndarray]:
    """(reserved, dark) read-only grids of a version: the modules that carry
    structure rather than data bits, and the dark ones among them.  Format
    modules are reserved but read light until the encoder writes them."""
    size = size_for_version(version)
    grid = np.full((size, size), -1, np.int8)  # -1 until a pattern claims the module
    grid[6, :] = grid[:, 6] = np.arange(size) % 2 == 0
    grid[:8, :8] = _FINDER[1:, 1:]
    grid[:8, -8:] = _FINDER[1:, :-1]
    grid[-8:, :8] = _FINDER[:-1, 1:]
    centers = alignment_positions(version)
    for ay in centers:
        for ax in centers:
            if (ax, ay) not in ((6, 6), (6, centers[-1]), (centers[-1], 6)):  # finder corners
                grid[ay - 2 : ay + 3, ax - 2 : ax + 3] = _ALIGNMENT
    grid[size - 8, 8] = 1
    if version >= 7:
        bits = (version_code(version) >> np.arange(18) & 1).reshape(6, 3)
        grid[:6, -11:-8] = bits
        grid[-11:-8, :6] = bits.T
    grid[_format_cells(size)] = 0
    return _read_only(grid >= 0), _read_only(grid == 1)


def function_mask(version: int) -> np.ndarray:
    """Bool grid marking modules that carry structure rather than data bits."""
    return _function_template(version)[0]


def _zigzag_coords(version: int):
    """Data-module coordinates in placement order."""
    size = size_for_version(version)
    is_fn = function_mask(version).tolist()
    right = size - 1
    while right >= 1:
        if right == 6:
            right -= 1
        upward = ((right + 1) & 2) == 0
        for vert in range(size):
            y = size - 1 - vert if upward else vert
            for x in (right, right - 1):
                if not is_fn[y][x]:
                    yield x, y
        right -= 2


@lru_cache(maxsize=None)
def _data_cells(version: int, mask: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ys, xs, flips) of the data modules in placement order; the mask
    pattern inverts a module where `flips` is set."""
    xs, ys = np.array(list(_zigzag_coords(version))).T
    return tuple(map(_read_only, (ys, xs, MASK_PATTERNS[mask](xs, ys) == 0)))


def _place_codewords(modules: np.ndarray, codewords: np.ndarray, version: int, mask: int) -> None:
    ys, xs, flips = _data_cells(version, mask)
    modules[ys, xs] = np.unpackbits(codewords, count=len(ys)) ^ flips  # zero remainder bits past the codewords


def matrix_from_data_codewords(data_codewords: list[int], version: int, ec_level: str) -> QrMatrix:
    """Build the module grid (mask pattern 0) from assembled data codewords."""
    modules = _function_template(version)[1].copy()
    _place_codewords(modules, interleave(data_codewords, version, ec_level), version, mask=0)
    modules[_format_cells(len(modules))] = _FORMAT_WORDS[ec_level, 0] >> np.arange(15) & 1
    return QrMatrix(modules)


def select_version(payload_len: int, ec_level: str, extra_pad_bytes: int = 0) -> int:
    """Smallest version whose byte-mode capacity leaves the requested padding."""
    _check_level(ec_level)
    for version in range(MIN_VERSION, MAX_VERSION + 1):
        if padding_room(version, ec_level, payload_len) >= max(extra_pad_bytes, 0):
            return version
    raise PayloadTooLarge(
        f"{payload_len} bytes (+{extra_pad_bytes} pad) exceed version {MAX_VERSION} at level {ec_level}"
    )


def qr_encode(text: bytes, ec_level: str = "M") -> QrMatrix:
    """Encode bytes into the smallest sufficient symbol, mask pattern 0."""
    if isinstance(text, str):
        text = text.encode("utf-8")
    version = select_version(len(text), ec_level)
    codewords = assemble_data_codewords(text, version, ec_level)
    return matrix_from_data_codewords(codewords, version, ec_level)


# ---- decoding ----


def read_format(grid: np.ndarray) -> tuple[str, int]:
    """Recover (ec_level, mask) from the nearest format word in either copy
    of a bool grid; a tie goes to copy 1, then to the earlier table entry."""
    received = grid[_format_cells(len(grid))] @ (1 << np.arange(15))
    distances = np.bitwise_count(received[:, None] ^ _FORMAT_WORD_TABLE).ravel()
    best = distances.argmin()  # the first minimum: copy 1's words, then copy 2's
    if distances[best] > 3:
        raise MalformedFormatInfo(f"best format-code distance {distances[best]} exceeds 3")
    return list(_FORMAT_WORDS)[best % len(_FORMAT_WORDS)]


def decode_data_codewords(m: QrMatrix) -> tuple[list[int], str]:
    """Unmask, deinterleave and RS-correct every block; returns the data
    codewords plus the recovered level."""
    level, mask = read_format(m.grid)
    ys, xs, flips = _data_cells(m.version, mask)
    n_bits = TOTAL_CODEWORDS[m.version] * 8
    stream = np.packbits(m.grid[ys[:n_bits], xs[:n_bits]] ^ flips[:n_bits])
    concatenated = np.empty_like(stream)
    concatenated[_stream_order(m.version, level)] = stream
    blocks = concatenated.tolist()
    lengths, ecc = _split_block_lengths(m.version, level)
    out: list[int] = []
    start = 0
    for length in lengths:
        out += rs_correct(blocks[start : start + length + ecc], ecc)[0][:length]
        start += length + ecc
    return out, level


def parse_byte_segment(data_codewords: list[int], version: int) -> tuple[bytes, int]:
    """Parse the byte-mode segment; returns (text, pad_region_start_index)."""
    data = bytes(data_codewords)
    mode = data[0] >> 4 if data else 0
    if mode == 0:
        return b"", (4 + 7) // 8  # terminator-only symbol
    if mode != 0b0100:
        raise MalformedInput(f"unsupported segment mode {mode:04b}")
    # Past the 4-bit mode the count and payload sit half a byte off; shift them back.
    aligned = (int.from_bytes(data, "big") << 4).to_bytes(len(data) + 1, "big")[1:]
    head = char_count_bits(version) // 8
    count = int.from_bytes(aligned[:head], "big")
    if head + count >= len(data):  # the 4-bit terminator needs half of one more byte
        raise MalformedInput("segment length exceeds symbol capacity")
    return aligned[head : head + count], head + count + 1


def qr_decode(m: QrMatrix) -> bytes:
    """Full conformant decode back to the byte-mode payload."""
    data_codewords, level = decode_data_codewords(m)
    text, _ = parse_byte_segment(data_codewords, m.version)
    return text


# ---- PBM serialization (portable bitmap, ASCII P1, dark = 1) ----


def to_pbm(m: QrMatrix) -> str:
    size = m.size
    # Each row is its digits with a space after each but the last, then "\n".
    raster = np.full((size, 2 * size), ord(" "), np.uint8)
    raster[:, ::2] = ord("0") + m.grid
    raster[:, -1] = ord("\n")
    return f"P1\n{size} {size}\n" + raster.tobytes().decode()


def from_pbm(text: str) -> QrMatrix:
    """Parse an ASCII PBM into a symbol.

    Comments run from '#' to the end of the line.  The header is the magic
    number P1 and two non-negative integers in ASCII digits; each pixel is
    one token, 0 or 1.  Anything else raises MalformedInput.
    """
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
    # Tokens are never empty, so one byte per token means every pixel is a
    # single ASCII character; '0' (0x30) and '1' (0x31) differ in the low bit.
    data = "".join(bits).encode("utf-8", "surrogatepass")
    pixels = np.frombuffer(data, np.uint8)
    if len(data) != len(bits) or ((pixels | 1) != ord("1")).any():
        raise MalformedInput("PBM pixels must be 0 or 1")
    return QrMatrix((pixels == ord("1")).reshape(height, width))  # refuses width != height
