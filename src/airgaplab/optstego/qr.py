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

from ..errors import MalformedFormatInfo, MalformedInput, PayloadTooLarge, UncorrectableErrors
from ..keyframe import bits_to_bytes, bits_to_int, bytes_to_bits, int_to_bits

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


def rs_encode(data: list[int], degree: int) -> list[int]:
    """Reed-Solomon parity codewords for a data block."""
    gen = rs_generator(degree)
    rem = [0] * degree
    for byte in data:
        factor = byte ^ rem[0]
        rem = rem[1:] + [0]
        for i in range(degree):
            rem[i] ^= gf_mul(gen[i + 1], factor)
    return rem


def rs_correct(block: list[int], ec_count: int) -> tuple[list[int], int]:
    """Correct up to floor(ec_count/2) byte errors in data+parity.

    Returns (corrected block, number of corrected bytes); raises
    UncorrectableErrors when the error pattern exceeds the code's budget.
    """
    n = len(block)
    syndromes = [gf_poly_eval(list(reversed(block)), GF_EXP[j]) for j in range(ec_count)]
    if not any(syndromes):
        return list(block), 0

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
        elif 2 * l <= step:
            old = list(sigma)
            coef = gf_mul(delta, gf_inv(b))
            sigma = sigma + [0] * (len(prev) + m - len(sigma))
            for i, pc in enumerate(prev):
                sigma[i + m] ^= gf_mul(coef, pc)
            l = step + 1 - l
            prev = old
            b = delta
            m = 1
        else:
            coef = gf_mul(delta, gf_inv(b))
            sigma = sigma + [0] * (len(prev) + m - len(sigma))
            for i, pc in enumerate(prev):
                sigma[i + m] ^= gf_mul(coef, pc)
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

    check = [gf_poly_eval(list(reversed(corrected)), GF_EXP[j]) for j in range(ec_count)]
    if any(check):
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


def _format_positions_copy1(size: int) -> list[tuple[int, int]]:
    pos = [(8, i) for i in range(6)]
    pos += [(8, 7), (8, 8), (7, 8)]
    pos += [(14 - i, 8) for i in range(9, 15)]
    return pos


def _format_positions_copy2(size: int) -> list[tuple[int, int]]:
    pos = [(size - 1 - i, 8) for i in range(8)]
    pos += [(8, size - 15 + i) for i in range(8, 15)]
    return pos


def _bch_remainder(data: int, n_rounds: int, generator: int, top_shift: int) -> int:
    rem = data
    for _ in range(n_rounds):
        rem = (rem << 1) ^ ((rem >> top_shift) * generator)
    return rem


def format_code(ec_level: str, mask: int) -> int:
    """The 15-bit format information word for a level/mask pair."""
    data = FORMAT_BITS[ec_level] << 3 | mask
    rem = _bch_remainder(data, 10, FORMAT_GENERATOR, 9)
    return ((data << 10) | rem) ^ FORMAT_XOR_MASK


def version_code(version: int) -> int:
    rem = _bch_remainder(version, 12, VERSION_GENERATOR, 11)
    return (version << 12) | rem


@dataclass
class QrMatrix:
    """A square module grid; True is a dark module."""

    version: int
    ec_level: str | None
    modules: list[list[bool]]

    @property
    def size(self) -> int:
        return len(self.modules)

    def clone(self) -> "QrMatrix":
        return QrMatrix(self.version, self.ec_level, [row[:] for row in self.modules])


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
    bits = int_to_bits(0b0100, 4) + int_to_bits(len(data), char_count_bits(version))
    bits += bytes_to_bits(data) + [0] * 4  # terminator
    codewords = list(bits_to_bytes(bits))
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


def interleave(data_codewords: list[int], version: int, ec_level: str) -> list[int]:
    """Block-split, append RS parity, and interleave for placement."""
    lengths, ecc = _split_block_lengths(version, ec_level)
    blocks = []
    k = 0
    for length in lengths:
        chunk = data_codewords[k : k + length]
        blocks.append((chunk, rs_encode(chunk, ecc)))
        k += length
    assert k == len(data_codewords)
    out = []
    for i in range(max(lengths)):
        for chunk, _ in blocks:
            if i < len(chunk):
                out.append(chunk[i])
    for i in range(ecc):
        for _, parity in blocks:
            out.append(parity[i])
    return out


def deinterleave_and_correct(codewords: list[int], version: int, ec_level: str) -> list[int]:
    """Invert the interleave, RS-correct every block, return data codewords."""
    lengths, ecc = _split_block_lengths(version, ec_level)
    data_parts: list[list[int]] = [[] for _ in lengths]
    ec_parts: list[list[int]] = [[] for _ in lengths]
    it = iter(codewords)
    for i in range(max(lengths)):
        for b, length in enumerate(lengths):
            if i < length:
                data_parts[b].append(next(it))
    for _ in range(ecc):
        for b in range(len(lengths)):
            ec_parts[b].append(next(it))
    out: list[int] = []
    for b in range(len(lengths)):
        corrected, _ = rs_correct(data_parts[b] + ec_parts[b], ecc)
        out.extend(corrected[: lengths[b]])
    return out


# ---- matrix construction ----


def _draw_finder(modules: list[list[bool]], cx: int, cy: int) -> None:
    size = len(modules)
    for dy in range(-4, 5):
        for dx in range(-4, 5):
            x, y = cx + dx, cy + dy
            if 0 <= x < size and 0 <= y < size:
                modules[y][x] = max(abs(dx), abs(dy)) not in (2, 4)


def _draw_alignment(modules: list[list[bool]], cx: int, cy: int) -> None:
    for dy in range(-2, 3):
        for dx in range(-2, 3):
            modules[cy + dy][cx + dx] = max(abs(dx), abs(dy)) != 1


def _draw_function_patterns(modules: list[list[bool]], version: int) -> None:
    size = len(modules)
    for i in range(size):
        modules[i][6] = i % 2 == 0
        modules[6][i] = i % 2 == 0
    _draw_finder(modules, 3, 3)
    _draw_finder(modules, size - 4, 3)
    _draw_finder(modules, 3, size - 4)
    centers = alignment_positions(version)
    skips = {(centers[0], centers[0]), (centers[0], centers[-1]), (centers[-1], centers[0])} if centers else set()
    for ay in centers:
        for ax in centers:
            if (ax, ay) not in skips:
                _draw_alignment(modules, ax, ay)
    modules[size - 8][8] = True
    if version >= 7:
        vcode = version_code(version)
        for i in range(18):
            bit = (vcode >> i) & 1 == 1
            modules[i // 3][size - 11 + i % 3] = bit
            modules[size - 11 + i % 3][i // 3] = bit


def _draw_format(modules: list[list[bool]], ec_level: str, mask: int) -> None:
    size = len(modules)
    code = format_code(ec_level, mask)
    for i, (x, y) in enumerate(_format_positions_copy1(size)):
        modules[y][x] = (code >> i) & 1 == 1
    for i, (x, y) in enumerate(_format_positions_copy2(size)):
        modules[y][x] = (code >> i) & 1 == 1


@lru_cache(maxsize=None)
def function_mask(version: int) -> tuple[tuple[bool, ...], ...]:
    """Grid marking modules that carry structure rather than data bits.

    These are exactly the cells the function-pattern and format drawing
    writes; format positions do not depend on level or mask.
    """
    size = size_for_version(version)
    grid = [[None] * size for _ in range(size)]
    _draw_function_patterns(grid, version)
    _draw_format(grid, "L", 0)
    return tuple(tuple(cell is not None for cell in row) for row in grid)


def _zigzag_coords(version: int):
    """Data-module coordinates in placement order."""
    size = size_for_version(version)
    is_fn = function_mask(version)
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


def _place_codewords(modules: list[list[bool]], codewords: list[int], version: int, mask: int) -> None:
    bits = bytes_to_bits(bytes(codewords))
    for i, (x, y) in enumerate(_zigzag_coords(version)):
        bit = i < len(bits) and bits[i] == 1
        modules[y][x] = bit ^ (MASK_PATTERNS[mask](x, y) == 0)


def matrix_from_data_codewords(data_codewords: list[int], version: int, ec_level: str) -> QrMatrix:
    """Build the module grid (mask pattern 0) from assembled data codewords."""
    size = size_for_version(version)
    modules = [[False] * size for _ in range(size)]
    _draw_function_patterns(modules, version)
    _place_codewords(modules, interleave(data_codewords, version, ec_level), version, mask=0)
    _draw_format(modules, ec_level, 0)
    return QrMatrix(version, ec_level, modules)


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


def read_format(m: QrMatrix) -> tuple[str, int]:
    """Recover (ec_level, mask) from either format-information copy."""
    size = m.size
    best: tuple[int, str, int] | None = None
    for positions in (_format_positions_copy1(size), _format_positions_copy2(size)):
        received = 0
        for i, (x, y) in enumerate(positions):
            if m.modules[y][x]:
                received |= 1 << i
        for level in EC_LEVELS:
            for mask in range(8):
                distance = bin(received ^ format_code(level, mask)).count("1")
                if best is None or distance < best[0]:
                    best = (distance, level, mask)
    assert best is not None
    if best[0] > 3:
        raise MalformedFormatInfo(f"best format-code distance {best[0]} exceeds 3")
    return best[1], best[2]


def read_codewords(m: QrMatrix) -> tuple[list[int], str]:
    """Unmask and read the interleaved codewords; returns (codewords, level)."""
    level, mask = read_format(m)
    total = TOTAL_CODEWORDS[m.version]
    bits = []
    for x, y in _zigzag_coords(m.version):
        bits.append(int(m.modules[y][x]) ^ (1 if MASK_PATTERNS[mask](x, y) == 0 else 0))
        if len(bits) == total * 8:
            break
    return list(bits_to_bytes(bits)), level


def decode_data_codewords(m: QrMatrix) -> tuple[list[int], str]:
    """RS-corrected data codewords plus the recovered level."""
    codewords, level = read_codewords(m)
    return deinterleave_and_correct(codewords, m.version, level), level


def parse_byte_segment(data_codewords: list[int], version: int) -> tuple[bytes, int]:
    """Parse the byte-mode segment; returns (text, pad_region_start_index)."""
    bits = bytes_to_bits(bytes(data_codewords))
    mode = bits_to_int(bits[0:4])
    if mode == 0:
        return b"", (4 + 7) // 8  # terminator-only symbol
    if mode != 0b0100:
        raise ValueError(f"unsupported segment mode {mode:04b}")
    cc = char_count_bits(version)
    count = bits_to_int(bits[4 : 4 + cc])
    start = 4 + cc
    if start + 8 * count > len(bits):
        raise ValueError("segment length exceeds symbol capacity")
    text = bits_to_bytes(bits[start : start + 8 * count])
    used = start + 8 * count
    term = min(4, len(bits) - used)
    pad_start = (used + term + 7) // 8
    return text, pad_start


def qr_decode(m: QrMatrix) -> bytes:
    """Full conformant decode back to the byte-mode payload."""
    data_codewords, level = decode_data_codewords(m)
    text, _ = parse_byte_segment(data_codewords, m.version)
    return text


def matrix_from_modules(modules: list[list[bool]]) -> QrMatrix:
    """Wrap a raw module grid, inferring version and (best effort) level."""
    size = len(modules)
    version = (size - 17) // 4
    if (size - 17) % 4 or not MIN_VERSION <= version <= MAX_VERSION:
        raise MalformedInput(f"symbol side {size} is not a version {MIN_VERSION}..{MAX_VERSION} QR")
    m = QrMatrix(version, None, modules)
    try:
        m.ec_level = read_format(m)[0]
    except MalformedFormatInfo:
        pass
    return m


# ---- PBM serialization (portable bitmap, ASCII P1, dark = 1) ----


def to_pbm(m: QrMatrix) -> str:
    lines = ["P1", f"{m.size} {m.size}"]
    for row in m.modules:
        lines.append(" ".join("1" if cell else "0" for cell in row))
    return "\n".join(lines) + "\n"


def read_netpbm(text: str, magic: str, n_fields: int) -> tuple[list[int], list[str]]:
    """Split an ASCII netpbm file into its header integers and raster tokens.

    Comments run from '#' to the end of the line.  A wrong magic number or
    a header with fewer than `n_fields` non-negative integers raises
    MalformedInput.
    """
    tokens: list[str] = []
    for line in text.splitlines():
        tokens.extend(line.split("#", 1)[0].split())
    if not tokens or tokens[0] != magic:
        raise MalformedInput(f"not an ASCII netpbm ({magic}) file")
    fields = tokens[1 : 1 + n_fields]
    if len(fields) < n_fields or not all(f.isdecimal() for f in fields):
        raise MalformedInput(f"{magic} header needs {n_fields} non-negative integers, got {fields}")
    return [int(f) for f in fields], tokens[1 + n_fields :]


def from_pbm(text: str) -> QrMatrix:
    (width, height), raster = read_netpbm(text, "P1", 2)
    bits = raster[: width * height]
    if len(bits) < width * height:
        raise MalformedInput("PBM pixel data truncated")
    if any(bit not in ("0", "1") for bit in bits):
        raise MalformedInput("PBM pixels must be 0 or 1")
    if width != height:
        raise MalformedInput("QR symbol must be square")
    rows = [bits[y * width : (y + 1) * width] for y in range(height)]
    return matrix_from_modules([[bit == "1" for bit in row] for row in rows])
