"""Optical steganography tests: padding-codeword secrets and invisible overlays."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airgaplab.errors import (
    AirgapError,
    CarrierTooSmall,
    MalformedFormatInfo,
    MalformedInput,
    NoSecret,
    PayloadTooLarge,
    SecretTooLarge,
)
from airgaplab.optstego import (
    GrayImage,
    from_pbm,
    invisible_embed,
    invisible_extract,
    qr_decode,
    qr_encode,
    stego_capacity,
    stego_embed,
    stego_extract,
    to_pbm,
)
from airgaplab.optstego.invisible import RING_MODULES
from airgaplab.optstego.qr import QrMatrix, byte_mode_capacity, size_for_version


class TestStegoCapacity:
    def test_full_payload_leaves_zero(self):
        assert stego_capacity(1, "M", byte_mode_capacity(1, "M")) == 0
        assert stego_capacity(10, "L", byte_mode_capacity(10, "L")) == 0

    def test_monotonically_decreasing_in_payload(self):
        previous = None
        for length in range(0, byte_mode_capacity(5, "M") + 1):
            cap = stego_capacity(5, "M", length)
            if previous is not None:
                assert cap <= previous
            previous = cap

    def test_oversize_payload_rejected(self):
        with pytest.raises(PayloadTooLarge):
            stego_capacity(3, "H", 1000)

    def test_level_l_gives_32_byte_room_for_200_byte_text(self):
        # 200 payload bytes at level L: version 10 leaves 271-200 = 71 pad
        # bytes, comfortably above a 32-byte secret plus its length prefix.
        assert any(
            byte_mode_capacity(v, "L") >= 200 and stego_capacity(v, "L", 200) >= 32
            for v in range(1, 11)
        )

    def test_level_m_cannot_take_32_byte_secret_with_200_byte_text(self):
        # The published level-M tables top out at 213 payload bytes, so no
        # version <= 10 leaves 33 spare padding bytes after 200 bytes of text.
        assert all(
            byte_mode_capacity(v, "M") < 200 or stego_capacity(v, "M", 200) < 33
            for v in range(1, 11)
        )
        with pytest.raises(SecretTooLarge):
            stego_embed(bytes(200), bytes(32), "M")


class TestStegoRoundTrip:
    def test_random_pairs_transparent_and_recoverable(self):
        rng = random.Random(0)
        for _ in range(40):
            text = bytes(rng.randrange(256) for _ in range(rng.randint(1, 150)))
            secret = bytes(rng.randrange(256) for _ in range(rng.randint(1, 40)))
            matrix = stego_embed(text, secret, "M")
            assert qr_decode(matrix) == text
            assert stego_extract(matrix) == secret

    def test_32_byte_key_secret(self):
        rng = random.Random(1)
        secret = bytes(rng.randrange(256) for _ in range(32))
        matrix = stego_embed(b"signed transaction body", secret, "M")
        assert stego_extract(matrix) == secret

    def test_empty_secret(self):
        matrix = stego_embed(b"carrier text", b"", "M")
        assert qr_decode(matrix) == b"carrier text"
        assert stego_extract(matrix) == b""

    def test_plain_symbol_raises_no_secret(self):
        with pytest.raises(NoSecret):
            stego_extract(qr_encode(b"nothing hidden here", "M"))

    def test_symbol_without_padding_raises_no_secret(self):
        full = bytes(byte_mode_capacity(2, "M"))
        with pytest.raises(NoSecret):
            stego_extract(qr_encode(full, "M"))

    def test_version_bumped_for_large_secret(self):
        text = b"x" * 10  # alone fits version 1
        assert qr_encode(text, "M").version == 1
        matrix = stego_embed(text, bytes(32), "M")
        assert matrix.version > 1
        assert qr_decode(matrix) == text
        assert stego_extract(matrix) == bytes(32)

    def test_plain_and_stego_differ_only_in_data_region(self):
        text = b"same visible payload"
        plain = qr_encode(text, "M")
        stego = stego_embed(text, b"\x00" * 4, "M")
        assert plain.version == stego.version
        assert qr_decode(plain) == qr_decode(stego) == text
        assert plain.modules != stego.modules


class TestInvisibleEmbed:
    def test_delta_bounded_by_amplitude(self):
        rng = np.random.default_rng(2)
        base = rng.integers(20, 235, (300, 300), dtype=np.uint8)
        carrier = GrayImage(300, 300, base)
        matrix = qr_encode(b"bounded delta", "M")
        for amplitude in (1, 6, 16):
            out = invisible_embed(carrier, matrix, amplitude=amplitude, scale=4, offset=(10, 10))
            delta = out.pixels.astype(int) - carrier.pixels.astype(int)
            assert np.abs(delta).max() <= amplitude

    def test_untouched_pixels_outside_region(self):
        carrier = GrayImage.uniform(300, 300, 128)
        matrix = qr_encode(b"region only", "M")
        out = invisible_embed(carrier, matrix, amplitude=6, scale=4, offset=(10, 10))
        side = matrix.size * 4
        mask = np.ones((300, 300), dtype=bool)
        mask[10 : 10 + side, 10 : 10 + side] = False
        assert np.array_equal(out.pixels[mask], carrier.pixels[mask])

    def test_mid_gray_carrier_exact_recovery(self):
        matrix = qr_encode(b"perfect contrast on mid-gray", "M")
        side = matrix.size * 4 + 40
        carrier = GrayImage.uniform(side, side, 128)
        stamped = invisible_embed(carrier, matrix, amplitude=6, scale=4, offset=(20, 20))
        recovered = invisible_extract(stamped, matrix.version, scale=4, offset=(20, 20))
        assert recovered.modules == matrix.modules
        assert qr_decode(recovered) == b"perfect contrast on mid-gray"

    def test_seeded_noisy_carriers_decode(self):
        text = b"01000000017b1eabe0209b1fe794124575ef807057c77ada2138ae4f"
        matrix = qr_encode(text, "M")
        side = matrix.size * 4 + 16
        yy, xx = np.mgrid[0:side, 0:side]
        gradient = 15.0 * (xx + yy) / (2 * side) - 7.5
        for seed in range(20):
            rng = np.random.default_rng(seed)
            base = np.clip(128 + gradient + rng.normal(0, 6, (side, side)), 0, 255).astype(np.uint8)
            stamped = invisible_embed(GrayImage(side, side, base), matrix, amplitude=6, scale=4, offset=(8, 8))
            recovered = invisible_extract(stamped, matrix.version, scale=4, offset=(8, 8))
            assert qr_decode(recovered) == text, f"seed {seed}"

    def test_uniform_image_ties_to_light_and_fails_decode(self):
        img = GrayImage.uniform(200, 200, 100)
        matrix = invisible_extract(img, version=2, scale=4)
        assert all(not cell for row in matrix.modules for cell in row)
        with pytest.raises(MalformedFormatInfo):
            qr_decode(matrix)

    def test_carrier_too_small(self):
        matrix = qr_encode(b"too big for this carrier", "M")
        with pytest.raises(CarrierTooSmall):
            invisible_embed(GrayImage.uniform(40, 40, 128), matrix, amplitude=6, scale=4)
        with pytest.raises(CarrierTooSmall):
            invisible_extract(GrayImage.uniform(40, 40, 128), version=5, scale=4)

    def test_amplitude_range_enforced(self):
        carrier = GrayImage.uniform(200, 200, 128)
        matrix = qr_encode(b"", "M")
        for bad in (0, 17, -3):
            with pytest.raises(ValueError):
                invisible_embed(carrier, matrix, amplitude=bad, scale=4)

    @staticmethod
    def _slice_mean_grid(pixels, version, scale, ox, oy):
        """Brute-force extraction: plain slice means of each block and its clipped ring."""
        ring = RING_MODULES * scale
        n = size_for_version(version)
        grid = [[False] * n for _ in range(n)]
        for r in range(n):
            for c in range(n):
                y0, x0 = oy + r * scale, ox + c * scale
                block = pixels[y0 : y0 + scale, x0 : x0 + scale]
                outer = pixels[max(0, y0 - ring) : y0 + scale + ring, max(0, x0 - ring) : x0 + scale + ring]
                ring_mean = (outer.sum() - block.sum()) / (outer.size - block.size)
                grid[r][c] = bool(block.mean() < ring_mean)
        return grid

    @settings(deadline=None, max_examples=60)
    @given(
        version=st.integers(1, 10),
        scale=st.integers(1, 5),
        margins=st.tuples(*[st.integers(0, 12)] * 4),
        span=st.sampled_from([1, 3, 256]),
        stamp=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_extract_matches_slice_mean_oracle(self, version, scale, margins, span, stamp, seed):
        # Margins of 0 put the symbol against an image edge, where rings clip.
        left, top, right, bottom = margins
        side = size_for_version(version) * scale
        rng = np.random.default_rng(seed)
        pixels = rng.integers(128 - span // 2, 128 - span // 2 + span, (top + side + bottom, left + side + right))
        img = GrayImage(left + side + right, top + side + bottom, pixels)
        if stamp:
            matrix = qr_encode(bytes(byte_mode_capacity(version, "M")), "M")
            img = invisible_embed(img, matrix, amplitude=6, scale=scale, offset=(left, top))
        got = invisible_extract(img, version, scale=scale, offset=(left, top))
        assert np.array_equal(got.grid, self._slice_mean_grid(img.pixels.astype(np.int64), version, scale, left, top))

    @pytest.mark.parametrize("version", [-5, 0, 11])
    def test_extract_refuses_a_version_before_reading_pixels(self, version):
        class Untouchable:
            def __getitem__(self, key):
                raise AssertionError("pixels read")

        img = GrayImage.uniform(400, 400, 128)
        img.pixels = Untouchable()
        with pytest.raises(ValueError, match=f"version {version} outside 1..10"):
            invisible_extract(img, version, scale=4)

    def test_extract_rejects_scale_below_one(self):
        with pytest.raises(ValueError):
            invisible_extract(GrayImage.uniform(200, 200, 128), version=1, scale=0)

    def test_clamping_at_luminance_extremes(self):
        matrix = qr_encode(b"clamp", "M")
        side = matrix.size * 2 + 8
        dark = GrayImage.uniform(side, side, 2)
        out = invisible_embed(dark, matrix, amplitude=16, scale=2, offset=(4, 4))
        assert out.pixels.min() == 0 and out.pixels.max() <= 2 + 16


# The same symbol's cells as other types a caller can build a grid from.
_CELL_TYPES = {
    "numpy-bool": lambda rows: [[np.bool_(c) for c in row] for row in rows],
    "int-0-1": lambda rows: [[int(c) for c in row] for row in rows],
    "int-0-2": lambda rows: [[2 * c for c in row] for row in rows],
    "int-0-300": lambda rows: [[300 * c for c in row] for row in rows],
    "int-0-minus-1": lambda rows: [[-int(c) for c in row] for row in rows],
    "numpy-int64": lambda rows: [[np.int64(c) for c in row] for row in rows],
    "float": lambda rows: [[float(c) for c in row] for row in rows],
    "bool-array-rows": lambda rows: [np.array(row) for row in rows],
    "int64-array-rows": lambda rows: [np.array(row, np.int64) for row in rows],
    "bool-array": lambda rows: np.array(rows),
}


class TestGridCellTypes:
    @pytest.mark.parametrize("cells", _CELL_TYPES.values(), ids=_CELL_TYPES.keys())
    def test_decodes_writes_and_stamps_like_its_bool_twin(self, cells):
        symbol = stego_embed(b"cell types", b"secret", "M")
        twin = QrMatrix(cells(symbol.modules))
        grid = twin.grid
        assert grid.dtype == bool and np.array_equal(grid, np.array(twin.modules, bool))
        assert np.array_equal(grid, np.array(symbol.modules))
        assert (qr_decode(twin), stego_extract(twin)) == (b"cell types", b"secret")
        assert to_pbm(twin) == to_pbm(symbol)
        side = symbol.size * 3 + 10
        carrier = GrayImage(side, side, np.random.default_rng(3).integers(0, 256, (side, side)))
        stamp = {"amplitude": 9, "scale": 3, "offset": (4, 6)}
        assert np.array_equal(invisible_embed(carrier, twin, **stamp).pixels, invisible_embed(carrier, symbol, **stamp).pixels)

    def test_ragged_grid_raises_like_numpy(self):
        ragged = [[True] * 21 for _ in range(20)] + [[True] * 22]
        with pytest.raises(ValueError):
            np.array(ragged, bool)
        with pytest.raises(MalformedInput, match="square"):  # a ValueError too
            QrMatrix(ragged)


# Pixel tokens of a real symbol, with each row end kept as a "\n" token so a
# '#' dropped in comments out only the rest of its row.
_PBM_PIXELS = " \n ".join(to_pbm(qr_encode(b"soup", "L")).splitlines()[2:]).split(" ")
_PBM_SOUP = st.one_of(
    st.integers(-3, 30).map(str),
    st.sampled_from(["0", "1", "#", "# note\n", "\n", "\u0663", "\uff12", "\u0662\u0661"]),
    st.text(max_size=4),
)


@settings(deadline=None, max_examples=300)
@given(
    dims=st.lists(st.one_of(st.just("21"), _PBM_SOUP), min_size=2, max_size=2),
    edits=st.lists(st.tuples(st.integers(0, len(_PBM_PIXELS)), st.booleans(), _PBM_SOUP), max_size=4),
)
def test_from_pbm_returns_a_square_symbol_or_raises_airgap_error(dims, edits):
    """Token soup in the header and raster of a real symbol: a square QrMatrix or an AirgapError, nothing else."""
    pixels = list(_PBM_PIXELS)
    for at, replace, token in edits:
        pixels[at : at + replace] = [token]
    try:
        m = from_pbm(" ".join(["P1", *dims, "\n", *pixels]))
    except AirgapError:
        return
    assert isinstance(m, QrMatrix)
    assert m.size == size_for_version(m.version)
    assert all(len(row) == m.size for row in m.modules)
