"""Optical steganography tests: padding-codeword secrets and invisible overlays."""

import random

import numpy as np
import pytest

from airgaplab.errors import (
    CarrierTooSmall,
    MalformedFormatInfo,
    MalformedInput,
    NoSecret,
    PayloadTooLarge,
    SecretTooLarge,
)
from airgaplab.optstego import (
    GrayImage,
    from_pgm,
    invisible_embed,
    invisible_extract,
    qr_decode,
    qr_encode,
    stego_capacity,
    stego_embed,
    stego_extract,
    to_pgm,
)
from airgaplab.optstego.qr import byte_mode_capacity


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

    def test_clamping_at_luminance_extremes(self):
        matrix = qr_encode(b"clamp", "M")
        side = matrix.size * 2 + 8
        dark = GrayImage.uniform(side, side, 2)
        out = invisible_embed(dark, matrix, amplitude=16, scale=2, offset=(4, 4))
        assert out.pixels.min() == 0 and out.pixels.max() <= 2 + 16


class TestPgm:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        img = GrayImage(17, 9, rng.integers(0, 256, (9, 17), dtype=np.uint8))
        restored = from_pgm(to_pgm(img))
        assert restored.width == 17 and restored.height == 9
        assert np.array_equal(restored.pixels, img.pixels)

    def test_header(self):
        lines = to_pgm(GrayImage.uniform(3, 2, 7)).splitlines()
        assert lines[:3] == ["P2", "3 2", "255"]

    def test_rejects_non_pgm(self):
        with pytest.raises(ValueError):
            from_pgm("P1\n2 2\n0 0 0 0\n")

    @pytest.mark.parametrize(
        "text",
        [
            "P2\n2 2\n",  # truncated header
            "P2\n2 two\n255\n0 0 0 0\n",  # non-integer dimension
            "P2\n2 2\n15\n0 0 0 0\n",  # maxval other than 255
            "P2\n2 2\n255\n0 0 0\n",  # truncated raster
            "P2\n2 2\n255\n0 0 0 256\n",  # value above 255
            "P2\n2 2\n255\n0 0 0 -1\n",  # negative value
            "P2\n2 2\n255\n0 0 0 1.5\n",  # non-integer value
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(MalformedInput):
            from_pgm(text)
