"""Optical channel: QR codec, padding-codeword steganography, invisible overlay."""

from .invisible import GrayImage, invisible_embed, invisible_extract
from .qr import (
    EC_LEVELS,
    MAX_VERSION,
    MIN_VERSION,
    QrMatrix,
    byte_mode_capacity,
    from_pbm,
    qr_decode,
    qr_encode,
    to_pbm,
)
from .stego import stego_capacity, stego_embed, stego_extract

__all__ = [
    "EC_LEVELS",
    "GrayImage",
    "MAX_VERSION",
    "MIN_VERSION",
    "QrMatrix",
    "byte_mode_capacity",
    "from_pbm",
    "invisible_embed",
    "invisible_extract",
    "qr_decode",
    "qr_encode",
    "stego_capacity",
    "stego_embed",
    "stego_extract",
    "to_pbm",
]
