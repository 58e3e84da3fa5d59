"""Low-contrast symbol embedding: a QR that the eye misses but a camera keeps.

Dark modules push carrier luminance down by a small amplitude, light modules
push it up; extraction compares each module block against the local average
of a two-module-wide surrounding ring, so slow brightness gradients across
the carrier cancel out.  The embedding geometry (anchor, scale, version) is
agreed out of band - both the screen and the scanning app belong to the same
operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CarrierTooSmall, MalformedInput
from .qr import QrMatrix, matrix_from_modules, read_netpbm, size_for_version

MIN_AMPLITUDE = 1
MAX_AMPLITUDE = 16

# Ring for the local-average comparison spans this many modules outward;
# two modules reach past the solid 3x3 core of a finder pattern into its
# white ring, so even there a dark block sits below its surroundings.
RING_MODULES = 2


@dataclass
class GrayImage:
    """8-bit grayscale raster; pixels is a (height, width) uint8 array."""

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self) -> None:
        self.pixels = np.asarray(self.pixels, dtype=np.uint8)
        if self.pixels.shape != (self.height, self.width):
            raise ValueError(
                f"pixel array {self.pixels.shape} does not match {self.height}x{self.width}"
            )

    @classmethod
    def uniform(cls, width: int, height: int, value: int = 128) -> "GrayImage":
        return cls(width, height, np.full((height, width), value, dtype=np.uint8))

    def clone(self) -> "GrayImage":
        return GrayImage(self.width, self.height, self.pixels.copy())


def invisible_embed(
    carrier: GrayImage,
    m: QrMatrix,
    amplitude: int = 6,
    scale: int = 4,
    offset: tuple[int, int] = (0, 0),
) -> GrayImage:
    """Overlay the symbol at +/-amplitude luminance, clamped to 0..255."""
    if not MIN_AMPLITUDE <= amplitude <= MAX_AMPLITUDE:
        raise ValueError(f"amplitude must lie in {MIN_AMPLITUDE}..{MAX_AMPLITUDE}")
    if scale < 1:
        raise ValueError("scale must be at least 1 pixel per module")
    ox, oy = offset
    side = m.size * scale
    if ox < 0 or oy < 0 or ox + side > carrier.width or oy + side > carrier.height:
        raise CarrierTooSmall(
            f"carrier {carrier.width}x{carrier.height} cannot hold {side}x{side} at offset {offset}"
        )
    grid = np.array(m.modules, dtype=bool)
    signs = np.where(grid, -1, 1).astype(np.int16)  # dark subtracts, light adds
    delta = np.kron(signs, np.ones((scale, scale), dtype=np.int16)) * amplitude
    out = carrier.pixels.astype(np.int16).copy()
    out[oy : oy + side, ox : ox + side] = np.clip(
        out[oy : oy + side, ox : ox + side] + delta, 0, 255
    )
    return GrayImage(carrier.width, carrier.height, out.astype(np.uint8))


def invisible_extract(
    img: GrayImage,
    version: int,
    scale: int = 4,
    offset: tuple[int, int] = (0, 0),
) -> QrMatrix:
    """Rebuild the module grid by block-vs-ring local mean comparison.

    A module reads dark iff its pixel block averages strictly below the
    surrounding ring; ties fall to light, so a flat carrier with no symbol
    yields an all-light grid.
    """
    n_modules = size_for_version(version)
    side = n_modules * scale
    ox, oy = offset
    if ox < 0 or oy < 0 or ox + side > img.width or oy + side > img.height:
        raise CarrierTooSmall(
            f"image {img.width}x{img.height} cannot hold {side}x{side} at offset {offset}"
        )
    # Integral image makes every clipped rectangle sum O(1).
    acc = np.zeros((img.height + 1, img.width + 1), dtype=np.float64)
    acc[1:, 1:] = np.cumsum(np.cumsum(img.pixels.astype(np.float64), axis=0), axis=1)

    def rect(y0: int, y1: int, x0: int, x1: int) -> tuple[float, int]:
        y0 = max(0, min(y0, img.height))
        y1 = max(0, min(y1, img.height))
        x0 = max(0, min(x0, img.width))
        x1 = max(0, min(x1, img.width))
        if y1 <= y0 or x1 <= x0:
            return 0.0, 0
        total = acc[y1, x1] - acc[y0, x1] - acc[y1, x0] + acc[y0, x0]
        return float(total), (y1 - y0) * (x1 - x0)

    ring = RING_MODULES * scale
    modules = [[False] * n_modules for _ in range(n_modules)]
    for r in range(n_modules):
        for c in range(n_modules):
            y0, x0 = oy + r * scale, ox + c * scale
            block_sum, block_area = rect(y0, y0 + scale, x0, x0 + scale)
            outer_sum, outer_area = rect(y0 - ring, y0 + scale + ring, x0 - ring, x0 + scale + ring)
            ring_area = outer_area - block_area
            if ring_area <= 0 or block_area <= 0:
                continue
            block_mean = block_sum / block_area
            ring_mean = (outer_sum - block_sum) / ring_area
            modules[r][c] = block_mean < ring_mean
    return matrix_from_modules(modules)


# ---- PGM serialization (portable graymap, ASCII P2, maxval 255) ----


def to_pgm(img: GrayImage) -> str:
    lines = ["P2", f"{img.width} {img.height}", "255"]
    for row in img.pixels:
        lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def from_pgm(text: str) -> GrayImage:
    (width, height, maxval), raster = read_netpbm(text, "P2", 3)
    if maxval != 255:
        raise MalformedInput("expected maxval 255")
    values = raster[: width * height]
    if len(values) < width * height:
        raise MalformedInput("PGM pixel data truncated")
    if not all(v.isdecimal() and int(v) <= 255 for v in values):
        raise MalformedInput("PGM pixels must be integers in 0..255")
    pixels = np.array([int(v) for v in values], dtype=np.uint8).reshape(height, width)
    return GrayImage(width, height, pixels)
