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

from ..errors import CarrierTooSmall
from .qr import QrMatrix, _check_version, size_for_version

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
    signs = np.where(m.grid, -amplitude, amplitude).astype(np.int16)  # dark subtracts, light adds
    out = carrier.pixels.copy()
    region = out[oy : oy + side, ox : ox + side]
    # Each module row's signs, widened to pixels, apply to its `scale` pixel rows.
    widened = np.repeat(signs, scale, axis=1)[:, None]
    stamped = region.astype(np.int16).reshape(m.size, scale, side) + widened
    region[...] = np.clip(stamped, 0, 255).reshape(side, side)
    return GrayImage(carrier.width, carrier.height, out)


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
    _check_version(version)
    if scale < 1:
        raise ValueError("scale must be at least 1 pixel per module")
    n_modules = size_for_version(version)
    side = n_modules * scale
    ox, oy = offset
    if ox < 0 or oy < 0 or ox + side > img.width or oy + side > img.height:
        raise CarrierTooSmall(
            f"image {img.width}x{img.height} cannot hold {side}x{side} at offset {offset}"
        )
    # Block sums on the module lattice over the symbol and RING_MODULES
    # modules around it, zero past the image edge: `scale` strided adds per
    # axis.  A module's ring is the box of blocks around it less its own
    # block, and ring areas count only pixels inside the image (the symbol
    # spans at least 21 modules, so no ring is empty).  The integer sums are
    # exact (int32 holds a block sum up to scale 2900), so the comparison is.
    ring = RING_MODULES * scale
    reach = n_modules + 2 * RING_MODULES
    pad = np.zeros((reach * scale, reach * scale), np.int32)
    py0, px0 = max(oy - ring, 0), max(ox - ring, 0)
    py1, px1 = min(oy + side + ring, img.height), min(ox + side + ring, img.width)
    pad[py0 - oy + ring : py1 - oy + ring, px0 - ox + ring : px1 - ox + ring] = img.pixels[py0:py1, px0:px1]
    rows = sum(pad[i::scale] for i in range(scale))
    blocks = sum(rows[:, i::scale] for i in range(scale))
    box = np.zeros((reach + 1, reach + 1), np.int64)
    box[1:, 1:] = blocks.cumsum(0, np.int64).cumsum(1)
    k = 2 * RING_MODULES + 1
    outer_sum = box[k:, k:] - box[:-k, k:] - box[k:, :-k] + box[:-k, :-k]
    block_sum = blocks[RING_MODULES:-RING_MODULES, RING_MODULES:-RING_MODULES]
    top = oy + scale * np.arange(n_modules)
    left = ox + scale * np.arange(n_modules)
    ring_height = np.minimum(top + scale + ring, img.height) - np.maximum(top - ring, 0)
    ring_width = np.minimum(left + scale + ring, img.width) - np.maximum(left - ring, 0)
    ring_area = ring_height[:, None] * ring_width - scale * scale
    modules = block_sum / (scale * scale) < (outer_sum - block_sum) / ring_area
    return QrMatrix(modules)
