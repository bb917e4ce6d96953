"""Deterministic synthetic test images with natural-image statistics.

Each plane is a smooth random field (low-frequency cosine modes, gaussian
blobs, mild mid-frequency texture) rank-mapped to an exactly uniform byte
histogram.  That gives adjacent-pixel correlation around 0.95-0.99 like a
photograph, while the uniform intensity spread puts plain-vs-cipher MAE
near the 85 expected for an independent uniform cipher.
"""

import numpy as np

from lorenzdct.cipher import ImageRGB


def _smooth_field(rng, n):
    yy, xx = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    f = np.zeros((n, n))
    for _ in range(24):
        fy, fx = rng.uniform(-6.0, 6.0, 2)
        amp = rng.uniform(0.3, 1.0) / max(0.5, float(np.hypot(fx, fy)))
        f += amp * np.cos(2.0 * np.pi * (fx * xx + fy * yy) / n + rng.uniform(0, 2 * np.pi))
    for _ in range(16):
        fy, fx = rng.uniform(-28.0, 28.0, 2)
        f += (
            0.25
            * rng.uniform(0.3, 1.0)
            * np.cos(2.0 * np.pi * (fx * xx + fy * yy) / n + rng.uniform(0, 2 * np.pi))
        )
    for _ in range(6):
        cy, cx = rng.uniform(0, n, 2)
        s = rng.uniform(n / 17.0, n / 4.3)
        f += rng.uniform(-1.5, 1.5) * np.exp(
            -((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * s * s)
        )
    return f


def _uniformize(f):
    order = np.argsort(f.ravel(), kind="stable")
    out = np.empty(f.size, dtype=np.uint8)
    out[order] = (np.arange(f.size) * 256 // f.size).astype(np.uint8)
    return out.reshape(f.shape)


def make_image(seed: int, n: int = 256) -> ImageRGB:
    rng = np.random.default_rng(seed)
    return ImageRGB(tuple(_uniformize(_smooth_field(rng, n)) for _ in range(3)))


#: Seeds of the images the acceptance suite runs on.
BUNDLED_SEEDS = (1, 2, 3)


def make_two_level_image(seed: int, n: int = 256) -> ImageRGB:
    """Document-like image: dark rectangles on a flat light page, two levels per plane."""
    rng = np.random.default_rng(seed)
    planes = []
    for _ in range(3):
        ink = np.zeros((n, n), dtype=bool)
        for _ in range(max(4, n // 4)):
            y, x = rng.integers(0, n, 2)
            h, w = rng.integers(1, max(2, n // 16), 2)
            ink[y : y + h, x : x + w] = True
        paper, dark = int(rng.integers(190, 256)), int(rng.integers(0, 70))
        planes.append(np.where(ink, dark, paper).astype(np.uint8))
    return ImageRGB(tuple(planes))
