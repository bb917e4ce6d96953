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


def make_dense_two_level_image(seed: int, n: int = 256) -> ImageRGB:
    """Two levels per plane on independently drawn pixels: a white spectrum,
    so the 99.9%-energy head holds most of each plane's coefficients."""
    rng = np.random.default_rng(seed)
    planes = []
    for _ in range(3):
        paper, dark = int(rng.integers(190, 256)), int(rng.integers(0, 70))
        planes.append(np.where(rng.random((n, n)) < 0.5, dark, paper).astype(np.uint8))
    return ImageRGB(tuple(planes))


def make_noise_image(seed: int, n: int = 256) -> ImageRGB:
    """Uniform byte noise, drawn as one (n, n, 3) array: a white spectrum
    whose 99.9%-energy head holds about 80% of each plane's coefficients,
    as an image that is already encrypted does."""
    pixels = np.random.default_rng(seed).integers(0, 256, (n, n, 3), dtype=np.uint8)
    return ImageRGB(tuple(np.ascontiguousarray(pixels[..., c]) for c in range(3)))


def make_unit_dc_image() -> ImageRGB:
    """16 x 16 planes of 16 ones each, so each has a DC coefficient of 1.0, a
    log of 0: the identity (whose DCT is the identity), the identity
    mirrored left to right, and a 4 x 4 block of ones in a corner."""
    eye = np.eye(16, dtype=np.uint8)
    block = np.zeros((16, 16), dtype=np.uint8)
    block[:4, :4] = 1
    return ImageRGB((eye, eye[:, ::-1].copy(), block))


#: The 4 x 4 Bayer ordered-dither matrix: a cell is dotted at d% dots when its
#: entry is below 16 * d / 100.
BAYER_4 = np.array([[0, 8, 2, 10], [12, 4, 14, 6], [3, 11, 1, 9], [15, 7, 13, 5]])


def make_near_tie_image() -> ImageRGB:
    """64 x 64 planes whose reconstructions sit near a rounding tie: the
    level 46 checkerboard (46 and 47 on alternate pixels), whose DC-only
    reconstruction lands 1.2e-5 below 46.5 under key(A)-key(C), a 4 x 4
    Bayer dither of 128 and 129 at 50% dots, and the R plane of
    make_image(7, 64)."""
    n = 64
    checker = 46 + np.indices((n, n)).sum(axis=0) % 2
    dither = 128 + (np.tile(BAYER_4, (n // 4, n // 4)) < 8)
    return ImageRGB(
        (checker.astype(np.uint8), dither.astype(np.uint8), make_image(7, n).planes[0])
    )
