"""Seeded inputs for the benchmark: key triples and square RGB images.

Everything here is a pure function of the seed, so two runs with the same
seed operate on identical keys and pixels.  Images mix smooth natural-like
planes with document-like planes (two-level text on a flat page) at a fixed
share: all three planes of every fourth image are document-like.

Ordered-dither halftones between adjacent grey levels are left out: their
truncated reconstruction sits exactly on x.5, where the encrypt and decrypt
roundings can disagree, so the program's round trip is not exact on them
(ROADMAP item 1).  A timed workload must not contain failing operations;
tests/test_perfbench.py keeps that defect visible as a strict xfail.
"""

from __future__ import annotations

import string

import numpy as np

KEY_ALPHABET = string.ascii_letters + string.digits + string.punctuation

DOC_EVERY = 4

SWEEP_MIN, SWEEP_MAX, SWEEP_STRATA, SWEEP_GROUP = 280, 472, 96, 8


def key_triple(rng: np.random.Generator) -> tuple[str, str, str]:
    """Three distinct printable 6-character keys."""
    keys: list[str] = []
    while len(keys) < 3:
        k = "".join(rng.choice(list(KEY_ALPHABET), 6))
        if k not in keys:
            keys.append(k)
    return tuple(keys)


def _uniformize(f: np.ndarray) -> np.ndarray:
    """Rank-map a real field to bytes with an exactly uniform histogram."""
    order = np.argsort(f.ravel(), kind="stable")
    out = np.empty(f.size, dtype=np.uint8)
    out[order] = (np.arange(f.size) * 256 // f.size).astype(np.uint8)
    return out.reshape(f.shape)


def natural_plane(rng: np.random.Generator, n: int) -> np.ndarray:
    """Smooth 1/f^2 random field, rank-mapped to uniform bytes."""
    noise = rng.standard_normal((n, n))
    fy = np.fft.fftfreq(n)[:, None]
    fx = np.fft.rfftfreq(n)[None, :]
    radius = np.hypot(fy, fx)
    radius[0, 0] = 1.0
    spectrum = np.fft.rfft2(noise) / (radius * n) ** 2
    spectrum[0, 0] = 0.0
    return _uniformize(np.fft.irfft2(spectrum, s=(n, n)))


def _text_mask(rng: np.random.Generator, n: int) -> np.ndarray:
    """Lines of glyph-sized boxes, True where ink is."""
    mask = np.zeros((n, n), dtype=bool)
    glyph = max(2, n // 40)
    pitch = 2 * glyph
    margin = glyph
    for top in range(margin, n - margin - glyph, pitch):
        x = margin
        while x < n - margin - glyph:
            w = int(rng.integers(1, glyph + 1))
            if rng.random() < 0.8:
                h = int(rng.integers(glyph // 2 + 1, glyph + 1))
                mask[top + glyph - h : top + glyph, x : x + w] = True
            x += w + int(rng.integers(1, glyph))
    return mask


def document_plane(rng: np.random.Generator, n: int) -> np.ndarray:
    """Two-level text: dark glyph boxes on a light flat page."""
    paper = np.uint8(rng.integers(190, 255))
    ink = np.uint8(rng.integers(0, 70))
    return np.where(_text_mask(rng, n), ink, paper).astype(np.uint8)


def image_planes(seed: int, index: int, n: int, warmup: bool = False):
    """The three planes of image `index` of a workload seeded with `seed`.

    Each image gets its own generator, so an image does not depend on which
    other images or sizes the workload draws.  Warm-up images come from a
    separate stream and are always natural-like.
    """
    rng = np.random.default_rng([seed, int(warmup), index, n])
    if not warmup and index % DOC_EVERY == DOC_EVERY - 1:
        return tuple(document_plane(rng, n) for _ in range(3))
    return tuple(natural_plane(rng, n) for _ in range(3))


def _is_prime(k: int) -> bool:
    return k > 1 and all(k % d for d in range(2, int(k**0.5) + 1))


def sweep_sizes(seed: int) -> list[int]:
    """Distinct square sizes in [280, 472), one per stratum of width 2.

    The 96 strata form twelve groups of eight; group g holds strata g, g+12,
    ..., g+84, so each group spans the whole range, and its sizes are visited
    bit-reversed (0, 48, 24, 72, ...) so that each half group does too.
    Where a stratum holds a prime, every third one contributes it.
    """
    rng = np.random.default_rng([seed, 2])
    width = (SWEEP_MAX - SWEEP_MIN) // SWEEP_STRATA
    groups = SWEEP_STRATA // SWEEP_GROUP
    sizes = []
    for g in range(groups):
        for j in (0, 4, 2, 6, 1, 5, 3, 7):
            lo = SWEEP_MIN + (j * groups + g) * width
            cands = list(range(lo, lo + width))
            primes = [k for k in cands if _is_prime(k)]
            if (g + j) % 3 == 0 and primes:
                cands = primes
            sizes.append(int(rng.choice(cands)))
    return sizes
