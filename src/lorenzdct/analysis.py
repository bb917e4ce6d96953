"""Statistical metrics: histogram, correlation, NPCR/UACI/MAE, entropy, PSNR.

All metrics use the full pixel population (no random sampling), so results
are reproducible to the bit.  The scatter sampler is the one deliberately
sampled quantity and therefore runs on a fixed-seed linear congruential
generator whose seed is recorded in its output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cipher import COMPONENT_NAMES, ImageRGB
from .errors import DimensionMismatchError, UndefinedCorrelationError

DIRECTIONS = ("horizontal", "vertical", "diagonal")

_LCG_A = 1664525
_LCG_C = 1013904223
_LCG_M = 1 << 32
_LCG_BLOCK = 4096  # states drawn per vectorized step
DEFAULT_SCATTER_SEED = 0x5EED


def _lcg_jumps(steps: int):
    """(A, C) with state_{t+k} = (A[k-1] * state_t + C[k-1]) mod 2**32, k = 1..steps.

    Built by doubling: k + m steps are k steps after m, A_k * A_m and
    A_k * C_m + C_k.  Every operand is below 2**32, so each product plus
    addend stays below 2**64 and the uint64 arithmetic is exact.
    """
    mask = np.uint64(_LCG_M - 1)
    a = np.array([_LCG_A], dtype=np.uint64)
    c = np.array([_LCG_C], dtype=np.uint64)
    while a.size < steps:
        a, c = (
            np.concatenate([a, (a * a[-1]) & mask]),
            np.concatenate([c, (a * c[-1] + c) & mask]),
        )
    return a[:steps], c[:steps]


_JUMP_A, _JUMP_C = _lcg_jumps(_LCG_BLOCK)


def _lcg_distinct(seed: int, total: int, count: int) -> np.ndarray:
    """The first `count` distinct draws state % total of the LCG, in draw order.

    Equal to drawing one state at a time and rejecting repeats, but a block
    of states at a time: a draw is kept at its first occurrence in the
    block unless an earlier block already kept it.
    """
    mask = np.uint64(_LCG_M - 1)
    state = np.uint64(seed % _LCG_M)
    seen = np.zeros(total, dtype=bool)
    chosen = [np.empty(0, dtype=np.intp)]
    need = count
    while need > 0:
        states = (_JUMP_A * state + _JUMP_C) & mask
        state = states[-1]
        draws = (states % np.uint64(total)).astype(np.intp)
        values, first = np.unique(draws, return_index=True)
        new = draws[np.sort(first[~seen[values]])[:need]]
        seen[new] = True
        chosen.append(new)
        need -= new.size
    return np.concatenate(chosen)


def histogram(plane) -> np.ndarray:
    """Counts of each byte value 0..255; counts sum to the pixel count."""
    plane = np.asarray(plane, dtype=np.uint8)
    return np.bincount(plane.ravel(), minlength=256)


def _adjacent_views(plane, direction):
    plane = np.asarray(plane)
    if plane.shape[0] < 2 or plane.shape[1] < 2:
        raise ValueError("need at least a 2x2 plane for adjacency")
    if direction == "horizontal":
        return plane[:, :-1], plane[:, 1:]
    if direction == "vertical":
        return plane[:-1, :], plane[1:, :]
    if direction == "diagonal":
        return plane[:-1, :-1], plane[1:, 1:]
    raise ValueError(f"unknown direction {direction!r}")


def correlation(c, d) -> float:
    """Pearson correlation between two equal-size matrices."""
    # one float64 copy per operand, centred in place and reduced by einsum
    # (numpy's own loop, so no BLAS threading): no other plane-sized
    # temporaries
    c = np.array(c, dtype=np.float64)
    d = np.array(d, dtype=np.float64)
    if c.shape != d.shape:
        raise DimensionMismatchError("correlation operands must share dimensions")
    c, d = c.ravel(), d.ravel()
    c -= c.mean()
    d -= d.mean()
    denom = math.sqrt(float(np.einsum("i,i->", c, c)) * float(np.einsum("i,i->", d, d)))
    if denom == 0.0:
        raise UndefinedCorrelationError("zero variance in a correlation operand")
    return float(np.einsum("i,i->", c, d)) / denom


def adjacent_correlation(plane, direction: str) -> float:
    """Correlation between each pixel and its neighbor in one direction."""
    c, d = _adjacent_views(plane, direction)
    return correlation(c, d)


def npcr(c1, c2) -> float:
    """Percentage of pixel positions where the two planes differ."""
    c1, c2 = np.asarray(c1), np.asarray(c2)
    if c1.shape != c2.shape:
        raise DimensionMismatchError("NPCR operands must share dimensions")
    return float(np.count_nonzero(c1 != c2)) / c1.size * 100.0


def _difference(a, b, metric: str) -> np.ndarray:
    """a - b as one float64 plane, without float copies of the operands."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"{metric} operands must share dimensions")
    return np.subtract(a, b, dtype=np.float64)


def mae(c1, c2) -> float:
    """Mean absolute pixel difference."""
    d = _difference(c1, c2, "MAE")
    return float(np.mean(np.abs(d, out=d)))


def uaci(c1, c2) -> float:
    """Mean absolute difference normalized by 255, as a percentage."""
    d = _difference(c1, c2, "UACI")
    np.abs(d, out=d)
    d /= 255.0
    return float(np.mean(d)) * 100.0


def entropy(plane) -> float:
    """Shannon entropy of the byte distribution, in bits per pixel."""
    counts = histogram(plane)
    p = counts[counts > 0] / counts.sum()
    return float(-np.sum(p * np.log2(p)))


def mse(f, g) -> float:
    """Mean squared pixel difference."""
    d = _difference(f, g, "MSE")
    np.square(d, out=d)
    return float(np.mean(d))


def psnr(f, g) -> float:
    """20*log10(max(f)/sqrt(MSE)); +inf when the planes are identical.

    The peak is taken from the first argument (the original image), not the
    fixed constant 255.
    """
    m = mse(f, g)
    if m == 0.0:
        return math.inf
    peak = float(np.max(f))
    return 20.0 * math.log10(peak / math.sqrt(m))


@dataclass(frozen=True)
class ScatterSample:
    """Adjacent-pixel pairs for plotting, with the sampling seed recorded."""

    direction: str
    seed: int
    pairs: np.ndarray  # k x 2, (value, neighbor)

    def __post_init__(self):
        self.pairs.setflags(write=False)


def scatter_sample(
    plane, direction: str, count: int, seed: int = DEFAULT_SCATTER_SEED
) -> ScatterSample:
    """Deterministic sample of `count` distinct adjacent-pixel pairs.

    Indices are drawn from a fixed linear congruential generator (duplicates
    rejected); asking for every available pair returns the full population
    in row-major order.
    """
    c, d = _adjacent_views(plane, direction)
    cf, df = c.ravel(), d.ravel()
    total = cf.size
    if not 0 <= count <= total:
        raise ValueError(f"count {count} outside 0..{total} available pairs")
    if count == total:
        idx = np.arange(total)
    else:
        idx = _lcg_distinct(seed, total, count)
    pairs = np.stack([cf[idx], df[idx]], axis=1)
    return ScatterSample(direction, seed, pairs)


@dataclass
class AnalysisReport:
    """Aggregated metrics for an original / encrypted / decrypted triple."""

    image: str
    dims: tuple[int, int]
    components: list = field(default_factory=list)
    pairs: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "image": self.image,
            "dims": list(self.dims),
            "components": self.components,
            "pairs": self.pairs,
        }


def _component_entry(label: str, plane) -> dict:
    corr = {}
    for short, direction in zip("hvd", DIRECTIONS):
        try:
            corr[short] = adjacent_correlation(plane, direction)
        except UndefinedCorrelationError:
            corr[short] = None
    return {
        "name": label,
        "entropy": entropy(plane),
        "correlation": corr,
        "histogram": histogram(plane).tolist(),
    }


def _pair_entry(label_a: str, label_b: str, a, b) -> dict:
    return {
        "a": label_a,
        "b": label_b,
        "npcr": npcr(a, b),
        "uaci": uaci(a, b),
        "mae": mae(a, b),
        "mse": mse(a, b),
        "psnr": psnr(a, b),
    }


def full_report(
    original: ImageRGB,
    encrypted: ImageRGB | None = None,
    decrypted: ImageRGB | None = None,
    image: str = "image",
) -> AnalysisReport:
    """Every per-component metric plus original-vs-cipher and -vs-decrypted pairs.

    A constant plane has no defined adjacent correlation; its entry is
    reported as null rather than failing the whole report.
    """
    report = AnalysisReport(image=image, dims=(original.width, original.height))
    images = [("original", original), ("encrypted", encrypted), ("decrypted", decrypted)]
    for label, img in images:
        if img is None:
            continue
        if (img.width, img.height) != (original.width, original.height):
            raise DimensionMismatchError(f"{label} image dims differ from original")
        for comp, plane in zip(COMPONENT_NAMES, img.planes):
            report.components.append(_component_entry(f"{label}/{comp}", plane))
    for label, img in images[1:]:
        if img is None:
            continue
        for comp, a, b in zip(COMPONENT_NAMES, original.planes, img.planes):
            report.pairs.append(
                _pair_entry(f"original/{comp}", f"{label}/{comp}", a, b)
            )
    return report
