"""Statistical metrics: histogram, correlation, NPCR/UACI/MAE, entropy, PSNR.

All metrics use the full pixel population (no random sampling).  For
integer-valued planes every sum behind the histograms, correlations, NPCR,
MAE and MSE is exact, so those values are the same on every numpy build by
construction: a correlation combines its moments as Python ints, and a
float64 sum of integers below 2**53 is exact in any order.  Entropy and UACI
add non-integer terms in numpy's reduction order, and entropy and PSNR call
log2/log10.  The scatter sampler is the one deliberately sampled quantity
and therefore runs on a fixed-seed linear congruential generator whose seed
is recorded in its output.
"""

from __future__ import annotations

import functools
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
_EXACT_SUM_LIMIT = 1 << 53  # float64 holds every integer up to here exactly


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


@functools.lru_cache(maxsize=4)
def _lcg_distinct(total: int, count: int) -> np.ndarray:
    """The first `count` distinct draws state % total of the LCG, in draw order.

    Equal to drawing one state at a time and rejecting repeats, but a block
    of states at a time: a draw is kept at its first occurrence in the
    block unless an earlier block already kept it.  The draws depend on the
    arguments alone, not on the plane sampled, so they are memoized (the 27
    samples of an n=1024 analyze share two sets) and returned read-only.
    """
    mask = np.uint64(_LCG_M - 1)
    state = np.uint64(DEFAULT_SCATTER_SEED)
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
    idx = np.concatenate(chosen)
    idx.setflags(write=False)
    return idx


def histogram(plane) -> np.ndarray:
    """Counts of each byte value 0..255; counts sum to the pixel count.

    A value that is not an integer in 0..255 raises ValueError rather than
    wrapping into another bin.
    """
    plane = np.asarray(plane)
    if plane.dtype != np.uint8:
        with np.errstate(invalid="ignore"):
            as_bytes = plane.astype(np.uint8)
        if not np.array_equal(as_bytes, plane):
            raise ValueError("histogram needs integer values in 0..255")
        plane = as_bytes
    return np.bincount(plane.ravel(), minlength=256)


def _entropy(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-np.sum(p * np.log2(p)))


def entropy(plane) -> float:
    """Shannon entropy of the byte distribution, in bits per pixel."""
    return _entropy(histogram(plane))


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


def _dropped_lines(plane, direction):
    """The cells each of `_adjacent_views(plane, direction)` leaves out, as disjoint lines."""
    if direction == "horizontal":
        return (plane[:, -1],), (plane[:, 0],)
    if direction == "vertical":
        return (plane[-1],), (plane[0],)
    return (plane[-1], plane[:-1, -1]), (plane[0], plane[1:, 0])


def _exact_float(x) -> np.ndarray:
    """x as float64, checked to be integer-valued and small enough for exact sums.

    With |v| <= peak and x.size * peak**2 <= 2**53, every product of two
    elements is an integer and every partial sum of up to x.size of them
    stays below 2**53, so float64 adds them exactly in any order.
    """
    x = np.asarray(x)
    if x.dtype.kind not in "biuf":
        raise ValueError(f"correlation needs real operands, not {x.dtype}")
    f = np.asarray(x, dtype=np.float64)
    if x.dtype == np.uint8:
        peak = 255.0
    else:
        if x.dtype.kind == "f" and not np.array_equal(np.floor(f), f):
            raise ValueError("correlation needs integer-valued operands")
        peak = max(-f.min(initial=0.0), f.max(initial=0.0))
    if not math.isfinite(peak) or int(peak) ** 2 * f.size > _EXACT_SUM_LIMIT:
        raise ValueError("correlation operands too large for an exact sum")
    return f


def _moments(*lines) -> tuple[int, int]:
    """(sum v, sum v**2) over disjoint 1-D float64 lines from `_exact_float`, as ints."""
    s1 = s2 = 0
    for v in lines:
        s1 += int(v.sum())
        s2 += int(np.einsum("i,i->", v, v))
    return s1, s2


def _pearson(n: int, sc: int, sd: int, scc: int, sdd: int, scd: int) -> float | None:
    """Pearson correlation of n pairs (c, d) from their exact integer sums.

    n**2 times the covariance and variances are exact ints, so a zero
    variance is found exactly (None).  The square root is taken to 64
    fractional bits with isqrt, and int / int division rounds once, so the
    result is within one ulp and |result| <= 1 (Cauchy-Schwarz, exactly).
    """
    var_c = n * scc - sc * sc
    var_d = n * sdd - sd * sd
    if var_c == 0 or var_d == 0:
        return None
    return ((n * scd - sc * sd) << 64) / math.isqrt((var_c * var_d) << 128)


def _defined(r: float | None) -> float:
    if r is None:
        raise UndefinedCorrelationError("zero variance in a correlation operand")
    return r


def correlation(c, d) -> float:
    """Pearson correlation between two equal-size integer-valued matrices.

    Operands are uint8, integer or integer-valued float arrays with
    size * max|v|**2 <= 2**53; anything else raises ValueError.
    """
    c, d = np.asarray(c), np.asarray(d)
    if c.shape != d.shape:
        raise DimensionMismatchError("correlation operands must share dimensions")
    c, d = _exact_float(c).ravel(), _exact_float(d).ravel()
    (sc, scc), (sd, sdd) = _moments(c), _moments(d)
    return _defined(_pearson(c.size, sc, sd, scc, sdd, int(np.einsum("i,i->", c, d))))


def _adjacent(f: np.ndarray, sums: tuple[int, int], direction: str) -> float | None:
    """Adjacent correlation of the `_exact_float` plane f, whose `_moments` are sums.

    Each view's sums are the plane's minus those of the lines it drops, so
    the only pass over the plane is the cross term.
    """
    c, d = _adjacent_views(f, direction)
    lost_c, lost_d = (_moments(*lines) for lines in _dropped_lines(f, direction))
    return _pearson(
        c.size,
        sums[0] - lost_c[0],
        sums[0] - lost_d[0],
        sums[1] - lost_c[1],
        sums[1] - lost_d[1],
        int(np.einsum("ij,ij->", c, d)),
    )


def adjacent_correlation(plane, direction: str) -> float:
    """Correlation between each pixel and its neighbor in one direction.

    The plane must lie in `correlation`'s domain, else ValueError.
    """
    f = _exact_float(plane)
    return _defined(_adjacent(f, _moments(f.ravel()), direction))


def _differences(a, b) -> dict:
    """NPCR, UACI, MAE, MSE and PSNR of planes a (the original) and b.

    One float64 difference plane serves all five.  Its square sum and
    absolute sum are exact for integer-valued planes; UACI divides by 255
    before its mean.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatchError("difference metric operands must share dimensions")
    d = np.subtract(a, b, dtype=np.float64).ravel()
    n = d.size
    changed = float(np.count_nonzero(d))
    square_mean = float(np.einsum("i,i->", d, d)) / n
    np.abs(d, out=d)
    abs_mean = float(np.mean(d))
    d /= 255.0
    scaled_mean = float(np.mean(d))
    peak = float(np.max(a))
    if square_mean == 0.0:
        peak_ratio = math.inf
    elif peak == 0.0:
        peak_ratio = -math.inf
    else:
        peak_ratio = 20.0 * math.log10(peak / math.sqrt(square_mean))
    return {
        "npcr": changed / n * 100.0,
        "uaci": scaled_mean * 100.0,
        "mae": abs_mean,
        "mse": square_mean,
        "psnr": peak_ratio,
    }


def npcr(c1, c2) -> float:
    """Percentage of pixel positions where the two planes differ."""
    return _differences(c1, c2)["npcr"]


def uaci(c1, c2) -> float:
    """Mean absolute difference normalized by 255, as a percentage."""
    return _differences(c1, c2)["uaci"]


def mae(c1, c2) -> float:
    """Mean absolute pixel difference."""
    return _differences(c1, c2)["mae"]


def mse(f, g) -> float:
    """Mean squared pixel difference."""
    return _differences(f, g)["mse"]


def psnr(f, g) -> float:
    """20*log10(max(f)/sqrt(MSE)); +inf when the planes are identical.

    The peak is taken from the first argument (the original image), not the
    fixed constant 255.  An all-zero original that differs from g has peak
    0 and gives -inf.
    """
    return _differences(f, g)["psnr"]


@dataclass(frozen=True)
class ScatterSample:
    """Adjacent-pixel pairs for plotting, with the sampling seed recorded."""

    direction: str
    seed: int
    pairs: np.ndarray  # k x 2, (value, neighbor)

    def __post_init__(self):
        self.pairs.setflags(write=False)


def scatter_sample(plane, direction: str, count: int) -> ScatterSample:
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
        idx = _lcg_distinct(total, count)
    pairs = np.stack([cf[idx], df[idx]], axis=1)
    return ScatterSample(direction, DEFAULT_SCATTER_SEED, pairs)


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
    counts = histogram(plane)
    values = np.arange(256, dtype=np.int64)
    sums = (int(counts @ values), int(counts @ (values * values)))
    f = _exact_float(plane)
    return {
        "name": label,
        "entropy": _entropy(counts),
        "correlation": {
            short: _adjacent(f, sums, direction)
            for short, direction in zip("hvd", DIRECTIONS)
        },
        "histogram": counts.tolist(),
    }


def _pair_entry(label_a: str, label_b: str, a, b) -> dict:
    return {"a": label_a, "b": label_b, **_differences(a, b)}


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
