"""Statistical metrics: histogram, correlation, NPCR/UACI/MAE, entropy, PSNR.

All metrics use the full pixel population (no random sampling).  Every
statistic works on bytes: a plane enters as uint8, any other dtype must
hold integers in 0..255 and is cast, and anything else raises ValueError.
Every sum behind the histograms, correlations, NPCR, UACI, MAE and MSE
is therefore exact, so those values are the same on every numpy build by
construction: a correlation combines its moments as Python ints, summed
from a float64 copy of the bytes, and a byte product is at most 255**2, so
a float64 sum of them over fewer than 2**53 / 255**2 (about 1.4e11) pixels
is exact in any order.  Entropy adds non-integer terms in numpy's
reduction order, and entropy and PSNR call log2/log10.  The scatter sampler
is the one deliberately sampled quantity and therefore runs on a fixed-seed
linear congruential generator, seeded with DEFAULT_SCATTER_SEED, drawn
4096 states at a time: k steps map s to A**k * s + C * (1 + ... + A**(k-1))
mod 2**32, and the tables of these coefficients are a running product and a
running sum in uint64, exact because 2**64 is a multiple of 2**32.

`histogram` counts two bytes per bin (one bincount of the plane viewed as
uint16, folded from a 256x256 table of byte pairs).  NPCR, UACI, MAE, MSE
and PSNR all come from the histogram of one uint8 plane |a - b|, as exact
integer sums each divided once (correctly rounded) by the pixel count.
`full_report` returns the JSON-ready dict the CLI writes, and
`scatter_sample` a read-only array of byte pairs.  In the report, a
decrypted plane byte-identical to its original reuses that plane's
statistics (entry and zero differences) instead of recomputing them; the
equality check costs about 0.16 ms per plane at n=1024 when they differ.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .cipher import COMPONENT_NAMES, ImageRGB
from .errors import DimensionMismatchError, UndefinedCorrelationError

# The (dr, dc) step from a pixel to its neighbor in each direction.
_STEPS = {"horizontal": (0, 1), "vertical": (1, 0), "diagonal": (1, 1)}
DIRECTIONS = tuple(_STEPS)

_LCG_A = 1664525
_LCG_C = 1013904223
_LCG_MASK = np.uint64((1 << 32) - 1)
_LCG_BLOCK = 4096  # states drawn per vectorized step
DEFAULT_SCATTER_SEED = 0x5EED
_BYTE_VALUES = np.arange(256, dtype=np.int64)

_POWERS = np.cumprod(np.full(_LCG_BLOCK, _LCG_A, dtype=np.uint64))
_JUMP_A = _POWERS & _LCG_MASK
_JUMP_C = np.cumsum(np.concatenate([[np.uint64(1)], _POWERS[:-1]])) * np.uint64(_LCG_C) & _LCG_MASK


@functools.lru_cache(maxsize=4)
def _lcg_distinct(total: int, count: int) -> np.ndarray:
    """The first `count` distinct draws state % total of the LCG, in draw order.

    Equal to drawing one state at a time and rejecting repeats, but a block
    of states at a time: a draw is kept at its first occurrence in the
    block unless an earlier block already kept it.  The draws depend on the
    arguments alone, not on the plane sampled, so they are memoized (the 27
    samples of an n=1024 analyze share two sets) and returned read-only.
    """
    state = np.uint64(DEFAULT_SCATTER_SEED)
    seen = np.zeros(total, dtype=bool)
    chosen = [np.empty(0, dtype=np.intp)]
    need = count
    while need > 0:
        states = (_JUMP_A * state + _JUMP_C) & _LCG_MASK
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


def _bytes(plane) -> np.ndarray:
    """The plane as uint8, the one domain of every statistic here.

    uint8 passes through, integer values in 0..255 of any other dtype are
    cast, and anything else raises ValueError rather than wrapping into
    another byte.
    """
    plane = np.asarray(plane)
    if plane.dtype != np.uint8:
        with np.errstate(invalid="ignore"):
            as_bytes = plane.astype(np.uint8)
        if not np.array_equal(as_bytes, plane):
            raise ValueError("byte statistics need integer values in 0..255")
        plane = as_bytes
    return plane


def histogram(plane) -> np.ndarray:
    """Counts of each byte value 0..255; counts sum to the pixel count.

    A value that is not an integer in 0..255 raises ValueError rather than
    wrapping into another bin.  The bytes are counted two at a time: one
    bincount of the plane viewed as uint16 fills a 256x256 table of byte
    pairs, whose row sums count one byte of each pair and whose column sums
    count the other, whatever the machine's byte order.  An odd last byte
    is counted on its own.
    """
    flat = np.ascontiguousarray(_bytes(plane)).reshape(-1)
    even = flat.size & ~1
    table = np.bincount(flat[:even].view(np.uint16), minlength=1 << 16).reshape(256, 256)
    counts = table.sum(axis=0) + table.sum(axis=1)
    if even < flat.size:
        counts[flat[-1]] += 1
    return counts


def _byte_sums(counts: np.ndarray) -> tuple[int, int]:
    """(sum v, sum v**2) over the bytes a histogram counts, as exact ints."""
    return int(counts @ _BYTE_VALUES), int(counts @ (_BYTE_VALUES * _BYTE_VALUES))


def _entropy(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-np.sum(p * np.log2(p)))


def entropy(plane) -> float:
    """Shannon entropy of the byte distribution, in bits per pixel."""
    return _entropy(histogram(plane))


def _adjacent_views(plane, direction):
    """Views (c, d) of each pixel with a neighbor one `_STEPS` step on and of
    that neighbor; both are empty when the step leaves a plane one pixel
    high or wide.  An unknown direction raises ValueError."""
    if direction not in _STEPS:
        raise ValueError(f"unknown direction {direction!r}")
    dr, dc = _STEPS[direction]
    plane = np.asarray(plane)
    height, width = plane.shape
    return plane[: height - dr, : width - dc], plane[dr:, dc:]


def _dropped_lines(plane, dr, dc):
    """The cells each view of a (dr, dc) step leaves out, as disjoint 1-D lines."""
    lost_c = [plane[-1]] if dr else []
    lost_d = [plane[0]] if dr else []
    if dc:
        lost_c.append(plane[: plane.shape[0] - dr, -1])
        lost_d.append(plane[dr:, 0])
    return lost_c, lost_d


def _moments(*lines) -> tuple[int, int]:
    """(sum v, sum v**2) over disjoint 1-D float64 lines of bytes, as ints."""
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
        raise UndefinedCorrelationError("no pairs or zero variance in a correlation operand")
    return r


def correlation(c, d) -> float:
    """Pearson correlation between two equal-size byte planes.

    A value that is not an integer in 0..255 raises ValueError.
    """
    c, d = np.asarray(c), np.asarray(d)
    if c.shape != d.shape:
        raise DimensionMismatchError("correlation operands must share dimensions")
    c, d = (_bytes(x).astype(np.float64).ravel() for x in (c, d))
    (sc, scc), (sd, sdd) = _moments(c), _moments(d)
    return _defined(_pearson(c.size, sc, sd, scc, sdd, int(np.einsum("i,i->", c, d))))


def _adjacent(f: np.ndarray, sums: tuple[int, int], direction: str) -> float | None:
    """Adjacent correlation of the float64 byte plane f, whose `_moments` are sums.

    Each view's sums are the plane's minus those of the lines it drops, so
    the only pass over the plane is the cross term.
    """
    c, d = _adjacent_views(f, direction)
    lost_c, lost_d = (_moments(*lines) for lines in _dropped_lines(f, *_STEPS[direction]))
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

    A value that is not an integer in 0..255 raises ValueError.
    """
    f = _bytes(plane).astype(np.float64)
    return _defined(_adjacent(f, _moments(f.ravel()), direction))


def _differences(a, b) -> dict:
    """NPCR, UACI, MAE, MSE and PSNR of byte planes a (the original) and b.

    One uint8 plane |a - b| serves all five.  From its histogram, NPCR is
    the count of non-zero differences, and MAE and MSE are the exact
    integer sums of v * count and v**2 * count, each divided (correctly
    rounded) by the pixel count.  UACI is 100 * sum |a - b| / (255 * n),
    rounded once.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatchError("difference metric operands must share dimensions")
    a, b = _bytes(a), _bytes(b)
    absd = np.maximum(a, b)
    absd -= np.minimum(a, b)
    counts = histogram(absd)
    n = absd.size
    abs_sum, square_sum = _byte_sums(counts)
    square_mean = square_sum / n
    peak = float(np.max(a))
    if square_mean == 0.0:
        peak_ratio = math.inf
    elif peak == 0.0:
        peak_ratio = -math.inf
    else:
        peak_ratio = 20.0 * math.log10(peak / math.sqrt(square_mean))
    return {
        "npcr": (n - int(counts[0])) / n * 100.0,
        "uaci": 100 * abs_sum / (255 * n),
        "mae": abs_sum / n,
        "mse": square_mean,
        "psnr": peak_ratio,
    }


# What `_differences` gives for two equal planes.
_EQUAL_PLANES = {"npcr": 0.0, "uaci": 0.0, "mae": 0.0, "mse": 0.0, "psnr": math.inf}


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


def scatter_sample(plane, direction: str, count: int) -> np.ndarray:
    """Deterministic sample of at most `count` distinct adjacent-pixel pairs.

    Returns a read-only (k, 2) array of (value, neighbor) rows.  Indices are
    drawn from a linear congruential generator seeded with
    DEFAULT_SCATTER_SEED (duplicates rejected); a count that reaches every
    available pair returns the full population in row-major order.  A
    direction with no pairs (a plane one pixel high or wide) gives a (0, 2)
    array.  A negative count raises ValueError.
    """
    plane = np.asarray(plane)
    c, _ = _adjacent_views(plane, direction)
    total = c.size
    if count < 0:
        raise ValueError(f"count {count} is negative")
    if count >= total:
        idx = np.arange(total)
    else:
        idx = _lcg_distinct(total, count)
    # The view drops the plane's last dr rows and dc columns, and the
    # neighbor of plane cell k is cell k + dr * width + dc.
    dr, dc = _STEPS[direction]
    width = plane.shape[1]
    at = idx + idx // c.shape[1] * dc  # row-major view index -> plane index
    flat = plane.reshape(-1)
    pairs = np.stack([flat[at], flat[at + (dr * width + dc)]], axis=1)
    pairs.setflags(write=False)
    return pairs


def _component_entry(label: str, plane) -> dict:
    plane = _bytes(plane)
    counts = histogram(plane)
    sums = _byte_sums(counts)
    f = plane.astype(np.float64)
    return {
        "name": label,
        "entropy": _entropy(counts),
        "correlation": {
            short: _adjacent(f, sums, direction)
            for short, direction in zip("hvd", DIRECTIONS)
        },
        "histogram": counts.tolist(),
    }


def full_report(
    original: ImageRGB,
    encrypted: ImageRGB | None = None,
    decrypted: ImageRGB | None = None,
    image: str = "image",
) -> dict:
    """Every per-component metric plus original-vs-cipher and -vs-decrypted pairs.

    Returns the JSON-ready dict {image, dims, components, pairs} that the
    CLI writes.  A constant plane has no defined adjacent correlation, nor
    has a direction with no pairs (a plane one pixel high or wide); such an
    entry is reported as null rather than failing the whole report.

    A decrypted plane byte-identical to the original plane of its component
    reuses that plane's statistics: its entry is a fresh copy of the
    original's under its own name, and its pair is what `_differences`
    gives for equal planes (zero differences, PSNR inf).  One
    `np.array_equal` per component decides this; when the planes differ it
    costs about 0.16 ms at n=1024 and the plane takes the full path.
    """
    originals = [
        _component_entry(f"original/{comp}", plane)
        for comp, plane in zip(COMPONENT_NAMES, original.planes)
    ]
    components, pairs = list(originals), []
    for label, img in (("encrypted", encrypted), ("decrypted", decrypted)):
        if img is None:
            continue
        if (img.width, img.height) != (original.width, original.height):
            raise DimensionMismatchError(f"{label} image dims differ from original")
        for comp, a, b, entry in zip(COMPONENT_NAMES, original.planes, img.planes, originals):
            name = f"{label}/{comp}"
            if label == "decrypted" and np.array_equal(a, b):
                components.append(
                    {
                        **entry,
                        "name": name,
                        "correlation": dict(entry["correlation"]),
                        "histogram": list(entry["histogram"]),
                    }
                )
                differences = _EQUAL_PLANES
            else:
                components.append(_component_entry(name, b))
                differences = _differences(a, b)
            pairs.append({"a": f"original/{comp}", "b": name, **differences})
    return {
        "image": image,
        "dims": [original.width, original.height],
        "components": components,
        "pairs": pairs,
    }
