"""Orthonormal discrete cosine transforms and high-energy coefficient selection.

The orthonormal (norm-preserving) type-II convention is used throughout, so
Parseval's identity holds exactly and the round trip idct(dct(f)) == f needs
no extra scaling.  Energy selection keeps the largest-magnitude coefficients
until a target fraction of the total energy is reached, then drops any
coefficient with magnitude below 1 so that a signed base-10 logarithm of
every retained value is well defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import fft as _fft

# Retained values with |v| in [1, 1 + EPS] are nudged just above the bucket
# boundary so their log10 stays distinguishable from the empty-cell zero.
UNIT_GUARD_EPS = 1e-12
_UNIT_GUARD_TOP = np.nextafter(1.0 + UNIT_GUARD_EPS, np.inf)

# Candidate count energy_select starts its partial selection from, and the
# factor it grows by.  Natural 1024 x 1024 planes keep a few hundred
# coefficients at 99.9% energy, two-level document planes about 150k.
_FIRST_CANDIDATES = 4096
_GROWTH = 4


def dct1(x):
    """Orthonormal 1-D type-II DCT of a real sequence."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("dct1 expects a 1-D sequence")
    return _fft.dct(x, type=2, norm="ortho")


def dct2(f):
    """Orthonormal 2-D type-II DCT (1-D transform over rows, then columns)."""
    f = np.asarray(f, dtype=np.float64)
    if f.ndim != 2:
        raise ValueError("dct2 expects a 2-D matrix")
    return _fft.dctn(f, type=2, norm="ortho")


def idct2(F):
    """Inverse of dct2."""
    F = np.asarray(F, dtype=np.float64)
    if F.ndim != 2:
        raise ValueError("idct2 expects a 2-D matrix")
    return _fft.idctn(F, type=2, norm="ortho")


@dataclass(frozen=True)
class SparseCoeffs:
    """Retained high-energy coefficients of one transform.

    rows/cols/values are parallel arrays; every |value| >= 1.  Only
    energy_select output is sorted, by descending |value| with ties in
    row-major order.  energy_fraction is the fraction of the source signal
    energy the entries actually carry.
    """

    dims: tuple[int, int]
    rows: np.ndarray = field(repr=False)
    cols: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    energy_fraction: float = 1.0

    def __post_init__(self):
        for a in (self.rows, self.cols, self.values):
            a.setflags(write=False)
        if not (len(self.rows) == len(self.cols) == len(self.values)):
            raise ValueError("rows, cols, values must have equal length")
        if len(self.values) and np.min(np.abs(self.values)) < 1.0:
            raise ValueError("every retained coefficient must satisfy |value| >= 1")

    def __len__(self):
        return len(self.values)


def energy_select(F, fraction: float = 0.999) -> SparseCoeffs:
    """Greedy selection of coefficients carrying `fraction` of the energy.

    Coefficients are taken in descending |value| order (row-major order on
    ties) until their cumulative squared sum reaches fraction * total.
    Selected values with |value| < 1 are then discarded; values inside
    [1, 1 + 1e-12] are nudged just above that band (their log would be
    indistinguishable from an empty carrier cell otherwise).  A 1-D input is
    treated as a 1 x L matrix.

    The order is found by partial selection rather than a full sort: blocks
    of the largest magnitudes (4096, then growing fourfold) are split off
    with np.partition until their energy reaches the target, which gives a
    threshold t just past the crossing.  Every magnitude >= t is a candidate,
    so boundary ties stay in.  The candidates, in row-major order, are
    stable-sorted by -|value|; since every coefficient outside the set is
    strictly smaller, that is exactly the head of the full stable argsort,
    and the sequential cumsum over it is exactly the head of the full
    cumsum.  When that cumsum does not reach the target (the block energies
    are summed in another order), when the blocks outgrow the size, or when
    the total energy is not finite, the full stable argsort is used.  The
    result is bit-identical to a full stable argsort in every case.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    F = np.asarray(F, dtype=np.float64)
    if F.ndim == 1:
        F = F.reshape(1, -1)
    if F.ndim != 2:
        raise ValueError("energy_select expects a 1-D sequence or 2-D matrix")
    dims = F.shape

    flat = F.ravel()
    total = float(np.sum(flat * flat))
    if total == 0.0:
        empty = np.empty(0, dtype=np.int64)
        return SparseCoeffs(dims, empty, empty.copy(), np.empty(0), 1.0)

    picked = _head_by_magnitude(flat, fraction * total)

    vals = flat[picked]
    keep = np.abs(vals) >= 1.0
    picked, vals = picked[keep], vals[keep].copy()

    guard = np.abs(vals) <= 1.0 + UNIT_GUARD_EPS
    vals[guard] = np.sign(vals[guard]) * _UNIT_GUARD_TOP

    rows, cols = np.divmod(picked, dims[1])
    achieved = float(np.sum(vals * vals)) / total
    return SparseCoeffs(dims, rows, cols, vals, min(achieved, 1.0))


def _head_by_magnitude(flat, target):
    """Shortest head of the stable -|v| order whose cumsum of v**2 reaches
    target (the whole order when none does)."""
    mags = np.abs(flat)
    threshold = _energy_threshold(mags, target) if np.isfinite(target) else None
    if threshold is not None:
        cand = np.flatnonzero(mags >= threshold)
        head = cand[_stable_descending(mags[cand])]
        reached = np.flatnonzero(np.cumsum(flat[head] ** 2) >= target)
        if reached.size:
            return head[: int(reached[0]) + 1]

    # stable argsort on -|v| keeps row-major order within magnitude ties
    order = np.argsort(-mags, kind="stable")
    reached = np.flatnonzero(np.cumsum(flat[order] ** 2) >= target)
    return order[: int(reached[0]) + 1] if reached.size else order


def _energy_threshold(mags, target):
    """A magnitude t whose cells mags >= t carry about target energy, found
    by partial selection; None when the candidate count outgrows mags.

    Each round partitions only the remainder below the previous block and
    takes the next block of the largest magnitudes (m = 4096, then m grows
    fourfold).  In the block that reaches target, its sorted magnitudes
    place t one past the estimated crossing.
    """
    size = mags.size
    rest, energy, m = mags, 0.0, _FIRST_CANDIDATES
    while m < size:
        rest = np.partition(rest, size - m)
        block, rest = rest[size - m :], rest[: size - m]
        block_energy = np.sum(block * block)
        if energy + block_energy >= target:
            block = np.sort(block)[::-1]
            i = int(np.searchsorted(energy + np.cumsum(block * block), target))
            return block[min(i + 1, block.size - 1)]
        energy += block_energy
        m *= _GROWTH
    return None


def _stable_descending(keys):
    """np.argsort(-keys, kind="stable") by way of the faster unstable sort:
    positions are re-sorted inside each run of equal keys, via one sort of
    run * size + position."""
    size = keys.size
    order = np.argsort(-keys)
    ranked = keys[order]
    run = np.cumsum(np.concatenate(([0], ranked[1:] != ranked[:-1])))
    return np.sort(run * size + order) % size


def reconstruct_sparse(s: SparseCoeffs) -> np.ndarray:
    """Scatter the retained coefficients into zeros and apply idct2."""
    F = np.zeros(s.dims, dtype=np.float64)
    F[s.rows, s.cols] = s.values
    return idct2(F)
