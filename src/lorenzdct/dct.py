"""Orthonormal discrete cosine transforms and high-energy coefficient selection.

The orthonormal (norm-preserving) type-II convention is used throughout, so
Parseval's identity holds exactly and the round trip idct(dct(f)) == f needs
no extra scaling.  Energy selection keeps the largest-magnitude coefficients
until a target fraction of the total energy is reached, then drops any
coefficient with magnitude below 1 so that a signed base-10 logarithm of
every retained value is well defined.  That is the paper's cut, which also
truncates the keystream vectors.  The cipher's carrier holds each log on a
2**-12 grid, so a retained |v| below 10**(2**-13), about 1.00028, has a log
of 0 there and is not stored (`cipher.log_forward`); the difference plane
carries it instead.

dct2 and energy_select never write to their argument.  dct2 allocates one
float64 plane, its own copy of the input, and transforms it in place;
energy_select works in one float64 scratch plane of its own (8 bytes per
cell) and frees it before it returns.

The transforms are scipy's pocketfft extension,
scipy/fft/_pocketfft/pypocketfft, loaded by file path: importing the
scipy.fft package would cost about 0.3 s per process (its array-API layer
and scipy.special).  Each call passes the extension's dct() the arguments
scipy.fft's wrappers pass, so the bits are scipy.fft's: an inverse turns
type 2 into 3 and inorm into 2 - inorm, where inorm is 0 for
norm="backward", 1 for "ortho" (which also orthogonalizes) and 2 for
"forward".

    dct1                type=2, axes=(0,),   inorm=1     scipy.fft.dct, ortho
    dct2                type=2, axes=(0, 1), inorm=1     dctn, ortho
    idct2               type=3, axes=(0, 1), inorm=1     idctn, ortho
    _idct2_leading      type=3, axes=(0,) then (1,), ortho=True,
                        inorm=2 then 0; square planes only

Only when the extension file is not at that path (an editable scipy build,
say) is the same module imported the normal way.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass, field

import numpy as np

# Candidate counts energy_select sorts before the whole plane.  Natural
# planes keep a few hundred coefficients at 99.9% energy.  Two-level text
# planes keep 28-49% of theirs at n = 280-472 (up to 80k), which the second
# block's floor covers, and 120-170k at n = 1024, inside a quarter of the plane.
_FIRST_CANDIDATES = 4096
_DENSE_CANDIDATES = 1 << 17

_POCKETFFT = "scipy.fft._pocketfft.pypocketfft"


def _load_pocketfft():
    """scipy's pypocketfft extension, loaded from its file without importing
    any scipy package; imported the normal way when the file is not there."""
    spec = importlib.util.find_spec("scipy")
    for root in (spec and spec.submodule_search_locations) or ():
        stem = os.path.join(root, "fft", "_pocketfft", "pypocketfft")
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            if os.path.isfile(stem + suffix):
                loader = importlib.machinery.ExtensionFileLoader(_POCKETFFT, stem + suffix)
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_loader(_POCKETFFT, loader)
                )
                loader.exec_module(module)
                return module
    return importlib.import_module(_POCKETFFT)


_pocketfft = _load_pocketfft()


def dct1(x):
    """Orthonormal 1-D type-II DCT of a real sequence."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("dct1 expects a 1-D sequence")
    return _pocketfft.dct(x, type=2, axes=(0,), inorm=1)


def dct2(f):
    """Orthonormal 2-D type-II DCT (1-D transform over rows, then columns).

    The transform runs in place on a float64 copy of f, the one plane (8
    bytes per cell) it allocates; f itself is never written.
    """
    f = np.array(f, dtype=np.float64)
    if f.ndim != 2:
        raise ValueError("dct2 expects a 2-D matrix")
    return _pocketfft.dct(f, type=2, axes=(0, 1), inorm=1, out=f)


def idct2(F):
    """Inverse of dct2."""
    F = np.asarray(F, dtype=np.float64)
    if F.ndim != 2:
        raise ValueError("idct2 expects a 2-D matrix")
    return _pocketfft.dct(F, type=3, axes=(0, 1), inorm=1)


@dataclass(frozen=True)
class SparseCoeffs:
    """Retained high-energy coefficients of one transform.

    rows/cols/values are parallel arrays; every (row, col) lies inside dims
    and every |value| >= 1.  energy_select output is in row-major order
    (strictly ascending row * width + col).  energy_fraction is the fraction
    of the source signal energy the entries actually carry.
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
        h, w = self.dims
        if len(self.values) and not (
            0 <= np.min(self.rows) and np.max(self.rows) < h
            and 0 <= np.min(self.cols) and np.max(self.cols) < w
        ):
            raise ValueError(f"every retained coefficient must lie inside {h}x{w}")

    def __len__(self):
        return len(self.values)


def energy_select(F, fraction: float = 0.999) -> SparseCoeffs:
    """Greedy selection of coefficients carrying `fraction` of the energy.

    Coefficients are taken in descending |value| order (row-major order on
    ties) until their cumulative squared sum reaches fraction * total.
    Selected values with |value| < 1 are then discarded.  A 1-D input is
    treated as a 1 x L matrix.  The result is in row-major order (strictly
    ascending flat index); energy_fraction sums the retained squares in
    descending |value| order.  A total energy that is not finite (an inf
    or NaN value, or squares that overflow) raises ValueError.

    The head is found by value sorts alone.  Tied magnitudes have equal
    squares, so the sequential cumsum of the sorted squared magnitudes is
    exactly the cumsum taken in the stable descending order.  Its first
    index i that reaches the target fixes the last magnitude t of the head,
    which is every cell above t plus the first cells at t, in row-major
    order, up to i + 1 cells.  The sorted magnitudes are the largest 4096
    (split off by an in-place partition), then, when those fall short, the
    largest quarter of the plane (at least 2**17 cells), then the whole
    plane.  The result is bit-identical to a full stable argsort of
    -|value| in every case.

    F is never written.  The work runs in one float64 scratch plane, 8
    bytes per cell, that holds the squares for the total, then |F| for
    each round's partition, then |F| again to find the head's cells; their
    values are read from F.  Beside it, a round holds a sorted copy of its
    block.  The candidates' indices and magnitudes are freed once the head
    is picked, so the picked indices and the result (int64 rows and cols,
    float64 values) take 32 bytes per retained cell, and SparseCoeffs'
    check of the values 8 more.  At n = 1024 the peak above F is 9 bytes
    per cell on a natural plane, about 10.6 on a document plane (second
    block) and 32.2 on a uniform-noise plane, which keeps 80% of its cells.
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
    scratch = np.multiply(flat, flat)
    total = float(np.sum(scratch))
    if not np.isfinite(total):
        raise ValueError(f"energy_select needs a finite total energy, got {total}")
    if total == 0.0:
        empty = np.empty(0, dtype=np.int64)
        return SparseCoeffs(dims, empty, empty.copy(), np.empty(0), 1.0)

    t, count, energy = _head_by_magnitude(flat, scratch, fraction * total)
    np.abs(flat, out=scratch)
    cand = np.flatnonzero(scratch >= max(t, 1.0))
    mags = scratch[cand]
    del scratch
    keep = mags > t
    # the head is every cell above t and the first (row-major) cells at t,
    # count in all; no cell below 1 is a candidate, so when t < 1 every
    # candidate is above t
    keep[np.flatnonzero(~keep)[: count - np.count_nonzero(keep)]] = True
    picked = cand[keep]
    del cand, mags, keep

    rows, cols = np.divmod(picked, dims[1])
    return SparseCoeffs(dims, rows, cols, flat[picked], min(energy / total, 1.0))


def _head_by_magnitude(flat, scratch, target):
    """For the shortest head of the stable -|flat| order whose cumsum of
    squares reaches target (every cell when none does): its last magnitude
    t, its length, and the sum, in descending order, of the squares of its
    magnitudes of 1 or more.  scratch, a plane of flat's size, is
    overwritten."""
    size = flat.size
    blocks = (_FIRST_CANDIDATES, max(size // 4, _DENSE_CANDIDATES))
    for m in [m for m in blocks if m < size] + [size]:
        np.abs(flat, out=scratch)
        if m < size:
            scratch.partition(size - m)
        top = np.sort(scratch[size - m :])[::-1]
        # the cumsum of the block's squares, in descending order, in place
        block = np.square(top, out=scratch[size - m :])
        np.cumsum(block, out=block)
        i = int(np.searchsorted(block, target))
        if i < m:
            break
    i = min(i, size - 1)
    kept = int(np.count_nonzero(top[: i + 1] >= 1.0))
    return top[i], i + 1, float(np.sum(np.square(top[:kept], out=block[:kept])))


def reconstruct_sparse(s: SparseCoeffs) -> np.ndarray:
    """idct2 of the retained coefficients scattered into zeros."""
    plane = np.zeros(s.dims)
    plane[s.rows, s.cols] = s.values
    return idct2(plane)


def _idct2_leading(plane, m: int) -> np.ndarray:
    """idct2 of a square float64 plane that is zero from column m on, in place.

    The two passes of idctn run here.  The column pass (axis 0) runs only
    over the leading m columns, and the row pass then runs over the whole
    plane: a column without a coefficient would transform to exact zeros
    anyway.  On a square plane pocketfft's idctn(norm="ortho") puts the
    whole factor 1 / (2n) on the axis-0 pass and 1 on the axis-1 pass, each
    with the ortho DC weight, which is what inorm 2 then inorm 0 with
    ortho=True apply; the result is bit-identical to idct2.  A non-square
    factor 1 / sqrt(4hw) has no such per-pass form, so the cipher's square
    planes are the only ones this serves.
    """
    block = plane[:, :m]
    _pocketfft.dct(block, type=3, axes=(0,), inorm=2, out=block, ortho=True)
    return _pocketfft.dct(plane, type=3, axes=(1,), inorm=0, out=plane, ortho=True)
