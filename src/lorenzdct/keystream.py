"""Keystream planes derived from a Lorenz trajectory.

Pipeline per round: integrate from the key's initial conditions, truncate
each coordinate's DCT to its 99.9%-energy coefficients, form the three outer
products XY / XZ / YZ, resize each to the image size, then circularly
convolve the resized planes pairwise and reduce modulo 256 to bytes.  Each
byte plane also carries the row and column argsort permutations used by the
shuffle cipher, as uint16.

The Lorenz parameters, the integration window and step, and the energy
fraction are the paper's fixed values (the defaults of `LorenzParams`,
`integrate` and `truncated_vectors`); the key is the only input.

Two caches keep repeated work away.  `_key_vectors` holds the truncated
trajectory vectors per (key): a few KB each, 32 entries, independent of the
image size, so a key seen at a new size skips the RK4 integration and the
trajectory DCT.  `build_round_keystream` holds finished rounds per (key, n),
3 entries (one key triple): a round costs 15 * n**2 bytes, 15 MB at n=1024,
so the plane cache is bounded by 45 MB at that size.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dct import dct1, energy_select
from .errors import DegenerateKeystreamError
from .lorenz import LorenzParams, SecretKey, Trajectory, derive_initial_conditions, integrate

# Guard added before flooring |conv| so that convolutions which are integers
# in exact arithmetic cannot fall just below the boundary in floating point.
FLOOR_GUARD = 1e-9

# Longest line whose sort permutation fits in uint16.
MAX_LINE = 1 << 16


@dataclass(frozen=True)
class KeystreamPlane:
    """One N x N byte plane with its sort permutations.

    row_perm[i] is the stable ascending argsort of byte row i; col_perm[j]
    the same for column j.  Both are uint16 (lines of at most 65536 cells),
    so a plane holds 5 bytes per pixel.  The carrier stage's real-valued
    view of the bytes is computed on demand by `real_twin`.
    """

    bytes: np.ndarray
    row_perm: np.ndarray
    col_perm: np.ndarray

    def __post_init__(self):
        for a in (self.bytes, self.row_perm, self.col_perm):
            a.setflags(write=False)

    @property
    def n(self) -> int:
        return self.bytes.shape[0]


@dataclass(frozen=True)
class RoundKeystream:
    """The three planes of one round, assigned R<-XY, G<-XZ, B<-YZ."""

    xy: KeystreamPlane
    xz: KeystreamPlane
    yz: KeystreamPlane

    def plane_for(self, component: int) -> KeystreamPlane:
        return (self.xy, self.xz, self.yz)[component]


def real_twin(*planes: KeystreamPlane) -> np.ndarray:
    """Sum of the planes' bytes as float64: one exact integer sum, cast once.

    Every cell is a small integer double, so (twin + s) - twin returns
    exactly 0.0 wherever s == 0; carrier extraction depends on that.
    """
    total = planes[0].bytes.astype(np.uint16)
    for p in planes[1:]:
        total += p.bytes
    return total.astype(np.float64)


def truncated_vectors(traj: Trajectory, fraction: float = 0.999):
    """99.9%-energy DCT coefficients of x, y, z, in original index order."""
    if len(traj) == 0:
        raise ValueError("trajectory is empty")
    out = []
    for arr in (traj.x, traj.y, traj.z):
        sel = energy_select(dct1(arr), fraction)
        order = np.argsort(sel.cols, kind="stable")
        out.append(np.ascontiguousarray(sel.values[order]))
    return tuple(out)


def outer_products(vx, vy, vz):
    """XY = vx (x) vy, XZ = vx (x) vz, YZ = vy (x) vz."""
    vx, vy, vz = (np.asarray(v, dtype=np.float64) for v in (vx, vy, vz))
    for name, v in (("vx", vx), ("vy", vy), ("vz", vz)):
        if v.size == 0:
            raise DegenerateKeystreamError(f"{name} has no retained coefficients")
    return np.outer(vx, vy), np.outer(vx, vz), np.outer(vy, vz)


def resize_bilinear(m, n: int) -> np.ndarray:
    """Resize to n x n by corner-aligned bilinear interpolation.

    Output cell (i, j) samples source coordinate (i*(R-1)/(n-1), j*(C-1)/(n-1));
    n == 1 returns the top-left entry.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError("source must be a non-empty 2-D matrix")
    if n < 1:
        raise ValueError("target size must be >= 1")
    if n == 1:
        return m[:1, :1].copy()

    def axis_coords(src_len):
        pos = (np.arange(n, dtype=np.float64) * (src_len - 1)) / (n - 1)
        lo = np.floor(pos).astype(np.int64)
        lo = np.minimum(lo, src_len - 1)
        hi = np.minimum(lo + 1, src_len - 1)
        return lo, hi, pos - lo

    r0, r1, fr = axis_coords(m.shape[0])
    c0, c1, fc = axis_coords(m.shape[1])
    rows = m[r0, :] * (1.0 - fr)[:, None] + m[r1, :] * fr[:, None]
    return rows[:, c0] * (1.0 - fc)[None, :] + rows[:, c1] * fc[None, :]


def quantize_byte(c) -> np.ndarray:
    """floor(|c| + guard) mod 256, as uint8.

    The guard keeps convolutions that are exactly integer-valued in real
    arithmetic from flooring one low due to floating-point round-off.
    """
    c = np.asarray(c, dtype=np.float64)
    return np.mod(np.floor(np.abs(c) + FLOOR_GUARD), 256.0).astype(np.uint8)


def circular_conv2_mod(fa, fb) -> np.ndarray:
    """Wrap-around 2-D convolution of two N x N planes, bytes mod 256.

    fa and fb are the planes' np.fft.rfft2 spectra, shape (N, N//2 + 1), so
    a plane used in two convolutions is transformed once.
    c[i][j] = sum_{p,q} a[p][q] * b[(i-p) mod N, (j-q) mod N], quantized
    with quantize_byte.
    """
    fa = np.asarray(fa)
    fb = np.asarray(fb)
    n = fa.shape[0] if fa.ndim == 2 else 0
    # A real 1x1 or 2x2 plane has the spectrum's shape; only dtype tells them apart.
    spectra = np.iscomplexobj(fa) and np.iscomplexobj(fb)
    if not spectra or fa.shape != fb.shape or fa.shape != (n, n // 2 + 1):
        raise ValueError("operands must be rfft2 spectra of equal square planes")
    return quantize_byte(np.fft.irfft2(fa * fb, s=(n, n)))


def _line_argsort(lines) -> np.ndarray:
    # stable ascending argsort of each row, as uint16
    if lines.shape[1] > MAX_LINE:
        raise ValueError(f"lines longer than {MAX_LINE} cells do not fit uint16 permutations")
    return np.argsort(lines, axis=1, kind="stable").astype(np.uint16)


def row_permutations(plane_bytes) -> np.ndarray:
    """Stable ascending argsort of each row (ties keep column order), uint16."""
    return _line_argsort(np.asarray(plane_bytes))


def col_permutations(plane_bytes) -> np.ndarray:
    """Stable ascending argsort of each column; row j holds column j's order."""
    return _line_argsort(np.asarray(plane_bytes).T)


def plane_from_bytes(byte_matrix) -> KeystreamPlane:
    """Wrap a byte matrix with its uint16 row and column sort permutations.

    Raises ValueError if a row or column is longer than 65536 cells.
    """
    byte_matrix = np.ascontiguousarray(byte_matrix, dtype=np.uint8)
    return KeystreamPlane(
        bytes=byte_matrix,
        row_perm=row_permutations(byte_matrix),
        col_perm=col_permutations(byte_matrix),
    )


@functools.lru_cache(maxsize=32)
def _key_vectors(key: SecretKey):
    # Truncated trajectory vectors of one key; they do not depend on n.
    vectors = truncated_vectors(integrate(LorenzParams(), derive_initial_conditions(key)))
    for v in vectors:
        v.setflags(write=False)
    return vectors


@functools.lru_cache(maxsize=3)
def build_round_keystream(key: SecretKey, n: int) -> RoundKeystream:
    """Derive one round's three keystream planes from a secret key.

    Pure in both arguments, so results are memoized: the last three rounds
    (one key triple) are kept, and decryption regenerating the same rounds
    reuses them.  The trajectory vectors come from the per-key cache, so a
    new n only redoes the resize and the convolutions.  The convolution
    pairing is the fixed cycle XY*XZ, XZ*YZ, YZ*XY.
    """
    if n < 2:
        raise ValueError("keystream size must be >= 2")
    vx, vy, vz = _key_vectors(key)
    fxy, fxz, fyz = (
        np.fft.rfft2(resize_bilinear(m, n)) for m in outer_products(vx, vy, vz)
    )
    return RoundKeystream(
        xy=plane_from_bytes(circular_conv2_mod(fxy, fxz)),
        xz=plane_from_bytes(circular_conv2_mod(fxz, fyz)),
        yz=plane_from_bytes(circular_conv2_mod(fyz, fxy)),
    )
