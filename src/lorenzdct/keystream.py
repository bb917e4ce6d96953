"""Keystream planes derived from a Lorenz trajectory.

Per round: integrate from the key's initial conditions and truncate each
coordinate's DCT to its 99.9%-energy coefficients, giving vectors x, y, z.
The paper resizes the outer products XY = x⊗y, XZ and YZ to the image size,
circularly convolves them pairwise (XY*XZ, XZ*YZ, YZ*XY) and reduces the
results modulo 256.  Every one of those planes has rank one: corner-aligned
bilinear resizing is separable, resize(u⊗v) = û⊗v̂, and circular
convolution of rank-one planes factors, (a⊗b)⊛(c⊗d) = (a⊛c)⊗(b⊛d).  So
each plane is built from 1-D pieces:

    XY*XZ = (x̂⊛x̂) ⊗ (ŷ⊛ẑ)
    XZ*YZ = (x̂⊛ŷ) ⊗ (ẑ⊛ẑ)
    YZ*XY = (x̂⊛ŷ) ⊗ (ŷ⊛ẑ)

Each resized vector is taken to fixed point, rint(v̂ * 2**S) as int64, the
four distinct convolutions are exact int64 sums (checked to stay below
2**53), and byte (i, j) is floor(|A_i| * (|B_j| * 2**-4S)) mod 256 from one
correctly rounded float64 product.  No step depends on an FFT backend, a
summation order or a thread count, so given the same truncated vectors the
bytes are the same on every IEEE-754 platform.  Only the RK4 integration and
the trajectory DCT with its energy selection are floating point upstream.

The Lorenz parameters, the integration window and step, and the energy
fraction are the paper's fixed values (the defaults of `LorenzParams`,
`integrate` and `energy_select`); the key is the only input.

Trajectory vectors are cached here; finished rounds are not.
`_key_vectors` holds the truncated trajectory vectors per key: a few KB
each, 32 entries, independent of the image size, so a key seen at a new size
skips the RK4 integration and the trajectory DCT.  `build_round_keystream`
recomputes its (R, G, B) byte planes on every call (a round is 3 * n**2
bytes); the cipher sorts their lines, composes each component's three rounds
into one schedule and keeps that instead, 21 bytes per pixel for the last
(keys, shifts, n).  `plane_bytes` builds a plane in row blocks, so a round
needs no n**2 float64 or int64 plane.
"""

from __future__ import annotations

import functools

import numpy as np

from .dct import dct1, energy_select
from .errors import DegenerateKeystreamError
from .lorenz import LorenzParams, SecretKey, Trajectory, derive_initial_conditions, integrate

# Fixed-point scale of the resized trajectory vectors, v -> rint(v * 2**S).
# The largest truncated values are near 5.4e3 (z), so the largest
# convolution, z*z at n=4096, stays below 2**49.
S = 6

# Cells per row block of `plane_bytes`: 128 KB of float64 products.
_BLOCK_CELLS = 1 << 14


def truncated_vectors(traj: Trajectory):
    """99.9%-energy DCT coefficients of x, y, z, in original index order.

    energy_select returns its selection in index order already, so each
    vector is its values as they come (read-only, like every SparseCoeffs
    array).
    """
    if len(traj) == 0:
        raise ValueError("trajectory is empty")
    return tuple(energy_select(dct1(arr)).values for arr in (traj.x, traj.y, traj.z))


def resize_linear(v, n: int) -> np.ndarray:
    """Resize a vector to length n by corner-aligned linear interpolation.

    Output i samples source coordinate i*(L-1)/(n-1), the per-axis rule of
    the paper's bilinear plane resize; n == 1 returns the first entry.
    Raises DegenerateKeystreamError on an empty vector.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise DegenerateKeystreamError("a trajectory vector has no retained coefficients")
    pos = (np.arange(n, dtype=np.float64) * (v.size - 1)) / max(n - 1, 1)
    lo = np.minimum(np.floor(pos).astype(np.int64), v.size - 1)
    hi = np.minimum(lo + 1, v.size - 1)
    frac = pos - lo
    return v[lo] * (1.0 - frac) + v[hi] * frac


def circular_conv(a, b) -> np.ndarray:
    """Exact wrap-around convolution of two equal-length integer vectors.

    c[k] = sum_p a[p] * b[(k - p) mod n], summed in int64.  Raises
    DegenerateKeystreamError unless n * max|a| * max|b| < 2**53, which
    bounds every partial sum, so the result is exact in int64 and exactly
    representable as float64.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    n = a.size
    if a.ndim != 1 or b.shape != a.shape or n == 0:
        raise ValueError("operands must be non-empty vectors of equal length")
    if n * int(np.max(np.abs(a))) * int(np.max(np.abs(b))) >= 2**53:
        raise DegenerateKeystreamError(f"convolution of length {n} could exceed 2**53")
    full = np.convolve(a, b)
    c = full[:n]
    c[: n - 1] += full[n:]
    return c


def plane_bytes(a, b) -> np.ndarray:
    """floor(|a_i| * (|b_j| * 2**-4S)) mod 256, as an (len(a), len(b)) uint8 matrix.

    a and b are exact convolutions, integers below 2**53 and hence exact
    doubles; scaling by a power of two is exact too, so each cell is one
    correctly rounded IEEE-754 product and the same on every platform.
    The products must stay below 2**63, where flooring them by an int64
    cast is defined; DegenerateKeystreamError otherwise.  A product at or
    above 2**53 is even, so its byte's low bit is 0 (two bits from 2**54).
    The largest product is near 2**46 at n=1024 and 2**49.5-2**49.9 at
    n=4096; above n=12288 it passes 2**53, and for keys key(A), key(B),
    key(C) and q7#Lm2 the worst plane of a round has 3.9-5.9e-5 of its cells
    so affected at n=16384, 1.7-2.1e-3 at n=32768 and 2.2-3.0e-2 at n=65536.
    """
    rows = np.abs(np.asarray(a, dtype=np.float64))
    cols = np.abs(np.asarray(b, dtype=np.float64)) * 2.0 ** (-4 * S)
    if np.max(rows) * np.max(cols) >= 2.0**63:
        raise DegenerateKeystreamError("keystream products exceed the int64 range")
    # Row blocks of about _BLOCK_CELLS products, so the float64 and int64
    # steps take 16 bytes per cell of a block, not of the plane; assigning
    # the int64 block keeps each value's low byte, as astype(np.uint8) does.
    out = np.empty((rows.size, cols.size), dtype=np.uint8)
    step = max(1, _BLOCK_CELLS // cols.size)
    for lo in range(0, rows.size, step):
        out[lo : lo + step] = np.multiply.outer(rows[lo : lo + step], cols).astype(np.int64)
    return out


@functools.lru_cache(maxsize=32)
def _key_vectors(key: SecretKey):
    # Truncated trajectory vectors of one key, read-only; they do not depend on n.
    return truncated_vectors(integrate(LorenzParams(), derive_initial_conditions(key)))


def build_round_keystream(key: SecretKey, n: int) -> tuple[np.ndarray, ...]:
    """Derive one round's three keystream planes from a secret key.

    Returns the R, G and B planes as a tuple of n x n uint8 arrays: the
    fixed cycle XY*XZ, XZ*YZ, YZ*XY in the factored form of the module
    docstring.  The trajectory vectors come from the per-key cache, so this
    only does the resize and the convolutions.
    """
    if n < 2:
        raise ValueError("keystream size must be >= 2")
    x, y, z = (np.rint(resize_linear(v, n) * 2.0**S).astype(np.int64) for v in _key_vectors(key))
    xx, xy, yz, zz = (circular_conv(a, b) for a, b in ((x, x), (x, y), (y, z), (z, z)))
    return plane_bytes(xx, yz), plane_bytes(xy, zz), plane_bytes(xy, yz)
