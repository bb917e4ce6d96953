"""Encryption and decryption pipelines.

Two payloads are produced per image.  The difference planes (original
component minus its truncated-DCT reconstruction, stored mod 256) run through
three sequential XOR / permute / rotate rounds keyed by three independent
keystreams.  The retained DCT coefficients travel separately, as a sparse
carrier: each coefficient's cell, row-rotated, is a flat position in the
n x n plane, and its signed base-10 log is added to the integer-valued sum
of the three keystream planes at that cell (the twin), from which the
receiver subtracts it back out exactly.  Cells without a coefficient would
hold the bare twin, which the receiver recomputes from the keys, so they are
not stored.  The difference plane is taken against the coefficients read
back out of the carrier, so encrypt and decrypt round one and the same
reconstruction.

Every pass of a round moves each byte to a fixed cell and XORs it with a
fixed keystream byte, so a component's three rounds compose into one
XOR-affine map, E(d) = d[perm] ^ mask over the flattened plane.  The cipher
runs only on that form: `_push_round` composes one round onto a map, a
`Schedule` holds a component's (perm, mask) with the carrier's twin sum,
and the schedules of the last (keys, shifts, n) are memoized, so a warm
encrypt or decrypt is one gather or one scatter per component.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dct import SparseCoeffs, dct2, energy_select, reconstruct_sparse
from .errors import DimensionMismatchError
from .keystream import build_round_keystream
from .lorenz import SecretKey, check_rotations

COMPONENT_NAMES = ("R", "G", "B")

DEFAULT_SHIFTS = (3, 7, 13)


def _check_shifts(shifts) -> tuple[int, int, int]:
    # Three integers (int or np.integer, not bool) in the container's u16 range.
    if len(shifts) != 3 or not all(
        isinstance(s, (int, np.integer)) and not isinstance(s, bool) and 0 <= s <= 0xFFFF
        for s in shifts
    ):
        raise ValueError("shift schedule must be three integers in [0, 65535]")
    return tuple(int(s) for s in shifts)


@dataclass(frozen=True)
class ImageRGB:
    """Three byte planes of equal shape (R, G, B)."""

    planes: tuple[np.ndarray, np.ndarray, np.ndarray]

    def __post_init__(self):
        shapes = {p.shape for p in self.planes}
        if len(self.planes) != 3 or len(shapes) != 1:
            raise ValueError("an image needs three equally shaped planes")
        for p in self.planes:
            if p.ndim != 2 or p.dtype != np.uint8:
                raise ValueError("planes must be 2-D uint8 matrices")
            p.setflags(write=False)

    @property
    def height(self) -> int:
        return self.planes[0].shape[0]

    @property
    def width(self) -> int:
        return self.planes[0].shape[1]

    @property
    def is_square(self) -> bool:
        return self.width == self.height


@dataclass(frozen=True)
class CipherBundle:
    """Everything the receiver needs besides the keys.

    dic holds the three encrypted difference planes (bytes).  The DCT
    coefficients of each component ride in a sparse carrier: positions, the
    strictly ascending flat cells of the row-rotated n x n plane that hold a
    coefficient, and carriers, the doubles twin + log10 at those cells.  The
    shift and rotation schedules ride along; decrypt reads them from here.
    Raises ValueError unless shifts are three integers in [0, 65535] and
    rotations three triples of ints in [0, 47] (InvalidKeyError), or when
    positions are not strictly ascending integers below n * n, and
    DimensionMismatchError when a plane or a carrier disagrees in shape.
    """

    n: int
    shifts: tuple[int, int, int]
    rotations: tuple[tuple[int, int, int], ...]
    dic: tuple[np.ndarray, np.ndarray, np.ndarray]
    positions: tuple[np.ndarray, np.ndarray, np.ndarray]
    carriers: tuple[np.ndarray, np.ndarray, np.ndarray]

    def __post_init__(self):
        if len(self.rotations) != 3:
            raise ValueError("a bundle needs three rotation triples, one per key")
        object.__setattr__(self, "shifts", _check_shifts(self.shifts))
        object.__setattr__(self, "rotations", tuple(map(check_rotations, self.rotations)))
        for p in self.dic:
            if p.shape != (self.n, self.n):
                raise DimensionMismatchError("bundle plane shape disagrees with header")
        for color, pos, carried in zip(COMPONENT_NAMES, self.positions, self.carriers):
            if pos.ndim != 1 or pos.shape != carried.shape:
                raise DimensionMismatchError(
                    f"carrier {color} needs one value per position, as 1-D arrays"
                )
            if not np.issubdtype(pos.dtype, np.integer):
                raise ValueError(f"carrier {color} positions must be integers")
            if pos.size and not (
                0 <= pos[0] and int(pos[-1]) < self.n * self.n and np.all(pos[1:] > pos[:-1])
            ):
                raise ValueError(
                    f"carrier {color} positions are not strictly ascending in "
                    f"[0, {self.n * self.n})"
                )
        for p in self.dic + self.positions + self.carriers:
            p.setflags(write=False)


def _reconstruct_u8(sparse: SparseCoeffs) -> np.ndarray:
    # Shared by encrypt and decrypt so both round the same values the same
    # way; non-finite cells (a wrong key can overflow 10**|log|) become 0.
    recon = reconstruct_sparse(sparse)
    recon[~np.isfinite(recon)] = 0.0
    return np.clip(np.rint(recon, out=recon), 0, 255, out=recon).astype(np.uint8)


def make_difference(component, sparse: SparseCoeffs):
    """Difference plane between a component and its sparse reconstruction.

    Returns (dic, recon_u8) with dic = component - recon_u8 in uint8, which
    wraps mod 256, so recon_u8 + dic (in uint8 too) recovers the component
    exactly.
    """
    component = np.asarray(component, dtype=np.uint8)
    recon_u8 = _reconstruct_u8(sparse)
    if recon_u8.shape != component.shape:
        raise DimensionMismatchError("sparse dims disagree with component shape")
    return component - recon_u8, recon_u8


def _identity(size: int):
    # The map d -> d: no move, no mask.
    return np.arange(size, dtype=np.uint32), np.zeros(size, dtype=np.uint8)


def line_orders(k):
    """The shuffle's sort orders of a keystream byte plane.

    Returns (row_orders, col_orders): row_orders[i] is the stable ascending
    argsort of row i, col_orders[j] that of column j (ties keep their
    order).  Both are uint16, which holds lines of up to 65536 cells; that
    bound also keeps a plane's flat indices below 2**32, the range of the
    uint32 perm that `_identity` starts and `_push_round` composes.  Raises
    ValueError for longer lines.
    """
    if max(k.shape) > 1 << 16:
        raise ValueError("lines longer than 65536 cells do not fit uint16 sort orders")
    return (
        np.argsort(k, axis=1, kind="stable").astype(np.uint16),
        np.argsort(k.T, axis=1, kind="stable").astype(np.uint16),
    )


def _push_round(perm, mask, k, shift: int):
    """Compose one round, keystream plane k, onto d -> d.ravel()[perm] ^ mask.

    A round is a horizontal then a vertical pass.  A pass XORs the data
    with the keystream bytes k, gathers each line through its sort order
    (`line_orders`), rotates data and keystream left by the shift and XORs
    the two: y[f] = x[g[f]] ^ k[g[f]] ^ k[r[f]], where r is the rotation
    alone and g the sort order read through it.  After (perm, mask) that
    gives (perm[g], (mask ^ k)[g] ^ k[r]).  perm is uint32, which halves
    the traffic of the gathers against intp; mask is uint8.  Returns new
    arrays.
    """
    h, w = k.shape
    row_orders, col_orders = line_orders(k)
    g = np.empty((h, w), dtype=np.intp)
    for vertical in (False, True):
        if vertical:
            # g[i, j] = col_orders[j, (i + s) % h] * w + j
            s = shift % h
            co = col_orders.T
            np.multiply(co[s:], w, out=g[: h - s], dtype=np.intp)
            np.multiply(co[:s], w, out=g[h - s :], dtype=np.intp)
            g += np.arange(w, dtype=np.intp)
        else:
            # g[i, j] = i * w + row_orders[i, (j + s) % w]
            s = shift % w
            row_starts = np.arange(0, h * w, w, dtype=np.intp)[:, None]
            np.add(row_orders[:, s:], row_starts, out=g[:, : w - s])
            np.add(row_orders[:, :s], row_starts, out=g[:, w - s :])
        flat = g.ravel()
        perm = perm[flat]
        mask = (mask ^ k.ravel())[flat]
        m = mask.reshape(h, w)
        if vertical:
            m[: h - s] ^= k[s:]
            m[h - s :] ^= k[:s]
        else:
            m[:, : w - s] ^= k[:, s:]
            m[:, w - s :] ^= k[:, :s]
    return perm, mask


def _gather(plane, perm, mask) -> np.ndarray:
    return (plane.ravel()[perm] ^ mask).reshape(plane.shape)


def _scatter(plane, perm, mask) -> np.ndarray:
    out = np.empty(plane.size, dtype=np.uint8)
    out[perm] = plane.ravel() ^ mask
    return out.reshape(plane.shape)


def log_forward(s: SparseCoeffs, n: int):
    """Carrier positions and signed log10 of each coefficient.

    Row i of the n x n plane is rolled left by i, so coefficient (i, j)
    sits at flat position i * n + (j - i) % n.  Returns (positions, logs):
    positions uint32 and strictly ascending, logs in the same order.
    """
    if s.dims != (n, n):
        raise DimensionMismatchError(f"sparse dims {s.dims} do not match ({n}, {n})")
    pos = s.rows * n + (s.cols - s.rows) % n
    order = np.argsort(pos)
    logs = np.sign(s.values) * np.log10(np.abs(s.values))
    return pos[order].astype(np.uint32), logs[order]


def log_inverse(positions, logs, n: int) -> SparseCoeffs:
    """Undo log_forward: roll each row right, then sign(v) * 10**|v|.

    Every log must be nonzero (a zero carries no coefficient).  Coefficients
    come back in position order, not sorted by magnitude: the reconstruction
    scatters them into zeros, where order does not matter.
    """
    i, j = np.divmod(np.asarray(positions, dtype=np.intp), n)
    with np.errstate(over="ignore"):
        values = np.sign(logs) * np.power(10.0, np.abs(logs))
    return SparseCoeffs((n, n), i, (i + j) % n, values, 1.0)


@dataclass(frozen=True)
class Schedule:
    """One component's three rounds: E(d) = d.ravel()[perm] ^ mask.

    perm (intp) and mask (uint8) are flat over the n x n plane, composed by
    `_push_round` from the component's keystream byte plane of each round;
    twin is the uint16 sum of those three planes, under the carrier.  The
    sum is at most 765 and a float64 operand promotes each cell to an exact
    small integer double, so (twin + s) - twin is exactly 0.0 wherever
    s == 0; carrier extraction depends on that.  A schedule holds 11 bytes
    per pixel.
    """

    perm: np.ndarray
    mask: np.ndarray
    twin: np.ndarray

    def __post_init__(self):
        for a in (self.perm, self.mask, self.twin):
            a.setflags(write=False)


@functools.lru_cache(maxsize=1)
def _schedules(keys: tuple[SecretKey, ...], shifts: tuple[int, ...], n: int):
    """The R, G and B schedules of one key triple, shift schedule and size.

    Memoized for the last (keys, shifts, n), 33 bytes per pixel (35 MB at
    n=1024): a decrypt after an encrypt, or a run of operations with one key
    triple at one size, builds no keystream.  The rounds are composed one
    at a time and dropped, so a miss never holds all three rounds (3 bytes
    per pixel each) nor an earlier schedule.
    """
    if len(keys) != 3:
        raise ValueError("exactly three secret keys are required")
    _schedules.cache_clear()  # free the previous schedules before building
    maps = [_identity(n * n) for _ in range(3)]
    twins = [np.zeros((n, n), dtype=np.uint16) for _ in range(3)]
    for key, shift in zip(keys, shifts):
        for comp, k in enumerate(build_round_keystream(key, n)):
            maps[comp] = _push_round(*maps[comp], k, shift)
            twins[comp] += k
    return tuple(
        Schedule(perm.astype(np.intp), mask, twin) for (perm, mask), twin in zip(maps, twins)
    )


def _carried_coeffs(positions, carried, twin) -> SparseCoeffs:
    # The coefficients a carrier holds, as decrypt reads them back.  Encrypt
    # takes its difference plane against these rather than the exact ones,
    # so both sides round one and the same reconstruction.  A cell whose
    # value is its bare twin (an exact zero log) carries no coefficient.
    logs = carried - twin.ravel()[positions]
    keep = logs != 0.0
    return log_inverse(positions[keep], logs[keep], twin.shape[0])


def encrypt_image(
    img: ImageRGB,
    keys: Sequence[SecretKey],
    shifts: Sequence[int] = DEFAULT_SHIFTS,
) -> CipherBundle:
    """Run the full three-round pipeline on a square image."""
    if not img.is_square:
        raise ValueError(
            f"only square images are supported, got {img.width}x{img.height}"
        )
    n = img.width
    if n < 2:
        raise ValueError("image must be at least 2x2")
    shifts = _check_shifts(shifts)

    dics, positions, carriers = [], [], []
    for plane, sched in zip(img.planes, _schedules(tuple(keys), shifts, n)):
        sparse = energy_select(dct2(plane.astype(np.float64)))
        pos, logs = log_forward(sparse, n)
        carried = sched.twin.ravel()[pos] + logs
        dic, _ = make_difference(plane, _carried_coeffs(pos, carried, sched.twin))
        dics.append(_gather(dic, sched.perm, sched.mask))
        positions.append(pos)
        carriers.append(carried)

    return CipherBundle(
        n=n,
        shifts=shifts,
        rotations=tuple(k.rotations for k in keys),
        dic=tuple(dics),
        positions=tuple(positions),
        carriers=tuple(carriers),
    )


def decrypt_image(bundle: CipherBundle, keys: Sequence[SecretKey]) -> ImageRGB:
    """Invert encrypt_image given the same keys, under the bundle's shifts.

    A wrong key produces garbage rather than an error: there is no
    authentication, so the pipeline sanitizes any overflowing coefficient
    reconstruction and always returns a valid image.
    """
    schedules = _schedules(tuple(keys), bundle.shifts, bundle.n)
    planes = []
    carriers = zip(bundle.positions, bundle.carriers)
    for dic, (pos, carried), sched in zip(bundle.dic, carriers, schedules):
        recon_u8 = _reconstruct_u8(_carried_coeffs(pos, carried, sched.twin))
        planes.append(recon_u8 + _scatter(dic, sched.perm, sched.mask))  # uint8 wraps mod 256

    return ImageRGB(tuple(planes))
