"""Encryption and decryption pipelines.

Two payloads are produced per image.  The difference planes (original
component minus its truncated-DCT reconstruction, stored mod 256) run through
three sequential XOR / permute / rotate rounds keyed by three independent
keystreams.  The retained DCT coefficients travel separately, as a sparse
carrier: each coefficient's cell, row-rotated, is a flat position in the
n x n plane, and its signed base-10 log, rounded once to the 2**-12 grid,
is stored as a 16-bit residue, (twin * 2**12 + rint(log * 2**12)) mod
2**16, of the integer-valued sum of the three keystream planes at that cell
(the twin); the receiver subtracts the twin back out.  Cells without a
coefficient would hold the bare twin, which the receiver recomputes from the
keys, so they are not stored.  The difference plane is taken against the
coefficients read back out of the carrier, so encrypt and decrypt round one
and the same reconstruction, and the difference plane absorbs whatever the
fixed-point rounding drops.  One encoder, `log_forward`, builds the carrier
that encrypt stores, and one decoder, `_decode`, serves both encrypt and
decrypt: it reads a carrier chunk by chunk straight into the n x n plane
that the inverse DCT then transforms in place.

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

from .dct import SparseCoeffs, _idct2_leading, dct2, energy_select
from .errors import DimensionMismatchError, InvalidKeyError
from .keystream import build_round_keystream
from .lorenz import SecretKey, check_rotations, is_int_in

COMPONENT_NAMES = ("R", "G", "B")

DEFAULT_SHIFTS = (3, 7, 13)

# The largest side n: a line fits uint16 sort orders (`line_orders`) and a
# plane's flat cells fit the uint32 perm and container positions.
MAX_SIZE = 1 << 16

# The rounds of the shuffle: one key, one shift and one rotation triple each.
ROUNDS = 3

# A carrier value is the u16 residue (twin * 2**LOG_BITS + rint(log *
# 2**LOG_BITS)) mod 2**16.  A byte plane's orthonormal DCT-II has |F| <=
# 510 * n, so at MAX_SIZE |log| <= log10(510 * 2**16) = 7.52 and
# |rint(log * 2**12)| <= 30,819 < 2**15: the residue is unambiguous for
# every size the cipher takes, and 2**12 is the finest scale that fits.
LOG_BITS = 12


def check_size(width, height) -> int:
    """The side n of a width x height image the cipher takes, as an int.

    The one size rule of encrypt, `CipherBundle`, the container reader and
    the CLI: raises ValueError unless the image is square and n is an
    integer (`is_int_in`) from 2 to MAX_SIZE.
    """
    if not is_int_in(width, 2, MAX_SIZE) or width != height:
        raise ValueError(
            f"image must be square, from 2x2 to {MAX_SIZE}x{MAX_SIZE}, got {width}x{height}"
        )
    return int(width)


def _check_shifts(shifts) -> tuple[int, int, int]:
    # One integer (`is_int_in`) per round in the container's u16 range, as
    # Python ints.
    if len(shifts) != ROUNDS or not all(is_int_in(s, 0, 0xFFFF) for s in shifts):
        raise InvalidKeyError("shift schedule must be three integers in [0, 65535]")
    return tuple(int(s) for s in shifts)


def _key_rotations(keys) -> tuple[tuple[int, int, int], ...]:
    # The rotation triples of one key per round, the rule of both encrypt
    # and decrypt, checked before any keystream is built.
    if len(keys) != ROUNDS:
        raise InvalidKeyError("exactly three secret keys are required")
    return tuple(k.rotations for k in keys)


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


@dataclass(frozen=True)
class CipherBundle:
    """Everything the receiver needs besides the keys.

    dic holds the three encrypted difference planes (bytes).  The DCT
    coefficients of each component ride in a sparse carrier: positions, the
    strictly ascending flat cells of the row-rotated n x n plane that hold a
    coefficient, and carriers, the uint16 residues of twin and fixed-point
    log10 at those cells (`log_forward`).  The shift and rotation schedules
    ride along; decrypt reads them from here.  n is checked first, by the
    size rule (`check_size`), and held as an int.  Raises ValueError for a
    size outside that rule, InvalidKeyError unless shifts are three
    integers in [0, 65535] and each rotation triple three ints in [0, 47],
    ValueError unless there are three each of rotation triples, dic,
    positions and carriers, positions are strictly ascending integers below
    n * n and carriers are uint16 and dic planes uint8, and
    DimensionMismatchError when a plane or a carrier disagrees in shape.
    """

    n: int
    shifts: tuple[int, int, int]
    rotations: tuple[tuple[int, int, int], ...]
    dic: tuple[np.ndarray, np.ndarray, np.ndarray]
    positions: tuple[np.ndarray, np.ndarray, np.ndarray]
    carriers: tuple[np.ndarray, np.ndarray, np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "n", check_size(self.n, self.n))
        if {len(self.rotations), len(self.dic), len(self.positions), len(self.carriers)} != {3}:
            raise ValueError("a bundle needs three each of rotations, dic, positions and carriers")
        object.__setattr__(self, "shifts", _check_shifts(self.shifts))
        object.__setattr__(self, "rotations", tuple(map(check_rotations, self.rotations)))
        for p in self.dic:
            if p.shape != (self.n, self.n):
                raise DimensionMismatchError("bundle plane shape disagrees with header")
            if p.dtype != np.uint8:
                raise ValueError(f"dic planes must be uint8, not {p.dtype}")
        for color, pos, carried in zip(COMPONENT_NAMES, self.positions, self.carriers):
            if pos.ndim != 1 or pos.shape != carried.shape:
                raise DimensionMismatchError(
                    f"carrier {color} needs one value per position, as 1-D arrays"
                )
            if not np.issubdtype(pos.dtype, np.integer):
                raise ValueError(f"carrier {color} positions must be integers")
            if carried.dtype != np.uint16:
                raise ValueError(f"carrier {color} values must be uint16, not {carried.dtype}")
            if pos.size and not (
                0 <= pos[0] and int(pos[-1]) < self.n * self.n and np.all(pos[1:] > pos[:-1])
            ):
                raise ValueError(
                    f"carrier {color} positions are not strictly ascending in "
                    f"[0, {self.n * self.n})"
                )
        for p in self.dic + self.positions + self.carriers:
            p.setflags(write=False)


def _identity(size: int):
    # The map d -> d: no move, no mask.
    return np.arange(size, dtype=np.uint32), np.zeros(size, dtype=np.uint8)


def line_orders(k):
    """The shuffle's sort orders of a keystream byte plane.

    Returns (row_orders, col_orders): row_orders[i] is the stable ascending
    argsort of row i, col_orders[j] that of column j (ties keep their
    order).  Both are uint16, which holds lines of up to MAX_SIZE cells; that
    bound also keeps a plane's flat indices below 2**32, the range of the
    uint32 perm that `_identity` starts and `_push_round` composes.  Raises
    ValueError for longer lines.
    """
    if max(k.shape) > MAX_SIZE:
        raise ValueError(f"lines longer than {MAX_SIZE} cells do not fit uint16 sort orders")
    return (
        np.argsort(k, axis=1, kind="stable").astype(np.uint16),
        np.argsort(k.T, axis=1, kind="stable").astype(np.uint16),
    )


def _push_round(perm, mask, k, shift: int):
    """Compose one round, keystream plane k, onto d -> d.ravel()[perm] ^ mask.

    A round is a horizontal then a vertical pass, and one loop body runs
    both, each along its axis.  A pass XORs the data with the keystream
    bytes k, gathers each line through its sort order (`line_orders`),
    rotates data and keystream left by the shift and XORs the two: y[f] =
    x[g[f]] ^ k[g[f]] ^ k[r[f]], where r is the rotation alone and g the
    sort order read through it.  After (perm, mask) that gives (perm[g],
    (mask ^ k)[g] ^ k[r]).  Both rotations are `np.roll` along the axis:
    of the line orders, which become g's flat cells (times the stride along
    the line, plus each line's first cell), and of k, which is k[r].  perm
    and g are uint32, half the bytes of intp, and each gather widens them
    in runs (`_take`); mask is uint8.  Returns new arrays, the perm the
    schedule keeps as it is.
    """
    h, w = k.shape
    row_orders, col_orders = line_orders(k)
    g = np.empty((h, w), dtype=np.uint32)
    for axis, orders, step, starts in (
        (1, row_orders, 1, np.arange(0, h * w, w, dtype=np.uint32)[:, None]),
        (0, col_orders.T, w, np.arange(w, dtype=np.uint32)),
    ):
        np.multiply(np.roll(orders, -shift, axis), step, out=g, dtype=np.uint32)
        g += starts
        perm = _take(perm, g.ravel())
        mask = _take(mask ^ k.ravel(), g.ravel())
        mask ^= np.roll(k, -shift, axis).ravel()
    return perm, mask


# uint32 indices (a schedule's perm, `_push_round`'s g) are widened to the
# intp that numpy indexes by in runs of this many, 128 KB of intp, rather
# than in one n**2 copy; `_carried_plane` reads a carrier in runs of this
# many cells too.
_CHUNK = 1 << 14


def _take(src, idx) -> np.ndarray:
    # src[idx] for a permutation idx of src's cells, so mode="clip" clips no
    # index; it lets take write each run straight into out.
    out = np.empty(idx.size, dtype=src.dtype)
    for lo in range(0, idx.size, _CHUNK):
        np.take(src, idx[lo : lo + _CHUNK], out=out[lo : lo + _CHUNK], mode="clip")
    return out


def _gather(plane, perm, mask) -> np.ndarray:
    out = _take(plane.ravel(), perm)
    out ^= mask
    return out.reshape(plane.shape)


def _scatter(plane, perm, mask) -> np.ndarray:
    src, out = plane.ravel() ^ mask, np.empty(perm.size, dtype=np.uint8)
    for lo in range(0, perm.size, _CHUNK):
        out[perm[lo : lo + _CHUNK].astype(np.intp)] = src[lo : lo + _CHUNK]
    return out.reshape(plane.shape)


def log_forward(s: SparseCoeffs, twin):
    """The carrier encrypt stores for a selection under a schedule's twin
    plane, which `_carried_plane` reads back.

    Row i of the n x n plane is rolled left by i, so coefficient (i, j)
    sits at flat position i * n + (j - i) % n.  Returns (positions,
    carried): positions uint32 and strictly ascending, carried the uint16
    values (twin * 2**12 + rint(sign(v) * log10|v| * 2**12)) mod 2**16,
    each log rounded once.  A value whose log rounds to 0, |v| below
    10**(2**-13) (about 1.00028), is dropped: the decoder reads a bare twin
    as an empty cell.  Only twin mod 16 enters a value, so a value shows
    the fraction of its log to 12 bits and hides its integer part behind
    the twin's low 4 bits.  The positions are unique, so any sort gives the
    same order; on energy_select's row-major output each rolled row is two
    ascending runs (the columns j < i, then j >= i), which the stable sort
    merges as runs.
    """
    n = twin.shape[0]
    # in place where it can be: a noise-like plane keeps 80% of its cells,
    # so each per-cell temporary is most of a plane
    pos = (s.cols - s.rows) % n
    pos += s.rows * n
    order = np.argsort(pos, kind="stable")
    logs = np.log10(np.abs(s.values))
    np.copysign(logs, s.values, out=logs)
    logs *= 1 << LOG_BITS
    # |rint(log * 2**12)| < 2**15 (LOG_BITS), so int16 holds it and its
    # uint16 view is its residue mod 2**16
    fixed = np.rint(logs, out=logs).astype(np.int16)
    order = order[fixed[order] != 0]
    pos = pos[order].astype(np.uint32)
    carried = twin.ravel()[pos] << LOG_BITS  # uint16: wraps mod 2**16
    carried += fixed[order].view(np.uint16)
    return pos, carried


@dataclass(frozen=True)
class Schedule:
    """One component's three rounds: E(d) = d.ravel()[perm] ^ mask.

    perm (uint32) and mask (uint8) are flat over the n x n plane, composed
    by `_push_round` from the component's keystream byte plane of each
    round; twin is the uint16 sum of those three planes, under the carrier.
    The sum is at most 765; a carrier value equals twin * 2**12 mod 2**16
    only where it holds no log.  A schedule holds 7 bytes per pixel.
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

    Memoized for the last (keys, shifts, n), 21 bytes per pixel (22 MB at
    n=1024): a decrypt after an encrypt, or a run of operations with one key
    triple at one size, builds no keystream.  The rounds are composed one
    at a time and dropped, so a miss never holds all three rounds (3 bytes
    per pixel each) nor an earlier schedule; a miss peaks near 41 bytes
    per pixel while it composes.
    """
    _schedules.cache_clear()  # free the previous schedules before building
    maps = [_identity(n * n) for _ in range(3)]
    twins = [np.zeros((n, n), dtype=np.uint16) for _ in range(3)]
    for key, shift in zip(keys, shifts):
        for comp, k in enumerate(build_round_keystream(key, n)):
            maps[comp] = _push_round(*maps[comp], k, shift)
            twins[comp] += k
    return tuple(Schedule(perm, mask, twin) for (perm, mask), twin in zip(maps, twins))


def _carried_plane(positions, carried, twin):
    """The coefficients a carrier holds, scattered into an n x n float64
    plane, and one past the largest column that holds one (at least 1).

    The carrier is read _CHUNK cells at a time.  Each log is the residue
    carried - twin * 2**12 in uint16, read as int16, so in [-2**15, 2**15),
    times 2**-12: exact, and |log| < 8 for any u16 value, so nothing
    overflows and every coefficient is finite.  The cell's row roll is undone
    and sign(log) * 10**|log| written in place, so a cell that holds its
    bare twin (a log of 0, whose sign is 0) stays empty; encrypt never
    stores one.  The largest column is taken over every chunk, for the
    column pass of `_idct2_leading`.
    """
    n = twin.shape[0]
    plane, m = np.zeros((n, n)), 1
    twin = twin.ravel()
    for lo in range(0, positions.size, _CHUNK):
        pos = positions[lo : lo + _CHUNK]
        residue = carried[lo : lo + _CHUNK] - (twin[pos] << LOG_BITS)  # uint16 wraps
        logs = residue.view(np.int16) * 2.0**-LOG_BITS
        values = np.sign(logs) * np.power(10.0, np.abs(logs))
        i, j = np.divmod(pos.astype(np.intp), n)
        j = (i + j) % n
        plane[i, j] = values
        m = max(m, int(j.max()) + 1)
    return plane, m


def _decode(positions, carried, twin) -> np.ndarray:
    # The uint8 reconstruction of a carrier.  Encrypt takes its difference
    # plane against it and decrypt adds the difference plane back, so both
    # round one and the same values the same way.
    recon = _idct2_leading(*_carried_plane(positions, carried, twin))
    return np.clip(np.rint(recon, out=recon), 0, 255, out=recon).astype(np.uint8)


def encrypt_image(
    img: ImageRGB,
    keys: Sequence[SecretKey],
    shifts: Sequence[int] = DEFAULT_SHIFTS,
) -> CipherBundle:
    """Run the full three-round pipeline on an image the size rule
    (`check_size`) takes.  Before any keystream is built, raises
    InvalidKeyError unless there are three keys and three valid shifts,
    and ValueError for any other image shape."""
    rotations = _key_rotations(keys)
    n = check_size(img.width, img.height)
    shifts = _check_shifts(shifts)

    schedules = _schedules(tuple(keys), shifts, n)
    dics, positions, carriers = zip(*map(_encrypt_component, img.planes, schedules))
    return CipherBundle(
        n=n,
        shifts=shifts,
        rotations=rotations,
        dic=dics,
        positions=positions,
        carriers=carriers,
    )


def _encrypt_component(plane, sched: Schedule):
    # One component's (encrypted difference plane, positions, carrier
    # values).  Its temporaries are freed on return, before the next
    # component's transform.  The coefficients (dct2's float64 copy of the
    # plane, 8 bytes per pixel) are dropped as soon as energy_select, which
    # works in one scratch plane of the same size, has made its selection.
    pos, carried = log_forward(energy_select(dct2(plane)), sched.twin)
    dic = plane - _decode(pos, carried, sched.twin)  # uint8 wraps mod 256
    return _gather(dic, sched.perm, sched.mask), pos, carried


def decrypt_image(bundle: CipherBundle, keys: Sequence[SecretKey]) -> ImageRGB:
    """Invert encrypt_image given the same keys, under the bundle's shifts.

    Raises InvalidKeyError, before any keystream is built, unless there are
    three keys and their rotations are the ones the bundle records; those
    sit in the container in the clear.  A wrong key string produces garbage
    rather than an error: there is no authentication, and every carrier
    value decodes to a finite coefficient, so the pipeline always returns a
    valid image.
    """
    if _key_rotations(keys) != bundle.rotations:
        raise InvalidKeyError("the keys' rotations differ from the bundle's")
    schedules = _schedules(tuple(keys), bundle.shifts, bundle.n)
    parts = zip(bundle.dic, bundle.positions, bundle.carriers, schedules)
    # the uint8 sum wraps mod 256
    return ImageRGB(
        tuple(_decode(p, c, s.twin) + _scatter(d, s.perm, s.mask) for d, p, c, s in parts)
    )
