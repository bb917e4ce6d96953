"""Bit-exact cipher container serialization.

Layout (all little-endian):

    magic      4 bytes  b"LDCT"
    version    u16      7
    width      u32
    height     u32
    rounds     u8       3
    flags      u8       0 (reserved)
    shifts     rounds x u16
    rots       rounds x 3 x u8
    counts     3 x u32  retained cell count k of each carrier, R G B
    escapes    3 x u32  escaped gap count e of each carrier, R G B
    dic        3 planes of width*height raw bytes, row-major, R G B
    gaps       k_R + k_G + k_B u8, each carrier's position gaps
    escaped    e_R + e_G + e_B u32, each carrier's gaps of 255 or more, in order
    values     k_R + k_G + k_B u16, each carrier's twin and log residue at its cells
    crc        u32      CRC-32 (ISO-HDLC) over every preceding byte

so a file is 55 + 3 n**2 + 3 (k_R + k_G + k_B) + 4 (e_R + e_G + e_B) + 4
bytes, known from the header before anything is decoded.

A carrier stores only the cells that hold a DCT coefficient; every other
cell is the keystream twin sum, which the receiver recomputes from the keys.
A 1024 x 1024 natural image keeps a few hundred cells per carrier, so the
file is about the size of the image; a two-level document keeps over 100k.

A carrier's flat cells are strictly ascending, so they are written as gaps:
the first gap is the first cell (it may be 0), each later one the distance
from the cell before (at least 1).  A gap below 255 is its own byte; a
larger one is the byte 0xFF and its value in the carrier's escape list.  A
document's cells are mostly 1 to 4 apart, and a natural carrier's few
hundred cells cluster at low frequencies, so the positions cost about 1.02
and 1.3-1.4 bytes per cell, where a bitmap would cost n**2 / 8 bytes for
either: one code serves both.  The cipher's sizes stop at n = 65536, so
every gap fits u32.  One bundle has exactly one file: read_bundle refuses a
carrier whose 0xFF bytes and escape count disagree, an escaped gap below
255 and one of n**2 or more.

Each value is the u16 (twin * 2**12 + rint(log * 2**12)) mod 2**16 that
encrypt rounds the coefficient's signed log10 to, once, before it takes the
difference plane (`cipher.log_forward`), so the plane absorbs what the
2**-12 grid drops.  The receiver knows the twin, so the residue gives the
log back exactly; only the twin's low 4 bits enter a value, which shows the
fraction of its log to 12 bits.  Any u16 decodes to a log below 8 in
magnitude, so a value read from a file is always a finite coefficient.

Every other version is refused: versions 1 to 3 stored each carrier cell,
version 4 each position as a u32, version 5 each value as a float64 and
version 6 each as a float32 twin + log.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .cipher import COMPONENT_NAMES, ROUNDS, CipherBundle, check_size
from .errors import FormatError
from .lorenz import check_rotations

MAGIC = b"LDCT"
VERSION = 7
ESCAPE = 0xFF

_FIXED = struct.Struct("<4sHIIBB")
_SCHEDULE = struct.Struct(f"<{ROUNDS}H{3 * ROUNDS}B")  # the shifts, then each key's rotations
_COUNTS = struct.Struct("<6I")  # the position counts, then the escape counts
_HEAD_LEN = _FIXED.size + _SCHEDULE.size + _COUNTS.size


def encode_positions(positions) -> tuple[np.ndarray, np.ndarray]:
    """One carrier's strictly ascending cells as (gap bytes, escaped gaps).

    The gap bytes are u8, one per cell, ESCAPE where the gap is 255 or more;
    the escaped gaps are those gaps as "<u4", in order.
    """
    gaps = np.diff(np.asarray(positions, dtype=np.int64), prepend=0)
    escaped = gaps >= ESCAPE
    return np.minimum(gaps, ESCAPE).astype(np.uint8), gaps[escaped].astype("<u4")


def decode_positions(gaps, escaped, n_px: int, color: str) -> np.ndarray:
    """Inverse of encode_positions for a plane of n_px cells: uint32 cells.

    Raises FormatError unless the stream is the one encode_positions writes
    for some cells below n_px: one escaped gap per ESCAPE byte, each in
    [255, n_px), and a last cell below n_px.  A zero gap after the first
    decodes to a repeated cell, which CipherBundle refuses.
    """
    at = gaps == ESCAPE
    found = int(np.count_nonzero(at))
    if found != escaped.size:
        raise FormatError(
            f"carrier {color} has {found} escape bytes but {escaped.size} escaped gaps"
        )
    if escaped.size and not (escaped.min() >= ESCAPE and escaped.max() < n_px):
        raise FormatError(f"carrier {color} escaped gaps are not all in [{ESCAPE}, {n_px})")
    cells = gaps.astype(np.uint32)
    cells[at] = escaped
    # every gap is below max(255, n_px) <= 2**32 and there are at most
    # n_px <= 2**32 of them, so their uint64 sum cannot wrap; once it is
    # below n_px, neither can the uint32 cumsum
    if int(cells.sum(dtype=np.uint64)) >= n_px:
        raise FormatError(f"carrier {color} positions run past the {n_px} cells of a plane")
    return np.cumsum(cells, out=cells)


def write_bundle(path, bundle: CipherBundle):
    """Serialize a bundle; identical bundles produce identical files."""
    coded = [encode_positions(pos) for pos in bundle.positions]
    parts = [
        _FIXED.pack(MAGIC, VERSION, bundle.n, bundle.n, ROUNDS, 0),
        _SCHEDULE.pack(*bundle.shifts, *(r for rot in bundle.rotations for r in rot)),
        _COUNTS.pack(*(pos.size for pos in bundle.positions), *(e.size for _, e in coded)),
        *(np.ascontiguousarray(plane, dtype=np.uint8) for plane in bundle.dic),
        *(gaps for gaps, _ in coded),
        *(escaped for _, escaped in coded),
        *(np.ascontiguousarray(values, dtype="<u2") for values in bundle.carriers),
    ]
    crc = 0
    with open(path, "wb") as f:
        for part in parts:
            crc = zlib.crc32(part, crc)
            f.write(part)
        f.write(struct.pack("<I", crc & 0xFFFFFFFF))


def _parse_header(head, size: int):
    # (n, shifts, rotations, counts, escapes) of a container of size bytes
    # from its first _HEAD_LEN bytes: the header's own checks and the size
    # it fixes, so a file cut short or padded costs nothing more to refuse
    if size < _HEAD_LEN + 4:
        raise FormatError("container too short for a header")

    magic, version, width, height, rounds, flags = _FIXED.unpack_from(head, 0)
    if magic != MAGIC:
        raise FormatError(f"bad container magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"unsupported container version {version}")
    if rounds != ROUNDS:
        raise FormatError(f"unsupported round count {rounds}")
    if flags != 0:
        raise FormatError(f"reserved flags byte is nonzero ({flags})")
    n = check_size(width, height)

    all_counts = _COUNTS.unpack_from(head, _HEAD_LEN - _COUNTS.size)
    counts, escapes = all_counts[:3], all_counts[3:]
    for k in counts:
        if k > n * n:
            raise FormatError(f"position count {k} exceeds the {n * n} cells of a plane")
    expected = _HEAD_LEN + 3 * n * n + 3 * sum(counts) + 4 * sum(escapes) + 4
    if size != expected:
        raise FormatError(f"container size {size} does not match header (expected {expected})")
    schedule = _SCHEDULE.unpack_from(head, _FIXED.size)
    rotations = tuple(schedule[i : i + 3] for i in range(ROUNDS, 4 * ROUNDS, 3))
    return n, schedule[:ROUNDS], rotations, counts, escapes


def read_header(path):
    """A container's (n, shifts, rotations), read from its header and its
    size alone and checked as read_bundle checks them, the rotations by
    the keys' rule (`check_rotations`).  Decrypt builds its schedule from
    these before it holds the body.  Every failure raises FormatError.
    """
    with open(path, "rb") as f:
        head, size = f.read(_HEAD_LEN), f.seek(0, 2)  # the header, the file's length
    try:
        n, shifts, rotations = _parse_header(head, size)[:3]
        return n, shifts, tuple(map(check_rotations, rotations))
    except ValueError as exc:  # FormatError and InvalidKeyError included
        raise FormatError(str(exc)) from None


def read_bundle(path) -> CipherBundle:
    """Parse and validate a bundle file; exact inverse of write_bundle.

    The header is checked first (magic, version, rounds, flags, and the
    cipher's size rule, `check_size`), then the size against the header and
    the counts, then the CRC, then each carrier's position stream
    (decode_positions).  `CipherBundle` then checks the key rotations (each
    below 48) and each carrier's positions (strictly ascending, below
    n * n).  Every failure raises FormatError.
    """
    with open(path, "rb") as f:
        blob = f.read()
    try:
        n, shifts, rotations, counts, escapes = _parse_header(blob, len(blob))
        crc_stored = struct.unpack_from("<I", blob, len(blob) - 4)[0]
        crc_actual = zlib.crc32(memoryview(blob)[:-4]) & 0xFFFFFFFF
        if crc_stored != crc_actual:
            raise FormatError(
                f"CRC mismatch: stored {crc_stored:#010x}, computed {crc_actual:#010x}"
            )

        off = _HEAD_LEN

        def take(dtype, count):
            nonlocal off
            a = np.frombuffer(blob, dtype=dtype, count=count, offset=off)
            off += a.nbytes
            return a.astype(dtype.lstrip("<"))  # native byte order, aligned, a copy

        dic = tuple(take("<u1", n * n).reshape(n, n) for _ in range(3))
        gaps = tuple(take("<u1", k) for k in counts)
        escaped = tuple(take("<u4", e) for e in escapes)
        carriers = tuple(take("<u2", k) for k in counts)
        positions = tuple(
            decode_positions(g, e, n * n, color)
            for g, e, color in zip(gaps, escaped, COMPONENT_NAMES)
        )
        return CipherBundle(
            n=n,
            shifts=shifts,
            rotations=rotations,
            dic=dic,
            positions=positions,
            carriers=carriers,
        )
    except ValueError as exc:  # FormatError included: one type for every failure
        raise FormatError(str(exc)) from None
