"""Bit-exact cipher container serialization.

Layout (all little-endian):

    magic    4 bytes  b"LDCT"
    version  u16      3
    width    u32
    height   u32
    rounds   u8       3
    flags    u8       0 (reserved)
    shifts   rounds x u16
    rots     rounds x 3 x u8
    counts   3 x u32  exception count k of each carrier plane, R G B
    dic      3 planes of width*height raw bytes, row-major, R G B
    cells    3 planes of width*height u16, row-major, R G B
    values   k_R + k_G + k_B float64, each plane's exceptions in row-major order
    crc      u32      CRC-32 (ISO-HDLC) over every preceding byte

A carrier cell is stored as its u16 value when the double is bit-exactly an
integer in [0, 65534] (sign bit clear, so -0.0 does not qualify); every
other cell (non-integers, larger or negative values, -0.0, NaN, inf) holds
the sentinel 0xFFFF and its raw double follows in `values`.  Cells without a
retained coefficient carry the keystream twin sum, an integer in [0, 765],
so a 1024 x 1024 plane of a natural image has a few hundred exceptions.  The
decoded planes are bit-identical to the encoded ones.

Version 3 has version 2's layout; only the keystream under it changed (the
exact 1-D keystream).  A version 2 file would decrypt to garbage without an
error, so it is refused like any other version.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .cipher import CipherBundle
from .errors import FormatError
from .lorenz import _KEY_BITS

MAGIC = b"LDCT"
VERSION = 3
ROUNDS = 3
SENTINEL = 0xFFFF

_FIXED = struct.Struct("<4sHIIBB")
_COUNTS = struct.Struct("<3I")
_HEAD_LEN = _FIXED.size + 2 * ROUNDS + 3 * ROUNDS + _COUNTS.size


def header_bytes(bundle: CipherBundle) -> bytes:
    head = _FIXED.pack(MAGIC, VERSION, bundle.n, bundle.n, ROUNDS, 0)
    head += struct.pack(f"<{ROUNDS}H", *bundle.shifts)
    for rot in bundle.rotations:
        head += struct.pack("<3B", *rot)
    return head


def _encode_carrier(plane):
    """Split a float64 plane into (u16 cells, float64 exceptions)."""
    plane = np.ascontiguousarray(plane, dtype=np.float64)
    # NaN fails every comparison, so it never counts as a cell
    exact = (plane >= 0.0) & (plane < SENTINEL) & (np.floor(plane) == plane)
    exact &= ~np.signbit(plane)
    cells = np.where(exact, plane, SENTINEL).astype("<u2")
    return cells, plane[~exact].astype("<f8")


def _decode_carrier(cells, values):
    """Inverse of _encode_carrier; values must match the sentinel cells."""
    plane = cells.astype(np.float64)
    plane[cells == SENTINEL] = values
    return plane


def write_bundle(path, bundle: CipherBundle):
    """Serialize a bundle; identical bundles produce identical files."""
    encoded = [_encode_carrier(plane) for plane in bundle.carriers]
    parts = [
        header_bytes(bundle),
        _COUNTS.pack(*(values.size for _, values in encoded)),
        *(np.ascontiguousarray(plane, dtype=np.uint8) for plane in bundle.dic),
        *(cells for cells, _ in encoded),
        *(values for _, values in encoded),
    ]
    crc = 0
    with open(path, "wb") as f:
        for part in parts:
            crc = zlib.crc32(part, crc)
            f.write(part)
        f.write(struct.pack("<I", crc & 0xFFFFFFFF))


def read_bundle(path) -> CipherBundle:
    """Parse and validate a bundle file; exact inverse of write_bundle.

    The size is checked against the header and the exception counts, then
    the CRC, then the key rotations, then each plane's sentinel count
    against its exception count, before any plane is decoded.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < _HEAD_LEN + 4:
        raise FormatError("container too short for a header")

    magic, version, width, height, rounds, flags = _FIXED.unpack_from(blob, 0)
    if magic != MAGIC:
        raise FormatError(f"bad container magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"unsupported container version {version}")
    if rounds != ROUNDS:
        raise FormatError(f"unsupported round count {rounds}")
    if flags != 0:
        raise FormatError(f"reserved flags byte is nonzero ({flags})")
    if width != height:
        raise FormatError(f"container image must be square, got {width}x{height}")

    n_px = width * height
    counts = _COUNTS.unpack_from(blob, _HEAD_LEN - _COUNTS.size)
    for k in counts:
        if k > n_px:
            raise FormatError(f"exception count {k} exceeds the {n_px} cells of a plane")
    expected = _HEAD_LEN + 3 * n_px + 3 * 2 * n_px + 8 * sum(counts) + 4
    if len(blob) != expected:
        raise FormatError(
            f"container size {len(blob)} does not match header (expected {expected})"
        )

    crc_stored = struct.unpack_from("<I", blob, len(blob) - 4)[0]
    crc_actual = zlib.crc32(memoryview(blob)[:-4]) & 0xFFFFFFFF
    if crc_stored != crc_actual:
        raise FormatError(
            f"CRC mismatch: stored {crc_stored:#010x}, computed {crc_actual:#010x}"
        )

    off = _FIXED.size
    shifts = struct.unpack_from(f"<{ROUNDS}H", blob, off)
    off += 2 * ROUNDS
    rotations = []
    for _ in range(ROUNDS):
        rotations.append(struct.unpack_from("<3B", blob, off))
        off += 3
    top = max(r for rot in rotations for r in rot)
    if top >= _KEY_BITS:
        raise FormatError(f"key rotation {top} outside [0, {_KEY_BITS - 1}]")
    off += _COUNTS.size

    dic = []
    for _ in range(3):
        plane = np.frombuffer(blob, dtype=np.uint8, count=n_px, offset=off)
        dic.append(plane.reshape(height, width).copy())
        off += n_px
    cells = []
    for color, k in zip("RGB", counts):
        plane = np.frombuffer(blob, dtype="<u2", count=n_px, offset=off)
        sentinels = int(np.count_nonzero(plane == SENTINEL))
        if sentinels != k:
            raise FormatError(
                f"carrier plane {color} has {sentinels} exception cells, header says {k}"
            )
        cells.append(plane)
        off += 2 * n_px
    carriers = []
    for plane, k in zip(cells, counts):
        values = np.frombuffer(blob, dtype="<f8", count=k, offset=off)
        carriers.append(_decode_carrier(plane, values).reshape(height, width))
        off += 8 * k

    return CipherBundle(
        n=width,
        shifts=shifts,
        rotations=tuple(rotations),
        dic=tuple(dic),
        carriers=tuple(carriers),
    )
