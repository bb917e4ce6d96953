"""Bit-exact cipher container serialization.

Layout (all little-endian):

    magic      4 bytes  b"LDCT"
    version    u16      4
    width      u32
    height     u32
    rounds     u8       3
    flags      u8       0 (reserved)
    shifts     rounds x u16
    rots       rounds x 3 x u8
    counts     3 x u32  retained cell count k of each carrier, R G B
    dic        3 planes of width*height raw bytes, row-major, R G B
    positions  k_R + k_G + k_B u32, each carrier's flat cells, strictly ascending
    values     k_R + k_G + k_B float64, each carrier's twin + log at those cells
    crc        u32      CRC-32 (ISO-HDLC) over every preceding byte

A carrier stores only the cells that hold a DCT coefficient; every other
cell is the keystream twin sum, which the receiver recomputes from the keys.
A 1024 x 1024 natural image keeps a few hundred cells per carrier, so the
file is about the size of the image; a two-level document keeps over 100k.
Positions stay below 2**32 because the cipher's sizes stop at n = 65536.
The values are raw doubles, so the decoded bundle is bit-identical to the
encoded one.

Every other version is refused: versions 1 to 3 stored each carrier cell.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .cipher import CipherBundle
from .errors import FormatError

MAGIC = b"LDCT"
VERSION = 4
ROUNDS = 3

_FIXED = struct.Struct("<4sHIIBB")
_SCHEDULE = struct.Struct(f"<{ROUNDS}H{3 * ROUNDS}B")  # the shifts, then each key's rotations
_COUNTS = struct.Struct("<3I")
_HEAD_LEN = _FIXED.size + _SCHEDULE.size + _COUNTS.size


def header_bytes(bundle: CipherBundle) -> bytes:
    head = _FIXED.pack(MAGIC, VERSION, bundle.n, bundle.n, ROUNDS, 0)
    return head + _SCHEDULE.pack(*bundle.shifts, *(r for rot in bundle.rotations for r in rot))


def write_bundle(path, bundle: CipherBundle):
    """Serialize a bundle; identical bundles produce identical files."""
    parts = [
        header_bytes(bundle),
        _COUNTS.pack(*(pos.size for pos in bundle.positions)),
        *(np.ascontiguousarray(plane, dtype=np.uint8) for plane in bundle.dic),
        *(np.ascontiguousarray(pos, dtype="<u4") for pos in bundle.positions),
        *(np.ascontiguousarray(values, dtype="<f8") for values in bundle.carriers),
    ]
    crc = 0
    with open(path, "wb") as f:
        for part in parts:
            crc = zlib.crc32(part, crc)
            f.write(part)
        f.write(struct.pack("<I", crc & 0xFFFFFFFF))


def read_bundle(path) -> CipherBundle:
    """Parse and validate a bundle file; exact inverse of write_bundle.

    The header is checked first (magic, version, rounds, flags, a square
    size of at least 2), then the size against the header and the counts,
    then the CRC.  `CipherBundle` then checks the key rotations (each below
    48) and each carrier's positions (strictly ascending, below width *
    height).  Every failure raises FormatError.
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
    if width < 2:
        raise FormatError(f"container image must be at least 2x2, got {width}x{height}")

    n_px = width * height
    counts = _COUNTS.unpack_from(blob, _HEAD_LEN - _COUNTS.size)
    for k in counts:
        if k > n_px:
            raise FormatError(f"position count {k} exceeds the {n_px} cells of a plane")
    expected = _HEAD_LEN + 3 * n_px + 12 * sum(counts) + 4
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

    schedule = _SCHEDULE.unpack_from(blob, _FIXED.size)
    off = _HEAD_LEN

    def take(dtype, count):
        nonlocal off
        a = np.frombuffer(blob, dtype=dtype, count=count, offset=off)
        off += a.nbytes
        return a.astype(dtype.lstrip("<"))  # native byte order, aligned, a copy

    dic = tuple(take("<u1", n_px).reshape(height, width) for _ in range(3))
    positions = tuple(take("<u4", k) for k in counts)
    carriers = tuple(take("<f8", k) for k in counts)
    try:
        return CipherBundle(
            n=width,
            shifts=schedule[:ROUNDS],
            rotations=tuple(schedule[i : i + 3] for i in range(ROUNDS, 4 * ROUNDS, 3)),
            dic=dic,
            positions=positions,
            carriers=carriers,
        )
    except ValueError as exc:
        raise FormatError(str(exc)) from None
