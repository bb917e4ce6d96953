"""Bit-exact cipher container serialization.

Layout (all little-endian):

    magic      4 bytes  b"LDCT"
    version    u16      8
    width      u32
    height     u32
    rounds     u8       3
    flags      u8       0 (reserved)
    shifts     rounds x u16
    rots       rounds x 3 x u8
    counts     3 x u32  retained cell count k of each carrier, R G B
    suffixes   3 x u32  suffix bit count S of each carrier, R G B
    dic        3 planes of width*height raw bytes, row-major, R G B
    gaps       each carrier's gap section, ceil((k + 2 S) / 8) bytes, R G B
    values     k_R + k_G + k_B u16, each carrier's twin and log residue at its cells
    crc        u32      CRC-32 (ISO-HDLC) over every preceding byte

so a file is 55 + 3 n**2 + sum(ceil((k + 2 S) / 8)) + 2 (k_R + k_G + k_B)
+ 4 bytes, known from the header before anything is decoded.

A carrier stores only the cells that hold a DCT coefficient; every other
cell is the keystream twin sum, which the receiver recomputes from the keys.
A 1024 x 1024 natural image keeps a few hundred cells per carrier, so the
file is about the size of the image; a two-level document keeps over 100k.

A carrier's flat cells p_0 < p_1 < ... are written as gaps x_i = p_i -
p_(i-1), with p_(-1) = -1, so every gap is at least 1, and in the
Elias-gamma code (P. Elias, "Universal codeword sets and representations of
the integers", IEEE Trans. Inf. Theory 21(2), 1975): x has N = bit_length(x)
- 1 bits below its leading one.  The section holds, MSB first, k + S prefix
bits (each gap's N zeros, then a one), then S suffix bits (each gap's N
bits below its leading one), then zero padding to the next byte, where S is
the sum of the N.  Splitting the prefixes from the suffixes lets both
directions work on whole arrays: the encoder sets one byte per bit and packs
them, and the decoder takes every N from the prefix's ones and each suffix
by one unaligned 8-byte read.  A document's cells are mostly 1 or 2 apart,
so a position costs about 2.2 bits (the gaps' entropy is about 2.04); a
natural carrier's few hundred cells cluster at low frequencies.  The
cipher's sizes stop at n = 65536, so every gap is at most 2**32 and N at
most 32; N <= x / 2 for every x, so S <= n**2 / 2 fits u32.
One bundle has exactly one file: read_bundle refuses a prefix that does not
hold exactly k ones in its k + S bits or does not end in a one, an N above
32, a set padding bit and cells that reach n**2.

Each value is the u16 (twin * 2**12 + rint(log * 2**12)) mod 2**16 that
encrypt rounds the coefficient's signed log10 to, once, before it takes the
difference plane (`cipher.log_forward`), so the plane absorbs what the
2**-12 grid drops.  The receiver knows the twin, so the residue gives the
log back exactly; only the twin's low 4 bits enter a value, which shows the
fraction of its log to 12 bits.  Any u16 decodes to a log below 8 in
magnitude, so a value read from a file is always a finite coefficient.

Every other version, the retired layouts 1 to 7 among them, is refused.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .cipher import COMPONENT_NAMES, ROUNDS, CipherBundle, check_size
from .errors import FormatError
from .lorenz import check_rotations

MAGIC = b"LDCT"
VERSION = 8

_FIXED = struct.Struct("<4sHIIBB")
_SCHEDULE = struct.Struct(f"<{ROUNDS}H{3 * ROUNDS}B")  # the shifts, then each key's rotations
_COUNTS = struct.Struct("<6I")  # the position counts, then the suffix bit counts
_HEAD_LEN = _FIXED.size + _SCHEDULE.size + _COUNTS.size
_CHUNK = 1 << 12  # prefix bytes decode_positions unpacks at a time


def _section_len(count: int, suffix_bits: int) -> int:
    # bytes of a gap section: count + suffix_bits prefix bits, the suffix
    # bits, and zero padding to the next byte
    return (count + 2 * suffix_bits + 7) // 8


def encode_positions(positions) -> tuple[np.ndarray, int]:
    """One carrier's strictly ascending cells as (gap section, suffix bits S).

    The section is u8: the Elias-gamma prefixes of the gaps x, then their
    suffixes, then zero padding (see the module docstring).
    """
    x = np.diff(np.asarray(positions, dtype=np.int64), prepend=-1)  # each gap
    n = np.frexp(x)[1] - 1  # each gap's N, exact as x <= 2**32
    ends = np.cumsum(n)  # the suffix bits through each gap
    suffix_bits = int(ends[-1]) if x.size else 0
    bits = np.zeros(8 * _section_len(x.size, suffix_bits), dtype=np.uint8)  # one byte per bit
    bits[ends + np.arange(x.size)] = 1  # each prefix's one, at cumsum(N + 1) - 1
    offsets = np.repeat(ends, n) - np.arange(1, suffix_bits + 1)  # each suffix bit's place in x
    bits[x.size + suffix_bits : x.size + 2 * suffix_bits] = np.repeat(x, n) >> offsets & 1
    return np.packbits(bits), suffix_bits


def decode_positions(section, count: int, suffix_bits: int, n_px: int, color: str) -> np.ndarray:
    """Inverse of encode_positions for a plane of n_px cells: uint32 cells.

    Raises FormatError unless `section` is the one encode_positions writes
    for some count cells below n_px with suffix_bits suffix bits: its first
    count + suffix_bits bits hold exactly count ones and end in a one, no
    gap has more than 32 suffix bits, the padding is zero and the last cell
    is below n_px.  `section` is the length the header fixes,
    _section_len(count, suffix_bits), as read_bundle's size check ensures.
    The prefix is unpacked _CHUNK bytes at a time, so what this holds beside
    the cells is bounded whatever the header claims.
    """
    prefix = count + suffix_bits
    # seven zero bytes ahead, so the 8-byte big-endian word that ends at any
    # byte of the section is in the buffer
    buf = np.zeros(section.size + 7, dtype=np.uint8)
    buf[7:] = section
    window = np.ndarray((section.size,), dtype=">i8", buffer=buf, strides=(1,))
    cells = np.empty(count, dtype=np.uint32)
    done, last, total = 0, -1, 0  # gaps decoded, the bit of the last one, their sum
    for at in range(0, (prefix + 7) // 8, _CHUNK):
        bits = np.unpackbits(section[at : at + _CHUNK], count=min(8 * _CHUNK, prefix - 8 * at))
        ones = np.flatnonzero(bits.view(bool))
        m = ones.size
        if not m:
            continue
        if done + m > count:
            raise FormatError(f"carrier {color} gap prefix does not hold exactly {count} ones")
        ones += 8 * at
        n = np.empty_like(ones)  # each gap's N
        n[0] = ones[0] - last
        np.subtract(ones[1:], ones[:-1], out=n[1:])
        n -= 1
        if n.max() > 32:
            raise FormatError(f"carrier {color} has a gap of more than 32 suffix bits")
        # each gap's last suffix bit, prefix - 1 + the suffix bits through it;
        # a prefix the checks below refuse can point past the section, so
        # those reads are clipped
        low = np.arange(prefix - 1 - done, prefix - 1 - done - m, -1)
        low += ones
        tmp = np.right_shift(low, 3)  # the byte that holds it
        x = np.take(window, tmp, mode="clip")
        x.byteswap(inplace=True)
        x = x.view(x.dtype.newbyteorder())
        np.bitwise_and(low, 7, out=tmp)
        np.subtract(7, tmp, out=tmp)
        x >>= tmp  # each suffix at the bottom, the bits before it above
        np.left_shift(1, n, out=n)  # each gap's leading one
        np.subtract(n, 1, out=tmp)
        x &= tmp
        x |= n  # each gap x
        np.cumsum(x, out=x)
        end = total + int(x[-1])  # one past the chunk's last cell
        if end > n_px:
            raise FormatError(f"carrier {color} positions run past the {n_px} cells of a plane")
        x += total - 1
        cells[done : done + m] = x
        done, last, total = done + m, int(ones[-1]), end
    if done != count:
        raise FormatError(f"carrier {color} gap prefix does not hold exactly {count} ones")
    if last != prefix - 1:
        raise FormatError(f"carrier {color} gap prefix does not end in a one")
    pad = 8 * section.size - prefix - suffix_bits
    if pad and section[-1] & ((1 << pad) - 1):
        raise FormatError(f"carrier {color} gap section has a nonzero padding bit")
    return cells


def write_bundle(path, bundle: CipherBundle):
    """Serialize a bundle; identical bundles produce identical files."""
    coded = [encode_positions(pos) for pos in bundle.positions]
    parts = [
        _FIXED.pack(MAGIC, VERSION, bundle.n, bundle.n, ROUNDS, 0),
        _SCHEDULE.pack(*bundle.shifts, *(r for rot in bundle.rotations for r in rot)),
        _COUNTS.pack(*(pos.size for pos in bundle.positions), *(s for _, s in coded)),
        *(np.ascontiguousarray(plane, dtype=np.uint8) for plane in bundle.dic),
        *(section for section, _ in coded),
        *(np.ascontiguousarray(values, dtype="<u2") for values in bundle.carriers),
    ]
    crc = 0
    with open(path, "wb") as f:
        for part in parts:
            crc = zlib.crc32(part, crc)
            f.write(part)
        f.write(struct.pack("<I", crc & 0xFFFFFFFF))


def _parse_header(head, size: int):
    # (n, shifts, rotations, counts, suffix bits) of a container of size bytes
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
    counts, suffixes = all_counts[:3], all_counts[3:]
    for k in counts:
        if k > n * n:
            raise FormatError(f"position count {k} exceeds the {n * n} cells of a plane")
    sections = sum(map(_section_len, counts, suffixes))
    expected = _HEAD_LEN + 3 * n * n + sections + 2 * sum(counts) + 4
    if size != expected:
        raise FormatError(f"container size {size} does not match header (expected {expected})")
    schedule = _SCHEDULE.unpack_from(head, _FIXED.size)
    rotations = tuple(schedule[i : i + 3] for i in range(ROUNDS, 4 * ROUNDS, 3))
    return n, schedule[:ROUNDS], rotations, counts, suffixes


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
    cipher's size rule, `check_size`), then the file's size against the
    header and the counts, before the body is read, then the CRC, then
    each carrier's position stream (decode_positions).  `CipherBundle` then
    checks the key rotations (each below 48) and each carrier's positions
    (strictly ascending, below n * n).  Every failure raises FormatError.
    """
    try:
        with open(path, "rb") as f:
            head, size = f.read(_HEAD_LEN), f.seek(0, 2)
            n, shifts, rotations, counts, suffixes = _parse_header(head, size)
            f.seek(0)
            blob = f.read(size)
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
        sections = tuple(take("<u1", _section_len(k, s)) for k, s in zip(counts, suffixes))
        carriers = tuple(take("<u2", k) for k in counts)
        positions = tuple(
            decode_positions(section, k, s, n * n, color)
            for section, k, s, color in zip(sections, counts, suffixes, COMPONENT_NAMES)
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
