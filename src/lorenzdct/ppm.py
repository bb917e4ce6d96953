"""Binary PPM (P6) reading and writing, plus PGM (P5) for debug dumps.

Only maxval 255 is supported.  Header comments are tolerated; ASCII variants
(P3) are rejected explicitly so the error says what went wrong.
"""

from __future__ import annotations

import os

import numpy as np

from .cipher import ImageRGB
from .errors import FormatError


def _read_header_tokens(f, count):
    """Yield `count` whitespace-separated header tokens, skipping # comments."""
    tokens = []
    while len(tokens) < count:
        ch = f.read(1)
        if not ch:
            raise FormatError("unexpected end of file in PPM header")
        if ch in b" \t\r\n":
            continue
        if ch == b"#":
            while ch and ch not in b"\r\n":
                ch = f.read(1)
            continue
        tok = bytearray()
        while ch and ch not in b" \t\r\n":
            if ch == b"#":
                break
            tok += ch
            ch = f.read(1)
        tokens.append(bytes(tok))
        if ch == b"#":
            while ch and ch not in b"\r\n":
                ch = f.read(1)
    return tokens


def load_ppm(path) -> ImageRGB:
    """Read a binary P6 PPM with maxval 255."""
    with open(path, "rb") as f:
        magic = f.read(2)
        if magic == b"P3":
            raise FormatError("ASCII PPM (P3) is not supported, use binary P6")
        if magic != b"P6":
            raise FormatError(f"not a P6 PPM file (magic {magic!r})")
        width_t, height_t, maxval_t = _read_header_tokens(f, 3)
        try:
            width, height, maxval = int(width_t), int(height_t), int(maxval_t)
        except ValueError:
            raise FormatError("PPM header fields must be decimal integers") from None
        if width <= 0 or height <= 0:
            raise FormatError(f"bad PPM dimensions {width}x{height}")
        if maxval != 255:
            raise FormatError(f"only maxval 255 is supported, got {maxval}")
        # checked before reading, so a huge header allocates nothing
        size = width * height * 3
        held = os.fstat(f.fileno()).st_size - f.tell()
        if size > held:
            raise FormatError(
                f"truncated PPM payload: header asks for {size} bytes, file holds {held}"
            )
        payload = f.read(size)
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)
    return ImageRGB(tuple(np.ascontiguousarray(pixels[:, :, c]) for c in range(3)))


def save_ppm(path, img: ImageRGB):
    """Write a binary P6 PPM with maxval 255, byte-for-byte deterministic."""
    pixels = np.stack(img.planes, axis=-1)
    with open(path, "wb") as f:
        f.write(f"P6\n{img.width} {img.height}\n255\n".encode("ascii"))
        f.write(pixels.tobytes())


def save_pgm(path, plane):
    """Write one byte plane as a binary P5 PGM (debug dumps)."""
    plane = np.asarray(plane, dtype=np.uint8)
    if plane.ndim != 2:
        raise ValueError("PGM plane must be 2-D")
    h, w = plane.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(plane.tobytes())
