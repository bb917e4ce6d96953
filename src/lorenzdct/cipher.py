"""Encryption and decryption pipelines.

Two payloads are produced per image.  The difference planes (original
component minus its truncated-DCT reconstruction, stored mod 256) run through
three sequential XOR / permute / rotate rounds keyed by three independent
keystreams.  The retained DCT coefficients travel separately: their signed
base-10 logs are row-rotated and added on top of the summed integer-valued
keystream planes, from which the receiver can subtract them back out exactly.
The difference plane is taken against the coefficients read back out of the
carrier, so encrypt and decrypt round one and the same reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dct import SparseCoeffs, _stable_descending, dct2, energy_select, reconstruct_sparse
from .errors import DimensionMismatchError, EmbeddingDomainError
from .keystream import KeystreamPlane, RoundKeystream, build_round_keystream, real_twin
from .lorenz import SecretKey

COMPONENT_NAMES = ("R", "G", "B")

DEFAULT_SHIFTS = (3, 7, 13)


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

    dic holds the three encrypted difference planes (bytes); carriers the
    three real-valued planes hiding the DCT coefficients.  The shift and
    rotation schedules ride along so they do not have to be re-entered.
    """

    n: int
    shifts: tuple[int, int, int]
    rotations: tuple[tuple[int, int, int], ...]
    dic: tuple[np.ndarray, np.ndarray, np.ndarray]
    carriers: tuple[np.ndarray, np.ndarray, np.ndarray]

    def __post_init__(self):
        for p in self.dic + self.carriers:
            if p.shape != (self.n, self.n):
                raise DimensionMismatchError("bundle plane shape disagrees with header")
            p.setflags(write=False)


def _reconstruct_u8(sparse: SparseCoeffs) -> np.ndarray:
    # Shared by encrypt and decrypt so both round the same values the same
    # way; non-finite cells (a wrong key can overflow 10**|log|) become 0.
    recon = reconstruct_sparse(sparse)
    recon[~np.isfinite(recon)] = 0.0
    return np.clip(np.rint(recon, out=recon), 0, 255, out=recon).astype(np.uint8)


def make_difference(component, sparse: SparseCoeffs):
    """Difference plane between a component and its sparse reconstruction.

    Returns (dic, recon_u8) with dic = (component - recon_u8) mod 256, so
    (recon_u8 + dic) mod 256 recovers the component exactly.
    """
    component = np.asarray(component)
    recon_u8 = _reconstruct_u8(sparse)
    if recon_u8.shape != component.shape:
        raise DimensionMismatchError("sparse dims disagree with component shape")
    dic = (component.astype(np.int16) - recon_u8.astype(np.int16)) % 256
    return dic.astype(np.uint8), recon_u8


def _pass_encrypt(plane, ks_bytes, perms, n_shift):
    x1 = plane ^ ks_bytes
    b = np.take_along_axis(x1, perms, axis=1)
    return np.roll(b, -n_shift, axis=1) ^ np.roll(ks_bytes, -n_shift, axis=1)


def _pass_decrypt(out, ks_bytes, perms, n_shift):
    b = np.roll(out ^ np.roll(ks_bytes, -n_shift, axis=1), n_shift, axis=1)
    # undo the gather b = x1[perm] by scattering back: x1[perm] = b
    x1 = np.empty_like(b)
    np.put_along_axis(x1, perms, b, axis=1)
    return x1 ^ ks_bytes


def shuffle_encrypt(plane, ks: KeystreamPlane, n_shift: int) -> np.ndarray:
    """XOR / permute / rotate a difference plane, horizontally then vertically.

    Each pass XORs with the keystream bytes, gathers each line through its
    ascending-sort permutation, rotates both the data and the keystream left
    by n_shift, and XORs the two.  The vertical pass runs on the transpose.
    """
    plane = np.asarray(plane, dtype=np.uint8)
    if plane.shape != ks.bytes.shape:
        raise DimensionMismatchError("plane and keystream dims differ")
    h = _pass_encrypt(plane, ks.bytes, ks.row_perm, n_shift)
    return _pass_encrypt(h.T, ks.bytes.T, ks.col_perm, n_shift).T


def shuffle_decrypt(plane, ks: KeystreamPlane, n_shift: int) -> np.ndarray:
    """Exact inverse of shuffle_encrypt (vertical pass undone first)."""
    plane = np.asarray(plane, dtype=np.uint8)
    if plane.shape != ks.bytes.shape:
        raise DimensionMismatchError("plane and keystream dims differ")
    h = _pass_decrypt(plane.T, ks.bytes.T, ks.col_perm, n_shift).T
    return _pass_decrypt(h, ks.bytes, ks.row_perm, n_shift)


def log_forward(s: SparseCoeffs, n: int) -> np.ndarray:
    """Signed log10 of each coefficient, scattered, rows rolled left by i."""
    if s.dims != (n, n):
        raise DimensionMismatchError(f"sparse dims {s.dims} do not match ({n}, {n})")
    if len(s) and np.min(np.abs(s.values)) < 1.0:
        raise EmbeddingDomainError("sign-log embedding needs |value| >= 1")
    m = np.zeros((n, n), dtype=np.float64)
    m[s.rows, (s.cols - s.rows) % n] = np.sign(s.values) * np.log10(np.abs(s.values))
    return m


def log_inverse(m) -> SparseCoeffs:
    """Undo log_forward: roll rows right, then sign(v) * 10**|v| per cell.

    Exactly-zero cells carry no coefficient.  Values are returned sorted by
    descending magnitude with row-major tie order, like any selection.
    """
    m = np.asarray(m, dtype=np.float64)
    n = m.shape[0]
    if m.ndim != 2 or m.shape[1] != n:
        raise DimensionMismatchError("expected a square matrix")
    # un-roll only the non-zero cells, then restore row-major order
    i, j = np.nonzero(m)
    rows, cols = np.divmod(np.sort(i * n + (i + j) % n), n)
    logs = m[rows, (cols - rows) % n]
    with np.errstate(over="ignore"):
        values = np.sign(logs) * np.power(10.0, np.abs(logs))
    order = _stable_descending(np.abs(values))
    return SparseCoeffs((n, n), rows[order], cols[order], values[order], 1.0)


def _check_schedule(keys: Sequence[SecretKey], shifts: Sequence[int]):
    if len(keys) != 3:
        raise ValueError("exactly three secret keys are required")
    if len(shifts) != 3 or any(not (0 <= int(s) <= 0xFFFF) for s in shifts):
        raise ValueError("shift schedule must be three integers in [0, 65535]")
    return tuple(int(s) for s in shifts)


def _twin_sum(rounds: list[RoundKeystream], component: int) -> np.ndarray:
    return real_twin(*(r.plane_for(component) for r in rounds))


def _carried_coeffs(carrier, rounds: list[RoundKeystream], component: int) -> SparseCoeffs:
    # The coefficients a carrier holds, as decrypt reads them back.  Encrypt
    # takes its difference plane against these rather than the exact ones,
    # so both sides round one and the same reconstruction.
    return log_inverse(carrier - _twin_sum(rounds, component))


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
    shifts = _check_schedule(keys, shifts)
    rounds = [build_round_keystream(k, n) for k in keys]

    dics, carriers = [], []
    for comp, plane in enumerate(img.planes):
        sparse = energy_select(dct2(plane.astype(np.float64)))
        carrier = _twin_sum(rounds, comp) + log_forward(sparse, n)
        dic, _ = make_difference(plane, _carried_coeffs(carrier, rounds, comp))
        for k in range(3):
            dic = shuffle_encrypt(dic, rounds[k].plane_for(comp), shifts[k])
        dics.append(dic)
        carriers.append(carrier)

    return CipherBundle(
        n=n,
        shifts=shifts,
        rotations=tuple(k.rotations for k in keys),
        dic=tuple(dics),
        carriers=tuple(carriers),
    )


def decrypt_image(
    bundle: CipherBundle,
    keys: Sequence[SecretKey],
    shifts: Optional[Sequence[int]] = None,
) -> ImageRGB:
    """Invert encrypt_image given the same keys.

    A wrong key produces garbage rather than an error: there is no
    authentication, so the pipeline sanitizes any overflowing coefficient
    reconstruction and always returns a valid image.
    """
    shifts = _check_schedule(keys, bundle.shifts if shifts is None else shifts)
    rounds = [build_round_keystream(k, bundle.n) for k in keys]

    planes = []
    for comp in range(3):
        dic = bundle.dic[comp]
        for k in (2, 1, 0):
            dic = shuffle_decrypt(dic, rounds[k].plane_for(comp), shifts[k])
        recon_u8 = _reconstruct_u8(_carried_coeffs(bundle.carriers[comp], rounds, comp))
        planes.append(recon_u8 + dic)  # uint8 wraps mod 256

    return ImageRGB(tuple(planes))
