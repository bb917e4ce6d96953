"""Encryption and decryption pipelines.

Two payloads are produced per image.  The difference planes (original
component minus its truncated-DCT reconstruction, stored mod 256) run through
three sequential XOR / permute / rotate rounds keyed by three independent
keystreams.  The retained DCT coefficients travel separately: their signed
base-10 logs are row-rotated and added on top of the summed integer-valued
keystream planes, from which the receiver can subtract them back out exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dct import SparseCoeffs, dct2, energy_select, reconstruct_sparse
from .errors import DimensionMismatchError, EmbeddingDomainError
from .keystream import KeystreamPlane, RoundKeystream, build_round_keystream, real_twin
from .lorenz import LorenzParams, SecretKey

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


def make_difference(component, sparse: SparseCoeffs):
    """Difference plane between a component and its sparse reconstruction.

    Returns (dic, recon_u8) with dic = (component - recon_u8) mod 256, so
    (recon_u8 + dic) mod 256 recovers the component exactly.
    """
    component = np.asarray(component)
    recon = reconstruct_sparse(sparse)
    if recon.shape != component.shape:
        raise DimensionMismatchError("sparse dims disagree with component shape")
    recon_u8 = np.clip(np.rint(recon), 0, 255).astype(np.uint8)
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


def _row_roll_matrix(n: int, sign: int) -> np.ndarray:
    # column index map for rolling row i by i positions (sign -1 = left)
    return (np.arange(n)[None, :] - sign * np.arange(n)[:, None]) % n


def log_forward(s: SparseCoeffs, n: int) -> np.ndarray:
    """Signed log10 of each coefficient, scattered, rows rolled left by i."""
    if s.dims != (n, n):
        raise DimensionMismatchError(f"sparse dims {s.dims} do not match ({n}, {n})")
    if len(s) and np.min(np.abs(s.values)) < 1.0:
        raise EmbeddingDomainError("sign-log embedding needs |value| >= 1")
    m = np.zeros((n, n), dtype=np.float64)
    m[s.rows, s.cols] = np.sign(s.values) * np.log10(np.abs(s.values))
    return np.take_along_axis(m, _row_roll_matrix(n, -1), axis=1)


def log_inverse(m) -> SparseCoeffs:
    """Undo log_forward: roll rows right, then sign(v) * 10**|v| per cell.

    Exactly-zero cells carry no coefficient.  Values are returned sorted by
    descending magnitude with row-major tie order, like any selection.
    """
    m = np.asarray(m, dtype=np.float64)
    n = m.shape[0]
    if m.ndim != 2 or m.shape[1] != n:
        raise DimensionMismatchError("expected a square matrix")
    back = np.take_along_axis(m, _row_roll_matrix(n, +1), axis=1)
    rows, cols = np.nonzero(back)
    logs = back[rows, cols]
    with np.errstate(over="ignore"):
        values = np.sign(logs) * np.power(10.0, np.abs(logs))
    order = np.argsort(-np.abs(values), kind="stable")
    return SparseCoeffs((n, n), rows[order], cols[order], values[order], 1.0)


def embed_coeffs(logm, ks: KeystreamPlane) -> np.ndarray:
    """Carrier plane: keystream real twin plus the rolled log matrix."""
    logm = np.asarray(logm, dtype=np.float64)
    if logm.shape != ks.bytes.shape:
        raise DimensionMismatchError("log matrix and keystream dims differ")
    return real_twin(ks) + logm


def extract_coeffs(carrier, ks: KeystreamPlane) -> np.ndarray:
    """Recover the rolled log matrix: carrier minus the real twin.

    Exactly 0.0 at every cell that carried no coefficient, because the twin
    values are small integers and the subtraction cancels without rounding.
    """
    carrier = np.asarray(carrier, dtype=np.float64)
    if carrier.shape != ks.bytes.shape:
        raise DimensionMismatchError("carrier and keystream dims differ")
    return carrier - real_twin(ks)


def _check_schedule(keys: Sequence[SecretKey], shifts: Sequence[int]):
    if len(keys) != 3:
        raise ValueError("exactly three secret keys are required")
    if len(shifts) != 3 or any(not (0 <= int(s) <= 0xFFFF) for s in shifts):
        raise ValueError("shift schedule must be three integers in [0, 65535]")
    return tuple(int(s) for s in shifts)


def _round_keystreams(keys, n, params, t_start, t_end, dt, fraction):
    return [
        build_round_keystream(k, n, params, t_start, t_end, dt, fraction)
        for k in keys
    ]


def _twin_sum(rounds: list[RoundKeystream], component: int) -> np.ndarray:
    return real_twin(*(r.plane_for(component) for r in rounds))


def encrypt_image(
    img: ImageRGB,
    keys: Sequence[SecretKey],
    shifts: Sequence[int] = DEFAULT_SHIFTS,
    params: LorenzParams = LorenzParams(),
    t_start: float = 0.0,
    t_end: float = 50.0,
    dt: float = 0.001,
    fraction: float = 0.999,
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
    rounds = _round_keystreams(keys, n, params, t_start, t_end, dt, fraction)

    dics, carriers = [], []
    for comp, plane in enumerate(img.planes):
        sparse = energy_select(dct2(plane.astype(np.float64)), fraction)
        dic, _ = make_difference(plane, sparse)
        for k in range(3):
            dic = shuffle_encrypt(dic, rounds[k].plane_for(comp), shifts[k])
        carrier = _twin_sum(rounds, comp) + log_forward(sparse, n)
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
    params: LorenzParams = LorenzParams(),
    t_start: float = 0.0,
    t_end: float = 50.0,
    dt: float = 0.001,
    fraction: float = 0.999,
) -> ImageRGB:
    """Invert encrypt_image given the same keys and configuration.

    A wrong key produces garbage rather than an error: there is no
    authentication, so the pipeline sanitizes any overflowing coefficient
    reconstruction and always returns a valid image.
    """
    shifts = _check_schedule(keys, bundle.shifts if shifts is None else shifts)
    rounds = _round_keystreams(keys, bundle.n, params, t_start, t_end, dt, fraction)

    planes = []
    for comp in range(3):
        dic = bundle.dic[comp]
        for k in (2, 1, 0):
            dic = shuffle_decrypt(dic, rounds[k].plane_for(comp), shifts[k])
        logm = bundle.carriers[comp] - _twin_sum(rounds, comp)
        recon = reconstruct_sparse(log_inverse(logm))
        recon = np.where(np.isfinite(recon), recon, 0.0)
        recon_u8 = np.clip(np.rint(recon), 0, 255).astype(np.uint8)
        out = (recon_u8.astype(np.int16) + dic.astype(np.int16)) % 256
        planes.append(out.astype(np.uint8))

    return ImageRGB(tuple(planes))
