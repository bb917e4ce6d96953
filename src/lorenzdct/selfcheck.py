"""Built-in invariant suite behind the `selftest` CLI subcommand.

The Lorenz and DCT checks test the system's equilibria and regime and the
transforms against their definitions.  The round trip encrypts one image,
writes its container, reads it back and decrypts it, and pins the
container's sha256: every stage of the cipher (key derivation, RK4, the
keystream's resize, convolutions and bytes, the shuffles, the DCTs, the
energy selection, the log carrier and the container writer) shapes those
bytes, so an installation whose containers differ from the canonical ones
fails it even when it round-trips its own.
"""

from __future__ import annotations

import hashlib
import os
import tempfile

import numpy as np

from .cipher import ImageRGB, decrypt_image, encrypt_image
from .container import read_bundle, write_bundle
from .dct import dct1, dct2, idct2
from .lorenz import (
    LorenzParams,
    SecretKey,
    State3,
    equilibria,
    integrate,
    is_chaotic_regime,
    lorenz_derivative,
)

# sha256 of the container _check_round_trip writes; a deliberate change of
# the cipher's output or the container format moves it
ROUND_TRIP_SHA256 = "481eacdc1686cdfc5ae8515967438734714fa04763fdba045b83676bebbac117"


def _require(ok, what):
    # an assert statement would vanish under python -O
    if not ok:
        raise AssertionError(what)


def _dct2_direct(f):
    n = f.shape[0]
    ks = np.arange(n)
    cos = np.cos(np.pi * np.outer(ks, 2 * ks + 1) / (2 * n))
    scale = np.full(n, np.sqrt(2.0 / n))
    scale[0] = np.sqrt(1.0 / n)
    out = np.zeros((n, n))
    for v in range(n):
        for u in range(n):
            out[v, u] = scale[v] * scale[u] * np.sum(
                f * np.outer(cos[v], cos[u])
            )
    return out


def _check_lorenz():
    p = LorenzParams()
    _require(is_chaotic_regime(p), "default parameters not chaotic")
    _require(not is_chaotic_regime(LorenzParams(rho=0.5)), "rho = 0.5 chaotic")
    for eq in equilibria(p):
        d = lorenz_derivative(eq, p)
        _require(max(abs(d.x), abs(d.y), abs(d.z)) < 1e-12, f"derivative {d} at {eq}")
    traj = integrate(p, State3(2.0, 1.0, 1.05), 1.0, 0.001)
    _require(len(traj) == 1001 and np.all(np.isfinite(traj.x)), "trajectory length or values")


def _check_dct():
    rng = np.random.default_rng(11)
    f = rng.uniform(0.0, 255.0, (8, 8))
    _require(np.max(np.abs(dct2(f) - _dct2_direct(f))) < 1e-10, "dct2 against its direct sum")
    _require(np.max(np.abs(idct2(dct2(f)) - f)) < 1e-9, "idct2 of dct2")
    _require(abs(np.sum(f * f) - np.sum(dct2(f) ** 2)) < 1e-9 * np.sum(f * f), "Parseval")
    _require(np.allclose(dct1(np.ones(4)), [2.0, 0.0, 0.0, 0.0], atol=1e-12), "dct1 of ones")


def _check_round_trip():
    rng = np.random.default_rng(16)
    n = 160
    # a checkerboard's truncated reconstruction sits exactly on x.5, where
    # rounding differently on the two sides would show; the zero plane keeps
    # no coefficient, so its carrier is empty.  At 160 x 160 the chunked
    # carrier and shuffle loops run two chunks, and energy_select falls back
    # from its first candidates to the whole plane.
    checker = (254 + np.indices((n, n)).sum(axis=0) % 2).astype(np.uint8)
    noise = rng.integers(0, 256, (n, n), dtype=np.uint8)
    img = ImageRGB((checker, noise, np.zeros((n, n), dtype=np.uint8)))
    # distinct rotation triples, so a container that reorders them shows, and
    # shifts of zero, the side and past it
    rotations = ((1, 2, 3), (40, 0, 47), (5, 11, 17))
    keys = tuple(map(SecretKey, ("select", "a test", "key!42"), rotations))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "round_trip.ldct")
        write_bundle(path, encrypt_image(img, keys, (0, n, n + 21)))
        with open(path, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
        back = read_bundle(path)
    _require(digest == ROUND_TRIP_SHA256, f"container sha256 {digest}")
    for a, b in zip(img.planes, decrypt_image(back, keys).planes):
        _require(np.array_equal(a, b), "decrypted plane differs from the image")


CHECKS = (
    ("lorenz system", _check_lorenz),
    ("dct definitions", _check_dct),
    ("encrypt, container and decrypt round trip", _check_round_trip),
)


def run() -> int:
    """Run every check, printing one line each; returns the number of failures."""
    failures = 0
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:  # report and keep going
            failures += 1
            print(f"FAIL: {name} ({type(exc).__name__}: {exc})")
        else:
            print(f"PASS: {name}")
    print(f"selftest: {len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return failures
