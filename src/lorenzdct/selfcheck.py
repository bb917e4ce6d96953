"""Built-in invariant suite behind the `selftest` CLI subcommand.

Each check re-derives its expectation from first principles (direct-sum
transforms, brute-force convolution, algebraic identities), so a pass means
the optimized paths agree with the definitions on this machine.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from .cipher import (
    CipherBundle,
    _gather,
    _identity,
    _push_round,
    _scatter,
    decrypt_image,
    encrypt_image,
    ImageRGB,
    log_forward,
    log_inverse,
)
from .container import read_bundle, write_bundle
from .dct import dct1, dct2, energy_select, idct2
from .keystream import S, circular_conv, plane_bytes, resize_linear
from .lorenz import (
    LorenzParams,
    SecretKey,
    State3,
    derive_initial_conditions,
    equilibria,
    integrate,
    is_chaotic_regime,
    lorenz_derivative,
)


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


def _conv_direct(a, b):
    # Python integers, which cannot overflow
    n = len(a)
    return [sum(int(a[p]) * int(b[(k - p) % n]) for p in range(n)) for k in range(n)]


def _check_key_derivation():
    k = SecretKey("      ", (0, 0, 0))
    s = derive_initial_conditions(k)
    assert s.x == s.y == s.z == 0.20039215686274
    for key in (SecretKey("abc123"), SecretKey("~~~~~~")):
        a, b = derive_initial_conditions(key), derive_initial_conditions(key)
        assert a == b
        for v in a.as_tuple():
            assert 0.1 <= v <= 0.9


def _check_lorenz():
    p = LorenzParams()
    assert is_chaotic_regime(p)
    assert not is_chaotic_regime(LorenzParams(rho=0.5))
    for eq in equilibria(p):
        d = lorenz_derivative(eq, p)
        assert max(abs(d.x), abs(d.y), abs(d.z)) < 1e-12
    traj = integrate(p, State3(2.0, 1.0, 1.05), 1.0, 0.001)
    assert len(traj) == 1001 and np.all(np.isfinite(traj.x))


def _check_dct():
    rng = np.random.default_rng(11)
    f = rng.uniform(0.0, 255.0, (8, 8))
    assert np.max(np.abs(dct2(f) - _dct2_direct(f))) < 1e-10
    assert np.max(np.abs(idct2(dct2(f)) - f)) < 1e-9
    assert abs(np.sum(f * f) - np.sum(dct2(f) ** 2)) < 1e-9 * np.sum(f * f)
    assert np.allclose(dct1(np.ones(4)), [2.0, 0.0, 0.0, 0.0], atol=1e-12)


def _check_conv_and_resize():
    rng = np.random.default_rng(12)
    a = rng.integers(-(2**20), 2**20, 17)
    b = rng.integers(-(2**20), 2**20, 17)
    c = circular_conv(a, b)
    assert c.tolist() == _conv_direct(a, b)
    assert plane_bytes(c, a).tolist() == [
        [int(abs(float(ci)) * (abs(float(aj)) * 2.0 ** (-4 * S))) % 256 for aj in a] for ci in c
    ]
    v = rng.uniform(0.0, 9.0, 5)
    assert np.array_equal(resize_linear(v, 5), v)
    assert resize_linear([0.0, 2.0], 3).tolist() == [0.0, 1.0, 2.0]
    assert resize_linear([1.0, 3.0, 9.0], 5).tolist() == [1.0, 2.0, 3.0, 6.0, 9.0]


def _check_shuffle():
    rng = np.random.default_rng(13)
    k = rng.integers(0, 256, (16, 16), dtype=np.uint8)
    for shift in (0, 1, 5, 16, 21):
        plane = rng.integers(0, 256, (16, 16), dtype=np.uint8)
        perm, mask = _push_round(*_identity(16 * 16), k, shift)
        assert np.array_equal(_scatter(_gather(plane, perm, mask), perm, mask), plane)


def _check_log_embedding():
    rng = np.random.default_rng(14)
    mat = np.zeros((8, 8))
    mat[rng.integers(0, 8, 10), rng.integers(0, 8, 10)] = rng.uniform(1.5, 9e4, 10)
    mat[0, 3] = -1234.5
    sel = energy_select(mat, 1.0)
    back = log_inverse(*log_forward(sel, 8), 8)
    lut = {(r, c): v for r, c, v in zip(back.rows, back.cols, back.values)}
    for r, c, v in zip(sel.rows, sel.cols, sel.values):
        assert abs(lut[(r, c)] - v) <= 1e-12 * abs(v)


def _check_container():
    rng = np.random.default_rng(15)
    # twin sums plus logs at every other cell, the last carrier empty
    half = np.arange(0, 16, 2, dtype=np.uint32)
    positions = (half, half, half[:0])
    bundle = CipherBundle(
        n=4,
        shifts=(3, 7, 13),
        rotations=((5, 11, 17),) * 3,
        dic=tuple(rng.integers(0, 256, (4, 4), dtype=np.uint8) for _ in range(3)),
        positions=positions,
        carriers=tuple(
            rng.integers(0, 766, p.size) + rng.uniform(-4.9, 4.9, p.size) for p in positions
        ),
    )
    fd, path = tempfile.mkstemp(suffix=".ldct")
    os.close(fd)
    try:
        write_bundle(path, bundle)
        back = read_bundle(path)
        assert back.shifts == bundle.shifts and back.rotations == bundle.rotations
        arrays = bundle.dic + bundle.positions + bundle.carriers
        for a, b in zip(arrays, back.dic + back.positions + back.carriers):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    finally:
        os.unlink(path)


def _check_round_trip_small():
    rng = np.random.default_rng(16)
    # a checkerboard's truncated reconstruction sits exactly on x.5, where
    # rounding differently on the two sides would show
    checker = (254 + np.indices((8, 8)).sum(axis=0) % 2).astype(np.uint8)
    random_planes = (rng.integers(0, 256, (8, 8), dtype=np.uint8) for _ in range(2))
    img = ImageRGB((checker, *random_planes))
    keys = (SecretKey("select"), SecretKey("a test"), SecretKey("key!42"))
    bundle = encrypt_image(img, keys)
    out = decrypt_image(bundle, keys)
    for a, b in zip(img.planes, out.planes):
        assert np.array_equal(a, b)


CHECKS = (
    ("key derivation", _check_key_derivation),
    ("lorenz system", _check_lorenz),
    ("dct definitions", _check_dct),
    ("convolution and resize", _check_conv_and_resize),
    ("shuffle round trip", _check_shuffle),
    ("log embedding round trip", _check_log_embedding),
    ("container round trip", _check_container),
    ("encrypt/decrypt round trip", _check_round_trip_small),
)


def run(emit=print) -> int:
    """Run every check; returns the number of failures."""
    failures = 0
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:  # report and keep going
            failures += 1
            emit(f"FAIL: {name} ({type(exc).__name__}: {exc})")
        else:
            emit(f"PASS: {name}")
    emit(f"selftest: {len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return failures
