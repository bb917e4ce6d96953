"""Built-in invariant suite behind the `selftest` CLI subcommand.

Each check re-derives its expectation from first principles (direct-sum
transforms, brute-force convolution, algebraic identities, round trips), so
a pass means the optimized paths agree with the definitions on this machine.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from .cipher import ImageRGB, _carried_plane, decrypt_image, encrypt_image, log_forward
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


def _check_log_embedding():
    rng = np.random.default_rng(14)
    sel = energy_select(dct2(rng.integers(0, 256, (8, 8))), 1.0)
    # the carrier encrypt stores, over a nonzero twin
    twin = rng.integers(1, 766, (8, 8), dtype=np.uint16)
    plane, _ = _carried_plane(*log_forward(sel, twin), twin)
    assert np.count_nonzero(plane) == len(sel)
    # float32 holds twin + log to 2**-15 below 1024; 1e-12 more covers the
    # float64 sum, log10 and pow
    bound = 10.0 ** (2.0**-15 + 1e-12) - 1
    assert np.all(np.abs(plane[sel.rows, sel.cols] - sel.values) <= bound * np.abs(sel.values))


def _check_round_trip():
    rng = np.random.default_rng(16)
    # a checkerboard's truncated reconstruction sits exactly on x.5, where
    # rounding differently on the two sides would show; the zero plane keeps
    # no coefficient, so its carrier is empty
    checker = (254 + np.indices((8, 8)).sum(axis=0) % 2).astype(np.uint8)
    noise = rng.integers(0, 256, (8, 8), dtype=np.uint8)
    img = ImageRGB((checker, noise, np.zeros((8, 8), dtype=np.uint8)))
    # distinct rotation triples, so a container that reorders them shows, and
    # shifts of zero, the side and past it
    rotations = ((1, 2, 3), (40, 0, 47), (5, 11, 17))
    keys = tuple(map(SecretKey, ("select", "a test", "key!42"), rotations))
    bundle = encrypt_image(img, keys, (0, 8, 21))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "round_trip.ldct")
        write_bundle(path, bundle)
        back = read_bundle(path)
    assert back.shifts == bundle.shifts and back.rotations == bundle.rotations
    arrays = bundle.dic + bundle.positions + bundle.carriers
    for a, b in zip(arrays, back.dic + back.positions + back.carriers):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert back.positions[2].size == back.carriers[2].size == 0
    for a, b in zip(img.planes, decrypt_image(back, keys).planes):
        assert np.array_equal(a, b)


CHECKS = (
    ("key derivation", _check_key_derivation),
    ("lorenz system", _check_lorenz),
    ("dct definitions", _check_dct),
    ("convolution and resize", _check_conv_and_resize),
    ("log embedding round trip", _check_log_embedding),
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
