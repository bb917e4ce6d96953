import hashlib
import math

import numpy as np
import pytest
from scipy import fft

import lorenzdct.cipher as cipher
from lorenzdct.cipher import DEFAULT_SHIFTS, _schedules, line_orders
from lorenzdct.errors import DegenerateKeystreamError
import lorenzdct.keystream as keystream
from lorenzdct.keystream import (
    S,
    _key_vectors,
    build_round_keystream,
    circular_conv,
    plane_bytes,
    resize_linear,
    truncated_vectors,
)
from lorenzdct.lorenz import LorenzParams, SecretKey, State3, Trajectory, integrate

# sha256 over (bytes, row orders, column orders) of the three planes for
# SecretKey("key(A)") at N=64; regression-pins the whole derivation chain
GOLDEN_KEY_A_64 = "1d3d5e4923149ddf21e04889e0f81a84fa523f99a9111ca8b3d250f42364901b"

# the same digest at sizes that are prime (331) and large (1024)
GOLDEN_KEY_A = {
    331: "838b5b8ba738af0fccb3bc6a8ff86fae6e2a8835b3fbe3773777f9b8abf9970b",
    1024: "0aa527bdc244f1757e941e82fc5e057d92cead527797e494dc334b54754be3f1",
}

# retained 99.9%-energy DCT counts for the reference initial conditions
# under this exact pipeline (uniform fixed-step RK4, dt=0.001); see
# test_acceptance for how these relate to the reference counts 208/228/171
FROZEN_REFERENCE_COUNTS = (297, 395, 252)


def conv_direct(a, b):
    """Wrap-around 1-D convolution in Python integers, straight from the definition."""
    n = len(a)
    a, b = [int(v) for v in a], [int(v) for v in b]
    return [sum(a[p] * b[(k - p) % n] for p in range(n)) for k in range(n)]


def conv2_direct(a, b):
    """Wrap-around 2-D convolution in Python integers, O(N^4), from the definition."""
    n = len(a)
    return [
        [
            sum(
                int(a[p][q]) * int(b[(i - p) % n][(j - q) % n])
                for p in range(n)
                for q in range(n)
            )
            for j in range(n)
        ]
        for i in range(n)
    ]


def reference_vector(v, n):
    """One trajectory vector resized and taken to fixed point, in Python floats."""
    src = len(v) - 1
    out = []
    for i in range(n):
        pos = (float(i) * src) / max(n - 1, 1)
        lo = min(math.floor(pos), src)
        hi = min(lo + 1, src)
        frac = pos - lo
        out.append(round((float(v[lo]) * (1.0 - frac) + float(v[hi]) * frac) * 2.0**S))
    return out


def reference_byte(a, b):
    """floor(|a| * (|b| * 2**-4S)) mod 256 with Python floats."""
    return math.floor(float(abs(a)) * (float(abs(b)) * 2.0 ** (-4 * S))) % 256


def keystream_digest(ks):
    h = hashlib.sha256()
    for k in ks:
        h.update(k.tobytes())
        for orders in line_orders(k):
            h.update(orders.astype(np.int64).tobytes())
    return h.hexdigest()


def _traj(x, y, z):
    t = np.arange(len(x), dtype=float)
    return Trajectory(t, x, y, z)


class TestTruncatedVectors:
    def test_constant_trajectory_single_coefficient(self):
        arr = np.full(100, 5.0)
        vx, vy, vz = truncated_vectors(_traj(arr, arr, arr))
        assert len(vx) == len(vy) == len(vz) == 1

    def test_zero_trajectory_empty(self):
        zeros = np.zeros(64)
        vx, vy, vz = truncated_vectors(_traj(zeros, zeros, zeros))
        assert len(vx) == len(vy) == len(vz) == 0

    def test_values_ordered_by_original_index(self):
        # larger coefficient sits at the higher index
        spectrum = np.zeros(64)
        spectrum[3], spectrum[10] = 50.0, -100.0
        sig = fft.idct(spectrum, type=2, norm="ortho")
        v, _, _ = truncated_vectors(_traj(sig, sig, sig))
        assert len(v) == 2
        assert abs(v[0] - 50.0) < 1e-9 and abs(v[1] + 100.0) < 1e-9


class TestOuterProducts:
    """Each plane is the byte image of an outer product of two 1-D convolutions."""

    def test_single_elements(self):
        assert plane_bytes([2 << 12], [3 << 12]).tolist() == [[6]]

    def test_shapes(self):
        out = plane_bytes(np.ones(4, np.int64), np.ones(5, np.int64))
        assert out.shape == (4, 5) and out.dtype == np.uint8

    def test_rank_one(self, rng):
        """(a (x) b) * (c (x) d) == (a * c) (x) (b * d), exactly, for 2-D
        circular convolution of two outer products."""
        for n in range(1, 9):
            a, b, c, d = (rng.integers(-(2**20), 2**20, n) for _ in range(4))
            plane = conv2_direct(np.outer(a, b).tolist(), np.outer(c, d).tolist())
            rows, cols = conv_direct(a, c), conv_direct(b, d)
            assert plane == [[r * q for q in cols] for r in rows]
            assert circular_conv(a, c).tolist() == rows

    def test_empty_raises(self):
        with pytest.raises(DegenerateKeystreamError):
            resize_linear([], 4)


class TestResizeBilinear:
    """The bilinear plane resize, done per axis: resize(u (x) v) == u^ (x) v^."""

    def test_identity_at_same_size(self, rng):
        v = rng.uniform(-9, 9, 7)
        assert np.array_equal(resize_linear(v, 7), v)

    def test_constant_stays_constant(self):
        assert np.all(resize_linear(np.full(5, 2.5), 11) == 2.5)

    def test_2x2_to_3x3_hand_value(self):
        # [[1, 3], [2, 6]] = [1, 2] (x) [1, 3], resized bilinearly to 3 x 3 by hand
        got = np.outer(resize_linear([1.0, 2.0], 3), resize_linear([1.0, 3.0], 3))
        assert np.array_equal(got, [[1, 2, 3], [1.5, 3, 4.5], [2, 4, 6]])

    def test_single_cell_target(self):
        assert resize_linear([7.0, 1.0], 1).tolist() == [7.0]

    def test_single_row_source(self):
        out = np.outer(resize_linear([1.0], 3), resize_linear([1.0, 3.0], 3))
        assert np.array_equal(out, [[1, 2, 3], [1, 2, 3], [1, 2, 3]])


class TestCircularConv:
    def test_delta_identity(self, rng):
        a = rng.integers(-(2**30), 2**30, 5)
        assert np.array_equal(circular_conv(a, [1, 0, 0, 0, 0]), a)

    def test_delta_identity_integer_values(self, rng):
        # a unit at full fixed-point scale turns |a| into its bytes
        a = rng.integers(-1000, 1000, 8)
        delta = np.zeros(8, np.int64)
        delta[0] = 1
        got = plane_bytes(circular_conv(a, delta), [1 << (4 * S)])
        assert np.array_equal(got[:, 0], np.abs(a) % 256)

    def test_zero_input(self):
        assert np.all(circular_conv(np.zeros(4, np.int64), np.ones(4, np.int64)) == 0)

    def test_2x2_hand_value(self):
        # ([1, 2] (x) [1, 3]) * ([3, 4] (x) [1, 1]) worked as a 2-D sum by hand
        plane = np.outer(circular_conv([1, 2], [3, 4]), circular_conv([1, 3], [1, 1]))
        assert np.array_equal(plane, [[44, 44], [40, 40]])

    @pytest.mark.parametrize("n", [3, 4, 8])
    def test_matches_direct_sum(self, n, rng):
        for _ in range(3):
            a = rng.integers(-(2**24), 2**24, n)
            b = rng.integers(-(2**24), 2**24, n)
            got = circular_conv(a, b)
            assert got.dtype == np.int64
            assert got.tolist() == conv_direct(a, b)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            circular_conv(np.zeros(2, np.int64), np.zeros(3, np.int64))

    def test_exactness_bounds_enforced(self):
        # n * max|a| * max|b| must stay below 2**53 ...
        big = np.full(4, 1 << 25)
        assert circular_conv(big, big * 2 - 1).tolist() == [4 * (2**25) * (2**26 - 1)] * 4
        with pytest.raises(DegenerateKeystreamError):
            circular_conv(big, big * 2)
        # ... and each scaled product below 2**63, where the int64 cast is defined
        assert plane_bytes([2**52 - 1], [2**35]).tolist() == [[0]]
        with pytest.raises(DegenerateKeystreamError):
            plane_bytes([2**52], [2**35])


def row_orders(m):
    return line_orders(m)[0]


class TestPermutations:
    """The shuffle's line orders of a keystream plane (`cipher.line_orders`)."""

    def test_sorted_row_identity(self):
        perm = row_orders(np.array([[1, 2, 3], [0, 5, 9]], dtype=np.uint8))
        assert np.array_equal(perm, [[0, 1, 2], [0, 1, 2]])

    def test_hand_example(self):
        perm = row_orders(np.array([[3, 1, 2]], dtype=np.uint8))
        assert list(perm[0]) == [1, 2, 0]

    def test_all_equal_stable_identity(self):
        perm = row_orders(np.full((2, 4), 7, dtype=np.uint8))
        assert np.array_equal(perm, [[0, 1, 2, 3], [0, 1, 2, 3]])

    def test_columns_are_transposed_rows(self, rng):
        m = rng.integers(0, 256, (6, 6), dtype=np.uint8)
        assert np.array_equal(line_orders(m)[1], row_orders(m.T))

    def test_invertible(self, rng):
        m = rng.integers(0, 256, (5, 9), dtype=np.uint8)
        perm = row_orders(m)
        inv = np.argsort(perm, axis=1)
        shuffled = np.take_along_axis(m, perm, axis=1)
        assert np.array_equal(np.take_along_axis(shuffled, inv, axis=1), m)

    def test_plane_perms_are_uint16_stable_argsort(self, rng):
        m = rng.integers(0, 4, (40, 40), dtype=np.uint8)  # many ties
        rows, cols = line_orders(m)
        assert rows.dtype == cols.dtype == np.uint16
        assert np.array_equal(rows, np.argsort(m, axis=1, kind="stable"))
        assert np.array_equal(cols, np.argsort(m.T, axis=1, kind="stable"))

    def test_longest_line_fits_uint16(self):
        line = (np.arange(65536)[::-1] % 251).astype(np.uint8)
        rows = row_orders(line[None, :])
        assert rows.dtype == np.uint16
        assert np.array_equal(rows[0], np.argsort(line, kind="stable"))

    @pytest.mark.parametrize("shape", [(1, 65537), (65537, 1)])
    def test_lines_longer_than_uint16_rejected(self, shape):
        with pytest.raises(ValueError):
            line_orders(np.zeros(shape, dtype=np.uint8))


class TestRealTwin:
    """The carrier's twin, `Schedule.twin`: the exact uint16 sum of one
    component's keystream bytes over the three rounds."""

    def test_twin_equals_bytes_exactly(self, keys, monkeypatch):
        n = 16
        _schedules.cache_clear()
        rounds = [build_round_keystream(k, n) for k in keys]
        for comp, sched in enumerate(_schedules(keys, DEFAULT_SHIFTS, n)):
            assert sched.twin.dtype == np.uint16
            want = sum(r[comp].astype(np.int64) for r in rounds).astype(np.float64)
            assert np.array_equal(sched.twin, want)

        full = np.full((4, 4), 255, dtype=np.uint8)
        monkeypatch.setattr(cipher, "build_round_keystream", lambda key, size: (full,) * 3)
        _schedules.cache_clear()
        try:
            assert all(np.all(s.twin == 765.0) for s in _schedules(keys, DEFAULT_SHIFTS, 4))
        finally:
            _schedules.cache_clear()

    def test_add_subtract_exact_zero(self, keys, rng):
        """(twin + s) - twin == 0 exactly where s == 0.

        Load-bearing for carrier extraction: empty cells must come back as
        exact zeros, not tiny residues.
        """
        s = np.zeros((32, 32))
        s[rng.integers(0, 32, 40), rng.integers(0, 32, 40)] = rng.uniform(-5, 5, 40)
        for sched in _schedules(keys, DEFAULT_SHIFTS, 32):
            back = (sched.twin + s) - sched.twin
            assert np.all(back[s == 0.0] == 0.0)


class TestBuildRoundKeystream:
    def test_deterministic(self):
        key = SecretKey("zz99!!")
        a = build_round_keystream(key, 16)
        _key_vectors.cache_clear()
        b = build_round_keystream(key, 16)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa, pb)

    def test_golden_hash(self):
        assert keystream_digest(build_round_keystream(SecretKey("key(A)"), 64)) == GOLDEN_KEY_A_64

    @pytest.mark.parametrize("n", sorted(GOLDEN_KEY_A))
    def test_golden_hash_large(self, n):
        assert keystream_digest(build_round_keystream(SecretKey("key(A)"), n)) == GOLDEN_KEY_A[n]

    @pytest.mark.parametrize(
        "n, cells", [(2, None), (3, None), (17, None), (64, None), (331, 2000), (1024, 2000)]
    )
    def test_matches_pure_python_reference(self, n, cells, keys):
        """Byte for byte against Python-int convolutions and Python-float
        products: every cell for the test keys, or seeded cells of key(A)."""
        for key in keys[:1] if cells else keys:
            x, y, z = (reference_vector(v, n) for v in _key_vectors(key))
            xy = conv_direct(x, y)
            yz = conv_direct(y, z)
            pairs = ((conv_direct(x, x), yz), (xy, conv_direct(z, z)), (xy, yz))
            if cells:
                ij = np.random.default_rng(n).integers(0, n, (cells, 2)).tolist()
            else:
                ij = [(i, j) for i in range(n) for j in range(n)]
            ks = build_round_keystream(key, n)
            for got, (rows, cols) in zip(ks, pairs):
                assert [int(got[i, j]) for i, j in ij] == [
                    reference_byte(rows[i], cols[j]) for i, j in ij
                ]

    def test_one_bit_key_difference_decorrelates_planes(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            chars = "".join(chr(rng.integers(33, 126)) for _ in range(6))
            bit = int(rng.integers(0, 48))
            byte_i, bit_i = divmod(bit, 8)
            raw = bytearray(chars.encode())
            flipped = raw[5 - byte_i] ^ (1 << bit_i)
            if not 32 <= flipped <= 126:
                flipped = raw[5 - byte_i] ^ 1
            raw[5 - byte_i] = flipped
            r1 = build_round_keystream(SecretKey(chars), 64)
            r2 = build_round_keystream(SecretKey(raw.decode()), 64)
            for p1, p2 in zip(r1, r2):
                assert np.count_nonzero(p1 != p2) / p1.size >= 0.99

    def test_reference_retained_counts_frozen(self):
        from lorenzdct.dct import dct1, energy_select

        traj = integrate(LorenzParams(), State3(0.84063, 0.13859, 0.05934))
        counts = tuple(
            len(energy_select(dct1(arr), 0.999)) for arr in (traj.x, traj.y, traj.z)
        )
        assert counts == FROZEN_REFERENCE_COUNTS

    def test_plane_sizes_and_range(self):
        ks = build_round_keystream(SecretKey("key(B)"), 32)
        assert len(ks) == 3
        for p in ks:
            assert p.shape == (32, 32)
            assert p.dtype == np.uint8

    def test_new_size_reuses_key_vectors(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(keystream, "integrate", spy)
        _key_vectors.cache_clear()
        key = SecretKey("sz9!ab")
        a = build_round_keystream(key, 24)
        b = build_round_keystream(key, 37)
        assert len(calls) == 1
        assert a[0].shape == (24, 24) and b[0].shape == (37, 37)

    def test_plane_cache_holds_one_key_triple(self):
        """Rounds are not memoized; the cipher keeps the schedules of one triple."""
        assert not hasattr(build_round_keystream, "cache_info")
        _schedules.cache_clear()
        triple = tuple(SecretKey(c) for c in ("key(A)", "key(B)", "key(C)"))
        for keys, n in ((triple, 16), (triple[::-1], 16), (triple, 20)):
            _schedules(keys, (3, 7, 13), n)
        assert _schedules.cache_info().currsize == 1

    def test_key_vectors_match_uncached_derivation(self):
        from lorenzdct.lorenz import derive_initial_conditions

        key = SecretKey("key(C)")
        cached = _key_vectors(key)
        fresh = truncated_vectors(integrate(LorenzParams(), derive_initial_conditions(key)))
        for c, f in zip(cached, fresh):
            assert np.array_equal(c, f)
            assert not c.flags.writeable

    def test_size_below_two_rejected(self):
        with pytest.raises(ValueError):
            build_round_keystream(SecretKey("key(A)"), 1)

    def test_conv_magnitude_headroom(self, keys):
        """n * max|a| * max|b| stays below 2**49 at n=4096 for every pair,
        a factor of 16 below the 2**53 that circular_conv refuses."""
        n = 4096
        for key in keys + (SecretKey("q7#Lm2"),):
            peaks = [
                int(np.max(np.abs(np.rint(resize_linear(v, n) * 2.0**S))))
                for v in _key_vectors(key)
            ]
            for i, j in ((0, 0), (0, 1), (1, 2), (2, 2)):
                assert n * peaks[i] * peaks[j] < 2**49
