import hashlib

import numpy as np
import pytest

from lorenzdct.dct import idct1
from lorenzdct.errors import DegenerateKeystreamError
import lorenzdct.keystream as keystream
from lorenzdct.keystream import (
    _key_vectors,
    build_round_keystream,
    circular_conv2_mod,
    col_permutations,
    outer_products,
    plane_from_bytes,
    quantize_byte,
    real_twin,
    resize_bilinear,
    row_permutations,
    truncated_vectors,
)
from lorenzdct.lorenz import LorenzParams, SecretKey, State3, Trajectory, integrate

# sha256 over (bytes, row_perm, col_perm) of the three planes for
# SecretKey("key(A)") at N=64; regression-pins the whole derivation chain
GOLDEN_KEY_A_64 = "575675a816aa17f9abbfa575ef2fa0a67fab570e8bd287d50525b02831918964"

# retained 99.9%-energy DCT counts for the reference initial conditions
# under this exact pipeline (uniform fixed-step RK4, dt=0.001); see
# test_acceptance for how these relate to the reference counts 208/228/171
FROZEN_REFERENCE_COUNTS = (297, 395, 252)


def conv2_direct(a, b):
    """O(N^4) wrap-around convolution straight from the definition."""
    n = a.shape[0]
    c = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            s = 0.0
            for p in range(n):
                for q in range(n):
                    s += a[p, q] * b[(i - p) % n, (j - q) % n]
            c[i, j] = s
    return c


def conv_spectra(a, b):
    return circular_conv2_mod(np.fft.rfft2(a), np.fft.rfft2(b))


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
        sig = idct1(spectrum)
        v, _, _ = truncated_vectors(_traj(sig, sig, sig))
        assert len(v) == 2
        assert abs(v[0] - 50.0) < 1e-9 and abs(v[1] + 100.0) < 1e-9


class TestOuterProducts:
    def test_single_elements(self):
        xy, xz, yz = outer_products([2.0], [3.0], [4.0])
        assert xy == [[6.0]] and xz == [[8.0]] and yz == [[12.0]]

    def test_shapes(self):
        xy, xz, yz = outer_products(np.ones(4), np.ones(5), np.ones(6))
        assert xy.shape == (4, 5) and xz.shape == (4, 6) and yz.shape == (5, 6)

    def test_rank_one(self, rng):
        xy, _, _ = outer_products(rng.uniform(1, 5, 6), rng.uniform(1, 5, 7), [1.0])
        assert np.linalg.matrix_rank(xy) == 1

    def test_empty_raises(self):
        with pytest.raises(DegenerateKeystreamError):
            outer_products([], [1.0], [1.0])


class TestResizeBilinear:
    def test_identity_at_same_size(self, rng):
        m = rng.uniform(-9, 9, (7, 7))
        assert np.array_equal(resize_bilinear(m, 7), m)

    def test_constant_stays_constant(self):
        assert np.all(resize_bilinear(np.full((3, 5), 2.5), 11) == 2.5)

    def test_2x2_to_3x3_hand_value(self):
        got = resize_bilinear(np.array([[0.0, 2.0], [4.0, 6.0]]), 3)
        assert np.max(np.abs(got - [[0, 1, 2], [2, 3, 4], [4, 5, 6]])) < 1e-12

    def test_single_cell_target(self):
        m = np.array([[7.0, 1.0], [2.0, 3.0]])
        assert resize_bilinear(m, 1) == [[7.0]]

    def test_single_row_source(self):
        out = resize_bilinear(np.array([[1.0, 3.0]]), 3)
        assert np.allclose(out, [[1, 2, 3], [1, 2, 3], [1, 2, 3]])


class TestCircularConv:
    def test_delta_identity(self, rng):
        a = rng.uniform(-300, 300, (5, 5))
        delta = np.zeros((5, 5))
        delta[0, 0] = 1.0
        assert np.array_equal(conv_spectra(a, delta), quantize_byte(a))

    def test_delta_identity_integer_values(self, rng):
        a = rng.integers(-1000, 1000, (8, 8)).astype(float)
        delta = np.zeros((8, 8))
        delta[0, 0] = 1.0
        assert np.array_equal(
            conv_spectra(a, delta), (np.abs(a).astype(np.int64) % 256).astype(np.uint8)
        )

    def test_zero_input(self):
        assert np.all(conv_spectra(np.zeros((4, 4)), np.ones((4, 4))) == 0)

    def test_2x2_hand_value(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(conv_spectra(a, b), np.full((2, 2), 5, np.uint8))

    @pytest.mark.parametrize("n", [3, 4, 8])
    def test_matches_direct_sum(self, n, rng):
        for _ in range(3):
            a = rng.uniform(-500, 500, (n, n))
            b = rng.uniform(-500, 500, (n, n))
            assert np.array_equal(
                conv_spectra(a, b), quantize_byte(conv2_direct(a, b))
            )

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            conv_spectra(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_rejects_non_spectrum_shape(self):
        with pytest.raises(ValueError):
            circular_conv2_mod(np.zeros((4, 4)), np.zeros((4, 4)))

    @pytest.mark.parametrize("n", [1, 2])
    def test_rejects_real_planes_shaped_like_spectra(self, n):
        # (n, n//2 + 1) == (n, n) here, so only the dtype check catches them
        a = np.ones((n, n))
        with pytest.raises(ValueError):
            circular_conv2_mod(a, a)
        with pytest.raises(ValueError):
            circular_conv2_mod(np.fft.rfft2(a), a)


class TestPermutations:
    def test_sorted_row_identity(self):
        perm = row_permutations(np.array([[1, 2, 3], [0, 5, 9]], dtype=np.uint8))
        assert np.array_equal(perm, [[0, 1, 2], [0, 1, 2]])

    def test_hand_example(self):
        perm = row_permutations(np.array([[3, 1, 2]], dtype=np.uint8))
        assert list(perm[0]) == [1, 2, 0]

    def test_all_equal_stable_identity(self):
        perm = row_permutations(np.full((2, 4), 7, dtype=np.uint8))
        assert np.array_equal(perm, [[0, 1, 2, 3], [0, 1, 2, 3]])

    def test_columns_are_transposed_rows(self, rng):
        m = rng.integers(0, 256, (6, 6), dtype=np.uint8)
        assert np.array_equal(col_permutations(m), row_permutations(m.T))

    def test_invertible(self, rng):
        m = rng.integers(0, 256, (5, 9), dtype=np.uint8)
        perm = row_permutations(m)
        inv = np.argsort(perm, axis=1)
        shuffled = np.take_along_axis(m, perm, axis=1)
        assert np.array_equal(np.take_along_axis(shuffled, inv, axis=1), m)

    def test_plane_perms_are_uint16_stable_argsort(self, rng):
        m = rng.integers(0, 4, (40, 40), dtype=np.uint8)  # many ties
        plane = plane_from_bytes(m)
        assert plane.row_perm.dtype == plane.col_perm.dtype == np.uint16
        assert np.array_equal(plane.row_perm, np.argsort(m, axis=1, kind="stable"))
        assert np.array_equal(plane.col_perm, np.argsort(m.T, axis=1, kind="stable"))

    def test_longest_line_fits_uint16(self):
        line = (np.arange(65536)[::-1] % 251).astype(np.uint8)
        plane = plane_from_bytes(line[None, :])
        assert plane.row_perm.dtype == np.uint16
        assert np.array_equal(plane.row_perm[0], np.argsort(line, kind="stable"))

    @pytest.mark.parametrize("shape", [(1, 65537), (65537, 1)])
    def test_lines_longer_than_uint16_rejected(self, shape):
        with pytest.raises(ValueError):
            plane_from_bytes(np.zeros(shape, dtype=np.uint8))


class TestRealTwin:
    def test_twin_equals_bytes_exactly(self, rng):
        planes = [
            plane_from_bytes(rng.integers(0, 256, (16, 16), dtype=np.uint8))
            for _ in range(3)
        ]
        assert np.array_equal(real_twin(planes[0]), planes[0].bytes.astype(np.float64))
        twin = real_twin(*planes)
        assert twin.dtype == np.float64
        assert np.array_equal(
            twin, sum(p.bytes.astype(np.int64) for p in planes).astype(np.float64)
        )
        full = plane_from_bytes(np.full((4, 4), 255, dtype=np.uint8))
        assert np.all(real_twin(full, full, full) == 765.0)

    def test_add_subtract_exact_zero(self, rng):
        """(twin + s) - twin == 0 exactly where s == 0.

        Load-bearing for carrier extraction: empty cells must come back as
        exact zeros, not tiny residues.
        """
        planes = [
            plane_from_bytes(rng.integers(0, 256, (32, 32), dtype=np.uint8))
            for _ in range(3)
        ]
        s = np.zeros((32, 32))
        s[rng.integers(0, 32, 40), rng.integers(0, 32, 40)] = rng.uniform(-5, 5, 40)
        for twin in (real_twin(planes[0]), real_twin(*planes)):
            back = (twin + s) - twin
            assert np.all(back[s == 0.0] == 0.0)


class TestBuildRoundKeystream:
    def test_deterministic(self):
        key = SecretKey("zz99!!")
        a = build_round_keystream(key, 16)
        build_round_keystream.cache_clear()
        _key_vectors.cache_clear()
        b = build_round_keystream(key, 16)
        for name in ("xy", "xz", "yz"):
            assert np.array_equal(getattr(a, name).bytes, getattr(b, name).bytes)
            assert np.array_equal(getattr(a, name).row_perm, getattr(b, name).row_perm)

    def test_golden_hash(self):
        ks = build_round_keystream(SecretKey("key(A)"), 64)
        h = hashlib.sha256()
        for name in ("xy", "xz", "yz"):
            p = getattr(ks, name)
            h.update(p.bytes.tobytes())
            h.update(p.row_perm.astype(np.int64).tobytes())
            h.update(p.col_perm.astype(np.int64).tobytes())
        assert h.hexdigest() == GOLDEN_KEY_A_64

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
            for name in ("xy", "xz", "yz"):
                a, b = getattr(r1, name).bytes, getattr(r2, name).bytes
                assert np.count_nonzero(a != b) / a.size >= 0.99

    def test_reference_retained_counts_frozen(self):
        from lorenzdct.dct import dct1, energy_select

        traj = integrate(LorenzParams(), State3(0.84063, 0.13859, 0.05934))
        counts = tuple(
            len(energy_select(dct1(arr), 0.999)) for arr in (traj.x, traj.y, traj.z)
        )
        assert counts == FROZEN_REFERENCE_COUNTS

    def test_plane_sizes_and_range(self):
        ks = build_round_keystream(SecretKey("key(B)"), 32)
        for name in ("xy", "xz", "yz"):
            p = getattr(ks, name)
            assert p.bytes.shape == (32, 32)
            assert p.bytes.dtype == np.uint8

    def test_new_size_reuses_key_vectors(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(keystream, "integrate", spy)
        build_round_keystream.cache_clear()
        _key_vectors.cache_clear()
        key = SecretKey("sz9!ab")
        a = build_round_keystream(key, 24)
        b = build_round_keystream(key, 37)
        assert len(calls) == 1
        assert a.xy.n == 24 and b.xy.n == 37

    def test_plane_cache_holds_one_key_triple(self):
        build_round_keystream.cache_clear()
        for chars, n in (("key(A)", 16), ("key(B)", 16), ("key(C)", 16), ("key(A)", 20)):
            build_round_keystream(SecretKey(chars), n)
        assert build_round_keystream.cache_info().currsize <= 3

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

    def test_conv_magnitude_headroom(self):
        """Pre-quantization convolution values stay far below 2**52.

        Above that, float64 spacing exceeds 1 and floor-mod-256 would lose
        byte granularity; measured maxima sit near 2e13.
        """
        from lorenzdct.keystream import outer_products as op, resize_bilinear as rb
        from lorenzdct.lorenz import derive_initial_conditions

        key = SecretKey("key(A)")
        traj = integrate(LorenzParams(), derive_initial_conditions(key))
        vx, vy, vz = truncated_vectors(traj)
        planes = [rb(m, 256) for m in op(vx, vy, vz)]
        for a, b in ((planes[0], planes[1]), (planes[1], planes[2]), (planes[2], planes[0])):
            c = np.fft.irfft2(np.fft.rfft2(a) * np.fft.rfft2(b), s=a.shape)
            assert np.max(np.abs(c)) < 2.0**52
