import numpy as np
import pytest

from lorenzdct.analysis import adjacent_correlation, correlation
from lorenzdct.cipher import (
    CipherBundle,
    ImageRGB,
    _carried_coeffs,
    _twin_sum,
    decrypt_image,
    encrypt_image,
    log_forward,
    log_inverse,
    make_difference,
    shuffle_decrypt,
    shuffle_encrypt,
)
from lorenzdct.dct import SparseCoeffs, dct2, energy_select
from lorenzdct.errors import DimensionMismatchError
from lorenzdct.keystream import (
    KeystreamPlane,
    RoundKeystream,
    _key_vectors,
    build_round_keystream,
    plane_from_bytes,
    real_twin,
)
from lorenzdct.lorenz import SecretKey


def random_plane(rng, n):
    return rng.integers(0, 256, (n, n), dtype=np.uint8)


def random_keystream(rng, n):
    return plane_from_bytes(random_plane(rng, n))


def random_rounds(rng, n):
    return [RoundKeystream(*(random_keystream(rng, n) for _ in range(3))) for _ in range(3)]


class TestMakeDifference:
    def test_full_selection_zero_difference(self):
        component = np.full((8, 8), 7, dtype=np.uint8)
        sparse = energy_select(dct2(component.astype(float)), 1.0)
        dic, recon_u8 = make_difference(component, sparse)
        assert np.array_equal(recon_u8, component)
        assert np.all(dic == 0)

    def test_empty_selection_identity(self, rng):
        component = random_plane(rng, 8)
        empty = energy_select(np.zeros((8, 8)), 0.999)
        dic, recon_u8 = make_difference(component, empty)
        assert np.all(recon_u8 == 0)
        assert np.array_equal(dic, component)

    def test_mod256_reconstruction_guarantee(self, rng):
        component = random_plane(rng, 16)
        sparse = energy_select(dct2(component.astype(float)), 0.9)
        dic, recon_u8 = make_difference(component, sparse)
        back = (recon_u8.astype(np.int16) + dic.astype(np.int16)) % 256
        assert np.array_equal(back.astype(np.uint8), component)

    def test_dim_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            make_difference(random_plane(rng, 8), energy_select(np.ones((4, 4)), 1.0))

    def test_non_finite_reconstruction_becomes_zero(self, rng):
        component = random_plane(rng, 4)
        overflow = SparseCoeffs((4, 4), np.array([0]), np.array([0]), np.array([np.inf]), 1.0)
        dic, recon_u8 = make_difference(component, overflow)
        assert np.all(recon_u8 == 0)
        assert np.array_equal(dic, component)


class TestShuffle:
    def test_degenerate_1x1(self):
        ks = plane_from_bytes(np.array([[123]], dtype=np.uint8))
        plane = np.array([[45]], dtype=np.uint8)
        assert shuffle_encrypt(plane, ks, 0)[0, 0] == 45

    def test_null_keystream_is_identity(self, rng):
        plane = random_plane(rng, 8)
        ks = plane_from_bytes(np.zeros((8, 8), dtype=np.uint8))
        assert np.array_equal(shuffle_encrypt(plane, ks, 0), plane)

    @pytest.mark.parametrize("shift", [0, 1, 3, 8, 13])
    def test_roundtrip_8x8_many_keystreams(self, shift, rng):
        for _ in range(100):
            ks = random_keystream(rng, 8)
            plane = random_plane(rng, 8)
            enc = shuffle_encrypt(plane, ks, shift)
            assert np.array_equal(shuffle_decrypt(enc, ks, shift), plane)

    def test_roundtrip_structured_planes(self, rng):
        ks = random_keystream(rng, 8)
        planes = [
            np.zeros((8, 8), dtype=np.uint8),
            np.full((8, 8), 255, dtype=np.uint8),
            np.arange(64, dtype=np.uint8).reshape(8, 8),
        ]
        for i in range(8):
            delta = np.zeros((8, 8), dtype=np.uint8)
            delta[i, (3 * i) % 8] = 255
            planes.append(delta)
        for plane in planes:
            for shift in (0, 1, 7):
                enc = shuffle_encrypt(plane, ks, shift)
                assert np.array_equal(shuffle_decrypt(enc, ks, shift), plane)

    def test_encrypt_changes_plane(self, rng):
        ks = random_keystream(rng, 16)
        plane = random_plane(rng, 16)
        assert not np.array_equal(shuffle_encrypt(plane, ks, 3), plane)

    def test_bijective_on_distinct_inputs(self, rng):
        ks = random_keystream(rng, 8)
        a, b = random_plane(rng, 8), random_plane(rng, 8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(
            shuffle_encrypt(a, ks, 5), shuffle_encrypt(b, ks, 5)
        )

    def test_dim_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            shuffle_encrypt(random_plane(rng, 4), random_keystream(rng, 8), 1)

    @pytest.mark.parametrize("n", [2, 3, 17, 64])
    @pytest.mark.parametrize("kind", ["identity", "reversal", "random"])
    def test_roundtrip_hand_built_permutations(self, kind, n, rng):
        ident = np.tile(np.arange(n), (n, 1))
        perms = {
            "identity": (ident, ident),
            "reversal": (ident[:, ::-1], ident[:, ::-1]),
            "random": (rng.permuted(ident, axis=1), rng.permuted(ident, axis=1)),
        }[kind]
        ks = KeystreamPlane(random_plane(rng, n), *(p.astype(np.uint16) for p in perms))
        plane = random_plane(rng, n)
        for shift in (0, 1, n + 2):
            enc = shuffle_encrypt(plane, ks, shift)
            assert np.array_equal(shuffle_decrypt(enc, ks, shift), plane)


class TestLogEmbedding:
    def test_positive_value_row_zero(self):
        s = energy_select(np.array([[100.0, 0.0], [0.0, 0.0]]), 1.0)
        m = log_forward(s, 2)
        assert m[0, 0] == 2.0 and np.count_nonzero(m) == 1

    def test_negative_value_shifted_row(self):
        n = 5
        mat = np.zeros((n, n))
        mat[1, 0] = -1000.0
        s = energy_select(mat, 1.0)
        m = log_forward(s, n)
        # row 1 rotates left by 1: column 0 lands at column n-1
        assert m[1, n - 1] == -3.0
        assert np.count_nonzero(m) == 1

    def test_empty_gives_zero_matrix(self):
        s = energy_select(np.zeros((4, 4)), 0.999)
        assert np.max(np.abs(log_forward(s, 4))) == 0.0

    def test_log_inverse_of_zero_matrix(self):
        assert len(log_inverse(np.zeros((6, 6)))) == 0

    def test_log_inverse_single_cell(self):
        m = np.zeros((3, 3))
        m[0, 0] = 2.0
        s = log_inverse(m)
        assert len(s) == 1
        assert (s.rows[0], s.cols[0]) == (0, 0)
        assert abs(s.values[0] - 100.0) < 1e-9

    def test_roundtrip_exact_positions_tight_values(self, rng):
        mat = np.zeros((16, 16))
        k = 40
        mat[rng.integers(0, 16, k), rng.integers(0, 16, k)] = rng.uniform(
            1.5, 1e5, k
        ) * rng.choice([-1.0, 1.0], k)
        s = energy_select(mat, 1.0)
        back = log_inverse(log_forward(s, 16))
        assert len(back) == len(s)
        got = {(r, c): v for r, c, v in zip(back.rows, back.cols, back.values)}
        for r, c, v in zip(s.rows, s.cols, s.values):
            assert (r, c) in got
            assert abs(got[(r, c)] - v) <= 1e-12 * abs(v)

    def test_log_inverse_order_matches_selection(self, rng):
        mat = rng.choice([-300.0, -7.0, 0.0, 0.0, 7.0, 41.5, 300.0], (24, 24))
        sel = energy_select(mat, 1.0)
        back = log_inverse(log_forward(sel, 24))
        assert np.array_equal(back.rows, sel.rows)
        assert np.array_equal(back.cols, sel.cols)

    def test_dims_must_match(self):
        s = energy_select(np.ones((4, 4)) * 5.0, 1.0)
        with pytest.raises(DimensionMismatchError):
            log_forward(s, 8)

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 64])
    @pytest.mark.parametrize("sign", [-1, +1])
    def test_roll_rows_matches_per_row_roll(self, sign, n, rng):
        """log_forward rolls row i of the scattered logs left by i (sign -1);
        log_inverse rolls it right again (+1) and keeps the selection order."""
        mat = rng.choice([-300.0, -7.0, 0.0, 0.0, 7.0, 41.5, 300.0], (n, n))
        sel = energy_select(mat, 1.0)
        scattered = np.zeros((n, n))
        scattered[sel.rows, sel.cols] = np.sign(sel.values) * np.log10(np.abs(sel.values))
        rolled = np.stack([np.roll(scattered[i], -i) for i in range(n)])
        if sign < 0:
            assert np.array_equal(log_forward(sel, n), rolled)
            return
        back = log_inverse(rolled)
        unrolled = np.stack([np.roll(rolled[i], sign * i) for i in range(n)])
        logs = unrolled[sel.rows, sel.cols]
        assert np.array_equal(back.rows, sel.rows)
        assert np.array_equal(back.cols, sel.cols)
        assert np.array_equal(back.values, np.sign(logs) * np.power(10.0, np.abs(logs)))


class TestCarrier:
    """The carrier as the pipeline builds it: _twin_sum plus log_forward."""

    def test_zero_log_gives_twin_exactly(self, rng):
        rounds = random_rounds(rng, 16)
        twin = _twin_sum(rounds, 1)
        carrier = twin + log_forward(energy_select(np.zeros((16, 16)), 0.999), 16)
        assert np.array_equal(carrier, twin)
        assert np.array_equal(twin, real_twin(*(r.xz for r in rounds)))
        assert np.array_equal(twin, sum(r.xz.bytes.astype(np.float64) for r in rounds))

    def test_extract_exact_zero_at_empty_cells(self, rng):
        rounds = random_rounds(rng, 32)
        twin = _twin_sum(rounds, 0)
        mat = np.zeros((32, 32))
        cells = (rng.integers(0, 32, 50), rng.integers(0, 32, 50))
        mat[cells] = 10.0 ** rng.uniform(0.01, 4.8, 50) * rng.choice([-1.0, 1.0], 50)
        sel = energy_select(mat, 1.0)
        logm = log_forward(sel, 32)
        carrier = twin + logm
        back = carrier - twin
        assert np.all(back[logm == 0.0] == 0.0)
        assert np.max(np.abs(back - logm)) < 1e-10
        carried = _carried_coeffs(carrier, rounds, 0)
        assert np.array_equal(carried.rows, sel.rows) and np.array_equal(carried.cols, sel.cols)

    def test_carrier_range_for_8bit_source(self, rng):
        rounds = random_rounds(rng, 64)
        mat = np.zeros((64, 64))
        # largest possible 8-bit dct2 magnitude is 255*64 here
        mat[0, 0] = 255.0 * 64
        mat[1, 1] = -255.0 * 64
        carrier = _twin_sum(rounds, 2) + log_forward(energy_select(mat, 1.0), 64)
        bound = np.log10(255.0 * 64)
        assert np.all(carrier >= -bound) and np.all(carrier <= 3 * 255 + bound)


class TestPipeline:
    def test_2x2_lossless_roundtrip(self):
        planes = tuple(
            np.array(v, dtype=np.uint8)
            for v in (
                [[200, 50], [30, 120]],
                [[90, 200], [140, 60]],
                [[10, 250], [200, 100]],
            )
        )
        img = ImageRGB(planes)
        keys = (SecretKey("key(A)"), SecretKey("key(B)"), SecretKey("key(C)"))
        bundle = encrypt_image(img, keys)
        out = decrypt_image(bundle, keys)
        for a, b in zip(img.planes, out.planes):
            assert np.array_equal(a, b)

    def test_roundtrip_exact_256(self, image_a, bundle_a, keys):
        out = decrypt_image(bundle_a, keys)
        for a, b in zip(image_a.planes, out.planes):
            assert np.array_equal(a, b)

    def test_deterministic_bundles(self, image_a, bundle_a, keys):
        build_round_keystream.cache_clear()
        _key_vectors.cache_clear()
        again = encrypt_image(image_a, keys)
        for a, b in zip(bundle_a.dic + bundle_a.carriers, again.dic + again.carriers):
            assert np.array_equal(a, b)
        assert bundle_a.shifts == again.shifts

    def test_wrong_key_gives_uncorrelated_garbage(self, image_a, bundle_a, keys):
        wrong = (keys[0], keys[1], SecretKey("kez(C)"))
        out = decrypt_image(bundle_a, wrong)
        assert out.width == image_a.width
        for orig, dec in zip(image_a.planes, out.planes):
            assert abs(correlation(orig, dec)) <= 0.1
            for direction in ("horizontal", "vertical", "diagonal"):
                assert abs(adjacent_correlation(dec, direction)) <= 0.1

    def test_shift_schedule_matters(self, image_a, bundle_a, keys):
        out = decrypt_image(bundle_a, keys, shifts=(13, 7, 3))
        assert any(
            not np.array_equal(a, b) for a, b in zip(image_a.planes, out.planes)
        )

    def test_non_square_rejected(self, rng, keys):
        img = ImageRGB(tuple(rng.integers(0, 256, (4, 6), dtype=np.uint8) for _ in range(3)))
        with pytest.raises(ValueError):
            encrypt_image(img, keys)

    def test_bad_shift_schedule_rejected(self, image_a, keys):
        with pytest.raises(ValueError):
            encrypt_image(image_a, keys, shifts=(1, 2))
        with pytest.raises(ValueError):
            encrypt_image(image_a, keys, shifts=(1, 2, 70000))

    def test_bundle_records_schedules(self, bundle_a, keys):
        assert bundle_a.shifts == (3, 7, 13)
        assert bundle_a.rotations == tuple(k.rotations for k in keys)

    def test_bundle_shape_validation(self, rng):
        with pytest.raises(DimensionMismatchError):
            CipherBundle(
                n=4,
                shifts=(1, 2, 3),
                rotations=((5, 11, 17),) * 3,
                dic=tuple(rng.integers(0, 256, (3, 3), np.uint8) for _ in range(3)),
                carriers=tuple(np.zeros((4, 4)) for _ in range(3)),
            )
