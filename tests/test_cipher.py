import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_io import BAD_SHIFTS

import lorenzdct.cipher as cipher
from lorenzdct.analysis import adjacent_correlation, correlation
from lorenzdct.cipher import (
    DEFAULT_SHIFTS,
    CipherBundle,
    ImageRGB,
    _carried_coeffs,
    _gather,
    _identity,
    _push_round,
    _scatter,
    _schedules,
    decrypt_image,
    encrypt_image,
    log_forward,
    log_inverse,
    make_difference,
)
from lorenzdct.dct import SparseCoeffs, dct2, energy_select
from lorenzdct.errors import DimensionMismatchError
from lorenzdct.keystream import _key_vectors, build_round_keystream
from lorenzdct.lorenz import SecretKey


def random_plane(rng, n):
    return rng.integers(0, 256, (n, n), dtype=np.uint8)


def random_rounds(rng, n):
    """Three rounds of (R, G, B) planes, shaped like build_round_keystream's."""
    return [tuple(random_plane(rng, n) for _ in range(3)) for _ in range(3)]


def twin_of(rounds, component):
    return np.sum([r[component] for r in rounds], axis=0, dtype=np.uint16)


def encrypt_round(plane, ks, shift):
    return _gather(plane, *composed([ks], [shift]))


def round_trip(plane, ks, shift):
    perm, mask = composed([ks], [shift])
    return _scatter(_gather(plane, perm, mask), perm, mask)


def coeff_map(s):
    """A SparseCoeffs as {(row, col): value}, which ignores entry order."""
    return dict(zip(zip(s.rows.tolist(), s.cols.tolist()), s.values.tolist()))


# Reference shuffle: the paper's passes run literally, one line gather and
# one rotation of data and keystream at a time, with line orders taken
# straight from numpy's stable argsort.
def stable_orders(m):
    return np.argsort(m, axis=1, kind="stable")


def ref_pass_encrypt(plane, ks_bytes, perms, n_shift):
    x1 = plane ^ ks_bytes
    b = np.take_along_axis(x1, perms, axis=1)
    return np.roll(b, -n_shift, axis=1) ^ np.roll(ks_bytes, -n_shift, axis=1)


def ref_pass_decrypt(out, ks_bytes, perms, n_shift):
    b = np.roll(out ^ np.roll(ks_bytes, -n_shift, axis=1), n_shift, axis=1)
    x1 = np.empty_like(b)
    np.put_along_axis(x1, perms, b, axis=1)
    return x1 ^ ks_bytes


def ref_encrypt(plane, planes, shifts):
    for k, shift in zip(planes, shifts):
        h = ref_pass_encrypt(plane, k, stable_orders(k), shift)
        plane = ref_pass_encrypt(h.T, k.T, stable_orders(k.T), shift).T
    return plane


def ref_decrypt(plane, planes, shifts):
    for k, shift in reversed(list(zip(planes, shifts))):
        h = ref_pass_decrypt(plane.T, k.T, stable_orders(k.T), shift).T
        plane = ref_pass_decrypt(h, k, stable_orders(k), shift)
    return plane


def composed(planes, shifts):
    perm, mask = _identity(planes[0].size)
    for ks, shift in zip(planes, shifts):
        perm, mask = _push_round(perm, mask, ks, shift)
    return perm, mask


@st.composite
def shuffle_cases(draw):
    """(n, keystream planes, shifts, seed) for one or three rounds."""
    n = draw(st.integers(2, 64) | st.sampled_from([2, 3, 5, 7, 31, 61]))
    rounds = draw(st.sampled_from([1, 3]))
    shifts = [draw(st.sampled_from([0, 1, n - 1, n, n + 5, 65535])) for _ in range(rounds)]
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    planes = []
    for _ in range(rounds):
        if draw(st.booleans()):
            plane = random_plane(rng, n)
        else:  # tie-heavy: a few byte values, so sorts keep long runs in order
            plane = rng.choice(np.array([0, 91, 255], dtype=np.uint8), (n, n))
        planes.append(plane)
    return n, planes, shifts, seed


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
    """One round, built as the cipher builds it and applied by gather/scatter."""

    def test_degenerate_1x1(self):
        ks = np.array([[123]], dtype=np.uint8)
        plane = np.array([[45]], dtype=np.uint8)
        assert encrypt_round(plane, ks, 0)[0, 0] == 45

    def test_null_keystream_is_identity(self, rng):
        plane = random_plane(rng, 8)
        ks = np.zeros((8, 8), dtype=np.uint8)
        assert np.array_equal(encrypt_round(plane, ks, 0), plane)

    @pytest.mark.parametrize("shift", [0, 1, 3, 8, 13])
    def test_roundtrip_8x8_many_keystreams(self, shift, rng):
        for _ in range(100):
            ks = random_plane(rng, 8)
            plane = random_plane(rng, 8)
            assert np.array_equal(round_trip(plane, ks, shift), plane)

    def test_roundtrip_structured_planes(self, rng):
        ks = random_plane(rng, 8)
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
                assert np.array_equal(round_trip(plane, ks, shift), plane)

    def test_encrypt_changes_plane(self, rng):
        ks = random_plane(rng, 16)
        plane = random_plane(rng, 16)
        assert not np.array_equal(encrypt_round(plane, ks, 3), plane)

    def test_bijective_on_distinct_inputs(self, rng):
        ks = random_plane(rng, 8)
        a, b = random_plane(rng, 8), random_plane(rng, 8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(encrypt_round(a, ks, 5), encrypt_round(b, ks, 5))

    @pytest.mark.parametrize("n", [2, 3, 17, 64])
    @pytest.mark.parametrize("kind", ["identity", "reversal", "random"])
    def test_roundtrip_hand_built_permutations(self, kind, n, rng, monkeypatch):
        ident = np.tile(np.arange(n), (n, 1))
        perms = {
            "identity": (ident, ident),
            "reversal": (ident[:, ::-1], ident[:, ::-1]),
            "random": (rng.permuted(ident, axis=1), rng.permuted(ident, axis=1)),
        }[kind]
        # line orders that no byte plane sorts to, put where _push_round reads them
        orders = tuple(p.astype(np.uint16) for p in perms)
        monkeypatch.setattr(cipher, "line_orders", lambda k: orders)
        ks = random_plane(rng, n)
        plane = random_plane(rng, n)
        for shift in (0, 1, n + 2):
            assert np.array_equal(round_trip(plane, ks, shift), plane)


class TestComposedShuffle:
    """The composed map E(d) = d[perm] ^ mask against the literal passes."""

    @settings(max_examples=300, deadline=None)
    @given(case=shuffle_cases())
    def test_matches_reference_passes(self, case):
        n, planes, shifts, seed = case
        rng = np.random.default_rng(seed + 1)
        d, c = random_plane(rng, n), random_plane(rng, n)
        perm, mask = composed(planes, shifts)
        enc = _gather(d, perm, mask)
        assert np.array_equal(enc, ref_encrypt(d, planes, shifts))
        assert np.array_equal(_scatter(c, perm, mask), ref_decrypt(c, planes, shifts))
        assert np.array_equal(_scatter(enc, perm, mask), d)
        for ks, shift in zip(planes, shifts):
            perm, mask = composed([ks], [shift])
            assert np.array_equal(_gather(d, perm, mask), ref_encrypt(d, [ks], [shift]))
            assert np.array_equal(_scatter(c, perm, mask), ref_decrypt(c, [ks], [shift]))

    def test_real_keystreams_at_1024(self, keys, rng):
        n = 1024
        _schedules.cache_clear()
        schedules = _schedules(keys, DEFAULT_SHIFTS, n)
        rounds = [build_round_keystream(k, n) for k in keys]
        for comp, sched in enumerate(schedules):
            planes = [r[comp] for r in rounds]
            d = random_plane(rng, n)
            enc = _gather(d, sched.perm, sched.mask)
            assert np.array_equal(enc, ref_encrypt(d, planes, DEFAULT_SHIFTS))
            assert np.array_equal(_scatter(enc, sched.perm, sched.mask), d)
            assert np.array_equal(sched.twin, twin_of(rounds, comp))


class TestScheduleCache:
    """The schedule cache is keyed by the keys (chars and rotations), shifts and n."""

    def test_other_shifts_at_same_size_decrypt_exactly(self, image_a, keys):
        bundle = encrypt_image(image_a, keys, shifts=(5, 11, 2))
        encrypt_image(image_a, keys)  # the default shifts are now cached
        out = decrypt_image(bundle, keys)
        assert all(np.array_equal(a, b) for a, b in zip(image_a.planes, out.planes))

    def test_keys_differing_only_in_rotations(self, image_a, keys):
        rotated = tuple(SecretKey(k.chars, (1, 2, 3)) for k in keys)
        bundle = encrypt_image(image_a, rotated)
        encrypt_image(image_a, keys)
        out = decrypt_image(bundle, rotated)
        assert all(np.array_equal(a, b) for a, b in zip(image_a.planes, out.planes))
        wrong = decrypt_image(bundle, keys)
        assert not all(np.array_equal(a, b) for a, b in zip(image_a.planes, wrong.planes))

    def test_second_encrypt_builds_no_keystream(self, image_a, keys, monkeypatch):
        calls = []

        def spy(key, n):
            calls.append((key, n))
            return build_round_keystream(key, n)

        monkeypatch.setattr(cipher, "build_round_keystream", spy)
        _schedules.cache_clear()
        bundle = encrypt_image(image_a, keys)
        assert len(calls) == 3
        encrypt_image(image_a, keys)
        decrypt_image(bundle, keys)
        assert len(calls) == 3

    @settings(max_examples=100, deadline=None)
    @given(shifts=BAD_SHIFTS)
    def test_bad_shifts_refused_before_any_keystream(self, image_a, keys, shifts):
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cipher, "build_round_keystream", lambda key, n: calls.append(key))
            _schedules.cache_clear()
            with pytest.raises(ValueError, match="shift schedule"):
                encrypt_image(image_a, keys, shifts)
        assert calls == []

    def test_held_schedules_within_33_bytes_per_pixel(self, keys):
        n = 256
        for k in keys:
            _key_vectors(k)  # their few KB are cached apart from the schedules
        _schedules.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            held = _schedules(keys, DEFAULT_SHIFTS, n)
            gc.collect()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert sum(a.nbytes for s in held for a in (s.perm, s.mask, s.twin)) == 33 * n * n
        assert after - before <= 33 * n * n + 64 * 1024


def dense(pos, values, n):
    """Scatter carrier values at flat positions into an n x n zero plane."""
    m = np.zeros(n * n)
    m[pos] = values
    return m.reshape(n, n)


class TestLogEmbedding:
    def test_positive_value_row_zero(self):
        s = energy_select(np.array([[100.0, 0.0], [0.0, 0.0]]), 1.0)
        pos, logs = log_forward(s, 2)
        assert pos.dtype == np.uint32
        assert pos.tolist() == [0] and logs.tolist() == [2.0]

    def test_negative_value_shifted_row(self):
        n = 5
        mat = np.zeros((n, n))
        mat[1, 0] = -1000.0
        s = energy_select(mat, 1.0)
        pos, logs = log_forward(s, n)
        # row 1 rotates left by 1: column 0 lands at column n-1
        assert pos.tolist() == [1 * n + n - 1] and logs.tolist() == [-3.0]

    def test_empty_gives_zero_matrix(self):
        s = energy_select(np.zeros((4, 4)), 0.999)
        pos, logs = log_forward(s, 4)
        assert pos.size == logs.size == 0

    def test_log_inverse_of_zero_matrix(self):
        assert len(log_inverse(np.empty(0, np.uint32), np.empty(0), 6)) == 0

    def test_log_inverse_single_cell(self):
        s = log_inverse(np.array([0], np.uint32), np.array([2.0]), 3)
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
        back = log_inverse(*log_forward(s, 16), 16)
        assert len(back) == len(s)
        got = {(r, c): v for r, c, v in zip(back.rows, back.cols, back.values)}
        for r, c, v in zip(s.rows, s.cols, s.values):
            assert (r, c) in got
            assert abs(got[(r, c)] - v) <= 1e-12 * abs(v)

    def test_dims_must_match(self):
        s = energy_select(np.ones((4, 4)) * 5.0, 1.0)
        with pytest.raises(DimensionMismatchError):
            log_forward(s, 8)

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 64])
    @pytest.mark.parametrize("sign", [-1, +1])
    def test_roll_rows_matches_per_row_roll(self, sign, n, rng):
        """log_forward rolls row i of the scattered logs left by i (sign -1)
        and lists the nonzero cells in ascending flat order; log_inverse
        rolls them right again (+1), in that order."""
        mat = rng.choice([-300.0, -7.0, 0.0, 0.0, 7.0, 41.5, 300.0], (n, n))
        sel = energy_select(mat, 1.0)
        scattered = np.zeros((n, n))
        scattered[sel.rows, sel.cols] = np.sign(sel.values) * np.log10(np.abs(sel.values))
        rolled = np.stack([np.roll(scattered[i], -i) for i in range(n)])
        nonzero = np.flatnonzero(rolled)
        if sign < 0:
            pos, logs = log_forward(sel, n)
            assert np.array_equal(pos, nonzero)
            assert np.array_equal(dense(pos, logs, n), rolled)
            return
        back = log_inverse(nonzero.astype(np.uint32), rolled.ravel()[nonzero], n)
        unrolled = np.stack([np.roll(rolled[i], sign * i) for i in range(n)])
        logs = unrolled[sel.rows, sel.cols]
        values = np.sign(logs) * np.power(10.0, np.abs(logs))
        assert coeff_map(back) == coeff_map(SparseCoeffs((n, n), sel.rows, sel.cols, values))
        assert np.array_equal(back.rows, np.nonzero(rolled)[0])


class TestCarrier:
    """The carrier as the pipeline builds it: at each position, the uint16
    twin sum plus the log from log_forward."""

    def test_zero_log_gives_twin_exactly(self, rng):
        rounds = random_rounds(rng, 16)
        twin = twin_of(rounds, 1)
        assert np.array_equal(twin, sum(r[1].astype(np.float64) for r in rounds))
        pos, logs = log_forward(energy_select(np.zeros((16, 16)), 0.999), 16)
        carried = twin.ravel()[pos] + logs
        assert carried.dtype == np.float64 and carried.size == 0
        # a stored value equal to its twin (a zero log) carries no coefficient
        cells = np.array([0, 3, 255], np.uint32)
        for bare in (twin.ravel()[cells] + 0.0, twin.ravel()[cells] - 0.0):
            assert len(_carried_coeffs(cells, bare, twin)) == 0

    def test_extract_exact_zero_at_empty_cells(self, rng):
        rounds = random_rounds(rng, 32)
        twin = twin_of(rounds, 0)
        mat = np.zeros((32, 32))
        cells = (rng.integers(0, 32, 50), rng.integers(0, 32, 50))
        mat[cells] = 10.0 ** rng.uniform(0.01, 4.8, 50) * rng.choice([-1.0, 1.0], 50)
        sel = energy_select(mat, 1.0)
        pos, logs = log_forward(sel, 32)
        logm = dense(pos, logs, 32)
        back = (twin + logm) - twin
        assert np.all(back[logm == 0.0] == 0.0)
        assert np.all(back[logm != 0.0] != 0.0)
        assert np.max(np.abs(back - logm)) < 1e-10
        carried = twin.ravel()[pos] + logs
        assert np.array_equal(carried, (twin + logm).ravel()[pos])
        got, want = coeff_map(_carried_coeffs(pos, carried, twin)), coeff_map(sel)
        assert got.keys() == want.keys()
        assert all(abs(got[rc] - v) <= 1e-9 * abs(v) for rc, v in want.items())

    def test_carrier_range_for_8bit_source(self, rng):
        rounds = random_rounds(rng, 64)
        mat = np.zeros((64, 64))
        # largest possible 8-bit dct2 magnitude is 255*64 here
        mat[0, 0] = 255.0 * 64
        mat[1, 1] = -255.0 * 64
        pos, logs = log_forward(energy_select(mat, 1.0), 64)
        carried = twin_of(rounds, 2).ravel()[pos] + logs
        bound = np.log10(255.0 * 64)
        assert carried.size == 2
        assert np.all(carried >= -bound) and np.all(carried <= 3 * 255 + bound)


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
        _schedules.cache_clear()
        _key_vectors.cache_clear()
        again = encrypt_image(image_a, keys)
        for a, b in zip(
            bundle_a.dic + bundle_a.positions + bundle_a.carriers,
            again.dic + again.positions + again.carriers,
        ):
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
        out = decrypt_image(dataclasses.replace(bundle_a, shifts=(13, 7, 3)), keys)
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
        with pytest.raises(ValueError):  # not coerced with int()
            encrypt_image(image_a, keys, shifts=(3.9, "7", 13))

    def test_bundle_records_schedules(self, bundle_a, keys):
        assert bundle_a.shifts == (3, 7, 13)
        assert bundle_a.rotations == tuple(k.rotations for k in keys)

    @staticmethod
    def _bundle(rng, n=4, dic_n=4, positions=None, carriers=None):
        positions = positions or (np.array([0, 5, 15], np.uint32),) * 3
        return CipherBundle(
            n=n,
            shifts=(1, 2, 3),
            rotations=((5, 11, 17),) * 3,
            dic=tuple(rng.integers(0, 256, (dic_n, dic_n), np.uint8) for _ in range(3)),
            positions=positions,
            carriers=carriers or tuple(np.full(p.size, 2.5) for p in positions),
        )

    def test_bundle_shape_validation(self, rng):
        self._bundle(rng)
        with pytest.raises(DimensionMismatchError):
            self._bundle(rng, dic_n=3)
        with pytest.raises(DimensionMismatchError, match="one value per position"):
            self._bundle(rng, carriers=(np.zeros(3), np.zeros(2), np.zeros(3)))

    @pytest.mark.parametrize(
        "pos",
        [[0, 5, 5], [5, 0, 15], [0, 5, 16], [-1, 5], [0.0, 5.0]],
        ids=["duplicate", "descending", "past_plane", "negative", "float"],
    )
    def test_bundle_position_validation(self, rng, pos):
        bad = np.array(pos)
        with pytest.raises(ValueError, match="positions"):
            self._bundle(rng, positions=(np.array([0], np.uint32), bad, bad[:0]))
