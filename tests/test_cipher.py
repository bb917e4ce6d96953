import dataclasses
import gc
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from synthimg import make_unit_dc_image
from test_io import BAD_SHIFTS

import lorenzdct.cipher as cipher
from lorenzdct.analysis import adjacent_correlation, correlation
from lorenzdct.cipher import (
    _CHUNK,
    DEFAULT_SHIFTS,
    LOG_BITS,
    MAX_SIZE,
    CipherBundle,
    ImageRGB,
    _carried_plane,
    _decode,
    _gather,
    _identity,
    _push_round,
    _scatter,
    _schedules,
    decrypt_image,
    encrypt_image,
    log_forward,
)
from lorenzdct.dct import SparseCoeffs, _idct2_leading, dct2, energy_select, reconstruct_sparse
from lorenzdct.errors import DimensionMismatchError, InvalidKeyError
from lorenzdct.keystream import _key_vectors, build_round_keystream
from lorenzdct.lorenz import SecretKey


def random_plane(rng, n, w=None):
    return rng.integers(0, 256, (n, w or n), dtype=np.uint8)


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


def zero_twin(n):
    return np.zeros((n, n), dtype=np.uint16)


def decoded(sparse, twin):
    # the reconstruction encrypt takes its difference plane against
    return _decode(*log_forward(sparse, twin), twin)


# log_forward rounds each log once to the 2**-12 grid, so a carrier holds it
# to 2**-13; 1e-12 more covers log10 and pow
LOG_BOUND = 2.0 ** -(LOG_BITS + 1) + 1e-12
REL_BOUND = 10.0**LOG_BOUND - 1


def bare(twin, pos):
    """The value of a cell that holds no log: twin * 2**12 mod 2**16."""
    return twin.ravel()[pos] << LOG_BITS


def stored_logs(pos, carried, twin):
    """The logs a carrier holds, by the container's formula in int64:
    ((q - twin * 2**12) + 2**15) mod 2**16 - 2**15, times 2**-12."""
    q = carried.astype(np.int64) - twin.ravel()[pos].astype(np.int64) * (1 << LOG_BITS)
    return ((q + 2**15) % 2**16 - 2**15) * 2.0**-LOG_BITS


def rolled_coeffs(pos, values, n):
    # the coefficients of the given row-rolled cells, one by one, as a SparseCoeffs
    pos = pos.astype(np.int64)
    rows = pos // n
    return SparseCoeffs((n, n), rows, (pos % n + rows) % n, values)


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
    """(shape, keystream planes, shifts, seed) for one or three rounds.

    Squares and rectangles: on a square plane a pass that rolls the wrong
    axis, or swaps the stride and the line starts, can go unseen.
    """
    side = st.integers(1, 64) | st.sampled_from([1, 2, 3, 5, 7, 31, 61])
    h = draw(side)
    w = draw(st.just(h) | side)
    rounds = draw(st.sampled_from([1, 3]))
    edges = [0, 1, h - 1, w - 1, h, w, max(h, w) + 5, 65535]
    shifts = [draw(st.sampled_from(edges)) for _ in range(rounds)]
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    planes = []
    for _ in range(rounds):
        if draw(st.booleans()):
            plane = random_plane(rng, h, w)
        else:  # tie-heavy: a few byte values, so sorts keep long runs in order
            plane = rng.choice(np.array([0, 91, 255], dtype=np.uint8), (h, w))
        planes.append(plane)
    return (h, w), planes, shifts, seed


class TestMakeDifference:
    """The difference plane, component - _decode(carrier) in uint8, as
    encrypt takes it."""

    def test_full_selection_zero_difference(self, rng):
        component = np.full((8, 8), 7, dtype=np.uint8)
        twin = twin_of(random_rounds(rng, 8), 0)
        recon_u8 = decoded(energy_select(dct2(component.astype(float)), 1.0), twin)
        assert np.array_equal(recon_u8, component)
        assert np.all(component - recon_u8 == 0)

    def test_empty_selection_identity(self, rng):
        component = random_plane(rng, 8)
        twin = twin_of(random_rounds(rng, 8), 1)
        recon_u8 = decoded(energy_select(np.zeros((8, 8)), 0.999), twin)
        assert recon_u8.dtype == np.uint8 and np.all(recon_u8 == 0)
        assert np.array_equal(component - recon_u8, component)

    def test_mod256_reconstruction_guarantee(self, rng):
        component = random_plane(rng, 16)
        twin = twin_of(random_rounds(rng, 16), 2)
        recon_u8 = decoded(energy_select(dct2(component.astype(float)), 0.9), twin)
        dic = component - recon_u8
        back = (recon_u8.astype(np.int16) + dic.astype(np.int16)) % 256
        assert np.array_equal(back.astype(np.uint8), component)

    def test_most_negative_log_clips_to_zero(self, rng):
        component = random_plane(rng, 4)
        # over a zero twin the residue 0x8000 is a log of -8, the most
        # negative a value holds: a finite DC of -1e8, which clips to 0
        recon_u8 = _decode(np.array([0], np.uint32), np.array([0x8000], np.uint16), zero_twin(4))
        assert np.all(recon_u8 == 0)
        assert np.array_equal(component - recon_u8, component)


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
        (h, w), planes, shifts, seed = case
        rng = np.random.default_rng(seed + 1)
        d, c = random_plane(rng, h, w), random_plane(rng, h, w)
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
        # the bundle records the rotations in the clear: other ones are refused
        # before any keystream is built
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cipher, "build_round_keystream", lambda key, n: calls.append(key))
            _schedules.cache_clear()
            with pytest.raises(InvalidKeyError, match="rotations"):
                decrypt_image(bundle, keys)
        assert calls == []

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

    @pytest.mark.parametrize("count", [2, 4])
    def test_three_keys_required_before_any_keystream(self, image_a, bundle_a, keys, count):
        some = (keys * 2)[:count]
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cipher, "build_round_keystream", lambda key, n: calls.append(key))
            _schedules.cache_clear()
            with pytest.raises(InvalidKeyError, match="exactly three secret keys"):
                encrypt_image(image_a, some)
            with pytest.raises(InvalidKeyError, match="exactly three secret keys"):
                decrypt_image(bundle_a, some)
        assert calls == []

    def test_held_schedules_within_21_bytes_per_pixel(self, keys):
        # uint32 perm, uint8 mask and uint16 twin per component: 3 * 7 bytes
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
        assert all(s.perm.dtype == np.uint32 for s in held)
        assert sum(a.nbytes for s in held for a in (s.perm, s.mask, s.twin)) == 21 * n * n
        assert after - before <= 21 * n * n + 64 * 1024


class TestLogEmbedding:
    def test_positive_value_row_zero(self):
        s = energy_select(np.array([[100.0, 0.0], [0.0, 0.0]]), 1.0)
        pos, carried = log_forward(s, np.array([[10, 0], [0, 0]], np.uint16))
        assert pos.dtype == np.uint32 and carried.dtype == np.uint16
        # (10 + 2) * 2**12 mod 2**16
        assert pos.tolist() == [0] and carried.tolist() == [12 << 12]

    def test_negative_value_shifted_row(self):
        n = 5
        mat = np.zeros((n, n))
        mat[1, 0] = -1000.0
        s = energy_select(mat, 1.0)
        pos, carried = log_forward(s, np.full((n, n), 700, np.uint16))
        # row 1 rotates left by 1: column 0 lands at column n-1; (700 - 3)
        # * 2**12 mod 2**16, where only 697 mod 16 = 9 is left of the sum
        assert pos.tolist() == [1 * n + n - 1] and carried.tolist() == [9 << 12]

    def test_empty_gives_zero_matrix(self):
        s = energy_select(np.zeros((4, 4)), 0.999)
        pos, carried = log_forward(s, zero_twin(4))
        assert pos.size == carried.size == 0
        assert pos.dtype == np.uint32 and carried.dtype == np.uint16

    def test_decode_empty_carrier(self):
        plane, m = _carried_plane(np.empty(0, np.uint32), np.empty(0, np.uint16), zero_twin(6))
        assert plane.shape == (6, 6) and not plane.any() and m == 1

    def test_decode_single_cell(self):
        carried = np.array([2 << LOG_BITS], np.uint16)
        plane, m = _carried_plane(np.array([0], np.uint32), carried, zero_twin(3))
        assert np.flatnonzero(plane).tolist() == [0] and m == 1
        assert plane[0, 0] == 100.0

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 64])
    @pytest.mark.parametrize("sign", [-1, +1])
    def test_roll_rows_matches_per_row_roll(self, sign, n, rng):
        """log_forward rolls row i of the selection left by i (sign -1) and
        lists its cells in ascending flat order; the decoder rolls them
        right again (+1) and sizes its column pass by the largest column."""
        mat = rng.choice([-300.0, -7.0, 0.0, 0.0, 7.0, 41.5, 300.0], (n, n))
        sel = energy_select(mat, 1.0)
        scattered = np.zeros((n, n))
        scattered[sel.rows, sel.cols] = sel.values
        twin = twin_of(random_rounds(rng, n), 0)
        pos, carried = log_forward(sel, twin)
        if sign < 0:
            rolled = np.stack([np.roll(scattered[i], -i) for i in range(n)]).ravel()
            assert np.array_equal(pos, np.flatnonzero(rolled))
            logs = np.sign(rolled[pos]) * np.log10(np.abs(rolled[pos]))
            assert np.all(np.abs(stored_logs(pos, carried, twin) - logs) <= LOG_BOUND)
            return
        back, m = _carried_plane(pos, carried, twin)
        assert np.array_equal(np.sign(back), np.sign(scattered))
        assert np.allclose(back, scattered, rtol=REL_BOUND, atol=0)
        assert m == int(np.max(sel.cols, initial=0)) + 1


class TestCarrier:
    """The carrier as the pipeline builds it: at each position, the uint16
    residue of the twin sum and the log on the 2**-12 grid, stored by
    log_forward."""

    def test_zero_log_gives_twin_exactly(self, rng):
        rounds = random_rounds(rng, 16)
        twin = twin_of(rounds, 1)
        assert np.array_equal(twin, sum(r[1].astype(np.float64) for r in rounds))
        # the logs of +-1 are +-0.0, and 1.0002's, 0.356 * 2**-12, rounds
        # to 0: log_forward stores only the cell of 100
        twin[0, :3] = (0, 1, 765)
        mat = np.zeros((16, 16))
        mat[0, :3] = (1.0, -1.0, 1.0002)
        mat[5, 7] = 100.0
        pos, carried = log_forward(energy_select(mat, 1.0), twin)
        assert pos.tolist() == [5 * 16 + 2]
        assert stored_logs(pos, carried, twin).tolist() == [2.0]
        # a stored value equal to its bare twin (a zero log) carries no
        # coefficient, and only twin mod 16 enters it; cell 255, unrolled
        # to column 14, still counts for m
        cells = np.array([0, 3, 255], np.uint32)
        for stored in (bare(twin, cells), bare(twin + 16, cells)):
            plane, m = _carried_plane(cells, stored, twin)
            assert not plane.any() and m == 15

    def test_every_stored_value_differs_from_its_twin(self, keys):
        # each unit-DC plane has a DC coefficient of 1.0, a log of 0, and the
        # identity's diagonal coefficients lie within 1 ulp of 1.0: each of
        # those logs rounds to 0 on the 2**-12 grid, so none is stored
        img = make_unit_dc_image()
        bundle = encrypt_image(img, keys)
        assert sum(pos.size for pos in bundle.positions) > 0
        schedules = _schedules(tuple(keys), bundle.shifts, bundle.n)
        for pos, carried, sched in zip(bundle.positions, bundle.carriers, schedules):
            assert carried.dtype == np.uint16
            assert np.all(carried != bare(sched.twin, pos))
        for a, b in zip(img.planes, decrypt_image(bundle, keys).planes):
            assert np.array_equal(a, b)

    def test_extract_exact_zero_at_empty_cells(self, rng):
        # the largest twin, whose value wraps mod 2**16
        twin = np.full((32, 32), 765, np.uint16)
        mat = np.zeros((32, 32))
        cells = (rng.integers(0, 32, 50), rng.integers(0, 32, 50))
        mat[cells] = 10.0 ** rng.uniform(0.01, 4.8, 50) * rng.choice([-1.0, 1.0], 50)
        sel = energy_select(mat, 1.0)
        got, _ = _carried_plane(*log_forward(sel, twin), twin)
        assert np.array_equal(np.flatnonzero(got), sel.rows * 32 + sel.cols)
        assert np.all(
            np.abs(got[sel.rows, sel.cols] - sel.values) <= REL_BOUND * np.abs(sel.values)
        )

    def test_carrier_range_for_8bit_source(self, rng):
        rounds = random_rounds(rng, 64)
        mat = np.zeros((64, 64))
        # largest possible 8-bit dct2 magnitude is 255*64 here
        mat[0, 0] = 255.0 * 64
        mat[1, 1] = -255.0 * 64
        twin = twin_of(rounds, 2)
        pos, carried = log_forward(energy_select(mat, 1.0), twin)
        assert carried.size == 2
        logs = stored_logs(pos, carried, twin)
        assert np.sign(logs).tolist() == [1, -1]
        assert np.all(np.abs(np.abs(logs) - np.log10(255.0 * 64)) <= LOG_BOUND)

    def test_log_bound_fits_the_residue(self):
        # the largest |F| of a byte plane under the orthonormal DCT-II is
        # 510 * n, so at the largest size the log on the 2**-12 grid stays
        # below 2**15 in magnitude and its residue mod 2**16 is unambiguous
        assert np.log10(510.0 * MAX_SIZE) * 2**LOG_BITS < 2**15

    def test_drop_window(self, rng):
        # a lone 1.0002 has log * 2**12 = 0.356 and is dropped; a lone
        # 1.0003 has 0.534 and is stored as its twin's value plus 1
        twin = twin_of(random_rounds(rng, 4), 0)
        for value, stored in ((1.0002, []), (1.0003, [1.0]), (-1.0003, [-1.0])):
            mat = np.zeros((4, 4))
            mat[0, 0] = value
            pos, carried = log_forward(energy_select(mat, 1.0), twin)
            assert pos.tolist() == [0] * len(stored)
            assert (stored_logs(pos, carried, twin) * 2**LOG_BITS).tolist() == stored


class TestDecoder:
    """The chunked decoder against the SparseCoeffs path it replaces: the
    float plane it transforms, before rounding, is reconstruct_sparse (the
    full idct2) of the carrier's coefficients bit for bit; and the decoder
    against the encoder, log_forward."""

    N = 256

    @staticmethod
    def reference(pos, carried, twin):
        # the coefficients of the given cells, one by one, as a SparseCoeffs
        logs = stored_logs(pos, carried, twin)
        values = np.sign(logs) * np.power(10.0, np.abs(logs))
        return rolled_coeffs(pos, values, twin.shape[0])

    def carrier(self, rng, size, twin):
        """log_forward's carrier of size coefficients, |log| from 0.01 to
        4.8, at ascending positions.  The final cell is in column 0 (row
        n-1); from 3 cells on, the first two are row 0's columns 0 and n-1,
        and the rest lie between."""
        n = self.N
        middle = np.sort(rng.choice(np.arange(n + 1, (n - 1) * n + 1), max(size - 3, 0), False))
        pos = np.concatenate(([0, n - 1], middle, [(n - 1) * n + 1]))[3 - min(size, 3) :]
        logs = rng.uniform(0.01, 4.8, size) * rng.choice([-1.0, 1.0], size)
        values = np.sign(logs) * np.power(10.0, np.abs(logs))
        return log_forward(rolled_coeffs(pos, values, n), twin)

    def noise_carrier(self, rng, twin):
        # a uniform-noise plane keeps about 80% of its coefficients
        plane = rng.integers(0, 256, (self.N, self.N)).astype(float)
        return log_forward(energy_select(dct2(plane)), twin)

    @pytest.mark.parametrize("size", [0, 1, _CHUNK, _CHUNK + 1, "noise"])
    def test_float_plane_matches_reconstruct_sparse(self, size, rng):
        n = self.N
        twin = twin_of(random_rounds(rng, n), 0)
        if size == "noise":
            pos, carried = self.noise_carrier(rng, twin)
            assert pos.size > 3 * _CHUNK
        else:
            pos, carried = self.carrier(rng, size, twin)
            assert pos.size == size
        # bare twins on both sides of every chunk edge, never the final cell
        edges = [e for c in range(0, pos.size, _CHUNK) for e in (c - 1, c) if 0 <= e < pos.size - 1]
        carried[edges] = bare(twin, pos[edges])
        keep = np.ones(pos.size, bool)
        keep[edges] = False
        plane, m = _carried_plane(pos, carried, twin)
        want = reconstruct_sparse(self.reference(pos[keep], carried[keep], twin))
        got = _idct2_leading(plane, m)
        assert np.all(np.isfinite(want))
        assert np.array_equal(got, want)
        assert np.array_equal(
            _decode(pos, carried, twin), np.clip(np.rint(want), 0, 255).astype(np.uint8)
        )

    def test_column_pass_spans_every_chunk(self, rng):
        # the last chunk's one cell sits in column 0, the widest column in
        # the first chunk
        twin = twin_of(random_rounds(rng, self.N), 2)
        _, m = _carried_plane(*self.carrier(rng, _CHUNK + 1, twin), twin)
        assert m == self.N

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(2, 24),
        names=st.lists(
            st.sampled_from(["key(A)", "key(B)", "key(C)", "key(@)", "q7#Lm2"]),
            min_size=3,
            max_size=3,
        ),
    )
    def test_any_values_decode_to_a_finite_plane_and_a_valid_image(self, data, n, names):
        """Any u16 values at any ascending positions, under any key triple,
        decode to a finite float plane and decrypt to a valid image: a
        value holds a log below 8 in magnitude, so no cell overflows, and
        no value reads as NaN, as a wrong key or a hostile file may make
        it."""
        cells = sorted(data.draw(st.sets(st.integers(0, n * n - 1), min_size=1)))
        value = st.sampled_from([0, 1, 0x7FFF, 0x8000, 0x8001, 0xFFFF]) | st.integers(0, 0xFFFF)
        values = data.draw(st.lists(value, min_size=len(cells), max_size=len(cells)))
        pos, carried = np.array(cells, np.uint32), np.array(values, np.uint16)
        keys = tuple(map(SecretKey, names))
        for sched in _schedules(keys, DEFAULT_SHIFTS, n):
            assert np.all(np.isfinite(_idct2_leading(*_carried_plane(pos, carried, sched.twin))))
        bundle = CipherBundle(
            n=n,
            shifts=DEFAULT_SHIFTS,
            rotations=tuple(k.rotations for k in keys),
            dic=tuple(random_plane(np.random.default_rng(n), n) for _ in range(3)),
            positions=(pos,) * 3,
            carriers=(carried,) * 3,
        )
        img = decrypt_image(bundle, keys)
        assert isinstance(img, ImageRGB) and img.width == img.height == n

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 24), seed=st.integers(0, 2**32 - 1))
    def test_grid_logs_round_trip_exactly(self, n, seed):
        """Coefficients whose logs lie on the 2**-12 grid, |log| up to
        7.52 (a byte plane's bound at MAX_SIZE), under twins 0..765: the
        decoder gives back what log_forward encodes bit for bit."""
        rng = np.random.default_rng(seed)
        top = int(np.log10(510.0 * MAX_SIZE) * 2**LOG_BITS)
        steps = rng.choice([1, top, *rng.integers(1, top + 1, 8)], (n, n))
        logs = steps * rng.choice([-1.0, 1.0], (n, n)) * 2.0**-LOG_BITS
        values = np.sign(logs) * np.power(10.0, np.abs(logs))
        picked = np.flatnonzero(rng.random(n * n) < rng.random())
        rows, cols = np.divmod(picked, n)
        edges = np.r_[0, 1, 15, 16, 764, 765, rng.integers(0, 766, 6)]
        twin = rng.choice(edges.astype(np.uint16), (n, n))
        sel = SparseCoeffs((n, n), rows, cols, values.ravel()[picked])
        plane, _ = _carried_plane(*log_forward(sel, twin), twin)
        want = np.zeros((n, n))
        want[rows, cols] = sel.values
        assert np.array_equal(plane, want)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 40),
        fraction=st.sampled_from([0.5, 0.999, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_decodes_what_log_forward_encodes(self, n, fraction, seed):
        """Over random selections and random twins in 0..765, the decoder
        reads log_forward's carrier back as exactly the cells it keeps,
        each within the 2**-12 grid's bound of its coefficient, with m one
        past the largest kept column.  log_forward keeps every selected
        cell but those whose log rounds to 0."""
        rng = np.random.default_rng(seed)
        # |values| from 1 to 1e5, a fifth of them 1 exactly (a zero log) or
        # either side of the drop window's edge, 10**(2**-13) = 1.00028
        near_one = rng.choice([1.0, 1 + 1e-7, 1.0002, 1.0003], (n, n))
        mags = np.where(rng.random((n, n)) < 0.2, near_one, 10.0 ** rng.uniform(0, 5, (n, n)))
        signed = mags * rng.choice([-1.0, 1.0], (n, n))
        sel = energy_select(np.where(rng.random((n, n)) < rng.random(), signed, 0.0), fraction)
        twin = rng.integers(0, 766, (n, n), dtype=np.uint16)
        pos, carried = log_forward(sel, twin)
        assert pos.dtype == np.uint32 and carried.dtype == np.uint16
        assert np.all(pos[1:] > pos[:-1]) and np.all(carried != bare(twin, pos))
        plane, m = _carried_plane(pos, carried, twin)
        cells = self.reference(pos, carried, twin)
        assert np.array_equal(np.flatnonzero(plane), np.sort(cells.rows * n + cells.cols))
        got = plane[sel.rows, sel.cols]
        kept = got != 0
        assert np.count_nonzero(kept) == pos.size
        assert np.all(
            np.abs(got[kept] - sel.values[kept]) <= REL_BOUND * np.abs(sel.values[kept])
        )
        assert np.all(np.abs(np.log10(np.abs(sel.values[~kept]))) <= LOG_BOUND)
        assert m == int(np.max(cells.cols, initial=0)) + 1


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
        with pytest.raises(ValueError, match="must be square, .* got 6x4"):
            encrypt_image(img, keys)

    @pytest.mark.parametrize("n", [1, 65537])
    def test_size_refused_before_any_schedule(self, n, keys, monkeypatch):
        # broadcast planes hold one byte each; at 65537 the schedule's maps
        # alone would take tens of GB
        img = ImageRGB(tuple(np.broadcast_to(np.uint8(v), (n, n)) for v in range(3)))
        monkeypatch.setattr(cipher, "_schedules", lambda *args: pytest.fail("built a schedule"))
        with pytest.raises(ValueError, match=f"from 2x2 to 65536x65536, got {n}x{n}"):
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
            carriers=carriers or tuple(np.full(p.size, 0x2800, np.uint16) for p in positions),
        )

    def test_bundle_shape_validation(self, rng):
        self._bundle(rng)
        with pytest.raises(DimensionMismatchError):
            self._bundle(rng, dic_n=3)
        with pytest.raises(DimensionMismatchError, match="one value per position"):
            self._bundle(rng, carriers=tuple(np.zeros(k, np.uint16) for k in (3, 2, 3)))

    @pytest.mark.parametrize("dtype", [np.float64, np.int8, np.uint16])
    def test_bundle_dic_must_be_uint8(self, rng, dtype):
        # otherwise a float64 plane would construct and fail only in
        # decrypt's scatter, with a numpy TypeError
        bundle = self._bundle(rng)
        with pytest.raises(ValueError, match="dic planes must be uint8"):
            dataclasses.replace(bundle, dic=tuple(p.astype(dtype) for p in bundle.dic))

    @pytest.mark.parametrize(
        "fields", [("dic",), ("positions", "carriers"), ("dic", "carriers"), ("rotations",)]
    )
    @pytest.mark.parametrize("count", [2, 4])
    def test_bundle_needs_three_of_each_component(self, rng, fields, count):
        # a bundle short of a component would not pack, or pack a file that
        # read_bundle refuses
        bundle = self._bundle(rng)
        changed = {f: (getattr(bundle, f) * 2)[:count] for f in fields}
        with pytest.raises(ValueError, match="three each of rotations, dic, positions"):
            dataclasses.replace(bundle, **changed)

    @pytest.mark.parametrize(
        "pos",
        [[0, 5, 5], [5, 0, 15], [0, 5, 16], [-1, 5], [0.0, 5.0]],
        ids=["duplicate", "descending", "past_plane", "negative", "float"],
    )
    def test_bundle_position_validation(self, rng, pos):
        bad = np.array(pos)
        with pytest.raises(ValueError, match="positions"):
            self._bundle(rng, positions=(np.array([0], np.uint32), bad, bad[:0]))

    @pytest.mark.parametrize(
        "n",
        [0, 1, 2.0, True, np.bool_(True), "4", 65537],
        ids=["0", "1", "float", "bool", "numpy_bool", "str", "65537"],
    )
    def test_bundle_size_rule_checked_first(self, rng, n):
        # side-2 planes and two rotation triples: the size is refused before
        # any count or plane check (2.0 would pass the plane shapes), so a
        # size write_bundle cannot pack or read_bundle refuses never constructs
        with pytest.raises(ValueError, match=re.escape(f"from 2x2 to 65536x65536, got {n}x{n}")):
            CipherBundle(
                n=n,
                shifts=(1, 2, 3),
                rotations=((5, 11, 17),) * 2,
                dic=tuple(rng.integers(0, 256, (2, 2), np.uint8) for _ in range(3)),
                positions=(np.array([0], np.uint32),) * 3,
                carriers=(np.array([0x2800], np.uint16),) * 3,
            )

    @pytest.mark.parametrize("cast", [np.int64, np.uint16, np.int8])
    def test_bundle_holds_numpy_size_as_int(self, rng, cast):
        bundle = self._bundle(rng, n=cast(4))
        assert bundle.n == 4 and type(bundle.n) is int
