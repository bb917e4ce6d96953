import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft

from synthimg import make_two_level_image

from lorenzdct.dct import (
    SparseCoeffs,
    UNIT_GUARD_EPS,
    _UNIT_GUARD_TOP,
    dct1,
    dct2,
    energy_select,
    idct2,
    reconstruct_sparse,
)


def dct1_direct(x):
    """O(L^2) direct-sum oracle for the orthonormal type-II DCT."""
    x = np.asarray(x, dtype=np.float64)
    L = x.size
    out = np.zeros(L)
    for k in range(L):
        s = 0.0
        for n in range(L):
            s += x[n] * np.cos(np.pi * k * (2 * n + 1) / (2 * L))
        out[k] = (np.sqrt(1.0 / L) if k == 0 else np.sqrt(2.0 / L)) * s
    return out


def dct2_direct(f):
    """O(N^4) direct-sum oracle for the orthonormal 2-D type-II DCT."""
    f = np.asarray(f, dtype=np.float64)
    N = f.shape[0]
    out = np.zeros((N, N))
    for v in range(N):
        cv = np.sqrt(1.0 / N) if v == 0 else np.sqrt(2.0 / N)
        for u in range(N):
            cu = np.sqrt(1.0 / N) if u == 0 else np.sqrt(2.0 / N)
            s = 0.0
            for y in range(N):
                for x in range(N):
                    s += (
                        f[y, x]
                        * np.cos(np.pi * v * (2 * y + 1) / (2 * N))
                        * np.cos(np.pi * u * (2 * x + 1) / (2 * N))
                    )
            out[v, u] = cv * cu * s
    return out


class TestDct1:
    def test_constant_is_dc_only(self):
        assert np.allclose(dct1([1, 1, 1, 1]), [2, 0, 0, 0], atol=1e-12)

    def test_matches_direct_sum(self, rng):
        x = rng.uniform(-100, 100, 16)
        assert np.max(np.abs(dct1(x) - dct1_direct(x))) < 1e-10

    def test_roundtrip(self, rng):
        # the orthonormal type-II DCT is inverted by the standard type-III
        x = rng.uniform(0, 255, 301)
        assert np.max(np.abs(fft.idct(dct1(x), type=2, norm="ortho") - x)) < 1e-9

    def test_parseval(self, rng):
        x = rng.uniform(-50, 50, 128)
        ex, ec = np.sum(x * x), np.sum(dct1(x) ** 2)
        assert abs(ex - ec) < 1e-9 * ex


class TestDct2:
    def test_constant_matrix_dc_only(self):
        F = dct2(np.full((6, 6), 4.0))
        assert abs(F[0, 0] - 4.0 * 6) < 1e-12
        F[0, 0] = 0.0
        assert np.max(np.abs(F)) < 1e-12

    def test_zero_matrix(self):
        assert np.max(np.abs(dct2(np.zeros((5, 5))))) == 0.0

    def test_matches_direct_sum_8x8(self, rng):
        f = rng.uniform(0, 255, (8, 8))
        assert np.max(np.abs(dct2(f) - dct2_direct(f))) < 1e-10

    def test_roundtrip(self, rng):
        f = rng.uniform(0, 255, (64, 64))
        assert np.max(np.abs(idct2(dct2(f)) - f)) < 1e-9

    def test_dc_only_gives_constant(self):
        F = np.zeros((4, 4))
        F[0, 0] = 8.0
        out = idct2(F)
        assert np.max(np.abs(out - out[0, 0])) < 1e-12

    def test_orthonormality(self, rng):
        f = rng.uniform(-10, 10, (32, 32))
        nf, nF = np.linalg.norm(f), np.linalg.norm(dct2(f))
        assert abs(nf - nF) < 1e-9 * nf

    def test_linearity(self, rng):
        f, g = rng.uniform(-5, 5, (16, 16)), rng.uniform(-5, 5, (16, 16))
        lhs = dct2(2.5 * f - 1.25 * g)
        rhs = 2.5 * dct2(f) - 1.25 * dct2(g)
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            dct2(np.zeros(4))


class TestEnergySelect:
    def test_dc_only_single_entry(self):
        s = energy_select(dct2(np.full((8, 8), 9.0)), 0.999)
        assert len(s) == 1
        assert (s.rows[0], s.cols[0]) == (0, 0)

    def test_zero_energy_empty(self):
        s = energy_select(np.zeros((4, 4)), 0.999)
        assert len(s) == 0
        assert s.energy_fraction == 1.0

    def test_tie_break_row_major(self):
        m = np.array([[2.0, -2.0], [2.0, 2.0]])
        s = energy_select(m, 0.5)
        assert list(zip(s.rows, s.cols)) == [(0, 0), (0, 1)]

    def test_subunit_coefficients_dropped(self):
        m = np.array([[100.0, 0.5], [0.25, 3.0]])
        s = energy_select(m, 1.0)
        vals = {(r, c): v for r, c, v in zip(s.rows, s.cols, s.values)}
        assert (0, 1) not in vals and (1, 0) not in vals
        assert vals[(0, 0)] == 100.0 and vals[(1, 1)] == 3.0

    def test_unit_guard_bucket(self):
        m = np.array([[50.0, 1.0], [0.0, -1.0]])
        s = energy_select(m, 1.0)
        small = sorted(abs(v) for v in s.values)[:2]
        for v in small:
            assert v > 1.0 + UNIT_GUARD_EPS
            assert np.log10(v) > 0.0

    def test_sorted_descending_and_unique_positions(self, rng):
        m = rng.uniform(-300, 300, (12, 12))
        s = energy_select(m, 0.99)
        mags = np.abs(s.values)
        assert np.all(mags[:-1] >= mags[1:])
        assert len({(r, c) for r, c in zip(s.rows, s.cols)}) == len(s)

    def test_energy_fraction_reported(self, rng):
        m = rng.uniform(-300, 300, (16, 16))
        s = energy_select(m, 0.95)
        total = np.sum(m * m)
        assert np.sum(s.values**2) >= s.energy_fraction * total - 1e-9 * total
        assert s.energy_fraction >= 0.95 - 1e-6

    def test_one_dimensional_input(self):
        s = energy_select(np.array([10.0, 0.0, -20.0, 0.0]), 1.0)
        assert s.dims == (1, 4)
        assert list(s.rows) == [0, 0]
        assert list(s.cols) == [2, 0]

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            energy_select(np.ones((2, 2)), 0.0)
        with pytest.raises(ValueError):
            energy_select(np.ones((2, 2)), 1.5)

    def test_invariant_enforced_at_construction(self):
        with pytest.raises(ValueError):
            SparseCoeffs(
                (2, 2),
                np.array([0]),
                np.array([0]),
                np.array([0.5]),
                1.0,
            )


class TestReconstructSparse:
    def test_empty_gives_zero(self):
        s = energy_select(np.zeros((4, 4)), 0.999)
        assert np.max(np.abs(reconstruct_sparse(s))) == 0.0

    def test_full_selection_roundtrip(self, rng):
        # coefficients built away from the sub-unit cutoff
        F = rng.uniform(1.5, 100.0, (8, 8)) * rng.choice([-1.0, 1.0], (8, 8))
        f = idct2(F)
        s = energy_select(dct2(f), 1.0)
        assert len(s) == 64
        assert np.max(np.abs(reconstruct_sparse(s) - f)) < 1e-9

    def test_selected_energy_survives(self, rng):
        f = rng.uniform(0, 255, (32, 32))
        s = energy_select(dct2(f), 0.999)
        recon = reconstruct_sparse(s)
        assert np.sum(recon**2) >= 0.998 * np.sum(f * f)


def energy_select_full_sort(F, fraction=0.999):
    """Reference: energy_select by a full stable argsort of all magnitudes."""
    F = np.asarray(F, dtype=np.float64)
    if F.ndim == 1:
        F = F.reshape(1, -1)
    dims = F.shape
    flat = F.ravel()
    total = float(np.sum(flat * flat))
    if total == 0.0:
        empty = np.empty(0, dtype=np.int64)
        return SparseCoeffs(dims, empty, empty.copy(), np.empty(0), 1.0)
    order = np.argsort(-np.abs(flat), kind="stable")
    cum = np.cumsum(flat[order] ** 2)
    reached = np.nonzero(cum >= fraction * total)[0]
    k = int(reached[0]) + 1 if reached.size else flat.size
    picked = order[:k]
    vals = flat[picked]
    keep = np.abs(vals) >= 1.0
    picked, vals = picked[keep], vals[keep].copy()
    guard = np.abs(vals) <= 1.0 + UNIT_GUARD_EPS
    vals[guard] = np.sign(vals[guard]) * _UNIT_GUARD_TOP
    rows, cols = np.divmod(picked, dims[1])
    achieved = float(np.sum(vals * vals)) / total
    return SparseCoeffs(dims, rows, cols, vals, min(achieved, 1.0))


def assert_same_selection(got, want):
    assert got.dims == want.dims
    for a, b in ((got.rows, want.rows), (got.cols, want.cols), (got.values, want.values)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert type(got.energy_fraction) is type(want.energy_fraction)
    assert np.float64(got.energy_fraction).tobytes() == np.float64(want.energy_fraction).tobytes()


def _two_level(rng, h, w):
    lo, hi = sorted(rng.integers(0, 256, 2))
    return dct2(np.where(rng.random((h, w)) < rng.uniform(0.05, 0.5), lo, hi))


def _checkerboard(rng, h, w):
    y, x = np.mgrid[0:h, 0:w]
    return dct2(rng.integers(0, 255) + ((y + x) % 2 if rng.random() < 0.5 else y % 2))


def _trajectory_row(rng, h, w):
    return dct1(np.cumsum(rng.standard_normal(h * w)))


FAMILIES = {
    "gaussian": lambda rng, h, w: rng.standard_normal((h, w)) * 10.0 ** rng.uniform(-2, 4),
    "integer_ties": lambda rng, h, w: rng.integers(-3, 4, (h, w)) * rng.choice([0.5, 1.0, 1000.0]),
    "constant": lambda rng, h, w: dct2(np.full((h, w), float(rng.integers(0, 256)))),
    "checkerboard": _checkerboard,
    "two_level": _two_level,
    "sub_unit": lambda rng, h, w: rng.uniform(-0.999, 0.999, (h, w)),
    "row": _trajectory_row,
}

FRACTIONS = (1e-6, 0.5, 0.999, 1.0)

# name -> (matrix maker, fraction), chosen to reach every branch of the
# partial selection; test_named_cases_take_each_path checks that they do.
PATH_CASES = {
    # the first block of candidates already holds the energy
    "smooth_plane_256": (
        lambda rng: dct2(np.cumsum(np.cumsum(rng.standard_normal((256, 256)), 0), 1)),
        0.999,
    ),
    "trajectory_50001": (lambda rng: _trajectory_row(rng, 1, 50001), 0.999),
    # the first block falls short and a later, fourfold block reaches the target
    "two_level_256": (lambda rng: dct2(make_two_level_image(7, 256).planes[0]), 0.999),
    "gaussian_row_20000": (lambda rng: rng.standard_normal(20000), 0.9),
    # k is most of the size: the blocks outgrow it and the full sort decides
    "white_noise_128": (lambda rng: rng.uniform(-1000, 1000, (128, 128)), 0.999),
    # ties at the threshold widen the candidates past the first block
    "ties_past_block_100": (
        lambda rng: np.where(np.arange(10000).reshape(100, 100) % 2, 7.0, 1.0),
        0.5,
    ),
    # all ties at fraction 1: only the whole plane reaches the target
    "all_ties_100": (lambda rng: np.full((100, 100), 7.0), 1.0),
    # a non-finite total goes straight to the full sort
    "with_inf": (
        lambda rng: np.where(rng.random((80, 80)) < 0.01, np.inf, rng.standard_normal((80, 80))),
        0.999,
    ),
    "overflowing_squares": (lambda rng: rng.standard_normal((80, 80)) * 1e200, 0.5),
}


class TestEnergySelectMatchesFullSort:
    """energy_select must equal the full-argsort reference byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(
        family=st.sampled_from(sorted(FAMILIES)),
        seed=st.integers(0, 2**32 - 1),
        h=st.integers(1, 160),
        w=st.integers(1, 160),
        fraction=st.sampled_from(FRACTIONS),
    )
    def test_property(self, family, seed, h, w, fraction):
        F = FAMILIES[family](np.random.default_rng(seed), h, w)
        assert_same_selection(energy_select(F, fraction), energy_select_full_sort(F, fraction))

    @pytest.mark.parametrize("case", sorted(PATH_CASES))
    def test_named_cases(self, case):
        make, fraction = PATH_CASES[case]
        F = make(np.random.default_rng(7))
        with np.errstate(over="ignore"):
            got, want = energy_select(F, fraction), energy_select_full_sort(F, fraction)
        assert_same_selection(got, want)

    @pytest.mark.parametrize(
        "case, rounds, full_sort",
        [
            ("smooth_plane_256", 1, False),
            ("trajectory_50001", 1, False),
            ("two_level_256", 2, False),
            ("gaussian_row_20000", 2, False),
            ("white_noise_128", 1, True),
            ("ties_past_block_100", 1, False),
            ("all_ties_100", 1, True),
            ("with_inf", 0, True),
            ("overflowing_squares", 0, True),
        ],
    )
    def test_named_cases_take_each_path(self, case, rounds, full_sort, monkeypatch):
        make, fraction = PATH_CASES[case]
        F = make(np.random.default_rng(7))
        partitions, sorts = [], []
        real_partition, real_argsort = np.partition, np.argsort

        def partition(a, *args, **kw):
            partitions.append(a.size)
            return real_partition(a, *args, **kw)

        def argsort(a, *args, **kw):
            sorts.append(a.size)
            return real_argsort(a, *args, **kw)

        monkeypatch.setattr(np, "partition", partition)
        monkeypatch.setattr(np, "argsort", argsort)
        with np.errstate(over="ignore"):
            energy_select(F, fraction)
        assert len(partitions) == rounds
        assert (F.size in sorts) == full_sort
