import contextlib
import importlib
import importlib.machinery
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft

from synthimg import make_two_level_image

from lorenzdct import dct as dct_module
from lorenzdct.dct import (
    SparseCoeffs,
    _idct2_leading,
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

    def test_row_major_and_unique_positions(self, rng):
        m = rng.uniform(-300, 300, (12, 12))
        s = energy_select(m, 0.99)
        flat = s.rows * 12 + s.cols
        assert len(s) > 1 and np.all(flat[:-1] < flat[1:])

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
        assert list(s.cols) == [0, 2]

    def test_peak_memory_on_second_block_path(self, monkeypatch):
        # one float64 scratch plane (8 B/px) and a sorted copy of the second
        # block, a quarter of the plane (2 B/px); a copy of the whole
        # plane's magnitudes would read about 19
        n = 1024
        F = dct2(make_two_level_image(7, n).planes[0])
        before = F.copy()
        sorts = []
        real_sort = np.sort

        def sort(a, *args, **kw):
            sorts.append(a.size)
            return real_sort(a, *args, **kw)

        monkeypatch.setattr(np, "sort", sort)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            energy_select(F)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert sorts == [4096, n * n // 4]
        assert peak <= 12 * n * n
        assert np.array_equal(F, before)

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

    @pytest.mark.parametrize("row, col", [(0, 3), (2, 0), (0, -1), (-1, 0)])
    def test_cells_outside_dims_refused(self, row, col):
        # reconstruct_sparse scatters the cells into a plane of dims
        with pytest.raises(ValueError, match="inside 2x3"):
            SparseCoeffs((2, 3), np.array([0, row]), np.array([0, col]), np.array([5.0, 2.0]))


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
    if not np.isfinite(total):
        raise ValueError(f"energy_select needs a finite total energy, got {total}")
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
    picked, vals = picked[keep], vals[keep]
    rows, cols = np.divmod(picked, dims[1])
    achieved = float(np.sum(vals * vals)) / total
    return SparseCoeffs(dims, rows, cols, vals, min(achieved, 1.0))


def assert_same_selection(got, want):
    """got is the reference selection want in ascending flat index order,
    byte for byte, with the same energy_fraction bits."""
    assert got.dims == want.dims
    order = np.argsort(want.rows * want.dims[1] + want.cols)
    for a, b in zip((got.rows, got.cols, got.values), (want.rows, want.cols, want.values)):
        b = b[order]
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
    # values at |v| = 1 and just above it, whose logs are near zero
    "unit_band": lambda rng, h, w: rng.choice(
        [1.0, -1.0, 1.0 + 5e-13, -1.0 - 1e-12, 2.0, 0.5], (h, w)
    ),
    "row": _trajectory_row,
}

FRACTIONS = (1e-6, 0.5, 0.999, 1.0)

# name -> (matrix maker, fraction), chosen to reach every branch of the
# head search; test_named_cases_take_each_path checks that they do.
PATH_CASES = {
    # the first block of candidates already holds the energy
    "smooth_plane_256": (
        lambda rng: dct2(np.cumsum(np.cumsum(rng.standard_normal((256, 256)), 0), 1)),
        0.999,
    ),
    "trajectory_50001": (lambda rng: _trajectory_row(rng, 1, 50001), 0.999),
    # the first block falls short and the plane is no larger than the second
    # block, so the whole plane is sorted
    "two_level_256": (lambda rng: dct2(make_two_level_image(7, 256).planes[0]), 0.999),
    "gaussian_row_20000": (lambda rng: rng.standard_normal(20000), 0.9),
    # k is most of the size: only the whole plane holds the head
    "white_noise_128": (lambda rng: rng.uniform(-1000, 1000, (128, 128)), 0.999),
    # the first block falls short and the larger second block reaches the target
    "two_level_512": (lambda rng: dct2(make_two_level_image(7, 512).planes[0]), 0.999),
    # ... with the crossing inside a run of ties, which are taken row-major
    "ties_in_second_block_400": (
        lambda rng: rng.integers(-3, 4, (400, 400)) * 1000.0,
        0.5,
    ),
    # both blocks fall short on a plane larger than the second block
    "white_noise_400": (lambda rng: rng.uniform(-1000, 1000, (400, 400)), 0.999),
    # ties at the threshold widen the candidates past the first block
    "ties_past_block_100": (
        lambda rng: np.where(np.arange(10000).reshape(100, 100) % 2, 7.0, 1.0),
        0.5,
    ),
    # all ties at fraction 1: only the whole plane reaches the target
    "all_ties_100": (lambda rng: np.full((100, 100), 7.0), 1.0),
}

# name -> (matrix maker, fraction) whose total energy is not finite
NON_FINITE_CASES = {
    "with_inf": (
        lambda rng: np.where(rng.random((80, 80)) < 0.01, np.inf, rng.standard_normal((80, 80))),
        0.999,
    ),
    "overflowing_squares": (lambda rng: rng.standard_normal((80, 80)) * 1e200, 0.5),
    "with_nan": (
        lambda rng: np.where(rng.random((80, 80)) < 0.01, np.nan, rng.standard_normal((80, 80))),
        0.999,
    ),
    "inf_2x2": (lambda rng: np.array([[np.inf, 2.0], [3.0, 1.0]]), 0.999),
    "nan_2x2": (lambda rng: np.array([[np.nan, 2.0], [3.0, 1.0]]), 0.999),
    "overflow_2x2": (lambda rng: np.array([[1e200, 2.0], [3.0, 5e199]]), 0.999),
}

NAMED_CASES = {**PATH_CASES, **NON_FINITE_CASES}


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
        before = F.copy()
        assert_same_selection(energy_select(F, fraction), energy_select_full_sort(F, fraction))
        assert np.array_equal(F, before)

    @pytest.mark.parametrize("case", sorted(NAMED_CASES))
    def test_named_cases(self, case):
        make, fraction = NAMED_CASES[case]
        F = make(np.random.default_rng(7))
        before = F.copy()
        if case in NON_FINITE_CASES:
            # the reference refuses a non-finite total as well
            for select in (energy_select, energy_select_full_sort):
                with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite total"):
                    select(F, fraction)
        else:
            want = energy_select_full_sort(F, fraction)
            assert_same_selection(energy_select(F, fraction), want)
        assert np.array_equal(F, before, equal_nan=True)

    @pytest.mark.parametrize(
        "case, rounds, full_sort",
        [
            ("smooth_plane_256", 1, False),
            ("trajectory_50001", 1, False),
            ("two_level_256", 1, True),
            ("gaussian_row_20000", 1, True),
            ("white_noise_128", 1, True),
            ("two_level_512", 2, False),
            ("ties_in_second_block_400", 2, False),
            ("white_noise_400", 2, True),
            ("ties_past_block_100", 1, False),
            ("all_ties_100", 1, True),
            ("with_inf", 0, False),
            ("overflowing_squares", 0, False),
            ("with_nan", 0, False),
        ],
    )
    def test_named_cases_take_each_path(self, case, rounds, full_sort, monkeypatch):
        # rounds: blocks split off by a partition; full_sort: whether the
        # whole plane's magnitudes are value-sorted.  Each round sorts its
        # block with one np.sort.  No case runs an argsort, and a non-finite
        # total is refused before any sort.
        make, fraction = NAMED_CASES[case]
        F = make(np.random.default_rng(7))
        sorts, argsorts = [], []
        real_sort, real_argsort = np.sort, np.argsort

        def sort(a, *args, **kw):
            sorts.append(a.size)
            return real_sort(a, *args, **kw)

        def argsort(a, *args, **kw):
            argsorts.append(kw.get("kind"))
            return real_argsort(a, *args, **kw)

        monkeypatch.setattr(np, "sort", sort)
        monkeypatch.setattr(np, "argsort", argsort)
        refused = (
            pytest.raises(ValueError, match="finite total")
            if case in NON_FINITE_CASES
            else contextlib.nullcontext()
        )
        with np.errstate(over="ignore"), refused:
            energy_select(F, fraction)
        blocks = [4096, max(F.size // 4, 2**17)][:rounds]
        assert sorts == blocks + [F.size] * full_sort
        assert argsorts == []


def _scatter(dims, mask, rng):
    """SparseCoeffs on the cells of mask, |value| in [1, 1e5), and its dense plane."""
    rows, cols = np.nonzero(mask)
    values = 10.0 ** rng.uniform(0, 5, rows.size) * rng.choice([-1.0, 1.0], rows.size)
    F = np.zeros(dims)
    F[rows, cols] = values
    return SparseCoeffs(dims, rows, cols, values), F


def _leading_columns(rng, n):
    mask = np.zeros((n, n), dtype=bool)
    mask[:, : rng.integers(1, max(2, n // 4))] = True
    return mask & (rng.random((n, n)) < rng.uniform(0.05, 1.0))


def _scattered_columns(rng, n):
    mask = np.zeros((n, n), dtype=bool)
    mask[:, rng.choice(n, rng.integers(1, n + 1), replace=False)] = True
    return mask & (rng.random((n, n)) < rng.uniform(0.05, 1.0))


def _in_last_column(rng, n):
    mask = _leading_columns(rng, n)
    mask[rng.integers(0, n), n - 1] = True
    return mask


def _dc_only(rng, n):
    mask = np.zeros((n, n), dtype=bool)
    mask[0, 0] = True
    return mask


def _natural_plane(seed, n):
    """Smooth 1/f^2 random field in bytes: its 99.9% energy sits in the
    leading few dozen columns."""
    rng = np.random.default_rng(seed)
    fy, fx = np.fft.fftfreq(n)[:, None], np.fft.rfftfreq(n)[None, :]
    radius = np.hypot(fy, fx)
    radius[0, 0] = 1.0
    f = np.fft.irfft2(np.fft.rfft2(rng.standard_normal((n, n))) / radius**2, s=(n, n))
    return np.rint(255 * (f - f.min()) / np.ptp(f))


LAYOUTS = {
    "leading_columns": _leading_columns,
    "scattered_columns": _scattered_columns,
    "in_last_column": _in_last_column,
    "dc_only": _dc_only,
    "empty": lambda rng, n: np.zeros((n, n), dtype=bool),
    "full": lambda rng, n: np.ones((n, n), dtype=bool),
}


def _leading(s, F):
    # the cipher's decoder transform of the dense scatter, as it sizes it
    return _idct2_leading(F.copy(), int(np.max(s.cols, initial=0)) + 1)


class TestReconstructSparseMatchesIdct2:
    """The decoder's two-pass transform, _idct2_leading, must equal idct2
    of the dense scatter bit for bit on square planes, whichever columns
    hold a coefficient; reconstruct_sparse is idct2 of that scatter."""

    @settings(max_examples=300, deadline=None)
    @given(
        layout=st.sampled_from(sorted(LAYOUTS)),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 96),
    )
    def test_property(self, layout, seed, n):
        rng = np.random.default_rng(seed)
        s, F = _scatter((n, n), LAYOUTS[layout](rng, n), rng)
        assert np.array_equal(_leading(s, F), idct2(F))

    @pytest.mark.parametrize(
        "make, n",
        [
            (_natural_plane, 331),
            (_natural_plane, 1024),
            # a two-level plane spreads its coefficients over every column
            (lambda seed, n: make_two_level_image(seed, n).planes[0], 1024),
        ],
        ids=["natural_331", "natural_1024", "two_level_1024"],
    )
    def test_named_cases(self, make, n):
        s = energy_select(dct2(make(5, n)))
        F = np.zeros((n, n))
        F[s.rows, s.cols] = s.values
        assert np.array_equal(_leading(s, F), fft.idctn(F, norm="ortho"))

    @pytest.mark.parametrize("dims", [(3, 5), (17, 4), (1, 40), (64, 100)])
    def test_non_square_agrees_to_rounding(self, dims, rng):
        s, F = _scatter(dims, rng.random(dims) < 0.5, rng)
        assert np.array_equal(reconstruct_sparse(s), idct2(F))

    def test_column_pass_covers_only_leading_columns(self, monkeypatch, rng):
        n = 64
        mask = np.zeros((n, n), dtype=bool)
        mask[rng.integers(0, n, 20), rng.integers(0, 9, 20)] = True
        mask[5, 9] = True
        s, F = _scatter((n, n), mask, rng)
        want = idct2(F)
        passes = []
        real_dct = dct_module._pocketfft.dct

        def dct(a, *, axes, **kw):
            passes.append((axes, a.shape))
            return real_dct(a, axes=axes, **kw)

        monkeypatch.setattr(dct_module, "_pocketfft", SimpleNamespace(dct=dct))
        assert np.array_equal(_leading(s, F), want)
        # two 1-D passes, the first over the leading 10 columns, and no 2-D pass
        assert len(passes) == 2 and passes[0] == ((0,), (n, 10))
        assert all(len(axes) == 1 for axes, _ in passes)


class TestMatchesScipyFft:
    """The extension calls give scipy.fft's orthonormal transforms bit for bit."""

    @pytest.mark.parametrize("length", [1, 2, 7, 50_001])
    def test_dct1(self, length, rng):
        x = rng.uniform(-255.0, 255.0, length)
        assert np.array_equal(dct1(x), fft.dct(x, norm="ortho"))

    @pytest.mark.parametrize(
        "dims", [(2, 2), (3, 3), (64, 64), (331, 331), (1024, 1024), (17, 4), (1, 40)]
    )
    def test_dct2_and_idct2(self, dims, rng):
        f = rng.uniform(-255.0, 255.0, dims)
        before = f.copy()
        assert np.array_equal(dct2(f), fft.dctn(f, norm="ortho"))
        assert np.array_equal(idct2(f), fft.idctn(f, norm="ortho"))
        assert np.array_equal(f, before)


class TestPocketfftLoader:
    def test_import_loads_no_scipy_module(self):
        # the subprocess imports the same lorenzdct as this process
        env = {**os.environ, "PYTHONPATH": str(Path(dct_module.__file__).parents[1])}
        code = (
            "import sys, lorenzdct.cli\n"
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])\n"
            "print(lorenzdct.dct.__file__)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout.splitlines()
        assert out == ["[]", dct_module.__file__]

    def test_falls_back_to_normal_import(self, monkeypatch):
        f = _natural_plane(3, 96)
        want = dct2(f)
        imported = []
        real_import = importlib.import_module

        def import_module(name):
            imported.append(name)
            return real_import(name)

        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".no-such-suffix"])
        monkeypatch.setattr(importlib, "import_module", import_module)
        module = dct_module._load_pocketfft()
        assert imported == ["scipy.fft._pocketfft.pypocketfft"]
        assert module is sys.modules["scipy.fft._pocketfft.pypocketfft"]
        monkeypatch.setattr(dct_module, "_pocketfft", module)
        assert np.array_equal(dct2(f), want)
