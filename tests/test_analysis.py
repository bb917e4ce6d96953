import hashlib
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lorenzdct.analysis import (
    DEFAULT_SCATTER_SEED,
    DIRECTIONS,
    _adjacent_views,
    _component_entry,
    _lcg_distinct,
    adjacent_correlation,
    correlation,
    entropy,
    full_report,
    histogram,
    mae,
    mse,
    npcr,
    psnr,
    scatter_sample,
    uaci,
)
from lorenzdct.cipher import ImageRGB
from lorenzdct.errors import DimensionMismatchError, UndefinedCorrelationError

PSNR_OFF_BY_ONE = 48.1308036086791  # 20*log10(255), hand-evaluated

# sha256 of ref_scatter_indices(1024 * 1023, 1024 * 1023 - 1) as little-endian
# int64, recorded from the reference loop (about 12 s of pure Python)
GOLDEN_ALL_BUT_ONE_1024 = "050ff84091112375d0a450044aef8a683e99599baa167b95795017b86a6d9605"


def ref_scatter_indices(total, count):
    """The sequential sampler: one LCG draw at a time, repeats rejected."""
    state = DEFAULT_SCATTER_SEED
    chosen, seen = [], set()
    while len(chosen) < count:
        state = (1664525 * state + 1013904223) % 2**32
        i = state % total
        if i not in seen:
            seen.add(i)
            chosen.append(i)
    return np.asarray(chosen, dtype=np.intp)


def exact_correlation(c, d):
    """Pearson correlation of two views from centred Fractions, as a Decimal
    to 50 digits; None when either view has zero variance."""
    c, d = [int(v) for v in np.ravel(c)], [int(v) for v in np.ravel(d)]
    mc, md = Fraction(sum(c), len(c)), Fraction(sum(d), len(d))
    cov = sum((x - mc) * (y - md) for x, y in zip(c, d))
    var_c = sum((x - mc) ** 2 for x in c)
    var_d = sum((y - md) ** 2 for y in d)
    if var_c == 0 or var_d == 0:
        return None
    r2 = cov * cov / (var_c * var_d)
    with localcontext() as ctx:
        ctx.prec = 50
        r = (Decimal(r2.numerator) / Decimal(r2.denominator)).sqrt()
        return r if cov >= 0 else -r


@st.composite
def small_planes(draw):
    """Small uint8 planes, square or not: random, constant rows or columns,
    or two-level."""
    h, w = draw(st.integers(2, 9)), draw(st.integers(2, 9))
    kind = draw(st.sampled_from(["random", "rows", "columns", "two-level"]))
    if kind == "random":
        return draw(arrays(np.uint8, (h, w)))
    if kind == "rows":
        return np.repeat(draw(arrays(np.uint8, (h, 1))), w, axis=1)
    if kind == "columns":
        return np.repeat(draw(arrays(np.uint8, (1, w))), h, axis=0)
    lo, hi = draw(st.integers(0, 255)), draw(st.integers(0, 255))
    return np.where(draw(arrays(bool, (h, w))), np.uint8(hi), np.uint8(lo))


class TestHistogram:
    def test_constant_plane(self):
        h = histogram(np.full((4, 4), 7, dtype=np.uint8))
        assert h[7] == 16 and h.sum() == 16 and np.count_nonzero(h) == 1

    def test_full_ramp(self):
        h = histogram(np.arange(256, dtype=np.uint8).reshape(16, 16))
        assert np.all(h == 1)

    def test_counts_sum_to_pixels(self, rng):
        plane = rng.integers(0, 256, (13, 9), dtype=np.uint8)
        assert histogram(plane).sum() == 13 * 9

    def test_integer_dtypes_count_like_bytes(self, rng):
        plane = rng.integers(0, 256, (13, 9), dtype=np.uint8)
        for dtype in (np.int64, np.uint16, np.float64):
            assert np.array_equal(histogram(plane.astype(dtype)), histogram(plane))

    @pytest.mark.parametrize(
        "plane", [[[300, 1], [2, 3]], [[-1, 0], [0, 0]], [[3.5, 0], [0, 0]], [[np.nan, 0], [0, 0]]]
    )
    def test_rejects_values_outside_bytes(self, plane):
        with pytest.raises(ValueError):
            histogram(plane)
        with pytest.raises(ValueError):
            entropy(plane)


class TestCorrelation:
    def test_identical_rows_vertical_unity(self, rng):
        row = rng.integers(0, 256, 32, dtype=np.uint8)
        plane = np.tile(row, (16, 1))
        assert adjacent_correlation(plane, "vertical") == pytest.approx(1.0)

    def test_checkerboard_horizontal_anticorrelated(self):
        plane = np.indices((8, 8)).sum(axis=0) % 2 * 255
        assert adjacent_correlation(plane.astype(np.uint8), "horizontal") == pytest.approx(-1.0)

    def test_bounded(self, rng):
        plane = rng.integers(0, 256, (32, 32), dtype=np.uint8)
        for d in ("horizontal", "vertical", "diagonal"):
            assert -1.0 <= adjacent_correlation(plane, d) <= 1.0

    def test_plane_against_itself(self, rng):
        plane = rng.integers(0, 256, (16, 16), dtype=np.uint8)
        assert correlation(plane, plane) == pytest.approx(1.0)

    def test_zero_variance_raises(self):
        with pytest.raises(UndefinedCorrelationError):
            adjacent_correlation(np.full((4, 4), 9, dtype=np.uint8), "horizontal")

    def test_unknown_direction(self, rng):
        with pytest.raises(ValueError):
            adjacent_correlation(rng.integers(0, 256, (4, 4)), "antidiagonal")

    @settings(max_examples=300, deadline=None)
    @given(small_planes())
    @example(np.array([[0, 255], [255, 0]], dtype=np.uint8))
    @example(np.array([[0, 0], [0, 255]], dtype=np.uint8))
    def test_within_one_ulp_of_exact(self, plane):
        entry = _component_entry("p", plane)["correlation"]
        for short, direction in zip("hvd", DIRECTIONS):
            want = exact_correlation(*_adjacent_views(plane, direction))
            if want is None:
                assert entry[short] is None
                with pytest.raises(UndefinedCorrelationError):
                    adjacent_correlation(plane, direction)
                continue
            got = adjacent_correlation(plane, direction)
            assert entry[short] == got
            assert abs(Decimal(got) - want) <= Decimal(math.ulp(float(want)))
            assert -1.0 <= got <= 1.0

    def test_dtype_does_not_change_bits(self, rng):
        plane = rng.integers(0, 256, (31, 17), dtype=np.uint8)
        other = rng.integers(0, 256, (31, 17), dtype=np.uint8)
        for direction in DIRECTIONS:
            want = adjacent_correlation(plane, direction)
            for dtype in (np.int64, np.float64):
                assert adjacent_correlation(plane.astype(dtype), direction) == want
        want = correlation(plane, other)
        for dtype in (np.int64, np.float64):
            assert correlation(plane.astype(dtype), other.astype(dtype)) == want

    @pytest.mark.parametrize(
        "c",
        [
            np.array([[0.5, 1.0], [2.0, 3.0]]),
            np.array([[np.nan, 1.0], [2.0, 3.0]]),
            np.array([[np.inf, 1.0], [2.0, 3.0]]),
            np.array([[0, 1], [2, 1 << 26]]),  # 4 * (2**26)**2 > 2**53: no exact sum
        ],
    )
    def test_outside_exact_domain_raises(self, c):
        with pytest.raises(ValueError):
            correlation(c, np.ones(c.shape))
        with pytest.raises(ValueError):
            adjacent_correlation(c, "horizontal")


class TestAgainstPlaneSizedReference:
    """The metrics against their textbook forms, which make a float64 copy of
    each operand and of every intermediate.  mae, uaci and mse do the same
    arithmetic and must match exactly; correlation sums its products in
    another order, so it gets a tolerance of a few hundred ulps."""

    @pytest.fixture(params=["uint8", "int64", "float64"])
    def planes(self, request, rng):
        a = rng.integers(0, 256, (64, 48)).astype(request.param)
        b = np.roll(a, 1, axis=1) // 2 + rng.integers(0, 128, a.shape).astype(request.param)
        return a, b

    def test_differences_exact(self, planes):
        a, b = (np.asarray(p, np.float64) for p in planes)
        assert mae(*planes) == float(np.mean(np.abs(a - b)))
        assert uaci(*planes) == float(np.mean(np.abs(a - b) / 255.0)) * 100.0
        assert mse(*planes) == float(np.mean((a - b) * (a - b)))

    def test_correlation_close(self, planes):
        for c, d in (planes, _adjacent_views(planes[0], "diagonal")):
            c, d = np.asarray(c, np.float64), np.asarray(d, np.float64)
            cc, dd = c - c.mean(), d - d.mean()
            want = float(np.sum(cc * dd)) / math.sqrt(float(np.sum(cc * cc)) * float(np.sum(dd * dd)))
            c_before = c.copy()
            assert correlation(c, d) == pytest.approx(want, rel=1e-13, abs=1e-15)
            assert np.array_equal(c, c_before)  # operands are not centred in place

    def test_correlation_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            correlation(np.ones((3, 4)), np.ones((4, 3)))


class TestDifferentialMetrics:
    def test_identical_planes(self, rng):
        p = rng.integers(0, 256, (8, 8), dtype=np.uint8)
        assert npcr(p, p) == 0.0
        assert uaci(p, p) == 0.0
        assert mae(p, p) == 0.0

    def test_fully_different(self):
        a = np.zeros((4, 4), dtype=np.uint8)
        b = np.full((4, 4), 255, dtype=np.uint8)
        assert npcr(a, b) == 100.0
        assert uaci(a, b) == pytest.approx(100.0)
        assert mae(a, b) == pytest.approx(255.0)

    def test_uaci_mae_identity(self, rng):
        for _ in range(10):
            a = rng.integers(0, 256, (16, 16), dtype=np.uint8)
            b = rng.integers(0, 256, (16, 16), dtype=np.uint8)
            assert abs(uaci(a, b) - mae(a, b) / 255.0 * 100.0) < 1e-9

    def test_symmetry(self, rng):
        a = rng.integers(0, 256, (8, 8), dtype=np.uint8)
        b = rng.integers(0, 256, (8, 8), dtype=np.uint8)
        assert npcr(a, b) == npcr(b, a)
        assert mae(a, b) == mae(b, a)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            npcr(np.zeros((2, 2)), np.zeros((3, 3)))


class TestEntropy:
    def test_constant_plane_zero(self):
        assert entropy(np.full((8, 8), 3, dtype=np.uint8)) == 0.0

    def test_uniform_is_eight_bits(self):
        plane = np.arange(256, dtype=np.uint8).reshape(16, 16)
        assert entropy(plane) == pytest.approx(8.0, abs=1e-12)

    def test_bounded_by_distinct_values(self, rng):
        plane = rng.choice(np.array([0, 7, 9, 200], dtype=np.uint8), (16, 16))
        k = len(np.unique(plane))
        assert entropy(plane) <= math.log2(k) + 1e-12

    def test_two_value_balanced(self):
        plane = np.indices((4, 4)).sum(axis=0) % 2 * 200
        assert entropy(plane.astype(np.uint8)) == pytest.approx(1.0)


class TestMseAndPsnr:
    def test_identical_gives_inf_sentinel(self, rng):
        f = rng.integers(0, 256, (8, 8), dtype=np.uint8)
        assert mse(f, f) == 0.0
        assert psnr(f, f) == math.inf

    def test_off_by_one_hand_value(self):
        f = np.full((8, 8), 255, dtype=np.uint8)
        g = f - 1
        assert mse(f, g) == 1.0
        assert psnr(f, g) == pytest.approx(PSNR_OFF_BY_ONE, abs=1e-9)

    def test_black_original_gives_minus_inf(self):
        f = np.zeros((4, 4), dtype=np.uint8)
        assert psnr(f, f + 1) == -math.inf
        assert psnr(f, f) == math.inf

    def test_peak_from_first_argument(self):
        f = np.full((4, 4), 100.0)
        g = f + 1.0
        assert psnr(f, g) == pytest.approx(40.0, abs=1e-9)
        assert psnr(g, f) == pytest.approx(20 * math.log10(101.0), abs=1e-9)


class TestScatterSample:
    def test_full_population(self, rng):
        plane = rng.integers(0, 256, (5, 5), dtype=np.uint8)
        s = scatter_sample(plane, "horizontal", 20)
        assert s.pairs.shape == (20, 2)
        assert np.array_equal(s.pairs[:, 0], plane[:, :-1].ravel())
        assert np.array_equal(s.pairs[:, 1], plane[:, 1:].ravel())

    def test_constant_plane_pairs_equal(self):
        s = scatter_sample(np.full((4, 4), 9, dtype=np.uint8), "vertical", 5)
        assert np.all(s.pairs[:, 0] == 9) and np.all(s.pairs[:, 1] == 9)

    def test_deterministic(self, rng):
        plane = rng.integers(0, 256, (16, 16), dtype=np.uint8)
        a = scatter_sample(plane, "diagonal", 40)
        b = scatter_sample(plane, "diagonal", 40)
        assert a.seed == b.seed
        assert np.array_equal(a.pairs, b.pairs)

    def test_pairs_are_true_neighbors(self, rng):
        plane = rng.integers(0, 256, (9, 9), dtype=np.uint8)
        s = scatter_sample(plane, "horizontal", 30)
        c, d = plane[:, :-1].ravel(), plane[:, 1:].ravel()
        population = set(zip(c.tolist(), d.tolist()))
        assert all((int(v), int(w)) in population for v, w in s.pairs)

    def test_count_limit(self, rng):
        with pytest.raises(ValueError):
            scatter_sample(rng.integers(0, 256, (4, 4)), "horizontal", 13)
        with pytest.raises(ValueError):
            scatter_sample(rng.integers(0, 256, (4, 4)), "horizontal", -1)

    @pytest.mark.parametrize("n", [2, 3, 17, 1024])
    @pytest.mark.parametrize("direction", DIRECTIONS)
    def test_matches_sequential_sampler(self, direction, n, rng):
        plane = rng.integers(0, 256, (n, n), dtype=np.uint8)
        c, d = (v.ravel() for v in _adjacent_views(plane, direction))
        total = c.size
        for count in sorted({1, 4096, total - 1, total}):
            if count > total or (n == 1024 and count == total - 1):
                continue  # too many, or the golden case below
            idx = np.arange(total) if count == total else ref_scatter_indices(total, count)
            s = scatter_sample(plane, direction, count)
            assert np.array_equal(s.pairs, np.stack([c[idx], d[idx]], axis=1))

    def test_memoized_indices_are_read_only(self):
        idx = _lcg_distinct(1000, 50)
        assert _lcg_distinct(1000, 50) is idx
        assert not idx.flags.writeable
        with pytest.raises(ValueError):
            idx[0] = 0
        assert np.array_equal(idx, ref_scatter_indices(1000, 50))

    def test_all_but_one_pair_at_1024(self):
        total = 1024 * 1023
        idx = _lcg_distinct(total, total - 1)
        assert np.unique(idx).size == total - 1
        assert hashlib.sha256(idx.astype("<i8").tobytes()).hexdigest() == GOLDEN_ALL_BUT_ONE_1024


class TestFullReport:
    def test_structure_and_pairs(self, rng):
        planes = lambda: tuple(rng.integers(0, 256, (8, 8), dtype=np.uint8) for _ in range(3))
        orig, enc, dec = ImageRGB(planes()), ImageRGB(planes()), ImageRGB(planes())
        report = full_report(orig, enc, dec, image="test")
        d = report.to_dict()
        assert d["image"] == "test" and d["dims"] == [8, 8]
        names = [c["name"] for c in d["components"]]
        assert names == [
            "original/R", "original/G", "original/B",
            "encrypted/R", "encrypted/G", "encrypted/B",
            "decrypted/R", "decrypted/G", "decrypted/B",
        ]
        for comp in d["components"]:
            assert len(comp["histogram"]) == 256
            assert set(comp["correlation"]) == {"h", "v", "d"}
            assert 0.0 <= comp["entropy"] <= 8.0
        pair_keys = {(p["a"], p["b"]) for p in d["pairs"]}
        assert ("original/R", "encrypted/R") in pair_keys
        assert ("original/B", "decrypted/B") in pair_keys
        for p in d["pairs"]:
            assert set(p) == {"a", "b", "npcr", "uaci", "mae", "mse", "psnr"}

    def test_original_only(self, rng):
        orig = ImageRGB(tuple(rng.integers(0, 256, (4, 4), dtype=np.uint8) for _ in range(3)))
        report = full_report(orig)
        assert len(report.components) == 3 and report.pairs == []

    def test_dim_mismatch(self, rng):
        a = ImageRGB(tuple(rng.integers(0, 256, (4, 4), dtype=np.uint8) for _ in range(3)))
        b = ImageRGB(tuple(rng.integers(0, 256, (8, 8), dtype=np.uint8) for _ in range(3)))
        with pytest.raises(DimensionMismatchError):
            full_report(a, b)

    def test_entries_equal_public_functions(self, rng):
        planes = lambda: tuple(rng.integers(0, 256, (9, 7), dtype=np.uint8) for _ in range(3))
        orig, enc = planes(), planes()
        orig = (np.full((9, 7), 5, dtype=np.uint8),) + orig[1:]  # no correlation
        report = full_report(ImageRGB(orig), ImageRGB(enc))
        for entry, plane in zip(report.components, orig + enc):
            for short, direction in zip("hvd", DIRECTIONS):
                try:
                    want = adjacent_correlation(plane, direction)
                except UndefinedCorrelationError:
                    want = None
                assert entry["correlation"][short] == want
            assert entry["entropy"] == entropy(plane)
            assert entry["histogram"] == histogram(plane).tolist()
        assert report.components[0]["correlation"] == {"h": None, "v": None, "d": None}
        for p, a, b in zip(report.pairs, orig, enc):
            assert p["npcr"] == npcr(a, b) and p["uaci"] == uaci(a, b)
            assert p["mae"] == mae(a, b) and p["mse"] == mse(a, b)
            assert p["psnr"] == psnr(a, b)

    def test_black_component(self, rng):
        red = ImageRGB(
            (np.full((8, 8), 255, dtype=np.uint8),) + (np.zeros((8, 8), dtype=np.uint8),) * 2
        )
        noise = ImageRGB(tuple(rng.integers(1, 256, (8, 8), dtype=np.uint8) for _ in range(3)))
        psnrs = [p["psnr"] for p in full_report(red, noise).pairs]
        assert math.isfinite(psnrs[0]) and psnrs[1:] == [-math.inf, -math.inf]
