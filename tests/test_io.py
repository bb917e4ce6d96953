import os
import struct
import tempfile
import zlib
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorenzdct.cipher import CipherBundle, ImageRGB, _schedules, decrypt_image, encrypt_image
from lorenzdct.cli import cli_main
from lorenzdct.container import read_bundle, write_bundle
from lorenzdct.errors import FormatError
from lorenzdct.lorenz import SecretKey
from lorenzdct.ppm import load_ppm, save_pgm, save_ppm

KEYS = (SecretKey("key(A)"), SecretKey("key(B)"), SecretKey("key(C)"))
KEY_ARGS = ["--key1", "key(A)", "--key2", "key(B)", "--key3", "key(C)"]


def random_image(rng, w, h=None):
    h = w if h is None else h
    return ImageRGB(tuple(rng.integers(0, 256, (h, w), dtype=np.uint8) for _ in range(3)))


def random_carrier(rng, n):
    """Ascending positions in about a third of the cells, always cell 0,
    holding twin-sum-like integers plus logs."""
    picked = rng.random(n * n) < 0.3
    picked[0] = True
    pos = np.flatnonzero(picked).astype(np.uint32)
    return pos, rng.integers(0, 766, pos.size) + rng.uniform(-4.9, 4.9, pos.size)


def random_bundle(
    rng, n, carriers=None, shifts=(3, 7, 13), rotations=((5, 11, 17), (1, 2, 3), (40, 0, 47))
):
    carriers = carriers or tuple(random_carrier(rng, n) for _ in range(3))
    return CipherBundle(
        n=n,
        shifts=shifts,
        rotations=rotations,
        dic=tuple(rng.integers(0, 256, (n, n), dtype=np.uint8) for _ in range(3)),
        positions=tuple(pos for pos, _ in carriers),
        carriers=tuple(values for _, values in carriers),
    )


def _bits_to_float(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# Any double: every bit pattern (NaN payloads, subnormals, -0.0, inf), with
# the special values and plain carrier-like values drawn often.
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, float("inf"), float("-inf"), float("nan")]),
    st.floats(-1e6, 1e6),
    st.integers(0, 2**64 - 1).map(_bits_to_float),
)


@st.composite
def carriers(draw):
    n = draw(st.integers(2, 6))
    planes = []
    for _ in range(3):
        cells = sorted(draw(st.sets(st.integers(0, n * n - 1))))
        values = draw(st.lists(VALUES, min_size=len(cells), max_size=len(cells)))
        planes.append((np.array(cells, np.uint32), np.array(values, np.float64)))
    return n, tuple(planes)


# Schedules a bundle carries: shifts over the container's u16 range, as ints
# or numpy integers, and rotations over the 48 key bits, edges drawn often.
SHIFT = st.builds(
    lambda value, cast: cast(value),
    st.one_of(st.sampled_from([0, 0xFFFF]), st.integers(0, 0xFFFF)),
    st.sampled_from([int, np.uint16, np.int64]),
)
ROTATION = st.one_of(st.sampled_from([0, 47]), st.integers(0, 47))
SHIFTS = st.tuples(SHIFT, SHIFT, SHIFT)
TRIPLE = st.tuples(ROTATION, ROTATION, ROTATION)
ROTATIONS = st.tuples(TRIPLE, TRIPLE, TRIPLE)
NOT_INTEGER = st.sampled_from(["7", 3.9, 7.0, True, False, np.bool_(True), None])


@st.composite
def spoiled(draw, valid, bad):
    """A draw of the tuple strategy `valid` with a wrong length, or with one
    entry replaced by a draw of `bad`."""
    values = list(draw(valid))
    if draw(st.booleans()):
        values[draw(st.integers(0, len(values) - 1))] = draw(bad)
    else:
        values = (values * 2)[: draw(st.sampled_from([0, 1, 2, 4]))]
    return tuple(values)


BAD_SHIFTS = spoiled(
    SHIFTS, st.one_of(NOT_INTEGER, st.integers(max_value=-1), st.integers(min_value=0x10000))
)
BAD_ROTATIONS = spoiled(
    ROTATIONS,
    spoiled(TRIPLE, st.one_of(NOT_INTEGER, st.integers(max_value=-1), st.integers(min_value=48))),
)


class TestPpm:
    def test_roundtrip(self, rng, tmp_path):
        img = random_image(rng, 17, 11)
        path = tmp_path / "img.ppm"
        save_ppm(path, img)
        back = load_ppm(path)
        for a, b in zip(img.planes, back.planes):
            assert np.array_equal(a, b)

    def test_single_white_pixel(self, tmp_path):
        path = tmp_path / "white.ppm"
        path.write_bytes(b"P6\n1 1\n255\n\xff\xff\xff")
        img = load_ppm(path)
        assert img.width == img.height == 1
        assert all(p[0, 0] == 255 for p in img.planes)

    def test_header_comments_tolerated(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n2 # trailing\n2\n255\n" + bytes(12))
        img = load_ppm(path)
        assert img.width == 2 and img.height == 2

    def test_ascii_p3_rejected(self, tmp_path):
        path = tmp_path / "a.ppm"
        path.write_bytes(b"P3\n1 1\n255\n255 255 255\n")
        with pytest.raises(FormatError, match="P3"):
            load_ppm(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "b.ppm"
        path.write_bytes(b"BM\x00\x00")
        with pytest.raises(FormatError):
            load_ppm(path)

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "m.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n\x00\x00\x00\x00\x00\x00")
        with pytest.raises(FormatError, match="maxval"):
            load_ppm(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n2 2\n255\n\x00\x00\x00")
        with pytest.raises(FormatError, match="truncated"):
            load_ppm(path)

    def test_oversized_header_rejected_before_reading(self, tmp_path):
        # 2.7e19 payload bytes: more than a read can even be asked for
        path = tmp_path / "huge.ppm"
        path.write_bytes(b"P6 3000000000 3000000000 255\n" + bytes(12))
        with pytest.raises(FormatError, match="truncated"):
            load_ppm(path)

    def test_trailing_bytes_after_payload_ignored(self, tmp_path):
        path = tmp_path / "trail.ppm"
        path.write_bytes(b"P6\n1 1\n255\n\x01\x02\x03trailing")
        img = load_ppm(path)
        assert [p[0, 0] for p in img.planes] == [1, 2, 3]

    def test_pgm_dump(self, rng, tmp_path):
        plane = rng.integers(0, 256, (4, 6), dtype=np.uint8)
        path = tmp_path / "p.pgm"
        save_pgm(path, plane)
        data = path.read_bytes()
        assert data.startswith(b"P5\n6 4\n255\n")
        assert data[len(b"P5\n6 4\n255\n"):] == plane.tobytes()


class TestContainer:
    def test_bit_exact_roundtrip(self, rng, tmp_path):
        bundle = random_bundle(rng, 5)
        path = tmp_path / "b.ldct"
        write_bundle(path, bundle)
        back = read_bundle(path)
        assert back.n == 5
        assert back.shifts == bundle.shifts
        assert back.rotations == bundle.rotations
        for a, b in zip(bundle.dic, back.dic):
            assert np.array_equal(a, b)
        for a, b in zip(bundle.positions + bundle.carriers, back.positions + back.carriers):
            # bitwise identity, not just numeric closeness
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(case=carriers())
    def test_carriers_roundtrip_bit_exact(self, case, tmp_path_factory):
        n, planes = case
        bundle = random_bundle(np.random.default_rng(n), n, planes)
        path = tmp_path_factory.getbasetemp() / "prop.ldct"
        write_bundle(path, bundle)
        back = read_bundle(path)
        for a, b in zip(bundle.positions + bundle.carriers, back.positions + back.carriers):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_2x2_total_size(self, rng, tmp_path):
        # carriers with 0, 1 and 4 cells: header 31 bytes + 3*4 counts
        # + 3*4 dic + (0+1+4)*(4+8) positions and values + 4 CRC = 119
        planes = [np.arange(k, dtype=np.uint32) for k in (0, 1, 4)]
        carriers = tuple((pos, np.full(pos.size, np.nan)) for pos in planes)
        path = tmp_path / "s.ldct"
        write_bundle(path, random_bundle(rng, 2, carriers))
        assert path.stat().st_size == 31 + 12 + 12 + 60 + 4

    def test_flipped_byte_fails_crc(self, rng, tmp_path):
        path = tmp_path / "c.ldct"
        write_bundle(path, random_bundle(rng, 4))
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x40
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="CRC"):
            read_bundle(path)

    def test_bad_magic(self, rng, tmp_path):
        path = tmp_path / "m.ldct"
        write_bundle(path, random_bundle(rng, 3))
        blob = bytearray(path.read_bytes())
        blob[0] = ord("X")
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="magic"):
            read_bundle(path)

    def test_bad_version(self, rng, tmp_path):
        path = tmp_path / "v.ldct"
        write_bundle(path, random_bundle(rng, 3))
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            read_bundle(path)

    def test_size_mismatch(self, rng, tmp_path):
        path = tmp_path / "z.ldct"
        write_bundle(path, random_bundle(rng, 3))
        blob = path.read_bytes()
        path.write_bytes(blob + b"\x00")
        with pytest.raises(FormatError, match="size"):
            read_bundle(path)

    def test_too_short(self, tmp_path):
        path = tmp_path / "short.ldct"
        path.write_bytes(b"LDCT")
        with pytest.raises(FormatError):
            read_bundle(path)

    def test_deterministic_bytes(self, rng, tmp_path):
        bundle = random_bundle(rng, 4)
        p1, p2 = tmp_path / "x1.ldct", tmp_path / "x2.ldct"
        write_bundle(p1, bundle)
        write_bundle(p2, bundle)
        assert p1.read_bytes() == p2.read_bytes()


class TestBundleSchedule:
    """CipherBundle checks the schedules it carries, so every bundle that
    constructs is written and read back unchanged."""

    @settings(max_examples=100, deadline=None)
    @given(shifts=SHIFTS, rotations=ROTATIONS, cast=st.sampled_from([int, np.int64, np.uint8]))
    def test_valid_schedule_roundtrips(self, shifts, rotations, cast, tmp_path_factory):
        # rotations, like shifts, may be numpy integers and are held as ints
        given_rotations = tuple(tuple(map(cast, triple)) for triple in rotations)
        bundle = random_bundle(
            np.random.default_rng(0), 2, shifts=shifts, rotations=given_rotations
        )
        assert bundle.shifts == shifts and bundle.rotations == rotations
        assert all(type(s) is int for s in bundle.shifts)
        assert all(type(r) is int for triple in bundle.rotations for r in triple)
        path = tmp_path_factory.getbasetemp() / "schedule.ldct"
        write_bundle(path, bundle)
        back = read_bundle(path)
        assert back.shifts == bundle.shifts and back.rotations == bundle.rotations

    @settings(max_examples=200, deadline=None)
    @given(schedule=st.one_of(st.tuples(BAD_SHIFTS, ROTATIONS), st.tuples(SHIFTS, BAD_ROTATIONS)))
    def test_invalid_schedule_refused_at_construction(self, schedule):
        # refused here, such a bundle never reaches write_bundle's u16/u8 packing
        shifts, rotations = schedule
        with pytest.raises(ValueError):
            random_bundle(np.random.default_rng(0), 2, shifts=shifts, rotations=rotations)

    def test_out_of_range_messages(self, rng):
        with pytest.raises(ValueError, match=r"rotation 100 outside \[0, 47\]"):
            random_bundle(rng, 2, rotations=((5, 11, 17), (1, 2, 100), (0, 0, 0)))
        with pytest.raises(ValueError, match=r"three integers in \[0, 65535\]"):
            random_bundle(rng, 2, shifts=(3, 7, 70000))


# Offsets in a v4 container: the 31-byte header, whose last nine bytes are
# the key rotations, then three u32 position counts, then the dic planes.
SIZE_AT = 6
ROTATIONS_AT = 22
COUNTS_AT = 31
HEAD_LEN = 43


def _reseal(blob):
    """Append a valid CRC, so a test reaches the checks after the CRC."""
    return blob + struct.pack("<I", zlib.crc32(blob))


def _positions_at(n):
    return HEAD_LEN + 3 * n * n


class TestHostileContainer:
    """Containers with a valid CRC whose v4 structure is inconsistent."""

    @pytest.fixture()
    def body(self, rng, tmp_path):
        path = tmp_path / "h.ldct"
        write_bundle(path, random_bundle(rng, 4))
        return bytearray(path.read_bytes()[:-4])

    def _read(self, tmp_path, blob):
        path = tmp_path / "hostile.ldct"
        path.write_bytes(_reseal(bytes(blob)))
        return read_bundle(path)

    def test_intact_body_reads(self, body, tmp_path):
        assert self._read(tmp_path, body).n == 4

    @pytest.mark.parametrize("rotation", [48, 200, 255])
    def test_rotation_outside_key_bits(self, body, tmp_path, rotation):
        body[ROTATIONS_AT + 4] = rotation
        with pytest.raises(FormatError, match=f"rotation {rotation} outside"):
            self._read(tmp_path, body)

    def test_count_beyond_plane(self, body, tmp_path):
        struct.pack_into("<I", body, COUNTS_AT + 4, 4 * 4 + 1)
        with pytest.raises(FormatError, match="position count"):
            self._read(tmp_path, body)

    def test_count_moved_between_planes(self, body, tmp_path):
        # move one count from G to R: the total size still matches, and R
        # now ends with G's first position, cell 0
        k_r, k_g, k_b = struct.unpack_from("<3I", body, COUNTS_AT)
        struct.pack_into("<3I", body, COUNTS_AT, k_r + 1, k_g - 1, k_b)
        with pytest.raises(FormatError, match="carrier R positions are not strictly ascending"):
            self._read(tmp_path, body)

    @pytest.mark.parametrize("edit", ["swap", "duplicate", "past_plane", "top"])
    def test_bad_positions(self, body, tmp_path, edit):
        at = _positions_at(4)
        k_r = struct.unpack_from("<I", body, COUNTS_AT)[0]
        assert k_r >= 3  # edits R's first two positions or its last one
        last = at + 4 * (k_r - 1)
        first, second = struct.unpack_from("<2I", body, at)
        if edit in ("swap", "duplicate"):
            new = (second, first) if edit == "swap" else (first, first)
            struct.pack_into("<2I", body, at, *new)
        else:  # still ascending, but past the 16 cells
            struct.pack_into("<I", body, last, 16 if edit == "past_plane" else 2**32 - 1)
        with pytest.raises(FormatError, match="carrier R positions are not strictly ascending"):
            self._read(tmp_path, body)

    @pytest.mark.parametrize("n", [0, 1])
    def test_size_below_two(self, body, tmp_path, n):
        struct.pack_into("<2I", body, SIZE_AT, n, n)
        with pytest.raises(FormatError, match="at least 2x2"):
            self._read(tmp_path, body)

    def test_truncated_carrier_values(self, body, tmp_path):
        with pytest.raises(FormatError, match="size"):
            self._read(tmp_path, body[:-8])

    def test_trailing_bytes(self, body, tmp_path):
        with pytest.raises(FormatError, match="size"):
            self._read(tmp_path, body + struct.pack("<d", 1.5))

    def test_v1_container_rejected(self, body, rng, tmp_path):
        # the v1 layout: raw float64 carrier planes and no exception counts
        bundle = random_bundle(rng, 4)
        blob = struct.pack("<4sHIIBB", b"LDCT", 1, 4, 4, 3, 0)
        blob += struct.pack("<3H", *bundle.shifts)
        blob += b"".join(struct.pack("<3B", *rot) for rot in bundle.rotations)
        blob += b"".join(p.tobytes() for p in bundle.dic)
        blob += rng.uniform(0, 766, 3 * 16).astype("<f8").tobytes()
        with pytest.raises(FormatError, match="unsupported container version 1"):
            self._read(tmp_path, blob)
        # v2 has v3's layout over the old keystream: it would decrypt to garbage
        struct.pack_into("<H", body, 4, 2)
        with pytest.raises(FormatError, match="unsupported container version 2"):
            self._read(tmp_path, body)

    def test_v3_container_rejected(self, rng, tmp_path):
        # the v3 layout: exception counts, the dic planes, every carrier
        # cell as u16 (0xFFFF marks an exception), then the exceptions
        bundle = random_bundle(rng, 4)
        blob = struct.pack("<4sHIIBB", b"LDCT", 3, 4, 4, 3, 0)
        blob += struct.pack("<3H", *bundle.shifts)
        blob += b"".join(struct.pack("<3B", *rot) for rot in bundle.rotations)
        blob += struct.pack("<3I", 1, 1, 1)
        blob += b"".join(p.tobytes() for p in bundle.dic)
        cells = rng.integers(0, 766, 16).astype("<u2")
        cells[0] = 0xFFFF
        blob += cells.tobytes() * 3 + struct.pack("<3d", 1.5, 2.5, 3.5)
        with pytest.raises(FormatError, match="unsupported container version 3"):
            self._read(tmp_path, blob)


@lru_cache(maxsize=1)
def _valid_container():
    """A real 8 x 8 container without its CRC, its bundle, and the twin
    sums under each carrier's positions."""
    rng = np.random.default_rng(8)
    bundle = encrypt_image(random_image(rng, 8), KEYS)
    schedules = _schedules(KEYS, bundle.shifts, bundle.n)
    twins = tuple(s.twin.ravel()[pos] for s, pos in zip(schedules, bundle.positions))
    fd, path = tempfile.mkstemp(suffix=".ldct")
    os.close(fd)
    try:
        write_bundle(path, bundle)
        with open(path, "rb") as f:
            body = f.read()[:-4]
    finally:
        os.unlink(path)
    return body, bundle, twins


@st.composite
def mutations(draw):
    """A valid v4 container body (no CRC) with one hostile edit."""
    body, bundle, twins = _valid_container()
    body = bytearray(body)
    n, counts = bundle.n, [p.size for p in bundle.positions]
    before = np.cumsum([0] + counts[:2]).tolist()  # cells of the carriers ahead of each
    starts = [_positions_at(n) + 4 * b for b in before]
    value_starts = [_positions_at(n) + 4 * sum(counts) + 8 * b for b in before]
    plane = draw(st.integers(0, 2))
    i = draw(st.integers(0, counts[plane] - 1))
    kind = draw(
        st.sampled_from(
            ["size", "counts", "length", "swap", "duplicate", "position", "last", "value", "twin"]
        )
    )
    if kind == "size":
        w = draw(st.one_of(st.integers(0, 16), st.integers(0, 2**32 - 1)))
        h = draw(st.one_of(st.just(w), st.integers(0, 2**32 - 1)))
        struct.pack_into("<2I", body, SIZE_AT, w, h)
    elif kind == "counts":
        new = draw(
            st.one_of(
                st.permutations(counts),  # sizes still match
                st.lists(st.integers(0, 2**32 - 1), min_size=3, max_size=3),
            )
        )
        struct.pack_into("<3I", body, COUNTS_AT, *new)
    elif kind == "length":
        cut = draw(st.integers(0, len(body) - 1))
        extra = draw(st.binary(max_size=24))
        body = body[:cut] + extra if draw(st.booleans()) else body + extra
    elif kind in ("swap", "duplicate"):
        j = draw(st.integers(0, counts[plane] - 1))
        a, b = starts[plane] + 4 * i, starts[plane] + 4 * j
        if kind == "swap":
            body[a : a + 4], body[b : b + 4] = body[b : b + 4], body[a : a + 4]
        else:
            body[a : a + 4] = body[b : b + 4]
    elif kind in ("position", "last"):
        if kind == "last":  # keeps the order, so only the range can fail
            i = counts[plane] - 1
        cell = draw(st.one_of(st.integers(0, n * n + 4), st.integers(0, 2**32 - 1)))
        struct.pack_into("<I", body, starts[plane] + 4 * i, cell)
    elif kind == "value":
        struct.pack_into("<d", body, value_starts[plane] + 8 * i, draw(VALUES))
    else:  # the bare twin sum: a cell that carries no coefficient
        struct.pack_into("<d", body, value_starts[plane] + 8 * i, float(twins[plane][i]))
    return bytes(body)


class TestMutatedContainer:
    """Every hostile edit of a valid container, resealed with a valid CRC,
    either raises FormatError or decrypts to a valid image, and the CLI
    exits 2 or 0 accordingly, never with an uncaught exception."""

    @settings(max_examples=150, deadline=None)
    @given(blob=mutations())
    def test_formaterror_or_valid_image(self, blob, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "mutated.ldct"
        path.write_bytes(_reseal(blob))
        try:
            bundle = read_bundle(path)
        except FormatError:
            readable = False
        else:
            readable = True
            img = decrypt_image(bundle, KEYS)
            assert isinstance(img, ImageRGB) and img.width == img.height == bundle.n
        out = tmp_path_factory.getbasetemp() / "mutated.ppm"
        rc = cli_main(["decrypt", "--in", str(path), "--out", str(out)] + KEY_ARGS)
        assert rc == (0 if readable else 2)

    def test_every_twin_valued_cell_drops_its_coefficient(self, tmp_path):
        body, bundle, twins = _valid_container()
        n, counts = bundle.n, [p.size for p in bundle.positions]
        values_at = _positions_at(n) + 4 * sum(counts)
        bare = np.concatenate(twins).astype("<f8").tobytes()
        blob = body[:values_at] + bare
        path = tmp_path / "bare.ldct"
        path.write_bytes(_reseal(blob))
        # no coefficient is left: each plane decrypts to the difference plane alone
        out = decrypt_image(read_bundle(path), KEYS)
        empty = CipherBundle(
            n=n,
            shifts=bundle.shifts,
            rotations=bundle.rotations,
            dic=bundle.dic,
            positions=(np.empty(0, np.uint32),) * 3,
            carriers=(np.empty(0),) * 3,
        )
        for a, b in zip(out.planes, decrypt_image(empty, KEYS).planes):
            assert np.array_equal(a, b)
