import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorenzdct.cipher import CipherBundle, ImageRGB
from lorenzdct.container import read_bundle, write_bundle
from lorenzdct.errors import FormatError
from lorenzdct.ppm import load_ppm, save_pgm, save_ppm


def random_image(rng, w, h=None):
    h = w if h is None else h
    return ImageRGB(tuple(rng.integers(0, 256, (h, w), dtype=np.uint8) for _ in range(3)))


def mixed_carrier(rng, n):
    """Twin-sum-like integer cells, with non-integer exceptions in about a
    third of them and always at (0, 0)."""
    plane = rng.integers(0, 766, (n, n)).astype(np.float64)
    logs = rng.random((n, n)) < 0.3
    logs[0, 0] = True
    plane[logs] += rng.uniform(-4.9, 4.9, int(logs.sum()))
    return plane


def random_bundle(rng, n, carriers=None):
    return CipherBundle(
        n=n,
        shifts=(3, 7, 13),
        rotations=((5, 11, 17), (1, 2, 3), (40, 0, 47)),
        dic=tuple(rng.integers(0, 256, (n, n), dtype=np.uint8) for _ in range(3)),
        carriers=carriers or tuple(mixed_carrier(rng, n) for _ in range(3)),
    )


def _bits_to_float(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# Carrier cells of every kind the v2 encoding distinguishes.
CELLS = st.one_of(
    st.integers(0, 65534).map(float),  # the only kind stored as a u16 cell
    st.integers(65535, 2**53).map(float),  # the sentinel value and beyond
    st.integers(-(2**53), -1).map(float),
    st.just(-0.0),
    st.tuples(st.integers(1, 2**52 - 1), st.booleans()).map(  # subnormals
        lambda t: _bits_to_float(t[0] | t[1] << 63)
    ),
    st.floats(-1e6, 1e6).filter(lambda x: x != int(x)),
    st.sampled_from([float("inf"), float("-inf"), float("nan")]),
    st.integers(1, 2**51 - 1).map(lambda p: _bits_to_float(0xFFF8 << 48 | p)),  # NaN payloads
)


@st.composite
def carrier_planes(draw):
    n = draw(st.integers(1, 6))
    cells = draw(st.lists(CELLS, min_size=3 * n * n, max_size=3 * n * n))
    return np.array(cells, dtype=np.float64).reshape(3, n, n)


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
        for a, b in zip(bundle.carriers, back.carriers):
            # bitwise identity, not just numeric closeness
            assert a.tobytes() == b.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(planes=carrier_planes())
    def test_carriers_roundtrip_bit_exact(self, planes, tmp_path_factory):
        n = planes.shape[1]
        bundle = random_bundle(np.random.default_rng(n), n, tuple(planes))
        path = tmp_path_factory.getbasetemp() / "prop.ldct"
        write_bundle(path, bundle)
        back = read_bundle(path)
        for a, b in zip(bundle.carriers, back.carriers):
            assert a.tobytes() == b.tobytes()

    def test_2x2_total_size(self, rng, tmp_path):
        # planes with 0, 1 and 4 non-integer cells: header 31 bytes + 3*4
        # counts + 3*4 dic + 3*4*2 cells + (0+1+4)*8 exceptions + 4 CRC = 123
        carriers = (
            np.array([[0.0, 765.0], [65534.0, 3.0]]),
            np.array([[0.0, 765.0], [65535.0, 3.0]]),
            np.array([[-0.0, 0.5], [-1.0, np.nan]]),
        )
        path = tmp_path / "s.ldct"
        write_bundle(path, random_bundle(rng, 2, carriers))
        assert path.stat().st_size == 31 + 12 + 12 + 24 + 40 + 4

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


# Offsets in a v2 container: the 31-byte header, whose last nine bytes are
# the key rotations, then three u32 exception counts.
ROTATIONS_AT = 22
COUNTS_AT = 31


def _reseal(blob):
    """Append a valid CRC, so a test reaches the checks after the CRC."""
    return blob + struct.pack("<I", zlib.crc32(blob))


class TestHostileContainer:
    """Containers with a valid CRC whose v2 structure is inconsistent."""

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
        with pytest.raises(FormatError, match="exception count"):
            self._read(tmp_path, body)

    def test_count_disagrees_with_sentinel_cells(self, body, tmp_path):
        # move one count from G to R: the total size still matches
        k_r, k_g, k_b = struct.unpack_from("<3I", body, COUNTS_AT)
        struct.pack_into("<3I", body, COUNTS_AT, k_r + 1, k_g - 1, k_b)
        with pytest.raises(FormatError, match="exception cells"):
            self._read(tmp_path, body)

    def test_truncated_exception_values(self, body, tmp_path):
        with pytest.raises(FormatError, match="size"):
            self._read(tmp_path, body[:-8])

    def test_trailing_bytes(self, body, tmp_path):
        with pytest.raises(FormatError, match="size"):
            self._read(tmp_path, body + struct.pack("<d", 1.5))

    def test_v1_container_rejected(self, body, rng, tmp_path):
        # the v1 layout: raw float64 carriers and no exception counts
        bundle = random_bundle(rng, 4)
        blob = struct.pack("<4sHIIBB", b"LDCT", 1, 4, 4, 3, 0)
        blob += struct.pack("<3H", *bundle.shifts)
        blob += b"".join(struct.pack("<3B", *rot) for rot in bundle.rotations)
        blob += b"".join(p.tobytes() for p in bundle.dic)
        blob += b"".join(p.astype("<f8").tobytes() for p in bundle.carriers)
        with pytest.raises(FormatError, match="unsupported container version 1"):
            self._read(tmp_path, blob)
        # v2 has v3's layout over the old keystream: it would decrypt to garbage
        struct.pack_into("<H", body, 4, 2)
        with pytest.raises(FormatError, match="unsupported container version 2"):
            self._read(tmp_path, body)
