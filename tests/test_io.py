import os
import struct
import tempfile
import tracemalloc
import zlib
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorenzdct.cipher import (
    LOG_BITS, CipherBundle, ImageRGB, _schedules, decrypt_image, encrypt_image,
)
from lorenzdct.cli import cli_main
from lorenzdct.container import (
    decode_positions, encode_positions, read_bundle, read_header, write_bundle,
)
from lorenzdct.dct import idct2
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
    holding any u16 values."""
    picked = rng.random(n * n) < 0.3
    picked[0] = True
    pos = np.flatnonzero(picked).astype(np.uint32)
    return pos, rng.integers(0, 1 << 16, pos.size).astype(np.uint16)


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


# Any u16 value, with the edges of the log residue (0, the largest positive
# and negative logs, and -1 step) drawn often.
VALUES = st.one_of(st.sampled_from([0, 1, 0x7FFF, 0x8000, 0xFFFF]), st.integers(0, 0xFFFF))


@st.composite
def carriers(draw):
    n = draw(st.integers(2, 24))  # gaps of 1 to n**2, so codes of 0 to 9 suffix bits
    planes = []
    for _ in range(3):
        cells = sorted(draw(st.sets(st.integers(0, n * n - 1))))
        values = draw(st.lists(VALUES, min_size=len(cells), max_size=len(cells)))
        planes.append((np.array(cells, np.uint32), np.array(values, np.uint16)))
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


PPM_4X4 = b"P6\n# a comment\n4 4\n255\n" + bytes(range(0, 240, 5))


@st.composite
def ppm_mutants(draw):
    """The 4 x 4 P6 above after 1 to 4 byte edits, inserts or deletes, with
    the bytes a header is made of drawn often."""
    blob = bytearray(PPM_4X4)
    byte = st.one_of(st.sampled_from(b" \t\r\n#0123456789-+P36"), st.integers(0, 255))
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["edit", "insert", "delete"]))
        at = draw(st.integers(0, len(blob) - (kind != "insert")))
        if kind == "edit":
            blob[at] = draw(byte)
        elif kind == "insert":
            blob.insert(at, draw(byte))
        else:
            del blob[at]
    return bytes(blob)


class TestPpm:
    @settings(max_examples=300, deadline=None)
    @given(blob=ppm_mutants())
    def test_mutated_ppm_formaterror_or_valid_image(self, blob, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "mutated.ppm"
        path.write_bytes(blob)
        try:
            img = load_ppm(path)
        except FormatError:
            return
        assert isinstance(img, ImageRGB) and img.width >= 1 and img.height >= 1
        assert 3 * img.width * img.height <= len(blob)

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

    @pytest.mark.parametrize(
        "header, width",
        [
            (b"P6\n2 2\n255#c\n", 2),  # comment right after maxval: payload after the LF
            (b"P6 1 1 255#c\r", 1),  # comment ended by CR alone: payload after the CR
            (b"P6\n2#x\n2 255\n", 2),  # comment right after a token ends that token
        ],
        ids=["after_maxval", "cr_only", "after_token"],
    )
    def test_comment_edges(self, header, width, tmp_path):
        path = tmp_path / "edge.ppm"
        payload = bytes(range(3 * width * width))
        path.write_bytes(header + payload)
        img = load_ppm(path)
        assert img.width == img.height == width
        assert np.stack(img.planes, axis=-1).tobytes() == payload

    def test_end_of_file_inside_comment_rejected(self, tmp_path):
        path = tmp_path / "eof.ppm"
        path.write_bytes(b"P6\n1 1 #c")
        with pytest.raises(FormatError, match="end of file"):
            load_ppm(path)

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
        # carriers with 0, 1 and 4 cells, every gap 1: header 31 bytes +
        # 6*4 counts + 3*4 dic + (0+1+1) gap bytes + 2*(0+1+4) values + 4 CRC = 83
        planes = [np.arange(k, dtype=np.uint32) for k in (0, 1, 4)]
        carriers = tuple((pos, np.full(pos.size, 0xFFFF, np.uint16)) for pos in planes)
        path = tmp_path / "s.ldct"
        write_bundle(path, random_bundle(rng, 2, carriers))
        assert path.stat().st_size == 31 + 24 + 12 + 2 + 5 * 2 + 4

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16, np.int32, np.int16])
    def test_carriers_must_be_uint16(self, rng, dtype):
        # the dtype states the residue's width, so nothing is cast on write
        planes = [random_carrier(rng, 3) for _ in range(3)]
        carriers = tuple((pos, values.astype(dtype)) for pos, values in planes)
        with pytest.raises(ValueError, match="carrier R values must be uint16"):
            random_bundle(rng, 3, carriers)

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


def _gamma_stream(gaps):
    """The gap section and suffix bit count of gaps, one bit at a time: each
    gap's Elias-gamma prefix, then each gap's suffix, then zero padding."""
    codes = [bin(x)[2:] for x in gaps]
    prefixes = "".join("0" * (len(code) - 1) + "1" for code in codes)
    suffixes = "".join(code[1:] for code in codes)
    bits = prefixes + suffixes + "0" * (-(len(prefixes) + len(suffixes)) % 8)
    section = np.packbits(np.frombuffer(bits.encode(), np.uint8) - ord("0"))
    return section.tobytes(), len(suffixes)


def _reference_stream(cells):
    """The gap section and suffix bit count of ascending cells."""
    return _gamma_stream([cell - prev for cell, prev in zip(cells, [-1, *cells])])


class TestPositionCodec:
    """encode_positions and decode_positions on their own, at sizes no image
    in the suite reaches: the same cells come back, as the same bytes the
    bit-by-bit reference writes."""

    def _round_trip(self, cells, n):
        pos = np.array(cells, dtype=np.uint32)
        section, suffix_bits = encode_positions(pos)
        assert section.dtype == np.uint8
        stream = (section.tobytes(), suffix_bits)
        assert stream == _reference_stream(cells)
        again = encode_positions(pos)
        assert (again[0].tobytes(), again[1]) == stream
        back = decode_positions(section, len(cells), suffix_bits, n * n, "R")
        assert back.dtype == np.uint32 and back.tobytes() == pos.tobytes()
        return stream

    def test_empty_carrier(self):
        assert self._round_trip([], 2) == (b"", 0)

    def test_cell_zero(self):
        # the gap 1 is the prefix bit 1 alone
        assert self._round_trip([0], 2) == (b"\x80", 0)

    def test_last_cell_of_the_largest_plane(self):
        # the first gap is the cell plus one, 2**32: N = 32 zeros and a one,
        # then 32 zero suffix bits and 7 bits of padding
        n = 65536
        assert self._round_trip([n * n - 1], n) == (b"\x00" * 4 + b"\x80" + b"\x00" * 4, 32)

    def test_hand_built_stream(self):
        # gaps 1 1 2 5: prefix 1 1 01 001, suffix 0 01, padding 000000
        assert self._round_trip([0, 1, 3, 8], 3) == (b"\xd2\x40", 3)

    def test_gaps_around_powers_of_two(self):
        # 2**j - 1 has one suffix bit fewer than 2**j and 2**j + 1
        n = 65536
        for j in range(1, 33):
            for gap in (2**j - 1, 2**j, 2**j + 1):
                if gap < n * n:
                    assert self._round_trip([0, gap], n)[1] == gap.bit_length() - 1

    def test_gaps_summing_past_u32_run_past(self):
        # 16385 gaps of 262143 sum to 2**32 + 245759: each gap is valid at
        # n = 512, but a uint32 running sum would wrap back into the plane
        count, gap, n = 16385, 262143, 512
        section, suffix_bits = _gamma_stream([gap] * count)
        with pytest.raises(FormatError, match="carrier R positions run past the 262144 cells"):
            decode_positions(np.frombuffer(section, np.uint8), count, suffix_bits, n * n, "R")

    def test_dense_carrier_across_prefix_chunks(self):
        # 48,000 seeded gaps: a run of 2,000 gaps of 1, then gaps of 1 to 3
        # with five above 2**16, so the decoder unpacks the prefix, about 8
        # KiB, in three 4 KiB chunks
        rng = np.random.default_rng(36)
        gaps = rng.choice([1, 2, 3], 48_000, p=[0.6, 0.25, 0.15])
        gaps[:2000] = 1
        gaps[rng.choice(np.arange(2000, gaps.size), 5, replace=False)] = rng.integers(
            1 << 16, 1 << 17, 5
        )
        assert (gaps > 1 << 16).sum() == 5
        cells = (np.cumsum(gaps) - 1).tolist()
        suffix_bits = self._round_trip(cells, 1024)[1]
        assert len(cells) + suffix_bits > 2 * 8 * 4096

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.one_of(st.integers(2, 64), st.integers(2, 65536)))
    def test_random_ascending_cells(self, data, n):
        cells = sorted(data.draw(st.sets(st.integers(0, n * n - 1), max_size=300)))
        self._round_trip(cells, n)


class TestBundleSchedule:
    """CipherBundle checks the size and the schedules it carries, so every
    bundle that constructs is written and read back unchanged."""

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 16),
        shifts=SHIFTS,
        rotations=ROTATIONS,
        cast=st.sampled_from([int, np.int64, np.uint16]),
    )
    def test_valid_schedule_roundtrips(self, n, shifts, rotations, cast, tmp_path_factory):
        # n and the rotations, like shifts, may be numpy integers and are held as ints
        given_rotations = tuple(tuple(map(cast, triple)) for triple in rotations)
        bundle = random_bundle(
            np.random.default_rng(0), cast(n), shifts=shifts, rotations=given_rotations
        )
        assert bundle.n == n and bundle.shifts == shifts and bundle.rotations == rotations
        assert type(bundle.n) is int and all(type(s) is int for s in bundle.shifts)
        assert all(type(r) is int for triple in bundle.rotations for r in triple)
        path = tmp_path_factory.getbasetemp() / "schedule.ldct"
        write_bundle(path, bundle)
        back = read_bundle(path)
        assert (back.n, back.shifts, back.rotations) == (n, bundle.shifts, bundle.rotations)
        for field in ("dic", "positions", "carriers"):
            for a, b in zip(getattr(bundle, field), getattr(back, field)):
                assert np.array_equal(a, b)

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


# Offsets in a v8 container: the 31-byte header, whose last nine bytes are
# the key rotations, then three u32 position counts k and three u32 suffix
# bit counts S, then the dic planes, each carrier's gap section of
# ceil((k + 2S) / 8) bytes and the 2k bytes of values.
SIZE_AT = 6
ROTATIONS_AT = 22
COUNTS_AT = 31
SUFFIXES_AT = 43
HEAD_LEN = 55


def _reseal(blob):
    """Append a valid CRC, so a test reaches the checks after the CRC."""
    return blob + struct.pack("<I", zlib.crc32(blob))


def _sections(body):
    """Where each carrier's gap section and values start in a v8 body, as
    two (R, G, B) lists read from its header."""
    n = struct.unpack_from("<I", body, SIZE_AT)[0]
    counts = struct.unpack_from("<6I", body, COUNTS_AT)
    lengths = [(k + 2 * s + 7) // 8 for k, s in zip(counts[:3], counts[3:])]
    at = HEAD_LEN + 3 * n * n
    gap_starts = [at + sum(lengths[:i]) for i in range(3)]
    at += sum(lengths)
    return gap_starts, [at + 2 * sum(counts[:i]) for i in range(3)]


def _write_bits(body, at, bit, text):
    """Overwrite, MSB first, the bits of the section at byte `at` from bit
    `bit` on with the "0"/"1" string `text`."""
    for i, value in enumerate(text, bit):
        mask = 0x80 >> (i % 8)
        body[at + i // 8] = body[at + i // 8] & ~mask | mask * int(value)


# 400 cells, so gaps reach 8 suffix bits.  The gaps are R 1 1 1 298 2 97,
# G 6 1 255 1 and B 1 255 1, so R's section is 5 bytes: 21 prefix bits
# (1 1 1 000000001 01 0000001), 15 suffix bits (00101010 0 100001) and 4 of
# padding; G's and B's are 3 bytes, with 13 + 9 + 2 and 10 + 7 + 7 bits.
HOSTILE_N = 20
HOSTILE_CELLS = ([0, 1, 2, 300, 302, 399], [5, 6, 261, 262], [0, 255, 256])
HOSTILE_SUFFIXES = (15, 9, 7)


class TestHostileContainer:
    """Containers with a valid CRC whose v8 structure is inconsistent."""

    @pytest.fixture()
    def body(self, rng, tmp_path):
        carriers = tuple(
            (np.array(cells, np.uint32), rng.integers(0, 1 << 16, len(cells)).astype(np.uint16))
            for cells in HOSTILE_CELLS
        )
        path = tmp_path / "h.ldct"
        write_bundle(path, random_bundle(rng, HOSTILE_N, carriers))
        return bytearray(path.read_bytes()[:-4])

    def _read(self, tmp_path, blob):
        # the header alone first, as decrypt reads it, then the whole file;
        # each header check fails both with the same message
        path = tmp_path / "hostile.ldct"
        path.write_bytes(_reseal(bytes(blob)))
        header = read_header(path)
        bundle = read_bundle(path)
        assert header == (bundle.n, bundle.shifts, bundle.rotations)
        return bundle

    def test_intact_body_reads(self, body, tmp_path):
        # 13 cells in sections of 5, 3 and 3 bytes: 55 + 3n² + 11 + 2 * 13 + 4 bytes
        assert len(body) + 4 == HEAD_LEN + 3 * HOSTILE_N**2 + 11 + 2 * 13 + 4
        assert struct.unpack_from("<3I", body, SUFFIXES_AT) == HOSTILE_SUFFIXES
        back = self._read(tmp_path, body)
        assert [p.tolist() for p in back.positions] == list(HOSTILE_CELLS)

    @pytest.mark.parametrize("rotation", [48, 200, 255])
    def test_rotation_outside_key_bits(self, body, tmp_path, rotation):
        body[ROTATIONS_AT + 4] = rotation
        with pytest.raises(FormatError, match=f"rotation {rotation} outside"):
            self._read(tmp_path, body)
        # a data error, though the CLI builds its keys from these rotations
        path, out = tmp_path / "hostile.ldct", tmp_path / "out.ppm"
        assert cli_main(["decrypt", "--in", str(path), "--out", str(out)] + KEY_ARGS) == 2

    def test_count_beyond_plane(self, body, tmp_path):
        struct.pack_into("<I", body, COUNTS_AT + 4, HOSTILE_N**2 + 1)
        with pytest.raises(FormatError, match="position count"):
            self._read(tmp_path, body)

    def test_count_moved_between_planes(self, body, tmp_path):
        # move one count from R to G: every section keeps its length, and R's
        # 20 prefix bits now end before its last one, so its suffixes are
        # read a bit early and its fourth gap becomes 405
        k_r, k_g, k_b = struct.unpack_from("<3I", body, COUNTS_AT)
        struct.pack_into("<3I", body, COUNTS_AT, k_r - 1, k_g + 1, k_b)
        with pytest.raises(FormatError, match="carrier R positions run past the 400 cells"):
            self._read(tmp_path, body)

    def test_suffix_bits_moved_between_planes(self, body, tmp_path):
        # move one suffix bit from G to B: every section keeps its length,
        # and G's 12 prefix bits hold only 3 of its 4 ones
        struct.pack_into("<2I", body, SUFFIXES_AT + 4, 8, 8)
        with pytest.raises(FormatError, match="carrier G gap prefix does not hold exactly 4 ones"):
            self._read(tmp_path, body)

    @pytest.mark.parametrize("edit", ["swap", "duplicate", "past_plane", "top"])
    def test_bad_positions(self, body, tmp_path, edit):
        gaps_at = _sections(body)[0][0]
        if edit == "swap":  # R's last prefix one and the zero before it
            _write_bits(body, gaps_at, 19, "10")
            error = "gap prefix does not end in a one"
        elif edit == "duplicate":  # R's third prefix one over the zero after it
            _write_bits(body, gaps_at, 3, "1")
            error = "gap prefix does not hold exactly 6 ones"
        elif edit == "past_plane":  # R's last gap, 97, becomes 98: cell 400
            _write_bits(body, gaps_at, 30, "100010")
            error = "positions run past the 400 cells"
        else:  # R's gap 298 becomes 399, as many bits: in range, but cell 401
            _write_bits(body, gaps_at, 21, "10001111")
            error = "positions run past the 400 cells"
        with pytest.raises(FormatError, match=f"carrier R {error}"):
            self._read(tmp_path, body)

    def test_flipped_prefix_bit(self, body, tmp_path):
        # one prefix bit more or fewer: some carrier's prefix no longer holds
        # its count of ones, if nothing else fails first
        gap_starts = _sections(body)[0]
        for color, at, count, suffix_bits in zip(
            "RGB", gap_starts, map(len, HOSTILE_CELLS), HOSTILE_SUFFIXES
        ):
            for bit in range(count + suffix_bits):
                flipped = bytearray(body)
                flipped[at + bit // 8] ^= 0x80 >> (bit % 8)
                with pytest.raises(FormatError, match=f"carrier {color} "):
                    self._read(tmp_path, flipped)

    def test_set_padding_bit(self, body, tmp_path):
        gap_starts = _sections(body)[0]
        for color, at, count, suffix_bits in zip(
            "RGB", gap_starts, map(len, HOSTILE_CELLS), HOSTILE_SUFFIXES
        ):
            end = count + 2 * suffix_bits
            for bit in range(end, -(-end // 8) * 8):
                padded = bytearray(body)
                padded[at + bit // 8] |= 0x80 >> (bit % 8)
                with pytest.raises(
                    FormatError, match=f"carrier {color} gap section has a nonzero padding bit"
                ):
                    self._read(tmp_path, padded)

    def test_gap_of_33_suffix_bits(self, body, tmp_path):
        # R becomes one gap of 2**33: 33 zeros and a one, 33 suffix bits and 5
        # of padding, 9 bytes in place of 5, with one value in place of 6
        gaps_at, values_at = (starts[0] for starts in _sections(body))
        blob = bytearray(body[:values_at] + body[values_at + 10 :])
        blob[gaps_at : gaps_at + 5] = bytes(4) + b"\x40" + bytes(4)
        struct.pack_into("<I", blob, COUNTS_AT, 1)
        struct.pack_into("<I", blob, SUFFIXES_AT, 33)
        with pytest.raises(FormatError, match="carrier R has a gap of more than 32 suffix bits"):
            self._read(tmp_path, blob)

    def test_truncated_gap_section(self, body, tmp_path):
        gaps_at = _sections(body)[0][0]
        del body[gaps_at]
        with pytest.raises(FormatError, match="size"):
            self._read(tmp_path, body)

    @pytest.mark.parametrize("n", [0, 1])
    def test_size_below_two(self, body, tmp_path, n):
        struct.pack_into("<2I", body, SIZE_AT, n, n)
        with pytest.raises(FormatError, match="from 2x2 to 65536x65536"):
            self._read(tmp_path, body)

    @pytest.mark.parametrize("n", [65537, 2**32 - 1])
    def test_size_above_cipher_range(self, body, tmp_path, n):
        # refused from the header, before a size check that such a file could not pass
        struct.pack_into("<2I", body, SIZE_AT, n, n)
        with pytest.raises(FormatError, match="from 2x2 to 65536x65536"):
            self._read(tmp_path, body)

    def test_truncated_carrier_values(self, body, tmp_path):
        with pytest.raises(FormatError, match="size"):
            self._read(tmp_path, body[:-2])

    def test_trailing_bytes(self, body, tmp_path):
        with pytest.raises(FormatError, match="size"):
            self._read(tmp_path, body + struct.pack("<H", 1))

    def test_padded_file_refused_before_its_body_is_read(self, body, tmp_path):
        # a valid container grown to a sparse 64 MiB file is refused from its
        # header and its size alone
        path = tmp_path / "padded.ldct"
        path.write_bytes(_reseal(bytes(body)))
        os.truncate(path, 64 << 20)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="size"):
                read_bundle(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("version", [*range(8), 9, 0xFFFF])
    def test_other_version_refused(self, body, tmp_path, version):
        # the retired layouts (versions 1 to 7) and every other number are
        # refused from the version field, whatever follows it: here the v8
        # body at its own size and one byte short
        struct.pack_into("<H", body, 4, version)
        path, out = tmp_path / "v.ldct", tmp_path / "v.ppm"
        blob = _reseal(bytes(body))
        for cut in (blob, blob[:-1]):
            path.write_bytes(cut)
            for read in (read_header, read_bundle):
                with pytest.raises(FormatError, match=f"unsupported container version {version}$"):
                    read(path)
            assert cli_main(["decrypt", "--in", str(path), "--out", str(out)] + KEY_ARGS) == 2


def sparse_spectrum_image(n=32, seed=8):
    """Planes whose DCT holds two full low rows and two lone coefficients in
    rows 12 and 28, so each carrier has runs of gaps of 1 and two gaps of
    hundreds of cells."""
    rng = np.random.default_rng(seed)
    planes = []
    for c in range(3):
        coeffs = np.zeros((n, n))
        coeffs[:2] = rng.uniform(-60, 60, (2, n))
        coeffs[0, 0] = 128 * n
        coeffs[12, 3 + c], coeffs[28, 10 + c] = 400, -400
        planes.append(np.clip(np.rint(idct2(coeffs)), 0, 255).astype(np.uint8))
    return ImageRGB(tuple(planes))


@lru_cache(maxsize=1)
def _valid_container():
    """A real 32 x 32 container without its CRC, its bundle, and the twin
    sums under each carrier's positions."""
    bundle = encrypt_image(sparse_spectrum_image(), KEYS)
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


MUTATION_KINDS = [
    "size", "counts", "suffixes", "length", "prefix_bit", "suffix_bit", "pad_bit",
    "section_byte", "value", "twin",
]


@st.composite
def mutations(draw):
    """A valid v8 container body (no CRC) with one hostile edit."""
    body, bundle, twins = _valid_container()
    body = bytearray(body)
    counts = [p.size for p in bundle.positions]
    suffixes = list(struct.unpack_from("<3I", body, SUFFIXES_AT))
    assert min(suffixes) >= 1  # every carrier has suffix bits to edit
    gap_starts, value_starts = _sections(body)
    plane = draw(st.integers(0, 2))
    k, s = counts[plane], suffixes[plane]
    i = draw(st.integers(0, k - 1))
    kind = draw(st.sampled_from(MUTATION_KINDS))
    if kind == "size":
        w = draw(st.one_of(st.integers(0, 40), st.integers(0, 2**32 - 1)))
        h = draw(st.one_of(st.just(w), st.integers(0, 2**32 - 1)))
        struct.pack_into("<2I", body, SIZE_AT, w, h)
    elif kind in ("counts", "suffixes"):
        at, old = (COUNTS_AT, counts) if kind == "counts" else (SUFFIXES_AT, suffixes)
        new = draw(
            st.one_of(
                st.permutations(old),  # sizes may still match
                st.lists(st.integers(0, 2**32 - 1), min_size=3, max_size=3),
            )
        )
        struct.pack_into("<3I", body, at, *new)
    elif kind == "length":
        cut = draw(st.integers(0, len(body) - 1))
        extra = draw(st.binary(max_size=24))
        body = body[:cut] + extra if draw(st.booleans()) else body + extra
    elif kind in ("prefix_bit", "suffix_bit", "pad_bit"):
        # the prefix bits, then the suffix bits, then the padding, if any
        used = k + 2 * s
        start, end = {
            "prefix_bit": (0, k + s), "suffix_bit": (k + s, used), "pad_bit": (used, -(-used // 8) * 8)
        }[kind]
        if start < end:
            bit = draw(st.integers(start, end - 1))
            body[gap_starts[plane] + bit // 8] ^= 0x80 >> (bit % 8)
    elif kind == "section_byte":
        at = gap_starts[plane] + draw(st.integers(0, (k + 2 * s + 7) // 8 - 1))
        body[at] = draw(st.integers(0, 0xFF))
    elif kind == "value":
        struct.pack_into("<H", body, value_starts[plane] + 2 * i, draw(VALUES))
    else:  # the bare twin, a zero log: a cell that carries no coefficient
        bare = (int(twins[plane][i]) << LOG_BITS) & 0xFFFF
        struct.pack_into("<H", body, value_starts[plane] + 2 * i, bare)
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
        n = bundle.n
        values_at = _sections(body)[1][0]
        bare = (np.concatenate(twins) << LOG_BITS).astype("<u2").tobytes()
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
            carriers=(np.empty(0, np.uint16),) * 3,
        )
        for a, b in zip(out.planes, decrypt_image(empty, KEYS).planes):
            assert np.array_equal(a, b)
