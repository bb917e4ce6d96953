"""Golden cipher and container hashes.

BUNDLE_GOLDEN pins what encrypt_image computes: the sha256 of the three
difference planes (uint8) followed by the three dense carrier planes
("<f8"), for fixed seeded images and fixed keys.  A dense carrier plane is
rebuilt from the keys: the component's twin sum as float64, with the
bundle's carrier doubles written back at its positions.  It does not depend
on the container format, so a new format leaves it alone; only a change to
the cipher or the keystream definition moves it.

GOLDEN pins the sha256 of write_bundle output for the same cases.  A change
meant to be byte-identical (a faster selection, shuffle or serializer) must
leave both tables alone; a change that alters the container on purpose
(format version, keystream definition) updates GOLDEN and says why.  The
values below are for container version 5, re-recorded when each carrier's
positions became one-byte gaps with a u32 escape list instead of u32 cells.
BUNDLE_GOLDEN was left as version 3 recorded it: neither version 4 (which
stopped storing the carrier cells that hold no coefficient) nor version 5
moved it, which shows that the cipher's values did not move.  The keystream
is the same on every IEEE-754 platform; the image side (scipy's DCT, the
energy selection, the sign-log carriers) is still floating point, so a
different DCT build could still move both tables.

The n=331 dense two-level planes keep about 90,000 of their 109,561
coefficients.  A head that large is more than a quarter of the plane, so the
energy selection sorts the whole plane's magnitudes; both entries were
recorded while that case still ran a whole-plane stable argsort.

UNIT_DC_CONTAINER was written by an encrypt whose energy_select still
moved a retained |v| in [1, 1 + 1e-12] to just above that band, so its
carriers differ from today's for the same image.  The file was written as
version 4 and transcoded to version 5 (read, then written again), never
re-encrypted, so it keeps that carrier.  Its 16x16 planes are the
identity, the identity mirrored left to right and a 4x4 block of ones in a
corner, each with a DC coefficient of 1.0; UNIT_DC_IMAGE is the sha256 of
their bytes, R then G then B.  Decrypt must still restore them exactly.

REPORT_GOLDEN pins the sha256 of the sorted-key JSON of `full_report` for an
image, its cipher (the bundle's dic planes) and its decrypt, and
SCATTER_GOLDEN the bytes of the 27 scatter samples (3 images x 3 planes x 3
directions) of the n=33 case, drawn (300) and whole (every pair).  The n=33
two-level image has an odd pixel count.  A faster statistic must leave both
alone.  The report also holds entropies (numpy's summation order and log2),
so a numpy build that rounds those differently would move REPORT_GOLDEN
alone.  Both REPORT_GOLDEN entries were re-recorded when UACI became the
exact 100 * sum |a - b| / (255 * n) rounded once, which moved one UACI of
each report by one ulp and no other value.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from synthimg import make_dense_two_level_image, make_image, make_two_level_image

from lorenzdct.analysis import DIRECTIONS, full_report, scatter_sample
from lorenzdct.cipher import ImageRGB, _schedules, decrypt_image, encrypt_image
from lorenzdct.container import read_bundle, write_bundle

BUNDLE_GOLDEN = {
    ("natural", 64): "789fc428faaeaf9d4f104526f3928a8af7e6593e8e8c312f6acbc7642e446830",
    ("natural", 256): "11f949f246030706947af357653e9b1ce8799824e2c39b7d2f2b8fb4ddadbc08",
    ("two_level", 64): "62787ac04f5bcfc1aca652cfd02013539fe51865ddef02936f230fa09bd287f8",
    ("two_level", 256): "6a26357a96e33c6a9c79a608dd2fd9bc6b028e709a5a908794bd50cae5925e38",
    ("dense_two_level", 331): "7a8e59621506e5a7f9d0250e52b6d667d015181328c4ebb1581abc2149e6cb1c",
}

GOLDEN = {
    ("natural", 64): "331b63edef917485f2609f449ed8883753e07c4f38ef2dd8246ba86984f76674",
    ("natural", 256): "81d1223ace63d11080e4f70b09a566e0d2ae184e053e9ab8effbe826111a6f58",
    ("two_level", 64): "1285735ed9b961c02dc6cc3de98689943ba6ddea855d671e5c667a07cf8ed535",
    ("two_level", 256): "925424048455f96d3dc2db3ed86916ccb1df5e830aab284c8b3dc28ec457c2f7",
    ("dense_two_level", 331): "d1a0306e7b555ab38f9fa7454410c7fde832b6ee4bd5c41c3aeb3f4fd33c8174",
}

UNIT_DC_CONTAINER = Path(__file__).parent / "data" / "unit_dc_16.ldct"
UNIT_DC_IMAGE = "ec3f4fadb2e1ab1bc0f3dd6a2c0626a0ea01597828177ae3871bdd0c3c8d71db"

REPORT_GOLDEN = {
    ("natural", 64): "9e2b0555b82d88d06714cad64c8199b0206e7481254d78d43a67f3684da5942a",
    ("two_level", 33): "2a2b3e84fc65789ff25b684fde804ed117eb41455f51331594924e392423fcf0",
}

SCATTER_GOLDEN = {
    300: "f61ce15cb0b13db9b3449560b03b87ca67746c7f368622ba7ced207c577a7e34",
    "all": "68649783cd66a3c4382875f13fc3f1d93e3cf3b8747fec1f38a354ef0e06802d",
}

MAKERS = {
    "natural": make_image,
    "two_level": make_two_level_image,
    "dense_two_level": make_dense_two_level_image,
}


@pytest.mark.parametrize("kind, n", sorted(BUNDLE_GOLDEN))
def test_bundle_bytes_pinned(kind, n, keys):
    bundle = encrypt_image(MAKERS[kind](7, n), keys)
    digest = hashlib.sha256()
    for plane in bundle.dic:
        digest.update(np.ascontiguousarray(plane, dtype=np.uint8).tobytes())
    schedules = _schedules(tuple(keys), bundle.shifts, n)
    for pos, carried, sched in zip(bundle.positions, bundle.carriers, schedules):
        plane = sched.twin.astype("<f8").ravel()
        plane[pos] = carried
        digest.update(plane.tobytes())
    assert digest.hexdigest() == BUNDLE_GOLDEN[(kind, n)]


@pytest.mark.parametrize("kind, n", sorted(GOLDEN))
def test_container_bytes_pinned(kind, n, keys, tmp_path):
    path = tmp_path / "golden.ldct"
    write_bundle(path, encrypt_image(MAKERS[kind](7, n), keys))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[(kind, n)]


def test_unit_dc_container_decrypts(keys):
    out = decrypt_image(read_bundle(UNIT_DC_CONTAINER), keys)
    digest = hashlib.sha256(b"".join(plane.tobytes() for plane in out.planes))
    assert digest.hexdigest() == UNIT_DC_IMAGE


def _report_triple(kind, n, keys):
    image = MAKERS[kind](7, n)
    bundle = encrypt_image(image, keys)
    return image, ImageRGB(bundle.dic), decrypt_image(bundle, keys)


@pytest.mark.parametrize("kind, n", sorted(REPORT_GOLDEN))
def test_report_json_pinned(kind, n, keys):
    text = json.dumps(full_report(*_report_triple(kind, n, keys)), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_GOLDEN[(kind, n)]


@pytest.mark.parametrize("count", sorted(SCATTER_GOLDEN, key=str))
def test_scatter_samples_pinned(count, keys):
    n = 33
    digest = hashlib.sha256()
    for image in _report_triple("two_level", n, keys):
        for plane in image.planes:
            for direction in DIRECTIONS:
                total = (n - (direction != "horizontal")) * (n - (direction != "vertical"))
                sample = scatter_sample(plane, direction, total if count == "all" else count)
                assert sample.dtype == np.uint8
                digest.update(sample.tobytes())
    assert digest.hexdigest() == SCATTER_GOLDEN[count]
