"""Golden cipher and container hashes.

BUNDLE_GOLDEN pins what encrypt_image computes: the sha256 of the three
difference planes (uint8) followed by the three dense carrier planes
("<u2"), for fixed seeded images and fixed keys.  A dense carrier plane is
rebuilt from the keys: the value of a cell without a log, the component's
twin sum times 2**12 mod 2**16, with the bundle's carrier values written
back at its positions.  It does not depend on the container layout, so a
new layout leaves it alone; only a change to the cipher, the carrier's
values or the keystream definition moves it.

GOLDEN pins the sha256 of write_bundle output for the same cases.  A change
meant to be byte-identical (a faster selection, shuffle or serializer) must
leave both tables alone; a change that alters the container on purpose
(format version, keystream definition) updates GOLDEN and says why.  The
values below are for container version 8, which writes each carrier's
position gaps as split Elias-gamma bit streams.  Only the file bytes moved
with it: GOLDEN was re-recorded after each version 7 container here, read
by the version 7 reader and written by version 8, decrypted to the same
image, and the other three tables are unedited.  Version 7 stores each
carrier value as the u16 residue (twin * 2**12 + rint(log * 2**12)) mod
2**16 that encrypt rounds the log to before it takes the difference plane,
and no cell whose log rounds to 0.  That changes the cipher on purpose, so
all four encrypt-output tables were re-recorded with it, after the round
trip was shown exact on every image here (and on the committed containers'
makers) and on the hypothesis families:

- BUNDLE_GOLDEN, because the carrier values are u16 residues and 0.5-5.5%
  of each difference plane's cells moved against version 6 to absorb the
  coarser rounding; no retained coefficient was dropped, every carrier
  keeps version 6's cell count;
- GOLDEN, for those values and the version 7 layout (re-recorded for
  version 8's positions);
- REPORT_GOLDEN and SCATTER_GOLDEN, because each cipher image is the
  bundle's difference planes.

Neither version 4 (which stopped storing the carrier cells that hold no
coefficient) nor version 5 (one-byte position gaps) moved BUNDLE_GOLDEN.
The keystream is the same on every IEEE-754 platform, and so is the
residue arithmetic; the rest of the image side (scipy's DCT, the energy
selection, log10 and its rounding to the 2**-12 grid) is still floating
point, so a different DCT build could still move these tables.

The n=331 dense two-level planes keep about 90,000 of their 109,561
coefficients.  A head that large is more than a quarter of the plane, so the
energy selection sorts the whole plane's magnitudes; both entries were
recorded while that case still ran a whole-plane stable argsort.

COMMITTED_CONTAINERS lists the version 8 containers committed under
tests/data, each decrypted on every installation that runs the suite and
checked, with the image its maker builds, against one image sha256 (the
bytes of R, then G, then B).

unit_dc_16.ldct holds 16x16 planes: the identity, the identity mirrored
left to right and a 4x4 block of ones in a corner (`make_unit_dc_image`),
each with a DC coefficient of 1.0, a log of 0.  Its image sha256 has not
changed since version 4.  The earlier file held 15 cells valued twin +
4.3-4.5e-13, left by an old unit guard in energy_select; each of those
rounds to its bare twin in float32, so a transcoded file would have lost
those coefficients and no longer restored the image.  It was therefore
re-encrypted with keys key(A)-key(C) at rotations (5, 11, 17), after its
image was decrypted from the version 5 file.  Version 6 stored none of the
zero-log cells: 5 cells in all, all in B.  Both committed files were
re-encrypted from their makers for version 7, under the same keys, shifts
and rotations, and transcoded to version 8 (read by the version 7 reader,
written by version 8); their image sha256s are unedited.  unit_dc_16.ldct
is 841 bytes and still holds 5 cells, all in B.

near_tie_64.ldct holds `make_near_tie_image`, encrypted with keys
key(A)-key(C) and the default shifts and rotations: 15,985 bytes, whose
carriers hold 1, 1 and 1,589 cells.  Its R plane, the level 46
checkerboard, keeps only the DC, whose log is 14,228.0005 * 2**-12 and is
stored as 14,228 steps; it reconstructs to 46.49998775, 1.2e-5 below a
rounding tie, so an installation whose pow or inverse DCT moves that
reconstruction across 46.5 decrypts R one level off.

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

Every REPORT_GOLDEN triple passes an exact decrypt, so these digests pin the
path where `full_report` reuses each original plane's statistics for its
byte-identical decrypted plane; they were recorded before that reuse
existed and did not move with it.  The path that computes every decrypted
entry and pair is pinned by `TestFullReport::test_structure_and_pairs` and
the one-pixel-off cases in tests/test_analysis.py.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from synthimg import (
    make_dense_two_level_image,
    make_image,
    make_near_tie_image,
    make_two_level_image,
    make_unit_dc_image,
)

from lorenzdct.analysis import DIRECTIONS, full_report, scatter_sample
from lorenzdct.cipher import LOG_BITS, ImageRGB, _schedules, decrypt_image, encrypt_image
from lorenzdct.container import read_bundle, write_bundle

BUNDLE_GOLDEN = {
    ("natural", 64): "c946e339f45223c6467ff2b73b81997e083e07a5ba91a7bed83e67bf33f1c312",
    ("natural", 256): "5094c95e5264bce56c33c71bb412276018eb902716cef688ead5443ca3e40aac",
    ("two_level", 64): "0b45fd9c137b0d691e4c45966de9928b8f62c21ebb9a2ec3f74b50c0aa0f1228",
    ("two_level", 256): "10d79faa89a19609c54580d586e02badcfe192e1443b36672445208a66d9a410",
    ("dense_two_level", 331): "420d43c8e0becd3fe8b07b56a00f07475c67b9e9b99c5821d5f6215f847d903b",
}

GOLDEN = {
    ("natural", 64): "f88c37b29daa9fa371f8b828ee36f9f958bc62f34d93b4d37ffe9605048b91d7",
    ("natural", 256): "190995554058292664adbe30960eb7b15bf724c03d0a49cfaeeb61016fd2a68a",
    ("two_level", 64): "8e7e2d9a6fd2ec1831c25dfb030218fdb9423f13f20ef8f0cae6c9fa0819d5e0",
    ("two_level", 256): "44f18904879a4eb2f7d1a820a2725cf44cab5cf7a7a3173383de3ba4cf8b3f9d",
    ("dense_two_level", 331): "df7c9a59fedf7e148d686776b18833c84e5d987542ba11982b523a575570db9b",
}

# Each committed container, the sha256 of the image it decrypts to, and the
# maker of that image.
COMMITTED_CONTAINERS = {
    "unit_dc_16.ldct": (
        "ec3f4fadb2e1ab1bc0f3dd6a2c0626a0ea01597828177ae3871bdd0c3c8d71db",
        make_unit_dc_image,
    ),
    "near_tie_64.ldct": (
        "6f394f72e381906a3f6ba0dc3e25292e3dbb9b1cf8bdf4b0de342cdc83a8a92e",
        make_near_tie_image,
    ),
}

REPORT_GOLDEN = {
    ("natural", 64): "ab79b778fb2a9c3ffac769d8dd07338e08ece76814850b83df01952837d056df",
    ("two_level", 33): "76b74f61e5e9689b021e8e8f1d42d2afcd4d8fe88cebad814506e5d30a3d0e01",
}

SCATTER_GOLDEN = {
    300: "d9de47e78c172ecc57947b9eec1fc5966b5146e3b0a87f0115633e7e4f8a8b83",
    "all": "66e5f7a5da44e8866b55727e9c4cc489dc3d1608126064ef9826d0c403028d5a",
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
        plane = (sched.twin << LOG_BITS).astype("<u2").ravel()
        plane[pos] = carried
        digest.update(plane.tobytes())
    assert digest.hexdigest() == BUNDLE_GOLDEN[(kind, n)]


@pytest.mark.parametrize("kind, n", sorted(GOLDEN))
def test_container_bytes_pinned(kind, n, keys, tmp_path):
    path = tmp_path / "golden.ldct"
    write_bundle(path, encrypt_image(MAKERS[kind](7, n), keys))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[(kind, n)]


@pytest.mark.parametrize("name", sorted(COMMITTED_CONTAINERS))
def test_committed_container_decrypts(name, keys):
    image_sha256, maker = COMMITTED_CONTAINERS[name]
    bundle = read_bundle(Path(__file__).parent / "data" / name)
    for image in (decrypt_image(bundle, keys), maker()):
        digest = hashlib.sha256(b"".join(plane.tobytes() for plane in image.planes))
        assert digest.hexdigest() == image_sha256


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
