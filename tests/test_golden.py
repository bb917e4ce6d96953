"""Golden cipher and container hashes.

BUNDLE_GOLDEN pins what encrypt_image computes: the sha256 of the three
difference planes (uint8) followed by the three dense carrier planes
("<f8"), for fixed seeded images and fixed keys.  A dense carrier plane is
rebuilt from the keys: the component's twin sum as float64, with the
bundle's carrier values written back at its positions.  It does not depend
on the container format, so a new format leaves it alone; only a change to
the cipher or the keystream definition moves it.

GOLDEN pins the sha256 of write_bundle output for the same cases.  A change
meant to be byte-identical (a faster selection, shuffle or serializer) must
leave both tables alone; a change that alters the container on purpose
(format version, keystream definition) updates GOLDEN and says why.  The
values below are for container version 6, which stores each carrier value
as the float32 that encrypt rounds twin + log to before it takes the
difference plane, and no cell whose value rounds into its bare twin.  That
changes the cipher on purpose, so all four encrypt-output tables were
re-recorded with it, after the round trip was shown exact on every image
here and on the hypothesis families:

- BUNDLE_GOLDEN, because the carrier values are float32 and 0.1-0.7% of
  each difference plane's cells moved (2.1% of one n=33 plane) to absorb
  the rounding; no retained coefficient was dropped;
- GOLDEN, for those values and the version 6 layout;
- REPORT_GOLDEN and SCATTER_GOLDEN, because each cipher image is the
  bundle's difference planes.

Neither version 4 (which stopped storing the carrier cells that hold no
coefficient) nor version 5 (one-byte position gaps) moved BUNDLE_GOLDEN.
The keystream is the same on every IEEE-754 platform, and so is the float32
cast; the rest of the image side (scipy's DCT, the energy selection, the
sign-log carriers) is still floating point, so a different DCT build could
still move these tables.

The n=331 dense two-level planes keep about 90,000 of their 109,561
coefficients.  A head that large is more than a quarter of the plane, so the
energy selection sorts the whole plane's magnitudes; both entries were
recorded while that case still ran a whole-plane stable argsort.

COMMITTED_CONTAINERS lists the version 6 containers committed under
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
image was decrypted from the version 5 file.  Version 6 stores none of the
zero-log cells: 5 cells in all, all in B.

near_tie_64.ldct holds `make_near_tie_image`, encrypted with keys
key(A)-key(C) and the default shifts and rotations: 20,302 bytes, whose
carriers hold 1, 1 and 1,589 cells.  Its R plane, the level 46
checkerboard, keeps only the DC and reconstructs to 46.49998775, 1.2e-5
below a rounding tie, so an installation whose pow or inverse DCT moves
that reconstruction across 46.5 decrypts R one level off.

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
from lorenzdct.cipher import ImageRGB, _schedules, decrypt_image, encrypt_image
from lorenzdct.container import read_bundle, write_bundle

BUNDLE_GOLDEN = {
    ("natural", 64): "e65b200f848e65b61dab02d819c5d138c35ad9ea168c02049095420fc4b7bf2b",
    ("natural", 256): "a75617da8db97d3e78b0d28b5caf66f3dc33ba525532ef79e1d337cc1d774547",
    ("two_level", 64): "dfe42e18621dec2e45a07e44364f389f121e5f2e49bd3eccdae3129606b77a24",
    ("two_level", 256): "c7200166520edcaedfc32abbc1f94a68ff147000ea549001e47342968c748196",
    ("dense_two_level", 331): "793fc8c498641af1460250b6f4fda1a1e19c3d83f0878c3014cb187e0495d79b",
}

GOLDEN = {
    ("natural", 64): "e34f5458d0c61f57db9dfcbc30360a67093da8ce0c0ab2dd9c5a5bd410f82565",
    ("natural", 256): "0cfe6c4d2f4f3af986f19033a4e9f4446b49852c0ad78a897519ab72e90c9751",
    ("two_level", 64): "54e634e3de4381a82466e6baa0261b4ec86f56178103d15ccf9e072c18bece39",
    ("two_level", 256): "cd00a0ac0db037628b3a05909db29f228dcc126da05ab8f5c770e486da4919b7",
    ("dense_two_level", 331): "f06292cddb0a1355043300de274f389b28c5ee84828973a5d99e689c8bcda91f",
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
    ("natural", 64): "97596ad515c1150a4d316f0bfd8a36654efe90d662c1b283c333bb9515c87db0",
    ("two_level", 33): "2adf38e3aaaf768ad0c8af402168820f8c678b182926f2b5fa574dc6b60c1473",
}

SCATTER_GOLDEN = {
    300: "4c4f768c97e07abbbe3b636f8c82ab3099d6b90e03d0e0d59d830ea10c6bad72",
    "all": "10881103ede6fe480e5259f6508ab1a17c6c9adadb1c58dca788e81868618de8",
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
