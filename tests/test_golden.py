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
values below are for container version 4, re-recorded when the container
stopped storing the carrier cells that hold no coefficient (the twin sum,
which the keys give); BUNDLE_GOLDEN was left as version 3 recorded it, which
shows that the cipher's values did not move.  The keystream is the same on
every IEEE-754 platform; the image side (scipy's DCT, the energy selection,
the sign-log carriers) is still floating point, so a different DCT build
could still move both tables.
"""

import hashlib

import numpy as np
import pytest
from synthimg import make_image, make_two_level_image

from lorenzdct.cipher import _schedules, encrypt_image
from lorenzdct.container import write_bundle

BUNDLE_GOLDEN = {
    ("natural", 64): "789fc428faaeaf9d4f104526f3928a8af7e6593e8e8c312f6acbc7642e446830",
    ("natural", 256): "11f949f246030706947af357653e9b1ce8799824e2c39b7d2f2b8fb4ddadbc08",
    ("two_level", 64): "62787ac04f5bcfc1aca652cfd02013539fe51865ddef02936f230fa09bd287f8",
    ("two_level", 256): "6a26357a96e33c6a9c79a608dd2fd9bc6b028e709a5a908794bd50cae5925e38",
}

GOLDEN = {
    ("natural", 64): "4b7466708a1304607cb2bf3107ad0aba6e5557d66676972c36da0d8f61818e8f",
    ("natural", 256): "bfe27acc151ec02ebd63ee248203f760726f6b983c2137436033bcb8e28d0962",
    ("two_level", 64): "5454b253780e78a984ebf8355450ea53515ecd9dab5050980944d07a6e4d2dce",
    ("two_level", 256): "519d2597db3013d547746e181c52aad9e497bc2a2cee1a99761dd3adfb5481fc",
}

MAKERS = {"natural": make_image, "two_level": make_two_level_image}


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
