"""Golden cipher and container hashes.

BUNDLE_GOLDEN pins what encrypt_image computes: the sha256 of the three
difference planes (uint8) followed by the three carrier planes ("<f8"), for
fixed seeded images and fixed keys.  It does not depend on the container
format, so a new format leaves it alone; only a change to the cipher or the
keystream definition moves it.

GOLDEN pins the sha256 of write_bundle output for the same cases.  A change
meant to be byte-identical (a faster selection, shuffle or serializer) must
leave both tables alone; a change that alters the container on purpose
(format version, keystream definition) updates GOLDEN and says why.  The
values below are for container version 3, re-recorded with BUNDLE_GOLDEN
when the keystream became the exact 1-D integer path (version 2's u16
carrier cells and float64 exceptions are unchanged).  The keystream is now
the same on every IEEE-754 platform; the image side (scipy's DCT, the
energy selection, the sign-log carriers) is still floating point, so a
different DCT build could still move both tables.
"""

import hashlib

import numpy as np
import pytest
from synthimg import make_image, make_two_level_image

from lorenzdct.cipher import encrypt_image
from lorenzdct.container import write_bundle

BUNDLE_GOLDEN = {
    ("natural", 64): "789fc428faaeaf9d4f104526f3928a8af7e6593e8e8c312f6acbc7642e446830",
    ("natural", 256): "11f949f246030706947af357653e9b1ce8799824e2c39b7d2f2b8fb4ddadbc08",
    ("two_level", 64): "62787ac04f5bcfc1aca652cfd02013539fe51865ddef02936f230fa09bd287f8",
    ("two_level", 256): "6a26357a96e33c6a9c79a608dd2fd9bc6b028e709a5a908794bd50cae5925e38",
}

GOLDEN = {
    ("natural", 64): "e95b42677c9089d84080739391239138ee9336040ffebd54eafa9db9cbf7c577",
    ("natural", 256): "ab5dcf448875e3535fb984a4cc937f30734ea7ebc17d81b80b3843149605401c",
    ("two_level", 64): "7e0a79f5a46e0d240110a751ff89a6a5c11f63e52dd984d21a764477e492526b",
    ("two_level", 256): "1f9feeea0fe76f778e378e956855750b0a5bde512d7968842ee509e916ef973d",
}

MAKERS = {"natural": make_image, "two_level": make_two_level_image}


@pytest.mark.parametrize("kind, n", sorted(BUNDLE_GOLDEN))
def test_bundle_bytes_pinned(kind, n, keys):
    bundle = encrypt_image(MAKERS[kind](7, n), keys)
    digest = hashlib.sha256()
    for plane in bundle.dic:
        digest.update(np.ascontiguousarray(plane, dtype=np.uint8).tobytes())
    for plane in bundle.carriers:
        digest.update(np.ascontiguousarray(plane, dtype="<f8").tobytes())
    assert digest.hexdigest() == BUNDLE_GOLDEN[(kind, n)]


@pytest.mark.parametrize("kind, n", sorted(GOLDEN))
def test_container_bytes_pinned(kind, n, keys, tmp_path):
    path = tmp_path / "golden.ldct"
    write_bundle(path, encrypt_image(MAKERS[kind](7, n), keys))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[(kind, n)]
