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
values below are for container version 2 (u16 carrier cells plus exact
float64 exceptions), re-recorded when version 1's raw float64 carriers were
replaced; BUNDLE_GOLDEN held unchanged across that switch.  The keystream
comes from a float FFT convolution, so a different FFT backend can move both
tables too.
"""

import hashlib

import numpy as np
import pytest
from synthimg import make_image, make_two_level_image

from lorenzdct.cipher import encrypt_image
from lorenzdct.container import write_bundle

BUNDLE_GOLDEN = {
    ("natural", 64): "5e872157f421b8f3c5d5e2b297f8a05cb0a9e77e8a7f3ffd24276ee245030888",
    ("natural", 256): "eec4f88894e61a25fe44a466a7204c496e276a42ec4ff30e00cdc0f965215eab",
    ("two_level", 64): "4a75750c733a2982bb1f8379c86a87101ec038964d7caa790ffafe72bf8fe616",
    ("two_level", 256): "5b53ea3c627dd94777eb90a1384ea0fbf1b83e540553dcd3e8720a374ff30527",
}

GOLDEN = {
    ("natural", 64): "bccbc664ee58c312935dd9afa83ffcb2711ebc36535403f45c137b005fe879e3",
    ("natural", 256): "e465c47fef8b496c8f8b1b43b1732a24c6a05ad97b9bfaf7c862775084a3a5c5",
    ("two_level", 64): "7cd2bc2377a3c1b9ccfe99e01a10aef05b97ad602305adfdd3e8e1408191fa39",
    ("two_level", 256): "9ef76f2fd571167eb3038b1e37d8ed3217fce288cc99103d557fe83b84152548",
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
