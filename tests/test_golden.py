"""Golden container hashes.

The sha256 of write_bundle output for fixed seeded images and fixed keys.
A change meant to be byte-identical (a faster selection, shuffle or
serializer) must leave these values alone; a change that alters the
container on purpose (format version, keystream definition) updates them and
says why.  The keystream comes from a float FFT convolution, so a different
FFT backend can move these hashes too.
"""

import hashlib

import pytest
from synthimg import make_image, make_two_level_image

from lorenzdct.cipher import encrypt_image
from lorenzdct.container import write_bundle

GOLDEN = {
    ("natural", 64): "98d8bea41b19769267e5076c144f2b7cb348b9a3d66edeab2d323354f8b8453b",
    ("natural", 256): "5ccd623da7730911d63d21b3e34cf27e03d800241eaf872e0de92dea00f35f91",
    ("two_level", 64): "31d04127bbefd63fa4c4165da0007dcb1472192a867c27059e55dab49cb0c106",
    ("two_level", 256): "fa24c6523e8a32a6b875b2d1cd67c177db068beeb1475db597211b164af3f80f",
}

MAKERS = {"natural": make_image, "two_level": make_two_level_image}


@pytest.mark.parametrize("kind, n", sorted(GOLDEN))
def test_container_bytes_pinned(kind, n, keys, tmp_path):
    path = tmp_path / "golden.ldct"
    write_bundle(path, encrypt_image(MAKERS[kind](7, n), keys))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[(kind, n)]
