import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from synthimg import make_image

from lorenzdct.cipher import encrypt_image
from lorenzdct.lorenz import SecretKey

KEYS = (SecretKey("key(A)"), SecretKey("key(B)"), SecretKey("key(C)"))

# HYPOTHESIS_PROFILE=ci runs every property on a fixed example sequence, so a
# failure on one numpy build reproduces on the next run.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def keys():
    return KEYS


@pytest.fixture(scope="session")
def image_a():
    return make_image(1)


@pytest.fixture(scope="session")
def bundle_a(image_a):
    return encrypt_image(image_a, KEYS)


@pytest.fixture()
def rng():
    return np.random.default_rng(0xC0FFEE)
