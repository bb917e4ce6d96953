"""Colored-image encryption with Lorenz keystreams and 2-D cosine transforms.

Library surface: key handling and integration (`lorenz`), transforms and
energy selection (`dct`), keystream planes (`keystream`), the cipher
pipelines (`cipher`), statistical metrics (`analysis`), and file formats
(`ppm`, `container`).  The CLI lives in `cli`.
"""

from .analysis import (
    adjacent_correlation,
    entropy,
    full_report,
    histogram,
    mae,
    mse,
    npcr,
    psnr,
    scatter_sample,
    uaci,
)
from .cipher import (
    CipherBundle,
    ImageRGB,
    decrypt_image,
    encrypt_image,
    make_difference,
)
from .container import read_bundle, write_bundle
from .dct import SparseCoeffs, dct1, dct2, energy_select, idct2, reconstruct_sparse
from .keystream import build_round_keystream
from .lorenz import (
    LorenzParams,
    SecretKey,
    State3,
    Trajectory,
    derive_initial_conditions,
    equilibria,
    integrate,
    is_chaotic_regime,
    lorenz_derivative,
)
from .ppm import load_ppm, save_ppm

__version__ = "0.1.0"

__all__ = [
    "CipherBundle",
    "ImageRGB",
    "LorenzParams",
    "SecretKey",
    "SparseCoeffs",
    "State3",
    "Trajectory",
    "adjacent_correlation",
    "build_round_keystream",
    "dct1",
    "dct2",
    "decrypt_image",
    "derive_initial_conditions",
    "encrypt_image",
    "energy_select",
    "entropy",
    "equilibria",
    "full_report",
    "histogram",
    "idct2",
    "integrate",
    "is_chaotic_regime",
    "load_ppm",
    "lorenz_derivative",
    "mae",
    "make_difference",
    "mse",
    "npcr",
    "psnr",
    "read_bundle",
    "reconstruct_sparse",
    "save_ppm",
    "scatter_sample",
    "uaci",
    "write_bundle",
]
