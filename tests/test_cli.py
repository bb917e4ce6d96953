import json
import math
import struct
import zlib

import numpy as np
import pytest

from synthimg import make_image

import lorenzdct
from lorenzdct.cli import cli_main
from lorenzdct.ppm import load_ppm, save_ppm

KEY_ARGS = ["--key1", "key(A)", "--key2", "key(B)", "--key3", "key(C)"]


@pytest.fixture(scope="module")
def small_ppm(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "orig.ppm"
    save_ppm(path, make_image(7, n=64))
    return path


def test_encrypt_decrypt_analyze_flow(small_ppm, tmp_path, capsys):
    bundle = tmp_path / "img.ldct"
    dec = tmp_path / "dec.ppm"
    report = tmp_path / "report.json"

    assert cli_main(["encrypt", "--in", str(small_ppm), "--out", str(bundle)] + KEY_ARGS) == 0
    assert cli_main(["decrypt", "--in", str(bundle), "--out", str(dec)] + KEY_ARGS) == 0

    orig = load_ppm(small_ppm)
    back = load_ppm(dec)
    for a, b in zip(orig.planes, back.planes):
        assert np.array_equal(a, b)

    assert (
        cli_main(
            [
                "analyze",
                "--original", str(small_ppm),
                "--bundle", str(bundle),
                "--decrypted", str(dec),
                "--json", str(report),
                "--hist-csv", str(tmp_path / "hist"),
                "--scatter-csv", str(tmp_path / "scatter"),
                "--scatter-count", "100",
            ]
        )
        == 0
    )
    data = json.loads(report.read_text())
    assert data["dims"] == [64, 64]
    assert len(data["components"]) == 9
    dec_pairs = [p for p in data["pairs"] if p["b"].startswith("decrypted")]
    assert len(dec_pairs) == 3
    for p in dec_pairs:
        assert p["npcr"] == 0.0 and p["psnr"] == math.inf

    assert (tmp_path / "hist" / "original_R_hist.csv").exists()
    scatter = (tmp_path / "scatter" / "encrypted_G_diagonal.csv").read_text().splitlines()
    assert scatter[0].startswith("# seed=")
    assert scatter[1] == "value,neighbor"
    assert len(scatter) == 2 + 100


def test_analyze_black_component(tmp_path):
    red, bundle, report = tmp_path / "red.ppm", tmp_path / "red.ldct", tmp_path / "r.json"
    red.write_bytes(b"P6\n16 16\n255\n" + b"\xff\x00\x00" * 256)
    assert cli_main(["encrypt", "--in", str(red), "--out", str(bundle)] + KEY_ARGS) == 0
    argv = ["analyze", "--original", str(red), "--bundle", str(bundle), "--json", str(report)]
    assert cli_main(argv + ["--hist-csv", str(tmp_path / "hist")]) == 0
    text = report.read_text()
    data = json.loads(text)
    assert "-Infinity" in text
    assert [p["psnr"] for p in data["pairs"][1:]] == [-math.inf, -math.inf]
    assert data["components"][0]["correlation"] == {"h": None, "v": None, "d": None}
    for entry in data["components"]:
        name, comp = entry["name"].split("/")
        rows = (tmp_path / "hist" / f"{name}_{comp}_hist.csv").read_text().splitlines()
        assert rows[0] == "bin,count"
        assert [int(r.split(",")[1]) for r in rows[1:]] == entry["histogram"]


def test_encrypt_deterministic_bytes(small_ppm, tmp_path):
    b1, b2 = tmp_path / "a.ldct", tmp_path / "b.ldct"
    assert cli_main(["encrypt", "--in", str(small_ppm), "--out", str(b1)] + KEY_ARGS) == 0
    assert cli_main(["encrypt", "--in", str(small_ppm), "--out", str(b2)] + KEY_ARGS) == 0
    assert b1.read_bytes() == b2.read_bytes()


def test_decrypt_wrong_key_exits_zero(small_ppm, tmp_path):
    bundle = tmp_path / "img.ldct"
    out = tmp_path / "wrong.ppm"
    assert cli_main(["encrypt", "--in", str(small_ppm), "--out", str(bundle)] + KEY_ARGS) == 0
    rc = cli_main(
        ["decrypt", "--in", str(bundle), "--out", str(out),
         "--key1", "key(A)", "--key2", "key(B)", "--key3", "XXXXXX"]
    )
    assert rc == 0
    garbage = load_ppm(out)
    orig = load_ppm(small_ppm)
    assert any(not np.array_equal(a, b) for a, b in zip(orig.planes, garbage.planes))


def test_missing_key_is_usage_error(small_ppm, tmp_path, capsys):
    rc = cli_main(
        ["encrypt", "--in", str(small_ppm), "--out", str(tmp_path / "x.ldct"),
         "--key1", "key(A)", "--key2", "key(B)"]
    )
    assert rc == 1
    assert "usage error" in capsys.readouterr().err


def test_bad_key_value_is_usage_error(small_ppm, tmp_path, capsys):
    rc = cli_main(
        ["encrypt", "--in", str(small_ppm), "--out", str(tmp_path / "x.ldct"),
         "--key1", "short", "--key2", "key(B)", "--key3", "key(C)"]
    )
    assert rc == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_input_is_data_error(tmp_path, capsys):
    rc = cli_main(
        ["encrypt", "--in", str(tmp_path / "nope.ppm"), "--out", str(tmp_path / "x.ldct")]
        + KEY_ARGS
    )
    assert rc == 2
    assert "data error" in capsys.readouterr().err


def test_non_square_image_is_data_error(tmp_path, capsys, rng):
    from lorenzdct.cipher import ImageRGB

    path = tmp_path / "rect.ppm"
    save_ppm(path, ImageRGB(tuple(rng.integers(0, 256, (4, 8), dtype=np.uint8) for _ in range(3))))
    rc = cli_main(["encrypt", "--in", str(path), "--out", str(tmp_path / "x.ldct")] + KEY_ARGS)
    assert rc == 2
    assert "square" in capsys.readouterr().err


def test_corrupt_bundle_is_data_error(small_ppm, tmp_path, capsys):
    bundle = tmp_path / "img.ldct"
    assert cli_main(["encrypt", "--in", str(small_ppm), "--out", str(bundle)] + KEY_ARGS) == 0
    blob = bytearray(bundle.read_bytes())
    blob[60] ^= 0xFF
    bundle.write_bytes(bytes(blob))
    rc = cli_main(["decrypt", "--in", str(bundle), "--out", str(tmp_path / "y.ppm")] + KEY_ARGS)
    assert rc == 2
    assert "data error" in capsys.readouterr().err


def _one_data_error(capsys):
    err = capsys.readouterr().err.splitlines()
    return len(err) == 1 and err[0].startswith("data error: ")


def test_rotation_beyond_key_bits_is_data_error(small_ppm, tmp_path, capsys):
    bundle = tmp_path / "img.ldct"
    assert cli_main(["encrypt", "--in", str(small_ppm), "--out", str(bundle)] + KEY_ARGS) == 0
    blob = bytearray(bundle.read_bytes()[:-4])
    blob[22] = 200  # first key's first rotation, behind a valid CRC
    bundle.write_bytes(bytes(blob) + struct.pack("<I", zlib.crc32(blob)))
    capsys.readouterr()
    rc = cli_main(["decrypt", "--in", str(bundle), "--out", str(tmp_path / "y.ppm")] + KEY_ARGS)
    assert rc == 2
    assert _one_data_error(capsys)


def test_oversized_ppm_header_is_data_error(tmp_path, capsys):
    path = tmp_path / "huge.ppm"
    path.write_bytes(b"P6 3000000000 3000000000 255\n" + bytes(12))
    rc = cli_main(["encrypt", "--in", str(path), "--out", str(tmp_path / "x.ldct")] + KEY_ARGS)
    assert rc == 2
    assert _one_data_error(capsys)


def test_rotations_roundtrip_through_bundle(small_ppm, tmp_path):
    bundle = tmp_path / "img.ldct"
    dec = tmp_path / "dec.ppm"
    rc = cli_main(
        ["encrypt", "--in", str(small_ppm), "--out", str(bundle), "--rotations", "1,2,3"]
        + KEY_ARGS
    )
    assert rc == 0
    # decrypt picks the rotation schedule up from the container header
    assert cli_main(["decrypt", "--in", str(bundle), "--out", str(dec)] + KEY_ARGS) == 0
    orig, back = load_ppm(small_ppm), load_ppm(dec)
    for a, b in zip(orig.planes, back.planes):
        assert np.array_equal(a, b)


def test_lorenz_dump(tmp_path):
    csv = tmp_path / "traj.csv"
    rc = cli_main(["lorenz", "--key", "key(A)", "--dump", str(csv), "--t-end", "1.0"])
    assert rc == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "t,x,y,z"
    assert len(lines) == 1 + 1001


def test_keystream_dump(tmp_path):
    outdir = tmp_path / "ks"
    rc = cli_main(
        ["keystream", "--key", "key(A)", "--size", "16", "--out-dir", str(outdir)]
    )
    assert rc == 0
    for name in ("xy", "xz", "yz"):
        pgm = (outdir / f"{name}.pgm").read_bytes()
        assert pgm.startswith(b"P5\n16 16\n255\n")
        perm_rows = (outdir / f"{name}_row_perm.csv").read_text().splitlines()
        assert len(perm_rows) == 1 + 16


def test_selftest_passes(capsys):
    assert cli_main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0


def test_public_names_resolve_once():
    names = lorenzdct.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(lorenzdct, n)] == []
