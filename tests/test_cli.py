import hashlib
import json
import math
import struct
import zlib

import numpy as np
import pytest

from synthimg import make_image

import lorenzdct
from lorenzdct.cli import cli_main
from lorenzdct.container import read_bundle
from lorenzdct.ppm import load_ppm, save_ppm

KEY_ARGS = ["--key1", "key(A)", "--key2", "key(B)", "--key3", "key(C)"]

# sha256 of every file `lorenzdct keystream --key key(A)` writes, per --size:
# the three PGM planes and their row and column sort orders as CSV
KEYSTREAM_DUMP_GOLDEN = {
    16: {
        "xy.pgm": "87611c4f51a306c48f05a084f0f4d1640efd6cf65cec8e5714444764d7df2181",
        "xy_row_perm.csv": "4ce1158c0373f6cc76129d36508c4812d2c47441be8128f2b850775e87fbbdcd",
        "xy_col_perm.csv": "95c5c911ad86b3d6e964912c8badac3c4b9cdb0d18f5ec70edd013f278b51611",
        "xz.pgm": "f99ca3100008216cf076edd0a02fd3939d7bc2b881f7dc28dd9e86b04238963e",
        "xz_row_perm.csv": "22eaea06ac07561c6687e43586eecf5ce385f0ed393c3136234901e7c2a75391",
        "xz_col_perm.csv": "bbf68c735e69a7a3d919ac5c55f02578d514a03e385d83a18e61092e65fc40ea",
        "yz.pgm": "82db3963dd6ef5a287f7ac9e221ce4b74a78a9e8e051184f484299d5500123ff",
        "yz_row_perm.csv": "2aa028b8c644bfe28f52a9774b1c757ae2e474505e4542cac5431c21c1bdeeda",
        "yz_col_perm.csv": "0b89f562cdbd205f9875a5f4a4449731a2e1bf325d755a00ab1bf4d8364aefbd",
    },
    37: {
        "xy.pgm": "25eb3f7652a1a24431e168a6e2e3ada62f6bce3a106f77f6abcae7f83e045747",
        "xy_row_perm.csv": "3aa8a43b2c97cca58b3b2ae1b272afae2adeff78d9e1cf268da57c82c7a3b967",
        "xy_col_perm.csv": "38a3562fe88746b637aff6cc6212a5324e9688cf9a8bdfa1d7d496a8558c5dfa",
        "xz.pgm": "a645befea6dfb59204f2f1a5b470a0aa340a6919355b9efd52e71235129da749",
        "xz_row_perm.csv": "512ed742f2b409d86319e895996cf77ec36e168e613d66a95fb77b530b697daf",
        "xz_col_perm.csv": "c374911d2c6d152c4b01093520e64a3543b84ab2eccd49a78ec10a1e6125f08f",
        "yz.pgm": "e84f9682d4bdf38441bb270acfe64ed57776089ccf64fab683185de96fbccf6b",
        "yz_row_perm.csv": "b27b3f8ac38d731b68669ded0e0496a396d9115be5c173ee21d6771dfd6eaf16",
        "yz_col_perm.csv": "b947893213b2f9cb9082fc397124131c05f6fa31541c484c3f8f649f249a1ebf",
    },
}

# sha256 of `lorenzdct lorenz --key key(A) --t-end 1.0`
LORENZ_DUMP_GOLDEN = "e879e747a83c2d059809dfa1990fbf42f7e8042d42569cf6805e078afc44fb5e"


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
    cases = [
        (["--rotations", "1,2,3"], (3, 7, 13), ((1, 2, 3),) * 3),
        (
            ["--rotations", "1,2,3,4,5,6,7,8,9", "--shifts", "5,11,2"],
            (5, 11, 2),
            ((1, 2, 3), (4, 5, 6), (7, 8, 9)),
        ),
    ]
    for options, shifts, rotations in cases:
        rc = cli_main(
            ["encrypt", "--in", str(small_ppm), "--out", str(bundle)] + options + KEY_ARGS
        )
        assert rc == 0
        header = read_bundle(bundle)
        assert header.shifts == shifts and header.rotations == rotations
        # decrypt picks both schedules up from the container header
        assert cli_main(["decrypt", "--in", str(bundle), "--out", str(dec)] + KEY_ARGS) == 0
        orig, back = load_ppm(small_ppm), load_ppm(dec)
        for a, b in zip(orig.planes, back.planes):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("option", [["--shifts", "3,7,13"], ["--rotations", "5,11,17"]])
def test_decrypt_takes_no_schedule_options(small_ppm, tmp_path, capsys, option):
    bundle = tmp_path / "img.ldct"
    assert cli_main(["encrypt", "--in", str(small_ppm), "--out", str(bundle)] + KEY_ARGS) == 0
    capsys.readouterr()
    dec = ["decrypt", "--in", str(bundle), "--out", str(tmp_path / "dec.ppm")]
    assert cli_main(dec + option + KEY_ARGS) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("rotations", ["1,2,3,4,5,6,7,8,9", "1,2"])
def test_single_key_commands_take_three_rotations(tmp_path, capsys, rotations):
    commands = [
        ["lorenz", "--key", "key(A)", "--t-end", "0.01", "--dump", str(tmp_path / "t.csv")],
        ["keystream", "--key", "key(A)", "--size", "4", "--out-dir", str(tmp_path / "ks")],
    ]
    for command in commands:
        assert cli_main(command + ["--rotations", rotations]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: --rotations needs 3 values")
    assert not (tmp_path / "t.csv").exists() and not (tmp_path / "ks").exists()


def test_lorenz_dump(tmp_path):
    csv = tmp_path / "traj.csv"
    rc = cli_main(["lorenz", "--key", "key(A)", "--dump", str(csv), "--t-end", "1.0"])
    assert rc == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "t,x,y,z"
    assert len(lines) == 1 + 1001
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == LORENZ_DUMP_GOLDEN


def read_orders_csv(path):
    lines = path.read_text().splitlines()
    return np.array([[int(v) for v in line.split(",")] for line in lines[1:]])


def test_keystream_dump(tmp_path):
    for size, golden in KEYSTREAM_DUMP_GOLDEN.items():
        outdir = tmp_path / f"ks{size}"
        rc = cli_main(
            ["keystream", "--key", "key(A)", "--size", str(size), "--out-dir", str(outdir)]
        )
        assert rc == 0
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in outdir.iterdir()}
        assert digests == golden
        header = f"P5\n{size} {size}\n255\n".encode()
        for name in ("xy", "xz", "yz"):
            pgm = (outdir / f"{name}.pgm").read_bytes()
            assert pgm.startswith(header)
            plane = np.frombuffer(pgm[len(header) :], dtype=np.uint8).reshape(size, size)
            rows = read_orders_csv(outdir / f"{name}_row_perm.csv")
            cols = read_orders_csv(outdir / f"{name}_col_perm.csv")
            assert np.array_equal(rows, np.argsort(plane, axis=1, kind="stable"))
            assert np.array_equal(cols, np.argsort(plane.T, axis=1, kind="stable"))


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
