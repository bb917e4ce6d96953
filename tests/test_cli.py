import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import zlib

import numpy as np
import pytest

from synthimg import make_image, make_noise_image, make_two_level_image

import lorenzdct
from lorenzdct import cipher, cli, keystream, selfcheck
from lorenzdct.cli import _build_parser, cli_main
from lorenzdct.container import read_bundle
from lorenzdct.lorenz import MAX_STEPS
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


# make_image's components share one uniform histogram; the two-level
# image's do not, so an entry taken from the wrong component shows on it
@pytest.mark.parametrize("make", [make_image, make_two_level_image], ids=["natural", "document"])
def test_encrypt_decrypt_analyze_flow(make, tmp_path, capsys):
    image_ppm = tmp_path / "orig.ppm"
    save_ppm(image_ppm, make(7, n=64))
    bundle = tmp_path / "img.ldct"
    dec = tmp_path / "dec.ppm"
    report = tmp_path / "report.json"

    assert cli_main(["encrypt", "--in", str(image_ppm), "--out", str(bundle)] + KEY_ARGS) == 0
    assert cli_main(["decrypt", "--in", str(bundle), "--out", str(dec)] + KEY_ARGS) == 0

    orig = load_ppm(image_ppm)
    back = load_ppm(dec)
    for a, b in zip(orig.planes, back.planes):
        assert np.array_equal(a, b)

    assert (
        cli_main(
            [
                "analyze",
                "--original", str(image_ppm),
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
        assert (p["npcr"], p["mse"], p["psnr"]) == (0.0, 0.0, math.inf)
    entries = {entry["name"]: entry for entry in data["components"]}
    for comp in "RGB":
        original, decrypted = entries[f"original/{comp}"], entries[f"decrypted/{comp}"]
        assert decrypted["histogram"] == original["histogram"]
        assert decrypted["correlation"] == original["correlation"]

    assert (tmp_path / "hist" / "original_R_hist.csv").exists()
    scatter = (tmp_path / "scatter" / "encrypted_G_diagonal.csv").read_text().splitlines()
    assert scatter[0].startswith("# seed=")
    assert scatter[1] == "value,neighbor"
    assert len(scatter) == 2 + 100


def test_analyze_black_component(tmp_path):
    red, bundle, report = tmp_path / "red.ppm", tmp_path / "red.ldct", tmp_path / "r.json"
    dec = tmp_path / "dec.ppm"
    red.write_bytes(b"P6\n16 16\n255\n" + b"\xff\x00\x00" * 256)
    assert cli_main(["encrypt", "--in", str(red), "--out", str(bundle)] + KEY_ARGS) == 0
    assert cli_main(["decrypt", "--in", str(bundle), "--out", str(dec)] + KEY_ARGS) == 0
    argv = ["analyze", "--original", str(red), "--bundle", str(bundle), "--decrypted", str(dec)]
    assert cli_main(argv + ["--json", str(report), "--hist-csv", str(tmp_path / "hist")]) == 0
    text = report.read_text()
    data = json.loads(text)
    assert "-Infinity" in text
    psnr = [p["psnr"] for p in data["pairs"][1:]]
    assert psnr == [-math.inf, -math.inf, math.inf, math.inf, math.inf]
    assert data["components"][0]["correlation"] == {"h": None, "v": None, "d": None}
    # the exact decrypt reports the original's histograms, here one per component
    histograms = [entry["histogram"] for entry in data["components"]]
    assert histograms[6:] == histograms[:3]
    for entry in data["components"]:
        name, comp = entry["name"].split("/")
        rows = (tmp_path / "hist" / f"{name}_{comp}_hist.csv").read_text().splitlines()
        assert rows[0] == "bin,count"
        assert [int(r.split(",")[1]) for r in rows[1:]] == entry["histogram"]


@pytest.mark.parametrize("width, height, defined", [(16, 1, "h"), (1, 16, "v"), (16, 16, "hvd")])
def test_analyze_one_pixel_line(tmp_path, width, height, defined):
    # A line has pairs only along itself: the other directions report null
    # and write a scatter CSV of the two header lines alone.  Every plane
    # here has fewer pairs than the default --scatter-count (4096) asks
    # for, so each CSV holds all of them in row-major order, and a far
    # larger count writes the same files.
    line, report = tmp_path / "line.ppm", tmp_path / "r.json"
    pixels = (bytes(range(256)) * 3)[: 3 * width * height]
    line.write_bytes(f"P6\n{width} {height}\n255\n".encode() + pixels)
    plane = np.frombuffer(pixels[::3], np.uint8).reshape(height, width)
    argv = ["analyze", "--original", str(line), "--json", str(report)]
    steps = {"horizontal": (0, 1), "vertical": (1, 0), "diagonal": (1, 1)}
    for count in ([], ["--scatter-count", "100000"]):
        scatter = tmp_path / f"s{len(count)}"
        assert cli_main(argv + ["--scatter-csv", str(scatter)] + count) == 0
        for entry in json.loads(report.read_text())["components"]:
            assert {k for k, r in entry["correlation"].items() if r is not None} == set(defined)
        for direction, (dr, dc) in steps.items():
            rows = (scatter / f"original_R_{direction}.csv").read_text().splitlines()
            pairs = zip(plane[: height - dr, : width - dc].ravel(), plane[dr:, dc:].ravel())
            assert rows == ["# seed=24301", "value,neighbor"] + [f"{a},{b}" for a, b in pairs]


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
    blob = bundle.read_bytes()
    flipped = bytearray(blob)
    flipped[60] ^= 0xFF
    dec = ["decrypt", "--in", str(bundle), "--out", str(tmp_path / "y.ppm")] + KEY_ARGS
    # a flipped byte fails the CRC, a cut last byte the size from the header
    for corrupt in (bytes(flipped), blob[:-1]):
        bundle.write_bytes(corrupt)
        capsys.readouterr()
        assert cli_main(dec) == 2
        assert _one_data_error(capsys)


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


@pytest.mark.parametrize(
    "t_end, dt", [("inf", "0.001"), ("nan", "0.001"), ("1", "1e-300"), (str(MAX_STEPS + 1), "1")]
)
def test_lorenz_window_beyond_step_cap_is_data_error(tmp_path, capsys, t_end, dt):
    csv = tmp_path / "x.csv"
    rc = cli_main(["lorenz", "--key", "key(A)", "--t-end", t_end, "--dt", dt, "--dump", str(csv)])
    assert rc == 2
    assert _one_data_error(capsys)
    assert not csv.exists()


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


@pytest.mark.parametrize(
    "option, message",
    [
        (["--shifts", "1,2,70000"], "shift schedule must be three integers in [0, 65535]"),
        (["--rotations", "1,2,100"], "rotation 100 outside [0, 47]"),
    ],
)
def test_out_of_range_schedule_is_usage_error(small_ppm, tmp_path, capsys, option, message):
    out = tmp_path / "x.ldct"
    rc = cli_main(["encrypt", "--in", str(small_ppm), "--out", str(out)] + option + KEY_ARGS)
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"usage error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("count", ["-1", "x"])
def test_bad_scatter_count_is_usage_error(small_ppm, tmp_path, capsys, count):
    report, scatter = tmp_path / "neg.json", tmp_path / "negdir"
    argv = ["analyze", "--original", str(small_ppm), "--json", str(report)]
    rc = cli_main(argv + ["--scatter-csv", str(scatter), "--scatter-count", count])
    assert rc == 1
    errors = [e for e in capsys.readouterr().err.splitlines() if e.startswith("usage error:")]
    message = f"argument --scatter-count: must be a non-negative integer, not {count!r}"
    assert errors == [f"usage error: {message}"]
    assert not report.exists() and not scatter.exists()


@pytest.mark.parametrize("size", ["1", "0", "-5", "x"])
def test_bad_keystream_size_is_usage_error(tmp_path, capsys, size):
    outdir = tmp_path / "ks"
    rc = cli_main(["keystream", "--key", "key(A)", "--size", size, "--out-dir", str(outdir)])
    assert rc == 1
    errors = [e for e in capsys.readouterr().err.splitlines() if e.startswith("usage error:")]
    message = f"argument --size: must be an integer in [2, 65536], not {size!r}"
    assert errors == [f"usage error: {message}"]
    assert not outdir.exists()


@pytest.mark.parametrize("message", ["Unable to allocate 32.0 GiB", ""])
def test_out_of_memory_is_data_error(tmp_path, capsys, monkeypatch, message):
    def fail(key, n):
        raise MemoryError(message)

    monkeypatch.setattr(lorenzdct.cli, "build_round_keystream", fail)
    outdir = tmp_path / "ks"
    rc = cli_main(["keystream", "--key", "key(A)", "--size", "4", "--out-dir", str(outdir)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [f"data error: {message or 'out of memory'}"]
    assert not outdir.exists()


def test_keystream_size_bounds_parse(capsys):
    # parsed only: a run at 65536 would build 65536 x 65536 planes
    parse = _build_parser().parse_args
    argv = ["keystream", "--key", "key(A)", "--out-dir", "ks", "--size"]
    assert [parse(argv + [s]).size for s in ("2", "65536")] == [2, 65536]
    with pytest.raises(SystemExit) as exc:
        parse(argv + ["65537"])
    assert exc.value.code == 1
    assert "must be an integer in [2, 65536], not '65537'" in capsys.readouterr().err


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


def test_decrypt_builds_the_schedule_before_reading_the_body(
    small_ppm, tmp_path, monkeypatch, fresh_schedules
):
    # the header alone fixes the schedule, so decrypt builds it before it
    # holds the body; the bundle it then reads hits the same schedule
    ct, out = tmp_path / "img.ldct", tmp_path / "out.ppm"
    assert cli_main(["encrypt", "--in", str(small_ppm), "--out", str(ct)] + KEY_ARGS) == 0
    cipher._schedules.cache_clear()
    held = []

    def read(path):
        held.append(cipher._schedules.cache_info().currsize)
        return read_bundle(path)

    monkeypatch.setattr(cli, "read_bundle", read)
    assert cli_main(["decrypt", "--in", str(ct), "--out", str(out)] + KEY_ARGS) == 0
    assert held == [1] and cipher._schedules.cache_info().hits == 1
    assert out.read_bytes() == small_ppm.read_bytes()


def test_selftest_passes(capsys):
    assert cli_main(["selftest"]) == 0
    lines = [f"PASS: {name}" for name, _ in selfcheck.CHECKS]
    assert len(lines) == 3
    assert capsys.readouterr().out.splitlines() == [*lines, "selftest: 3/3 checks passed"]


def test_selftest_failure_exits_3(capsys, monkeypatch):
    def fail():
        raise AssertionError("planted")

    checks = list(selfcheck.CHECKS)
    name = checks[1][0]
    assert name == "dct definitions"
    checks[1] = (name, fail)
    monkeypatch.setattr(selfcheck, "CHECKS", tuple(checks))
    assert cli_main(["selftest"]) == 3
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines[1] == f"FAIL: {name} (AssertionError: planted)"
    assert lines[-1] == "selftest: 2/3 checks passed"
    assert sum(line.startswith("PASS: ") for line in lines) == 2
    assert err == "verification failure: 1 check(s) failed\n"


@pytest.fixture
def fresh_schedules():
    # a patched keystream must not leave its schedule for later tests
    cipher._schedules.cache_clear()
    yield
    cipher._schedules.cache_clear()


def test_selftest_sees_a_change_encrypt_and_decrypt_share(capsys, monkeypatch, fresh_schedules):
    # a fixed-point scale of 2**7 moves every keystream byte on both sides,
    # so the image still round-trips; only the pinned container digest differs
    monkeypatch.setattr(keystream, "S", 7)
    assert selfcheck.run() == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL: ")]
    assert len(fails) == 1
    assert fails[0].startswith(
        "FAIL: encrypt, container and decrypt round trip (AssertionError: container sha256 "
    )


def test_selftest_fails_under_python_O():
    # python -O strips assert statements; a broken installation must still fail
    code = (
        "from lorenzdct import cipher, selfcheck\n"
        "cipher._scatter = lambda plane, perm, mask: plane.copy()\n"
        "print(selfcheck.run())"
    )
    # the subprocess imports the same lorenzdct as this process
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(lorenzdct.__file__))}
    run = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=120, env=env
    )
    assert run.returncode == 0, run.stderr
    assert int(run.stdout.splitlines()[-1]) > 0, run.stdout


def test_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0


def test_public_names_resolve_once():
    names = lorenzdct.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(lorenzdct, n)] == []


# The peak memory of one CLI operation at n=1024, in bytes per pixel above
# the process's peak right after `import lorenzdct.cli`, each operation in a
# fresh process.  Measured 66-69 B/px for encrypt and decrypt of the natural
# and document images (Python 3.11, numpy 2.4, Linux); the bound adds 11
# B/px, 11 MB here, and fails a schedule that holds intp perms (85-87 B/px
# for encrypt).  The uniform-noise image is held for decrypt alone, which
# builds its schedule from the header before it reads the body; its
# encrypt, which holds the selection of 80% of each plane's coefficients,
# is left unbounded here.
MEMORY_BUDGET_N = 1024
MEMORY_BUDGET_BYTES_PER_PIXEL = 80

_PEAK_CHILD = """\
import sys


def peak_kb():
    # VmHWM is this process's own high-water mark.  ru_maxrss is not: on
    # Linux it keeps the peak of the process that spawned it across exec.
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))


import lorenzdct.cli

base = peak_kb()
code = lorenzdct.cli.cli_main(sys.argv[1:])
print(code, base, peak_kb())
"""


def _has_process_peak():
    try:
        with open("/proc/self/status") as f:
            return any(line.startswith("VmHWM:") for line in f)
    except OSError:
        return False


@pytest.mark.skipif(not _has_process_peak(), reason="needs /proc/self/status VmHWM (Linux)")
@pytest.mark.parametrize(
    "make, seed, held",
    [
        (make_image, 5, ("encrypt", "decrypt")),
        (make_two_level_image, 5, ("encrypt", "decrypt")),
        (make_noise_image, 1, ("decrypt",)),
    ],
    ids=["natural", "document", "noise"],
)
def test_operation_peak_memory_per_pixel(tmp_path, make, seed, held):
    n = MEMORY_BUDGET_N
    src, ct, out = tmp_path / "in.ppm", tmp_path / "in.ldct", tmp_path / "out.ppm"
    save_ppm(src, make(seed, n))
    # the subprocess imports the same lorenzdct as this process
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(lorenzdct.__file__))}
    for args in (["encrypt", "--in", src, "--out", ct], ["decrypt", "--in", ct, "--out", out]):
        run = subprocess.run(
            [sys.executable, "-c", _PEAK_CHILD, *map(str, args), *KEY_ARGS],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert run.returncode == 0, run.stderr
        code, base_kb, peak_kb = map(int, run.stdout.split())
        assert code == 0, run.stderr
        per_pixel = (peak_kb - base_kb) * 1024 / n**2
        assert args[0] not in held or per_pixel <= MEMORY_BUDGET_BYTES_PER_PIXEL, (
            args[0],
            per_pixel,
        )
    assert out.read_bytes() == src.read_bytes()


# `keystream --size 1024` above the same baseline: the three byte planes and
# one plane's sort orders, which line_orders argsorts as int64.  Measured
# 25.2-25.3 B/px (Python 3.11, numpy 2.4, Linux) with each CSV written one
# line at a time, against 50.7-50.8 B/px when each dump first built its n**2
# Python ints with `tolist()`.
KEYSTREAM_BUDGET_BYTES_PER_PIXEL = 32


@pytest.mark.skipif(not _has_process_peak(), reason="needs /proc/self/status VmHWM (Linux)")
def test_keystream_dump_peak_memory_per_pixel(tmp_path):
    n = MEMORY_BUDGET_N
    args = ["keystream", "--key", "key(A)", "--size", str(n), "--out-dir", str(tmp_path)]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(lorenzdct.__file__))}
    run = subprocess.run(
        [sys.executable, "-c", _PEAK_CHILD, *args],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert run.returncode == 0, run.stderr
    code, base_kb, peak_kb = map(int, run.stdout.split())
    assert code == 0, run.stderr
    per_pixel = (peak_kb - base_kb) * 1024 / n**2
    assert per_pixel <= KEYSTREAM_BUDGET_BYTES_PER_PIXEL, per_pixel
