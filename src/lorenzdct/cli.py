"""Command-line surface: encrypt, decrypt, analyze, lorenz, keystream, selftest.

Exit codes: 0 success, 1 usage error, 2 data/format error (running out of
memory included), 3 verification failure.  All errors go to stderr as a
single line with a stable prefix.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import selfcheck
from .analysis import DEFAULT_SCATTER_SEED, DIRECTIONS, full_report, scatter_sample
from .cipher import (
    COMPONENT_NAMES, DEFAULT_SHIFTS, MAX_SIZE, ImageRGB, _schedules, check_size, decrypt_image,
    encrypt_image, line_orders,
)
from .container import read_bundle, read_header, write_bundle
from .errors import InvalidKeyError, LorenzDctError
from .keystream import build_round_keystream
from .lorenz import DEFAULT_ROTATIONS, SecretKey, derive_initial_conditions, integrate, LorenzParams
from .ppm import load_ppm, save_pgm, save_ppm


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"usage error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_ints(text, what, expect):
    try:
        values = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise InvalidKeyError(f"{what} must be comma-separated integers") from None
    if len(values) not in expect:
        raise InvalidKeyError(
            f"{what} needs {' or '.join(str(e) for e in expect)} values, got {len(values)}"
        )
    return values


def _count(text):
    """A non-negative integer option value, checked while the arguments parse."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, not {text!r}")
    return value


def _keystream_size(text):
    """keystream --size: a side n the cipher's size rule (`check_size`)
    takes, checked while the arguments parse."""
    try:
        return check_size(int(text), int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer in [2, {MAX_SIZE}], not {text!r}")


def _rotation_schedule(text):
    """--rotations accepts 3 values (shared by all keys) or 9 (3 per key)."""
    if text is None:
        return (DEFAULT_ROTATIONS,) * 3
    values = _parse_ints(text, "--rotations", (3, 9))
    if len(values) == 3:
        return (values,) * 3
    return (values[0:3], values[3:6], values[6:9])


def _single_key(args):
    """The one key of lorenz and keystream; their --rotations takes 3 values."""
    if args.rotations is None:
        return SecretKey(args.key)
    return SecretKey(args.key, _parse_ints(args.rotations, "--rotations", (3,)))


def _keys(args, rotations):
    return tuple(
        SecretKey(chars, rot)
        for chars, rot in zip((args.key1, args.key2, args.key3), rotations)
    )


def _build_parser() -> _Parser:
    p = _Parser(prog="lorenzdct", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def add_keys(sp):
        sp.add_argument("--key1", required=True, help="first 6-character key")
        sp.add_argument("--key2", required=True, help="second 6-character key")
        sp.add_argument("--key3", required=True, help="third 6-character key")

    enc = sub.add_parser("encrypt", help="encrypt a square P6 PPM into a container")
    enc.add_argument("--in", dest="infile", required=True)
    enc.add_argument("--out", dest="outfile", required=True)
    add_keys(enc)
    enc.add_argument("--rotations", help="3 or 9 comma-separated rotation counts")
    enc.add_argument("--shifts", help="3 comma-separated per-round shifts")

    dec = sub.add_parser("decrypt", help="decrypt a container back to a P6 PPM")
    dec.add_argument("--in", dest="infile", required=True)
    dec.add_argument("--out", dest="outfile", required=True)
    add_keys(dec)

    ana = sub.add_parser("analyze", help="statistical report for image/cipher pairs")
    ana.add_argument("--original", required=True)
    ana.add_argument("--bundle")
    ana.add_argument("--decrypted")
    ana.add_argument("--json", dest="json_path", required=True)
    ana.add_argument("--scatter-csv", dest="scatter_dir")
    ana.add_argument("--hist-csv", dest="hist_dir")
    ana.add_argument("--scatter-count", type=_count, default=4096)

    lor = sub.add_parser("lorenz", help="dump a key's trajectory as CSV")
    lor.add_argument("--key", required=True)
    lor.add_argument("--dump", required=True)
    lor.add_argument("--rotations", help="3 comma-separated rotation counts")
    lor.add_argument("--t-end", type=float, default=50.0)
    lor.add_argument("--dt", type=float, default=0.001)

    ks = sub.add_parser("keystream", help="dump keystream planes (PGM) and perms (CSV)")
    ks.add_argument("--key", required=True)
    ks.add_argument("--size", type=_keystream_size, required=True)
    ks.add_argument("--out-dir", dest="out_dir", required=True)
    ks.add_argument("--rotations", help="3 comma-separated rotation counts")

    sub.add_parser("selftest", help="run the built-in invariant suite")
    return p


def _cmd_encrypt(args) -> int:
    rotations = _rotation_schedule(args.rotations)
    shifts = (
        _parse_ints(args.shifts, "--shifts", (3,)) if args.shifts else DEFAULT_SHIFTS
    )
    img = load_ppm(args.infile)
    bundle = encrypt_image(img, _keys(args, rotations), shifts)
    write_bundle(args.outfile, bundle)
    return 0


def _cmd_decrypt(args) -> int:
    # the header fixes the schedule, so it is built before the body is held
    n, shifts, rotations = read_header(args.infile)
    keys = _keys(args, rotations)
    _schedules(keys, shifts, n)
    img = decrypt_image(read_bundle(args.infile), keys)
    save_ppm(args.outfile, img)
    return 0


def _write_csv(path, header, rows):
    with open(path, "w", encoding="ascii") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(str(v) for v in row) + "\n")


def _cmd_analyze(args) -> int:
    original = load_ppm(args.original)
    encrypted = None
    if args.bundle:
        encrypted = ImageRGB(read_bundle(args.bundle).dic)
    decrypted = load_ppm(args.decrypted) if args.decrypted else None

    label = os.path.basename(args.original)
    report = full_report(original, encrypted, decrypted, image=label)
    with open(args.json_path, "w", encoding="ascii") as f:
        json.dump(report, f, indent=2)
        f.write("\n")

    images = [("original", original), ("encrypted", encrypted), ("decrypted", decrypted)]
    if args.hist_dir:
        os.makedirs(args.hist_dir, exist_ok=True)
        for entry in report["components"]:
            name, comp = entry["name"].split("/")
            _write_csv(
                os.path.join(args.hist_dir, f"{name}_{comp}_hist.csv"),
                "bin,count",
                enumerate(entry["histogram"]),
            )
    if args.scatter_dir:
        os.makedirs(args.scatter_dir, exist_ok=True)
        for name, img in images:
            if img is None:
                continue
            for comp, plane in zip(COMPONENT_NAMES, img.planes):
                for direction in DIRECTIONS:
                    _write_csv(
                        os.path.join(
                            args.scatter_dir, f"{name}_{comp}_{direction}.csv"
                        ),
                        f"# seed={DEFAULT_SCATTER_SEED}\nvalue,neighbor",
                        scatter_sample(plane, direction, args.scatter_count).tolist(),
                    )
    return 0


def _cmd_lorenz(args) -> int:
    key = _single_key(args)
    traj = integrate(LorenzParams(), derive_initial_conditions(key), args.t_end, args.dt)
    _write_csv(
        args.dump,
        "t,x,y,z",
        (
            (repr(float(t)), repr(float(x)), repr(float(y)), repr(float(z)))
            for t, x, y, z in zip(traj.t, traj.x, traj.y, traj.z)
        ),
    )
    return 0


def _cmd_keystream(args) -> int:
    planes = build_round_keystream(_single_key(args), args.size)
    os.makedirs(args.out_dir, exist_ok=True)
    for name, k in zip(("xy", "xz", "yz"), planes):
        row_orders, col_orders = line_orders(k)
        save_pgm(os.path.join(args.out_dir, f"{name}.pgm"), k)
        _write_csv(
            os.path.join(args.out_dir, f"{name}_row_perm.csv"),
            ",".join(f"c{i}" for i in range(args.size)),
            (row.tolist() for row in row_orders),
        )
        _write_csv(
            os.path.join(args.out_dir, f"{name}_col_perm.csv"),
            ",".join(f"r{i}" for i in range(args.size)),
            (col.tolist() for col in col_orders),
        )
    return 0


def _cmd_selftest(_args) -> int:
    failures = selfcheck.run()
    if failures:
        print(f"verification failure: {failures} check(s) failed", file=sys.stderr)
        return 3
    return 0


_COMMANDS = {
    "encrypt": _cmd_encrypt,
    "decrypt": _cmd_decrypt,
    "analyze": _cmd_analyze,
    "lorenz": _cmd_lorenz,
    "keystream": _cmd_keystream,
    "selftest": _cmd_selftest,
}


def cli_main(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except InvalidKeyError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (LorenzDctError, ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"data error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
