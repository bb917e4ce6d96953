"""One benchmark workload, run in its own process by run.py.

The process times `import lorenzdct` and the workload's warm-up cycle (its
set-up), then runs operation cycles in a closed loop with one caller:

* encrypt = load_ppm -> encrypt_image -> write_bundle
* decrypt = read_bundle -> decrypt_image -> save_ppm
* analyze = full_report(original, encrypted, decrypted) plus histogram and
  scatter_sample(..., 4096) for every plane and direction

Every fourth image is document-like (two-level text), and the loop stops at
the first cycle boundary after `--seconds` of timed work.  Outside the timed
regions every decrypt is compared exactly with its original.  With
`--trace 1` the warm-up cycle and odd rounds (a pass over the image pool, or
one group of sweep sizes) run with the span wrappers installed; the process
then reports per-layer numbers and the tracing overhead, and checks that
each traced container equals an untraced re-encryption byte for byte.

Prints informational lines, then one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("fixed_keys_1024", "size_sweep")
SCATTER_COUNT = 4096
FIXED_POOL = 4  # distinct images cycled by fixed_keys_1024
SWEEP_WARMUP_N = 48  # below the sweep's range, so no timed size is warmed
OUT_DIR = Path(".perfbench")

E2E_UNITS = {
    "encrypt_mpix_s": "Mpix/s",
    "decrypt_mpix_s": "Mpix/s",
    "encrypt_ms_p50": "ms",
    "decrypt_ms_p50": "ms",
    "analyze_ms_p50": "ms",
    "container_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass(frozen=True)
class Op:
    """One cycle's input: image `index` at size n."""

    index: int
    n: int
    warmup: bool = False


class Plan:
    """The seeded inputs of a workload: one key triple and the op sequence."""

    def __init__(self, workload: str, seed: int):
        import inputs
        import numpy as np

        self.seed = seed
        self.keys = inputs.key_triple(np.random.default_rng([seed, WORKLOADS.index(workload)]))
        if workload == "fixed_keys_1024":
            self._sizes = None
            self.warmup = Op(0, 1024, warmup=True)
            self.round = FIXED_POOL  # cycles per round
        else:
            self._sizes = inputs.sweep_sizes(seed)
            self.warmup = Op(0, SWEEP_WARMUP_N, warmup=True)
            self.round = inputs.SWEEP_GROUP
        self._pool: dict[int, tuple] = {}

    def op(self, i: int) -> Op | None:
        """The i-th timed cycle, or None once the workload's sizes run out."""
        if self._sizes is None:
            return Op(i % FIXED_POOL, 1024)
        return Op(i, self._sizes[i]) if i < len(self._sizes) else None

    def planes(self, op: Op):
        import inputs

        if op.warmup or self._sizes is not None:  # sweep images are never revisited
            return inputs.image_planes(self.seed, op.index, op.n, op.warmup)
        if op.index not in self._pool:
            self._pool[op.index] = inputs.image_planes(self.seed, op.index, op.n)
        return self._pool[op.index]


@dataclass
class Cycle:
    op: Op
    traced: bool = False
    encrypt_s: float = 0.0
    decrypt_s: float = 0.0
    analyze_s: float = 0.0
    container_bytes: int = 0
    bad: list[str] = field(default_factory=list)  # planes that differ, or the error
    digest: str = ""

    @property
    def errored(self) -> bool:
        return any(b.startswith("error") for b in self.bad)

    @property
    def total_s(self) -> float:
        return self.encrypt_s + self.decrypt_s + self.analyze_s


def write_ppm(path: Path, planes):
    import numpy as np

    n = planes[0].shape[0]
    path.write_bytes(f"P6\n{n} {n}\n255\n".encode("ascii") + np.stack(planes, -1).tobytes())


def analyze(original, encrypted, decrypted):
    """What `lorenzdct analyze --hist-csv --scatter-csv` computes."""
    from lorenzdct import analysis

    analysis.full_report(original, encrypted, decrypted)
    for img in (original, encrypted, decrypted):
        for plane in img.planes:
            analysis.histogram(plane)
            h, w = plane.shape
            for direction in analysis.DIRECTIONS:
                total = (h - (direction != "horizontal")) * (w - (direction != "vertical"))
                analysis.scatter_sample(plane, direction, min(SCATTER_COUNT, total))


def encrypt_to(path: Path, src: Path, keys):
    from lorenzdct import cipher, container, ppm

    container.write_bundle(path, cipher.encrypt_image(ppm.load_ppm(src), keys))


def run_cycle(op: Op, planes, keys: tuple[str, str, str], work: Path, tracer=None) -> Cycle:
    """One encrypt, decrypt and analyze; checks run outside the timed parts."""
    import numpy as np
    from lorenzdct import ImageRGB, SecretKey, cipher, container, ppm

    def span(name):
        return tracer.span(name) if tracer else nullcontext()

    cycle = Cycle(op, traced=tracer is not None)
    src, ct, out = work / "in.ppm", work / "ct.ldct", work / "out.ppm"
    write_ppm(src, planes)
    keys = tuple(SecretKey(k) for k in keys)
    try:
        t0 = time.perf_counter()
        with span("op.encrypt"):
            encrypt_to(ct, src, keys)
        t1 = time.perf_counter()
        with span("op.decrypt"):
            bundle = container.read_bundle(ct)
            decrypted = cipher.decrypt_image(bundle, keys)
            ppm.save_ppm(out, decrypted)
        t2 = time.perf_counter()
        with span("op.analyze"):
            analyze(ImageRGB(tuple(planes)), ImageRGB(bundle.dic), decrypted)
        t3 = time.perf_counter()
    except Exception:  # a failed operation is counted and listed, not fatal
        cycle.bad.append("error: " + traceback.format_exc(limit=1).strip().splitlines()[-1])
        return cycle
    cycle.encrypt_s, cycle.decrypt_s, cycle.analyze_s = t1 - t0, t2 - t1, t3 - t2
    cycle.container_bytes = ct.stat().st_size
    cycle.bad = [c for c, a, b in zip("RGB", planes, decrypted.planes) if not np.array_equal(a, b)]
    if not cycle.bad and out.read_bytes() != src.read_bytes():
        cycle.bad.append("file")
    if tracer is not None:
        cycle.digest = hashlib.sha256(ct.read_bytes()).hexdigest()
    return cycle


def untraced_digest(keys: tuple[str, str, str], work: Path) -> str:
    """sha256 of the container an untraced encrypt of the last input writes."""
    from lorenzdct import SecretKey

    path = work / "check.ldct"
    encrypt_to(path, work / "in.ppm", tuple(SecretKey(k) for k in keys))
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_loop(plan: Plan, seconds: float, work: Path, tracer=None) -> tuple[list[Cycle], list[str]]:
    """Cycles until `seconds` of timed work, or until the inputs run out.

    A traced run alternates untraced and traced rounds and stops only at a
    round boundary, after at least one round of each.
    """
    cycles: list[Cycle] = []
    digest_errors: list[str] = []
    measured, i = 0.0, 0
    while True:
        rnd, pos = divmod(i, plan.round)
        if measured >= seconds and (tracer is None or (pos == 0 and rnd >= 2)):
            return cycles, digest_errors
        op = plan.op(i)
        if op is None:
            return cycles, digest_errors
        traced = tracer is not None and rnd % 2 == 1
        planes = plan.planes(op)
        if traced:
            tracer.op = i
            tracer.install()
        try:
            cycle = run_cycle(op, planes, plan.keys, work, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        if cycle.digest and cycle.digest != untraced_digest(plan.keys, work):
            digest_errors.append(f"op {i}: traced container differs from untraced")
        cycles.append(cycle)
        measured += cycle.total_s
        i += 1


def tail(values: list[float]) -> str:
    """Highest of p99.9/p99/p90/p75/p50 with at least ten samples beyond it."""
    for p in (99.9, 99.0, 90.0, 75.0, 50.0):
        if len(values) * (1 - p / 100) >= 10:
            cut = statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]
            return f"p{p:g} {cut:.3f} ms"
    return "none (fewer than 10 samples beyond p50)"


def end_to_end(timed: list[Cycle]) -> dict[str, float]:
    mpix = sum(c.op.n**2 for c in timed) / 1e6
    raw = sum(3 * c.op.n**2 for c in timed)
    return {
        "encrypt_mpix_s": mpix / sum(c.encrypt_s for c in timed),
        "decrypt_mpix_s": mpix / sum(c.decrypt_s for c in timed),
        "encrypt_ms_p50": statistics.median(c.encrypt_s * 1e3 for c in timed),
        "decrypt_ms_p50": statistics.median(c.decrypt_s * 1e3 for c in timed),
        "analyze_ms_p50": statistics.median(c.analyze_s * 1e3 for c in timed),
        "container_ratio": sum(c.container_bytes for c in timed) / raw,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, cycles: list[Cycle]) -> dict[str, tuple[float, str]]:
    """Per-cycle means over the traced cycles, plus counts and the overhead.

    The traced warm-up cycle (operation id -1) counts as one of the cycles, so
    layers that only set-up calls, such as the keystream once fixed_keys_1024
    has warmed its cache, read as their cost spread over the run, not as 0.
    """
    from spans import TARGETS, op_kinds, self_ms

    traced = [c for c in cycles if c.traced and not c.errored]
    plain = [c for c in cycles if not c.traced]
    k = len(traced) + 1
    names = [name for _, _, name in TARGETS] + ["op.encrypt", "op.decrypt", "op.analyze"]
    agg = {name: [0, 0.0, 0.0] for name in names}
    spans = tracer.spans
    for s, own in zip(spans, self_ms(spans)):
        a = agg[s.name]
        a[0], a[1], a[2] = a[0] + 1, a[1] + s.ms, a[2] + own
    out = {}
    for name in names:
        calls, ms, own = agg[name]
        out[f"{name}.calls"] = (calls / k, "count")
        out[f"{name}.ms"] = (ms / k, "ms")
        out[f"{name}.self_ms"] = (own / k, "ms")

    by_name = lambda name: [s for s in spans if s.name == name]  # noqa: E731
    kinds = op_kinds(spans)
    cold = {s.parent for s in by_name("lorenz.integrate")}
    builds = [i for i, s in enumerate(spans) if s.name == "keystream.build_round_keystream"]
    selects = by_name("dct.energy_select")

    def hit_ratio(idx):
        return sum(i not in cold for i in idx) / len(idx) if idx else 0.0

    out["lorenz.steps"] = (sum(s.counts["steps"] for s in by_name("lorenz.integrate")) / k, "count")
    out["keystream.cache_hit_ratio"] = (hit_ratio(builds), "ratio")
    out["keystream.encrypt_cache_hit_ratio"] = (
        hit_ratio([i for i in builds if kinds[i] == "op.encrypt"]), "ratio")
    out["dct.retained_per_plane"] = (
        statistics.fmean(s.counts["retained"] for s in selects) if selects else 0.0, "count")
    out["dct.achieved_energy_min"] = (
        min(s.counts["energy"] for s in selects) if selects else 0.0, "ratio")
    out["container.bytes"] = (statistics.fmean(c.container_bytes for c in traced) if traced else 0.0, "count")
    t_ms = statistics.fmean(c.total_s * 1e3 for c in traced) if traced else 0.0
    u_ms = statistics.fmean(c.total_s * 1e3 for c in plain) if plain else 0.0
    out["trace.overhead_ms"] = (t_ms - u_ms, "ms")
    out["trace.overhead_frac"] = ((t_ms - u_ms) / u_ms if u_ms else 0.0, "ratio")
    return out


def write_spans(tracer, workload: str, seed: int):
    OUT_DIR.mkdir(exist_ok=True)
    rows = [[s.name, s.start, s.end, s.parent, s.op, s.counts] for s in tracer.spans]
    (OUT_DIR / f"spans_{workload}_{seed}.json").write_text(json.dumps(rows))


def main(argv=None) -> int:
    t0 = time.perf_counter()
    importlib.import_module("lorenzdct")
    import_s = time.perf_counter() - t0

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time import and warm-up, print {setup_s} and stop")
    args = ap.parse_args(argv)

    plan = Plan(args.workload, args.seed)
    warm_planes = plan.planes(plan.warmup)
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work_{os.getpid()}"
    work.mkdir()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    try:
        if tracer is not None:
            tracer.install()  # set-up is traced too, see per_layer
        try:
            warm = run_cycle(plan.warmup, warm_planes, plan.keys, work, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        setup_s = import_s + warm.total_s
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        cycles, digest_errors = run_loop(plan, args.seconds, work, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [c for c in cycles if c.bad]
    listed = list(dict.fromkeys((args.workload, c.op.index, b) for c in failures for b in c.bad))
    print(f"info workload {args.workload} seed {args.seed}: {len(cycles)} cycles, "
          f"sizes {min(c.op.n for c in cycles)}..{max(c.op.n for c in cycles)}")
    print(f"info roundtrip_fail_frac {len(failures) / len(cycles):.6f} "
          f"({len(failures)}/{len(cycles)} operation cycles)")
    if warm.bad:
        print(f"info warm-up cycle failed: {warm.bad}")
    for entry in listed:
        print(f"info roundtrip failure (workload, image index, plane): {list(entry)}")
    for err in digest_errors:
        print(f"info digest mismatch: {err}")
    timed = [c for c in cycles if not c.traced and not c.errored]
    for kind in ("encrypt", "decrypt", "analyze"):
        values = [getattr(c, f"{kind}_s") * 1e3 for c in timed]
        if values:
            print(f"info {kind}_ms: p50 {statistics.median(values):.3f} ms, "
                  f"tail {tail(values)} (n={len(values)})")

    if args.trace:
        if tracer.missing:
            print(f"info names not found, not traced: {tracer.missing}")
        write_spans(tracer, args.workload, args.seed)
        metrics = per_layer(tracer, cycles)
    else:
        if not timed:
            print("error: every operation cycle raised; no timings to report", file=sys.stderr)
            return 1
        values = end_to_end(timed)
        values["setup_s"] = setup_s
        metrics = {name: (values[name], unit) for name, unit in E2E_UNITS.items()}

    result = {
        "correct": not failures and not digest_errors and not warm.bad,
        "attempted": len(cycles),
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
