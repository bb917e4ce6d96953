"""Tests of the benchmark itself.

    python -m pytest perfbench/tests

The smoke runs start run.py from the repository root, the way a benchmark
run does; the rest exercise the generator and the tracer in-process.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import inputs  # noqa: E402
import workload  # noqa: E402
from spans import Tracer, self_ms  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(name: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def traced_cycle(work: Path, n: int = 64):
    plan = workload.Plan("size_sweep", 3)
    op = workload.Op(0, n)
    tracer = Tracer()
    tracer.op = 0
    tracer.install()
    try:
        cycle = workload.run_cycle(op, plan.planes(op), plan.keys, work, tracer)
    finally:
        tracer.uninstall()
    return plan, cycle, tracer, work


def test_generator_is_deterministic_for_a_seed():
    for index in (0, 3):  # natural-like, document-like
        a = inputs.image_planes(7, index, 96)
        b = inputs.image_planes(7, index, 96)
        c = inputs.image_planes(8, index, 96)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert not all(np.array_equal(x, y) for x, y in zip(a, c))
    keys = inputs.key_triple(np.random.default_rng(1))
    assert keys == inputs.key_triple(np.random.default_rng(1))
    assert len(set(keys)) == 3 and all(len(k) == 6 and k.isprintable() for k in keys)
    sizes = inputs.sweep_sizes(4)
    assert sizes == inputs.sweep_sizes(4) and len(set(sizes)) == len(sizes)
    assert all(inputs.SWEEP_MIN <= s < inputs.SWEEP_MAX for s in sizes)
    assert any(inputs._is_prime(s) for s in sizes[:4])


def test_document_planes_are_two_level():
    rng = np.random.default_rng(0)
    for _ in range(6):
        plane = inputs.document_plane(rng, 128)
        assert plane.dtype == np.uint8 and len(np.unique(plane)) == 2


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: round trip is not exact on "
                   "halftones whose truncated reconstruction sits on x.5")
def test_dithered_planes_round_trip_exactly():
    """The halftones inputs.py leaves out of the timed workloads.

    When the program's round trip is made exact, this passes and the strict
    xfail fails: drop the mark and put dithered planes back into the inputs.
    """
    from lorenzdct import ImageRGB, SecretKey, cipher

    keys = tuple(SecretKey(k) for k in inputs.key_triple(np.random.default_rng(0)))
    bad = []
    for n in (8, 16, 32, 64):
        yy, xx = np.indices((n, n))
        planes = tuple((base + (yy + xx) % 2).astype(np.uint8) for base in (57, 128, 200))
        out = cipher.decrypt_image(cipher.encrypt_image(ImageRGB(planes), keys), keys)
        bad += [(n, int(a[0, 0])) for a, b in zip(planes, out.planes) if not np.array_equal(a, b)]
    assert not bad, f"planes (n, base) that do not round-trip: {bad}"


def test_spans_nest_and_self_times_cover_each_operation(tmp_path):
    _, cycle, tracer, _ = traced_cycle(tmp_path)
    assert not cycle.errored
    spans = tracer.spans
    assert {s.name for s in spans} >= {"op.encrypt", "lorenz.integrate", "dct.energy_select"}
    for s in spans:
        assert s.end >= s.start and s.op == 0
        if s.parent >= 0:
            p = spans[s.parent]
            assert p.start <= s.start and s.end <= p.end
    own = self_ms(spans)
    for i, s in enumerate(spans):
        if s.parent < 0:
            inner = sum(own[j] for j, t in enumerate(spans) if j != i and _root(spans, j) == i)
            assert abs(inner + own[i] - s.ms) < 1e-6
            assert inner >= 0.95 * s.ms, f"{s.name}: wrapped layers cover {inner / s.ms:.1%}"


def _root(spans, j):
    while spans[j].parent >= 0:
        j = spans[j].parent
    return j


def test_wrappers_change_no_result(tmp_path):
    plan, cycle, _, work = traced_cycle(tmp_path, 80)
    assert cycle.digest == workload.untraced_digest(plan.keys, work)
    import lorenzdct.cipher

    assert not hasattr(lorenzdct.cipher.encrypt_image, "__wrapped__")


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_end_to_end_metric(name):
    proc = run_bench(name, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "digest mismatch" not in proc.stdout


def test_traced_run_prints_every_per_layer_metric():
    proc = run_bench("size_sweep", 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["metrics"]["lorenz.steps"]["value"] == 150000
    assert "digest mismatch" not in proc.stdout


def test_refuses_to_run_outside_a_checkout(tmp_path):
    proc = run_bench("size_sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
