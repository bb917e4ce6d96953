"""Check traced runs against the predictions in predictions.json.

    python3 perfbench/check_trace.py [.perfbench/spans_<workload>_<seed>.json ...]

Reads the span files that `run.py --trace 1` writes (default: every file in
.perfbench/) and prints, per file, the largest self times inside each
operation kind and the verdict on each prediction for that workload.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from pathlib import Path

from spans import Span, op_kinds, self_ms


def load(path: Path) -> list[Span]:
    return [Span(*row) for row in json.loads(path.read_text())]


def self_time_by_op(spans: list[Span]) -> dict[str, Counter]:
    out: dict[str, Counter] = defaultdict(Counter)
    for s, kind, own in zip(spans, op_kinds(spans), self_ms(spans)):
        if s.name != kind:
            out[kind][s.name] += own
    return out


def verdicts(workload: str, spans: list[Span]) -> list[tuple[bool, str]]:
    selfs = self_time_by_op(spans)
    kinds = op_kinds(spans)
    out = []
    if workload == "fixed_keys_1024":
        top = selfs["op.encrypt"].most_common(1)[0][0]
        out.append((top == "dct.energy_select", f"largest encrypt self time: {top}"))
        top = selfs["op.decrypt"].most_common(1)[0][0]
        out.append((top == "cipher.shuffle_decrypt", f"largest decrypt self time: {top}"))
    if workload == "size_sweep":
        total = Counter()
        for s, kind in zip(spans, kinds):
            if kind == "op.encrypt":
                total[s.name] += s.ms
        share = (total["lorenz.integrate"] + total["keystream.truncated_vectors"]) / total["op.encrypt"]
        out.append((share > 0.5, f"integrate + truncated_vectors = {share:.1%} of encrypt"))
        cold = {s.parent for s in spans if s.name == "lorenz.integrate"}
        builds = [i for i, (s, kind) in enumerate(zip(spans, kinds))
                  if s.name == "keystream.build_round_keystream" and kind == "op.encrypt"]
        hits = sum(i not in cold for i in builds)
        out.append((hits == 0, f"encrypt keystream cache hits: {hits}/{len(builds)}"))
    return out


def main(argv=None) -> int:
    paths = [Path(p) for p in (argv or sys.argv[1:])] or sorted(Path(".perfbench").glob("spans_*.json"))
    for path in paths:
        workload = path.stem.removeprefix("spans_").rsplit("_", 1)[0]
        spans = load(path)
        selfs = self_time_by_op(spans)
        print(f"{path}:")
        for kind in ("op.encrypt", "op.decrypt", "op.analyze"):
            top = ", ".join(f"{n} {ms:.0f}" for n, ms in selfs[kind].most_common(4))
            print(f"  {kind} self ms (sum over traced ops): {top}")
        for ok, text in verdicts(workload, spans):
            print(f"  {'AGREES' if ok else 'DISAGREES'}: {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
