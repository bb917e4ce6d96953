"""In-memory span recorder and the timing wrappers of the traced run.

The traced run swaps a wrapper onto each public name in the namespace of the
module that calls it (the program's source is not touched), so a call made
through that name records a span: name, start, end, parent span and
operation id.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module whose namespace holds the name, attribute, span name).  Each entry
# patches the name where its caller looks it up: `integrate` is wrapped in
# lorenzdct.keystream, which calls it; `build_round_keystream` in
# lorenzdct.cipher, so the wrapper sits outside its lru_cache and records
# hits as well as misses.  The benchmark itself calls the cipher, container,
# ppm and analysis entry points through their modules.
TARGETS = (
    ("lorenzdct.keystream", "integrate", "lorenz.integrate"),
    ("lorenzdct.keystream", "truncated_vectors", "keystream.truncated_vectors"),
    ("lorenzdct.keystream", "resize_bilinear", "keystream.resize_bilinear"),
    ("lorenzdct.keystream", "circular_conv2_mod", "keystream.circular_conv2_mod"),
    ("lorenzdct.keystream", "plane_from_bytes", "keystream.plane_from_bytes"),
    ("lorenzdct.cipher", "build_round_keystream", "keystream.build_round_keystream"),
    ("lorenzdct.cipher", "dct2", "dct.dct2"),
    ("lorenzdct.cipher", "energy_select", "dct.energy_select"),
    ("lorenzdct.cipher", "reconstruct_sparse", "dct.reconstruct_sparse"),
    ("lorenzdct.cipher", "encrypt_image", "cipher.encrypt_image"),
    ("lorenzdct.cipher", "decrypt_image", "cipher.decrypt_image"),
    ("lorenzdct.cipher", "make_difference", "cipher.make_difference"),
    ("lorenzdct.cipher", "shuffle_encrypt", "cipher.shuffle_encrypt"),
    ("lorenzdct.cipher", "shuffle_decrypt", "cipher.shuffle_decrypt"),
    ("lorenzdct.cipher", "log_forward", "cipher.log_forward"),
    ("lorenzdct.cipher", "log_inverse", "cipher.log_inverse"),
    ("lorenzdct.container", "write_bundle", "container.write_bundle"),
    ("lorenzdct.container", "read_bundle", "container.read_bundle"),
    ("lorenzdct.ppm", "load_ppm", "ppm.load_ppm"),
    ("lorenzdct.ppm", "save_ppm", "ppm.save_ppm"),
    ("lorenzdct.analysis", "full_report", "analysis.full_report"),
    ("lorenzdct.analysis", "histogram", "analysis.histogram"),
    ("lorenzdct.analysis", "scatter_sample", "analysis.scatter_sample"),
)

# Counts read off a wrapped call's result, stored on its span.
COUNTERS = {
    "lorenz.integrate": lambda traj: {"steps": len(traj) - 1},
    "dct.energy_select": lambda s: {"retained": len(s), "energy": s.energy_fraction},
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the root
    op: int  # operation id shared by every span of one operation
    counts: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """Records nested spans; `install` swaps the wrappers in, `uninstall` out."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int):
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if counter is not None:
                self.spans[idx].counts = counter(result)
            return result

        return traced

    def install(self):
        self.missing = []
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:  # renamed or removed by a refactor: its metrics read 0
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)


def self_ms(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s.ms for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.ms
    return out


def op_kinds(spans: list[Span]) -> list[str]:
    """Name of the operation span each span belongs to (parents come first)."""
    root: list[int] = []
    for i, s in enumerate(spans):
        root.append(i if s.parent < 0 else root[s.parent])
    return [spans[r].name for r in root]
