"""In-memory span recorder for the traced benchmark run.

Spans are recorded around the public functions of each lenspoly module,
at the name under which the calling module imported them (wrapping
``lenspoly.surgery.derive_invariants`` alone would miss the copies that
``from .surgery import derive_invariants`` bound in the other modules).
Each span keeps its name, start, end and the span that was open when it
started; self times are computed after the run, when the spans are
written out.  Nothing is written while the workload runs.
"""

from __future__ import annotations

import importlib
import time
from array import array
from functools import wraps


def _window_cells(args, kwargs, result) -> dict:
    window = args[1] if len(args) > 1 else kwargs["window"]
    if window.is_empty():
        return {"lattice.window_cells": 0, "lattice.arrows": 0}
    cells = (window.i1 - window.i0 + 1) * (window.j1 - window.j0 + 1)
    return {"lattice.window_cells": cells,
            "lattice.arrows": sum(len(c.arrows) for c in result)}


def _svg_bytes(args, kwargs, result) -> dict:
    return {"render.svg_bytes": len(result.encode("utf-8"))}


# (span name, module, attribute as that module imported it, counter or None)
SPANS = (
    ("cli.main", "lenspoly.cli", "main", None),
    ("surgery.canonicalize", "lenspoly.cli", "canonicalize_dual_class", None),
    ("surgery.derive_invariants", "lenspoly.cli", "derive_invariants", None),
    ("surgery.derive_invariants", "lenspoly.sweep", "derive_invariants", None),
    ("surgery.derive_invariants", "lenspoly.alexander", "derive_invariants", None),
    ("surgery.derive_invariants", "lenspoly.lattice", "derive_invariants", None),
    ("alexander.generate", "lenspoly.sweep", "generate", None),
    ("alexander.generate", "lenspoly.lattice", "generate", None),
    ("alexander.predicates", "lenspoly.sweep", "is_trivial", None),
    ("alexander.predicates", "lenspoly.sweep", "is_flat", None),
    ("alexander.predicates", "lenspoly.sweep", "is_alternating", None),
    ("alexander.predicates", "lenspoly.sweep", "top_coefficient", None),
    ("lattice.check_lemma", "lenspoly.sweep", "check_lemma", None),
    ("lattice.fundamental_window", "lenspoly.cli", "fundamental_window", None),
    ("lattice.non_zero_region", "lenspoly.cli", "non_zero_region", None),
    ("lattice.trace_curves", "lenspoly.cli", "trace_curves", _window_cells),
    ("lattice.build_view", "lenspoly.cli", "build_view", None),
    ("render.svg_curves", "lenspoly.cli", "svg_curves", _svg_bytes),
    ("render.view_to_json", "lenspoly.cli", "view_to_json", None),
    ("sweep.run_sweep", "lenspoly.cli", "run_sweep", None),
    ("sweep.verify", "lenspoly.cli", "verify_theorem", None),
    ("sweep.verify", "lenspoly.cli", "verify_corollary", None),
    ("sweep.compute_record", "lenspoly.sweep", "compute_record", None),
)


class Tracer:
    """Records spans while installed; ``mark`` starts a new operation."""

    def __init__(self, spans=SPANS):
        self.spec = spans
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.ops: list[tuple[int, str]] = []  # (first span index, op kind)
        self.counts: dict[str, int] = {}  # counter name -> total
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counter):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        clock = time.perf_counter_ns

        @wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.start.append(clock())
            self.end.append(0)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if counter is not None:
                try:
                    counts = counter(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    counts = {}  # the call changed shape: report the counter absent
                    if f"{name} counter" not in self.absent:
                        self.absent.append(f"{name} counter")
                for key, value in counts.items():
                    self.counts[key] = self.counts.get(key, 0) + value
            return result

        return wrapper

    def install(self) -> None:
        """Replace every name in the spec that exists; note the ones that do not."""
        for name, module_name, attr, counter in self.spec:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                target = f"{module_name}.{attr}"
                if target not in self.absent:
                    self.absent.append(target)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, counter))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def mark(self, kind: str) -> None:
        self.ops.append((len(self.start), kind))

    def summary(self) -> dict[str, dict[str, dict[str, float]]]:
        """{op kind: {span name: {"calls", "total_s", "self_s"}}}.

        Self time is the span's duration minus the durations of the spans
        opened directly inside it (which in turn contain their own
        children), so the self times of all spans sum to the duration of
        the outermost ones.
        """
        n = len(self.start)
        child = [0] * n
        parent, start, end = self.parent, self.start, self.end
        for idx in range(n):
            up = parent[idx]
            if up >= 0:
                child[up] += end[idx] - start[idx]
        bounds = [first for first, _ in self.ops] + [n]
        out: dict[str, dict[str, dict[str, float]]] = {}
        for (first, kind), last in zip(self.ops, bounds[1:]):
            per_name = out.setdefault(kind, {})
            for idx in range(first, last):
                name = self.names[self.name_id[idx]]
                row = per_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                dur = end[idx] - start[idx]
                row["calls"] += 1
                row["total_s"] += dur / 1e9
                row["self_s"] += (dur - child[idx]) / 1e9
        return out
