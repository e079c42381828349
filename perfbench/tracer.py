"""Outside-in spans around the public functions of each properconn module.

``Tracer.install`` replaces every public function defined in the traced
modules with a wrapper that records a span, in every properconn namespace
that holds a reference to it (``solver`` and ``construct`` keep their own
references to ``is_proper_connected``, for example). Nothing under ``src/``
changes; ``uninstall`` puts the original functions back.

A span is (id, parent id, item id, function, start, end). Spans stay in
memory; ``write`` dumps them when the run ends. Self time is a span's
duration minus the durations of its direct children, which is exact here
because one thread runs and spans nest.

Two wrappers also read solver counters: ``exists_pc_coloring`` gets a
``stats_out`` dict when its caller passed none, and ``pc_exact`` reports
``PcResult.stats["nodes"]``. A leaf check is a call of
``is_proper_connected`` whose parent span is a solver entry point.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
import time
from collections import defaultdict

LAYERS = ("graph", "coloring", "solver", "construct", "counterexample", "corpus", "io")
SOLVER_ENTRY = ("solver.exists_pc_coloring", "solver.pc_exact")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.names: list[str] = []
        # (id, parent id, item id, name index, start, end, self time)
        self.spans: list[tuple] = []
        self.item = "setup"
        self.counters: dict[str, int] = defaultdict(int)
        self._restore: list[tuple] = []
        self._solver_entry: set[int] = set()
        self._clock = clock

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        wrapped = {}
        stack: list[tuple[int, int]] = []  # open spans: (id, name index)
        child_time: list[float] = []  # per open span: time of its children
        ids = itertools.count()
        for layer in LAYERS:
            mod = importlib.import_module(f"{package.__name__}.{layer}")
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrapped[obj] = self._wrap(
                        f"{layer}.{attr}", obj, stack, child_time, ids
                    )
        self._solver_entry.update(
            i for i, name in enumerate(self.names) if name in SOLVER_ENTRY
        )
        prefix = package.__name__ + "."
        namespaces = [package] + [
            m for name, m in sys.modules.items() if name.startswith(prefix)
        ]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(ns, attr, wrapped[obj])
                    self._restore.append((ns, attr, obj))

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._restore):
            setattr(ns, attr, obj)
        self._restore.clear()

    def _wrap(self, name: str, fn, stack, child_time, ids):
        idx = len(self.names)
        self.names.append(name)
        spans = self.spans
        counters = self.counters
        solver_entry = self._solver_entry
        clock = self._clock
        is_leaf_check = name == "coloring.is_proper_connected"
        tracer = self

        def wrapper(*args, **kwargs):
            parent, parent_idx = stack[-1] if stack else (-1, -1)
            sid = next(ids)
            stack.append((sid, idx))
            child_time.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                kids = child_time.pop()
                if child_time:
                    child_time[-1] += dur
                spans.append((sid, parent, tracer.item, idx, t0, t1, dur - kids))
                if is_leaf_check and parent_idx in solver_entry:
                    counters["solver.leaves"] += 1

        if name == "solver.exists_pc_coloring":
            inner = wrapper

            def wrapper(g, k, require_strong=False, budget_nodes=None, stats_out=None):
                stats = {} if stats_out is None else stats_out
                try:
                    return inner(g, k, require_strong, budget_nodes, stats)
                finally:
                    counters["solver.nodes"] += stats.get("nodes", 0)

        elif name == "solver.pc_exact":
            inner = wrapper

            def wrapper(*args, **kwargs):
                res = inner(*args, **kwargs)
                counters["solver.nodes"] += res.stats.get("nodes", 0)
                return res

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- results -------------------------------------------------------------

    def per_function(self) -> dict[str, dict]:
        """calls, total_s and self_s per wrapped function. Figures cover the
        timed items; ``corpus`` functions run only while inputs are made, so
        theirs cover set-up."""
        out: dict[str, dict] = {}
        for _sid, _parent, item, idx, t0, t1, self_s in self.spans:
            name = self.names[idx]
            if (item == "setup") != name.startswith("corpus."):
                continue
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += self_s
        return out

    def write(self, path) -> None:
        """One JSON array per span: id, parent, item, function, start, end."""
        with open(path, "w") as fh:
            for sid, parent, item, idx, t0, t1, _ in sorted(self.spans):
                fh.write(json.dumps([sid, parent, item, self.names[idx], t0, t1]))
                fh.write("\n")
