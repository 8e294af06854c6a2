"""In-memory spans around the package's public functions.

The benchmark installs a ``Tracer`` from its own files: every public
module-level function of each layer module is replaced, in every
``flagmorse`` module namespace that refers to it, by a wrapper that records
one span per call.  Nothing under ``src/`` changes, and calls between layers
inside the package are traced too, because they resolve the patched names at
call time.

A span is ``(id, name, start, end, parent, job)``: ``name`` is
``<layer>.<function>`` for a package call and ``job.<kind>`` or
``probe.<what>`` for the benchmark's own spans; ``start``/``end`` are
``time.perf_counter()`` seconds; ``parent`` is the id of the enclosing span
(or -1); ``job`` is the id shared by every span of one job.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("rootsys", "chevalley", "parabolic", "index_comb", "compact_geom", "cli")

# Leaf predicates called hundreds of thousands of times from inside the
# combinatorics loops.  A span each would cost more than the call; their time
# stays in the caller's self time.
UNTRACED = frozenset({
    "rootsys.inner", "rootsys.is_root", "rootsys.add", "rootsys.precedes",
    "rootsys.is_long", "rootsys.reflect", "chevalley.coroot",
    "chevalley.pairing", "compact_geom.gauss_nodes", "compact_geom.thread_count",
})

# Calls whose results the per-layer counts need (systems built, constants).
KEEP_RESULTS = frozenset({"rootsys.build_root_system", "chevalley.build_chevalley"})


class Tracer:
    """Collects spans in memory; ``spans`` is written out when the pass ends."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._job = -1
        self._next_job = 0
        self.results: dict[str, list] = defaultdict(list)

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, self._job)

    @contextmanager
    def job(self, kind: str):
        """A job span; every span opened inside it carries its job id."""
        self._job, self._next_job = self._next_job, self._next_job + 1
        try:
            with self.span(f"job.{kind}"):
                yield
        finally:
            self._job = -1

    def _wrap(self, name: str, fn):
        keep = name in KEEP_RESULTS

        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if keep:
                self.results[name].append(out)
            return out

        return functools.update_wrapper(traced, fn)

    def install(self, package) -> None:
        """Wrap every public function of the layer modules."""
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package.__name__}.{layer}")
            for attr, value in vars(module).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or isinstance(value, type) or not callable(value)
                        or getattr(value, "__module__", None) != module.__name__
                        or name in UNTRACED):
                    continue
                originals[id(value)] = (value, self._wrap(name, value))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package.__name__
                                      or mod_name.startswith(package.__name__ + ".")):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])


def self_times(spans) -> list[float]:
    """Per span: its duration minus the time its direct children cover.

    Spans are opened and closed on one thread, so children never overlap.
    """
    child = [0.0] * len(spans)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[sid] for sid, _, start, end, _, _ in spans]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans, first: int = 0, stop: int | None = None) -> dict:
    """Self time and call count per span name over ``spans[first:stop]``,
    and boundary-crossing calls.

    ``entries`` counts calls into a layer from outside it: spans whose parent
    belongs to another layer or to the benchmark.
    """
    selfs = self_times(spans)
    by_name: dict[str, dict] = defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0,
                                                    "calls": 0, "entries": 0})
    for (sid, name, start, end, parent, _), own in zip(spans[first:stop], selfs[first:stop]):
        row = by_name[name]
        row["self_s"] += own
        row["total_s"] += end - start
        row["calls"] += 1
        if parent < 0 or layer_of(spans[parent][1]) != layer_of(name):
            row["entries"] += 1
    return dict(by_name)
