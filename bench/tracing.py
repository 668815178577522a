"""Per-layer tracing by wrapping the public functions of bernrdp's modules.

Every public function defined in ``core``, ``solver``, ``graph``,
``oracle`` and ``cli`` is replaced by a wrapper in every ``bernrdp`` module
namespace that binds it, so calls between layers are caught too.  A
wrapper records a span (name, parent, start, end); a span's self time is
its duration minus that of its direct children.  Counts come from public
result fields (``RdpResult.multiplier_iterations``, ``notes``,
``GraphRdpResult.edges``).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("core", "solver", "graph", "oracle", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, int, int]] = []  # name, parent, start, end
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self._stack: list[list] = []  # [span index, child ns]
        self.wrapped: set[str] = set()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn):
        tracer = self
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append((name, parent, 0, 0))
            frame = [index, 0]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                took = end - start
                if stack:
                    stack[-1][1] += took
                tracer.spans[index] = (name, parent, start, end)
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                tracer.total_ns[name] = tracer.total_ns.get(name, 0) + took
                tracer.self_ns[name] = tracer.self_ns.get(name, 0) + took - frame[1]
            if observe is not None:
                observe(tracer, out)
            return out

        return traced

    def install(self, package) -> None:
        """Wrap the layers' public functions wherever a bernrdp module binds them."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == package.__name__ or k.startswith(package.__name__ + "."))]
        replace = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"{package.__name__}.{layer}")
            if mod is None:
                continue
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    replace[id(fn)] = (fn, self.wrap(f"{layer}.{attr}", fn))
                    self.wrapped.add(f"{layer}.{attr}")
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])


def _observe_rdp(tracer: Tracer, result) -> None:
    tracer.count("solver.multiplier_iterations", int(result.multiplier_iterations))
    if result.region == "C":
        tracer.count("solver.c_results")
    if any("snapped" in note for note in result.notes):
        tracer.count("solver.snapped_results")


def _observe_graph(tracer: Tracer, gres) -> None:
    tracer.count("graph.edges", len(gres.edges))


_OBSERVERS = {"solver.rdp": _observe_rdp, "graph.graph_rdp": _observe_graph}

