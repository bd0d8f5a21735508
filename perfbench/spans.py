"""Spans around the public functions of csoc's layers, plus exact call counts.

A traced pass patches each layer's public entry points (and every reference
to them held by another csoc module, so cross-layer calls are caught too)
with a wrapper that opens a span. A span has a name, a start, an end and a
parent; its self time is its duration minus the time of its child spans.
Spans are kept in memory and reduced to per-layer numbers after the pass.
Nothing inside `src/` is edited: patching happens at run time and is
undone when the pass ends.

Callables that the benchmark itself supplies (fields, spinors, policies and
the Lagrangian's value/gradient) are wrapped too. Field, spinor and policy
calls are only counted, so their time stays with the layer that called them.
Lagrangian callables are the `lagrangian` layer: they are timed like spans
but, because there are ~10^5 of them per pass, they are aggregated instead of
recorded one by one.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

# Public entry points that do work, by span name. O(1) helpers such as
# default_step, contract or boost_matrix are left out on purpose: their time
# stays in the caller's span (spacetime has no span of its own).
LAYER_FUNCS = {
    "ccalc": ("ccalc", ("analyticity_scan", "complex_derivative",
                        "second_complex_derivative", "tau_derivative")),
    "control": ("control", ("equivalence_audit", "solve_optimal_control")),
    "hjb": ("hjb", ("hjb_residual_probe", "hjb_residual_pair",
                    "hjb_residual_complex", "optimal_control_at")),
    "dirac": ("dirac", ("route_consistency", "linearized_residual")),
    "wiener": ("wiener", ("moment_check", "sample_increments")),
    "sde.integrate": ("sde", ("integrate", "integrate_with_increments")),
    "sde.action": ("sde", ("estimate_action",)),
    "sde.increments": ("sde", ("ensemble_increments",)),
}


class Tracer:
    """Span stack, per-span-name self time and exact counters for one pass."""

    def __init__(self):
        self.spans: list = []                  # (name, start, end, parent index)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()        # (span name, function name) -> calls
        self.nested: Counter = Counter()       # (span name, parent span name) -> calls
        self.counts: Counter = Counter()       # exact counters set by the workload
        self.tallies: dict[str, list] = {}     # key -> [calls, points] of counted callables
        self._stack: list[list] = []           # [name, start, child time, span index]

    def _run(self, name: str, fn, args, kwargs, record: bool):
        parent = self._stack[-1] if self._stack else None
        self.nested[(name, parent[0] if parent else "")] += 1
        index = -1
        if record:
            index = len(self.spans)
            self.spans.append(None)  # filled in when the span ends
        frame = [name, time.perf_counter(), 0.0, index]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[1]
            self.self_time[name] += duration - frame[2]
            if parent is not None:
                parent[2] += duration
            if record:
                self.spans[index] = (name, frame[1], end,
                                     parent[3] if parent else -1)

    def span(self, name: str, fn):
        """Wrap a layer function so each call is a recorded span."""
        def traced(*args, **kwargs):
            self.calls[(name, fn.__name__)] += 1
            return self._run(name, fn, args, kwargs, record=True)
        return traced

    def timed(self, name: str, fn):
        """Wrap a callable as an aggregated span: timed, counted per parent span."""
        def traced(*args, **kwargs):
            return self._run(name, fn, args, kwargs, record=False)
        return traced

    def counted(self, key: str, fn, points_arg: int = 1):
        """Wrap a callable so its calls and the points it was asked for are counted.

        The points are the leading size of the positional argument at
        points_arg (a (4,) point is one point, an (n, 4) batch is n).
        """
        tally = self.tallies.setdefault(key, [0, 0])

        def traced(*args):
            tally[0] += 1
            tally[1] += args[points_arg].size // 4 or 1
            return fn(*args)
        return traced

    def busy(self, prefix: str) -> float:
        """Self time of every span whose name is prefix or starts with prefix."""
        return sum(t for name, t in self.self_time.items()
                   if name == prefix or name.startswith(prefix + "."))

    def fn_calls(self, name: str, *functions: str) -> int:
        return sum(self.calls[(name, f)] for f in functions)

    def entered(self, name: str, parent: str | None = None) -> int:
        """Calls of the span name, all of them or those under one parent span."""
        return sum(n for (child, par), n in self.nested.items()
                   if child == name and parent in (None, par))


class patched_layers:
    """Context manager installing tracer spans on csoc's layer functions.

    Every module attribute of csoc that is one of the listed functions is
    replaced, so a call from one layer into another goes through the span
    as well as a call from the benchmark. Functions a later version of csoc
    no longer has are skipped.
    """

    def __init__(self, tracer: Tracer, modules):
        self.tracer = tracer
        self.modules = list(modules)
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        by_name = {vars(m)["__name__"].rsplit(".", 1)[-1]: m for m in self.modules}
        for span_name, (module_name, functions) in LAYER_FUNCS.items():
            module = by_name.get(module_name)
            for fname in functions:
                original = getattr(module, fname, None) if module else None
                if original is None:
                    continue
                wrapper = self.tracer.span(span_name, original)
                for mod in self.modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, attr, value))
                            setattr(mod, attr, wrapper)
        return self.tracer

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()
        return False
