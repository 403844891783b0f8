"""Spans around calls into the regsing layers, recorded from outside.

The tracer wraps functions in the module namespaces of the package, so
the program itself is unchanged.  Two kinds of names are wrapped:

- every public function in the module that defines it, so a call made
  through the module attribute (``asymptotics.rate_directed_opt``, as
  the CLI and the benchmark make them) opens a span;
- every name a module imports from another regsing module, private ones
  included (``experiments._rank_mod_numpy_arr``), so each call that
  crosses a layer boundary opens a span.

Generator functions are left alone: their body runs after the call
returns, so a span around the call would time nothing.

A span's exclusive time is its duration minus the durations of its
direct children.  Summing exclusive time over the spans of one layer
gives the layer's self time, with no interval counted twice.
"""

from __future__ import annotations

import functools
import inspect
import time
import types
from collections import defaultdict

PACKAGE = "regsing"


def layer_of(func) -> str:
    return func.__module__.rsplit(".", 1)[-1]


class Tracer:
    """Span store plus the patches that feed it.

    ``hooks`` maps a qualified function name (``walkdist.walk_tables``)
    to ``(fn, boundary_only)``; ``fn(result)`` returns a count added to
    ``counts[name]`` or a label that splits the function's totals.  A
    boundary-only hook fires only when the caller is in another layer,
    so a count is taken once per crossing.
    """

    def __init__(self, modules, hooks=None):
        self.modules = list(modules)
        self.hooks = dict(hooks or {})
        self._patches: list[tuple[types.ModuleType, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.op = -1
        # stack entries: [name, layer, start_ns, child_ns]
        self._stack: list[list] = []
        # (op index, function, layer, duration ns, exclusive ns)
        self.spans: list[tuple[int, str, str, int, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.labels: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0])

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[object, object] = {}
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                owner = value.__module__ or ""
                if not owner.startswith(PACKAGE + "."):
                    continue
                if inspect.isgeneratorfunction(value):
                    continue
                own = owner == mod.__name__
                if own and attr.startswith("_"):
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(value)
                self._patches.append((mod, attr, value))
                setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def _wrap(self, func):
        layer = layer_of(func)
        name = f"{layer}.{func.__name__}"
        hook = self.hooks.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):
            frames = self._stack
            frame = [name, layer, clock(), 0]
            frames.append(frame)
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                self._close(frame, end, frames)
            if hook is not None:
                self._apply_hook(name, layer, hook, result, frames)
            return result

        return traced

    def _close(self, frame, end: int, frames) -> None:
        name, layer, start, child = frame
        duration = end - start
        if frames:
            frames[-1][3] += duration
        self.spans.append((self.op, name, layer, duration, duration - child))

    def _apply_hook(self, name, layer, hook, result, frames) -> None:
        fn, boundary_only = hook
        if boundary_only and frames and frames[-1][1] == layer:
            return
        out = fn(result)
        if isinstance(out, str):
            # the span just closed is the last one recorded
            agg = self.labels[(name, out)]
            agg[0] += 1
            agg[1] += self.spans[-1][3]
        elif out:
            self.counts[name] += int(out)

    # -- aggregation ----------------------------------------------------

    def layer_self_by_op(self, n_ops: int) -> list[dict[str, int]]:
        """Exclusive ns per layer for each op index in range(n_ops)."""
        out: list[dict[str, int]] = [{} for _ in range(n_ops)]
        for op, _name, layer, _dur, excl in self.spans:
            if 0 <= op < n_ops:
                out[op][layer] = out[op].get(layer, 0) + excl
        return out

    def func_totals(self) -> dict[str, list[int]]:
        """Per function: [calls, inclusive ns, exclusive ns].

        Inclusive time of a function that calls itself through a span is
        counted once per nesting level, so callers read it only for
        functions that do not recurse.
        """
        out: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        for _op, name, _layer, dur, excl in self.spans:
            agg = out[name]
            agg[0] += 1
            agg[1] += dur
            agg[2] += excl
        return dict(out)
