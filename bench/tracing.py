"""Span recorder that wraps crossnest's public functions in place.

`Tracer.install()` replaces each public function of the measured
modules, in every crossnest namespace that holds it (the defining
module, the package, and every module that imported it by name), with a
wrapper that times the call.  `uninstall()` puts the originals back.
The package source is never edited.

Spans are aggregated as they close, per function: calls, total time and
self time, where self time is the span's duration minus the time covered
by the wrapped functions it called.  A generator function is timed
inside each `next()` and counted by the rows it yields, not by the call
that creates it.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

# The CLI does argparse and a small json.dumps; its import is in setup_s.
UNMEASURED = frozenset({"crossnest", "crossnest.cli"})


def layer_name(module_name: str) -> str:
    """`crossnest._kernels` -> `kernels`: metric names start with a letter."""
    return module_name.rsplit(".", 1)[-1].lstrip("_")


class Stat:
    __slots__ = ("calls", "total", "self_time", "counts")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.counts: dict = {}


class Tracer:
    """Aggregated spans for every wrapped function, keyed `layer.function`.

    `hooks` maps a key to `hook(counts, args, result)`, run after the
    span closes (result None if the call raised), to count work at that
    boundary (rows, pairs, bytes).
    """

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.stats: dict[str, Stat] = {}
        self._stack: list[float] = []   # child time covered, per open span
        self._saved: list[tuple[dict, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "crossnest" or name.startswith("crossnest."))]
        by_name: dict[tuple[int, str], object] = {}
        by_obj: dict[int, object] = {}
        for module in modules:
            if module.__name__ in UNMEASURED:
                continue
            layer = layer_name(module.__name__)
            for name, obj in vars(module).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{name}", obj)
                by_name[(id(obj), name)] = wrapper
                by_obj.setdefault(id(obj), wrapper)
        # an alias (`pair_stats_batch = pair_stats_batch_numpy`) keeps the
        # name callers look it up by; a from-import keeps the defining name
        for module in modules:
            namespace = vars(module)
            for name, obj in list(namespace.items()):
                wrapper = by_name.get((id(obj), name)) or by_obj.get(id(obj))
                if wrapper is not None:
                    self._saved.append((namespace, name, obj))
                    namespace[name] = wrapper

    def uninstall(self) -> None:
        for namespace, name, obj in reversed(self._saved):
            namespace[name] = obj
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _close(self, stat: Stat, start: float) -> None:
        elapsed = perf_counter() - start
        covered = self._stack.pop()
        stat.total += elapsed
        stat.self_time += elapsed - covered
        if self._stack:
            self._stack[-1] += elapsed

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, Stat())
        hook = self.hooks.get(key)
        stack = self._stack
        close = self._close

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                stat.calls += 1
                rows = fn(*args, **kwargs)
                while True:
                    stack.append(0.0)
                    start = perf_counter()
                    try:
                        item = next(rows)
                    except StopIteration:
                        return
                    finally:
                        close(stat, start)
                    stat.counts["rows"] = stat.counts.get("rows", 0) + 1
                    yield item

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            stack.append(0.0)
            result = None   # what the hook sees when the call raises
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                close(stat, start)
                if hook is not None:
                    hook(stat.counts, args, result)

        return wrapper
