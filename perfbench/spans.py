"""Outside-in tracing: wrap public treesplice functions and record spans.

A target names one public function as ``<module>.<function>``, relative to the
``treesplice`` package.  ``Tracer.install`` replaces the function object in
every loaded ``treesplice`` module namespace that holds it, so calls through
``from .sampler import aldous_broder`` style imports are seen too, and
``Tracer.uninstall`` puts the originals back.  A target whose function no
longer exists is reported as absent, never as an error.

Spans live in memory as plain lists; ``self_times`` turns them into each
span's duration minus the part of it that its direct children cover.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable

PACKAGE = "treesplice"

# Span record layout: [name, parent index or -1, start, end, counters dict].
NAME, PARENT, START, END, COUNTS = range(5)


@dataclass
class Target:
    """One function to wrap, plus optional per-call counter and label hooks.

    ``count(args, kwargs, result)`` returns counters to add to the span;
    ``label(args, kwargs)`` returns a span name that replaces the target name
    (used to split ``run_preset`` per preset and ``main`` per command).
    """

    name: str
    count: Callable | None = None
    label: Callable | None = None


@dataclass
class Tracer:
    clock: Callable[[], float] = time.perf_counter
    spans: list = field(default_factory=list)
    absent: list = field(default_factory=list)
    hook_errors: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self.clock(), None, {}])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, counts: dict | None = None) -> None:
        """End the innermost open span, ``idx``."""
        span = self.spans[idx]
        span[END] = self.clock()
        if counts:
            span[COUNTS] = counts
        self._stack.pop()

    def wrap(self, target: Target, fn: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            name = target.name
            if target.label is not None:
                name = tracer._hook(target, target.label, args, kwargs) or name
            idx = tracer.open(name)
            counts = None
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx)
                raise
            if target.count is not None:
                counts = tracer._hook(target, target.count, args, kwargs, result)
            tracer.close(idx, counts)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", target.name)
        return traced

    def _hook(self, target: Target, hook: Callable, *args):
        # A hook reads the program's arguments and results; when a later
        # change reshapes them the hook reports itself instead of failing
        # the operation under test.
        try:
            return hook(*args)
        except (AttributeError, TypeError, KeyError, IndexError, ValueError):
            self.hook_errors[target.name] = self.hook_errors.get(target.name, 0) + 1
            return None

    def install(self, targets: list[Target], modules: dict | None = None) -> None:
        """Wrap each present target and rebind it in every module that holds it."""
        if modules is None:
            modules = {
                name: mod
                for name, mod in list(sys.modules.items())
                if mod is not None
                and (name == PACKAGE or name.startswith(PACKAGE + "."))
            }
        for target in targets:
            mod_name, _, fn_name = target.name.rpartition(".")
            home = modules.get(f"{PACKAGE}.{mod_name}")
            fn = getattr(home, fn_name, None) if home is not None else None
            if not callable(fn):
                self.absent.append(target.name)
                continue
            wrapper = self.wrap(target, fn)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the union of its direct children's intervals.

    Children are clipped to their parent's interval, so a child that ran past
    its parent (which a well-nested trace never shows) cannot make self time
    negative.
    """
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(i)
    out = []
    for i, span in enumerate(spans):
        lo, hi = span[START], span[END]
        covered = 0.0
        reach = lo
        for c in sorted(children[i], key=lambda j: spans[j][START]):
            a = max(spans[c][START], reach)
            b = min(spans[c][END], hi)
            if b > a:
                covered += b - a
                reach = b
        out.append((hi - lo) - covered)
    return out


def _empty() -> dict:
    return {"calls": 0, "self_s": 0.0, "counts": {}, "children": {}}


EMPTY = _empty()


def aggregate(spans: list) -> dict:
    """Per span name: calls, self seconds, summed counters, child-call counts.

    Counters named ``max_*`` keep their largest value instead of a sum.
    """
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for i, span in enumerate(spans):
        agg = out.setdefault(span[NAME], _empty())
        agg["calls"] += 1
        agg["self_s"] += selfs[i]
        for key, val in span[COUNTS].items():
            if key.startswith("max_"):
                agg["counts"][key] = max(agg["counts"].get(key, val), val)
            else:
                agg["counts"][key] = agg["counts"].get(key, 0) + val
        if span[PARENT] >= 0:
            kids = out.setdefault(spans[span[PARENT]][NAME], _empty())["children"]
            kids[span[NAME]] = kids.get(span[NAME], 0) + 1
    return out
