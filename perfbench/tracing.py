"""In-memory span tracer that wraps module functions by rebinding attributes.

A wrapped function records one span per call made while an op is open:
``[name, start, end, parent, op]``, where ``parent`` is the index of the
enclosing span (-1 for the op's root span) and ``op`` is the op id. Spans
stay in memory and are written out once, by ``write``, after timing ends.
Calls made outside an op (set-up, output checks) run unrecorded.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module.attr`` under span ``name``.

    ``label`` may rename a call's span from its arguments; ``hook`` is called
    after the span ends with (tracer, args, kwargs, result) to record
    computed counts; ``alloc`` measures the call's peak traced allocation.
    """

    module: str
    attr: str
    name: str
    label: Callable | None = None
    hook: Callable | None = None
    alloc: bool = False


@dataclass
class SpanStats:
    durations: list = field(default_factory=list)   # seconds, per call
    self_total: float = 0.0                         # seconds, summed

    @property
    def calls(self) -> int:
        return len(self.durations)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.samples: dict[str, list] = defaultdict(list)
        self.absent: list[str] = []
        self.op_id: int | None = None
        self.op_tag = ""
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def add(self, name: str, value) -> None:
        """Record one computed value (a count, a size, a seed) under ``name``."""
        self.samples[name].append(value)

    @contextmanager
    def op(self, op_id: int, tag: str = ""):
        """Open an op: the root span every wrapped call inside it hangs from."""
        self.op_id, self.op_tag = op_id, tag
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx] = ["op", t0, time.perf_counter(), -1, op_id]
            self._stack.pop()
            self.op_id, self.op_tag = None, ""

    def _wrap(self, target: Target, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            name = target.name if target.label is None else target.label(tracer, args, kwargs)
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1]
            tracer._stack.append(idx)
            if target.alloc:
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                if target.alloc:
                    tracer.add(name + ".peak_alloc", tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                tracer._stack.pop()
                tracer.spans[idx] = [name, t0, t1, parent, tracer.op_id]
            if target.hook is not None:
                target.hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self, targets, package: str = "uacal") -> None:
        """Wrap every target and rebind each name that refers to it.

        Every loaded module of ``package`` is searched, so names bound by
        ``from ... import`` see the wrapper too. A target missing from its
        module is listed in ``absent`` and skipped.
        """
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for t in targets:
            home = sys.modules.get(f"{package}.{t.module}")
            fn = getattr(home, t.attr, None)
            if fn is None:
                self.absent.append(t.name)
                continue
            wrapper = self._wrap(t, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    def stats(self) -> dict[str, SpanStats]:
        """Per span name: call durations and total self time.

        Self time is a span's duration minus its direct children's; spans
        nest strictly because the benchmark runs on one thread.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, SpanStats] = defaultdict(SpanStats)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            s = out[name]
            s.durations.append(t1 - t0)
            s.self_total += (t1 - t0) - child[i]
        return out

    def write(self, path) -> None:
        """Write spans as JSON lines, times in seconds from the first span."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": round(t0 - base, 9),
                                     "end": round(t1 - base, 9),
                                     "parent": parent, "op": op}) + "\n")
