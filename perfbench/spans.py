"""In-memory span recording for the traced benchmark run.

A span is (name, parent span, start, end).  Spans are appended to flat
arrays while the traced pass runs and reduced to per-name totals once, at
the end, by ``self_times``.  Nothing is written while the program runs.

Functions are traced from outside the program: ``Tracer.install`` rebinds a
public function both where it is defined and in every ``symptok`` module
that imported it by name, and ``Tracer.uninstall`` puts the originals back.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

ROOT = -1
BOOKKEEPING = "trace.bookkeeping"


def self_times(names: Sequence[int], parents: Sequence[int],
               starts: Sequence[float], ends: Sequence[float]
               ) -> Dict[int, Tuple[int, float, float]]:
    """Per name id: (span count, self seconds, total seconds).

    A span's self time is its duration minus the time covered by its child
    spans.  Spans of one thread nest, so children never overlap and the
    covered time is the sum of their durations.
    """
    covered = [0.0] * len(names)
    for i, p in enumerate(parents):
        if p != ROOT:
            covered[p] += ends[i] - starts[i]
    out: Dict[int, List] = {}
    for i, nid in enumerate(names):
        dur = ends[i] - starts[i]
        acc = out.setdefault(nid, [0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += dur - covered[i]
        acc[2] += dur
    return {nid: tuple(v) for nid, v in out.items()}


class Tracer:
    """Records spans around wrapped calls; one per process, one thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [ROOT]
        self.counters: Dict[str, int] = defaultdict(int)
        self.distinct: Dict[str, set] = defaultdict(set)
        self._restore: List[Tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self.stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start[i] = self.clock()
        return i

    def _close(self, i: int) -> None:
        self.end[i] = self.clock()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a block."""
        i = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(i)

    def wrap_call(self, name: str, fn: Callable,
                  count: Optional[Tuple[str, Callable[[object, tuple], int]]] = None,
                  distinct: bool = False) -> Callable:
        """Span per call.  ``count = (stat, f)`` adds ``f(result, args)`` to
        the counter ``<name>.<stat>``; ``distinct`` hashes each result.  Both
        run in a bookkeeping span of their own, so they are nobody's self
        time."""
        nid = self.name_id(name)
        book = self.name_id(BOOKKEEPING)
        counters, seen = self.counters, self.distinct[name]
        if count is not None:
            count_key, count_of = f"{name}.{count[0]}", count[1]

        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                res = fn(*args, **kwargs)
            finally:
                self._close(i)
            if count is not None or distinct:
                j = self._open(book)
                if count is not None:
                    counters[count_key] += count_of(res, args)
                if distinct:
                    seen.add(hash(res))
                self._close(j)
            return res

        traced.__wrapped__ = fn
        return traced

    def wrap_gen(self, name: str, fn: Callable) -> Callable:
        """Span per ``next()`` of the returned iterator; counts objects."""
        nid = self.name_id(name)
        key = name + ".objects"
        tracer = self

        class Traced:
            __slots__ = ("it",)

            def __init__(self, it):
                self.it = it

            def __iter__(self):
                return self

            def __next__(self):
                i = tracer._open(nid)
                try:
                    item = next(self.it)
                finally:
                    tracer._close(i)
                tracer.counters[key] += 1
                return item

        def traced(*args, **kwargs):
            return Traced(fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    def install(self, module: str, attr: str, wrapper_of: Callable[[Callable], Callable]) -> None:
        """Rebind ``module.attr`` (``attr`` may be ``Class.method``) to
        ``wrapper_of(original)`` wherever the original object is bound."""
        owner = sys.modules[module]
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            scopes: Iterable = [owner]
        else:
            scopes = [m for n, m in list(sys.modules.items())
                      if n == "symptok" or n.startswith("symptok.")]
        original = vars(owner)[attr]
        wrapped = wrapper_of(original)
        for scope in scopes:
            for key, value in list(vars(scope).items()):
                if value is original:
                    self._restore.append((scope, key, original))
                    setattr(scope, key, wrapped)

    def uninstall(self) -> None:
        for scope, key, original in reversed(self._restore):
            setattr(scope, key, original)
        self._restore.clear()

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """Per span name: (span count, self seconds, total seconds)."""
        per_id = self_times(self.span_name, self.parent, self.start, self.end)
        return {self.names[nid]: v for nid, v in per_id.items()}

