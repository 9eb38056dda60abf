"""In-process tracer for the layer-by-layer run of the benchmark.

The tracer replaces public functions of the ``mmwregime`` modules with
timing wrappers, from outside the package: every module attribute that is
bound to the original function object is rebound to the wrapper, so a name
is caught wherever callers look it up (``detector.blockage_probability``
and ``mcsim.blockage_probability`` are the same function bound in two
modules).

Two kinds of wrapper exist:

* span wrappers keep one record per call (name, start, end, parent span,
  thread id, request id) in memory;
* aggregate wrappers, for functions called 10^4 to 10^6 times per command
  (``numerics.integrate``), only add up calls, self time and inclusive
  time per call site and request in per-thread tables that are merged at
  the end.

Nothing here imports ``mmwregime``; the arithmetic helpers at the bottom
(interval union, self time, thread adoption, percentiles) are pure and are
exercised by ``perfbench/tests``.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

__all__ = [
    "Span",
    "Tracer",
    "adopt_thread_roots",
    "children_of",
    "self_time",
    "tail_rank",
    "union_length",
]


class Span(tuple):
    """(sid, name, start, end, parent, tid, request, note) as a light tuple."""

    __slots__ = ()
    sid = property(lambda s: s[0])
    name = property(lambda s: s[1])
    start = property(lambda s: s[2])
    end = property(lambda s: s[3])
    parent = property(lambda s: s[4])
    tid = property(lambda s: s[5])
    request = property(lambda s: s[6])
    note = property(lambda s: s[7])

    def __new__(cls, sid, name, start, end, parent, tid, request, note=None):
        return tuple.__new__(cls, (sid, name, start, end, parent, tid, request, note))

    @property
    def duration(self) -> float:
        return self.end - self.start


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []      # open span ids on this thread
        self.agg_stack = []  # child-time accumulators of open aggregate calls
        self.agg = None      # this thread's aggregate table, registered lazily


class Tracer:
    """Collects spans and aggregate counters from wrapped functions."""

    def __init__(self, skip_modules=()):
        self.spans: list[Span] = []
        self.request = None
        self._ids = itertools.count()
        self._local = _ThreadState()
        self._tables: list[dict] = []
        self._tables_lock = threading.Lock()
        # frames from these modules are skipped when naming a call site
        self._skip = frozenset(skip_modules) | {__name__}
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self, modules, original, wrapper) -> int:
        """Rebind every attribute of ``modules`` that is ``original``."""
        count = 0
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))
                    count += 1
        return count

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    # -- span wrappers ------------------------------------------------------

    def span_wrapper(self, name, fn, note=None):
        """Wrap fn so that each call leaves one Span; note(args, kwargs)
        may attach a small hashable description of the call."""
        local = self._local
        ids = self._ids
        spans = self.spans
        clock = time.perf_counter
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.stack
            parent = stack[-1] if stack else None
            sid = next(ids)
            request = self.request
            extra = note(args, kwargs) if note is not None else None
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(sid, name, start, end, parent, get_ident(),
                                  request, extra))

        return wrapper

    # -- aggregate wrappers -------------------------------------------------

    def _table(self) -> dict:
        local = self._local
        if local.agg is None:
            local.agg = defaultdict(lambda: [0, 0.0, 0.0])
            with self._tables_lock:
                self._tables.append(local.agg)
        return local.agg

    def _site(self, frame) -> str:
        skip = self._skip
        while frame is not None and frame.f_globals.get("__name__") in skip:
            frame = frame.f_back
        if frame is None:
            return "?"
        return f"{frame.f_globals.get('__name__')}.{frame.f_code.co_qualname}"

    def aggregate_wrapper(self, name, fn, by_site=False):
        """Wrap fn so that calls only add to (calls, self_s, inclusive_s)
        under (name, call site, request).  Self time excludes time spent in
        nested aggregate calls on the same thread."""
        local = self._local
        clock = time.perf_counter
        getframe = sys._getframe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            site = self._site(getframe(1)) if by_site else ""
            acc = local.agg_stack
            acc.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                inner = acc.pop()
                if acc:
                    acc[-1] += dur
                table = local.agg if local.agg is not None else self._table()
                row = table[(name, site, self.request)]
                row[0] += 1
                row[1] += dur - inner
                row[2] += dur

        return wrapper

    def aggregates(self) -> dict:
        """Per-thread tables merged into
        {(name, site, request): [calls, self_s, incl_s]}."""
        merged: dict = defaultdict(lambda: [0, 0.0, 0.0])
        with self._tables_lock:
            tables = list(self._tables)
        for table in tables:
            for key, (calls, self_s, incl_s) in list(table.items()):
                row = merged[key]
                row[0] += calls
                row[1] += self_s
                row[2] += incl_s
        return dict(merged)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def union_length(intervals, lo=float("-inf"), hi=float("inf")) -> float:
    """Length of the union of [start, end] intervals clipped to [lo, hi]."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(span, children) -> float:
    """A span's duration minus the part of it its children cover.

    Children from pool threads may overlap each other; the union counts
    the covered time once.
    """
    covered = union_length(((c.start, c.end) for c in children), span.start, span.end)
    return span.duration - covered


def adopt_thread_roots(spans, main_tid):
    """Give spans that opened with an empty stack on another thread the
    deepest main-thread span that encloses them in time as parent.

    Pool threads start with no open span, so the span that submitted the
    work is found by time: only the main thread submits work, and it stays
    inside the submitting call until the pool has finished.
    """
    main = [s for s in spans if s.tid == main_tid]
    by_id = {s.sid: s for s in main}

    def depth(s):
        d = 0
        while s.parent is not None and s.parent in by_id:
            s = by_id[s.parent]
            d += 1
        return d

    depths = {s.sid: depth(s) for s in main}
    out = []
    for s in spans:
        if s.tid != main_tid and s.parent is None:
            best = None
            for m in main:
                if m.start <= s.start and s.end <= m.end:
                    if best is None or depths[m.sid] > depths[best.sid]:
                        best = m
            if best is not None:
                s = Span(s.sid, s.name, s.start, s.end, best.sid, s.tid, s.request, s.note)
        out.append(s)
    return out


def children_of(spans) -> dict:
    """Map span id -> list of direct child spans."""
    kids: dict = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append(s)
    return kids


def tail_rank(n: int, beyond: int = 10):
    """Index (into n sorted samples) of the highest percentile that still
    has at least ``beyond`` samples above it, and that percentile; None
    when n is too small to have one."""
    idx = n - 1 - beyond
    if idx < 0:
        return None
    return idx, (100.0 * idx / (n - 1) if n > 1 else 100.0)
