"""In-memory span recording and the self-time arithmetic over it.

A :class:`Recorder` keeps one stack of open spans per thread.  A span's
parent is the span open below it on the same thread; its request id is
the one it was opened with, else its parent's, else the thread's ambient
id (the serving tier binds one on its worker threads).  Spans of one
request on different threads are joined by that id.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional


class Span:
    __slots__ = ("name", "start", "end", "thread", "rid", "parent", "meta")

    def __init__(
        self,
        name: str,
        start: float,
        end: float = 0.0,
        thread: int = 0,
        rid: Optional[str] = None,
        parent: Optional["Span"] = None,
    ) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.thread = thread
        self.rid = rid
        self.parent = parent
        self.meta: dict = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects closed spans; ``ambient_rid`` names the thread's request."""

    def __init__(self, ambient_rid: Callable[[], Optional[str]] = lambda: None):
        self.spans: List[Span] = []
        self._local = threading.local()
        self._ambient_rid = ambient_rid

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def top(self) -> Optional[Span]:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def open(self, name: str, rid: Optional[str] = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None:
            rid = parent.rid if parent is not None else self._ambient_rid()
        span = Span(name, 0.0, thread=threading.get_ident(), rid=rid,
                    parent=parent)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, rid: Optional[str] = None) -> Iterator[Span]:
        sp = self.open(name, rid)
        try:
            yield sp
        finally:
            self.close(sp)

    def bind_rid(self, rid: str) -> None:
        """Give ``rid`` to every open span of this thread that has none."""
        for sp in self._stack():
            if sp.rid is None:
                sp.rid = rid

    def add(self, name: str, start: float, end: float) -> Span:
        """Record a finished span under this thread's open span."""
        parent = self.top()
        span = Span(name, start, end, threading.get_ident(),
                    parent.rid if parent is not None else self._ambient_rid(),
                    parent)
        self.spans.append(span)
        return span

    def drain(self) -> List[Span]:
        spans, self.spans = self.spans, []
        return spans


def union_length(intervals: Iterable[tuple], lo: float, hi: float) -> float:
    """Length of the union of ``(start, end)`` intervals clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(
        (max(s, lo), min(e, hi)) for s, e in intervals if e > lo and s < hi
    ):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_index(spans: Iterable[Span]) -> Dict[int, List[Span]]:
    index: Dict[int, List[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            index.setdefault(id(sp.parent), []).append(sp)
    return index


def self_time(span: Span, children: Dict[int, List[Span]]) -> float:
    """The span's duration minus the part its child spans cover."""
    kids = children.get(id(span), ())
    return span.seconds - union_length(
        ((k.start, k.end) for k in kids), span.start, span.end
    )


def by_rid(spans: Iterable[Span]) -> Dict[str, List[Span]]:
    index: Dict[str, List[Span]] = {}
    for sp in spans:
        if sp.rid is not None:
            index.setdefault(sp.rid, []).append(sp)
    return index


def covered(op: Span, same_rid: Iterable[Span]) -> float:
    """Seconds of ``op`` covered by the other spans of its request,
    on any thread."""
    return union_length(
        ((s.start, s.end) for s in same_rid if s is not op), op.start, op.end
    )


def gap(
    rid_spans: Iterable[Span], outer: str, inner: str
) -> Optional[float]:
    """Total ``outer`` time minus total ``inner`` time of one request;
    None unless the request has both (they may sit on different
    threads)."""
    outer_s = inner_s = 0.0
    seen_outer = seen_inner = False
    for sp in rid_spans:
        if sp.name == outer:
            outer_s += sp.seconds
            seen_outer = True
        elif sp.name == inner:
            inner_s += sp.seconds
            seen_inner = True
    if not (seen_outer and seen_inner):
        return None
    return outer_s - inner_s
