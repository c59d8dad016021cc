"""In-memory span recorder for the traced run.

Wrappers are installed at the names callers look up (a module attribute
or a class attribute) and removed again by `Tracer.uninstall`. A wrapper
records a span only inside a request opened with `Tracer.request`, so
work the benchmark does between requests (building inputs, checking
outputs) leaves no trace.

Spans are kept in flat arrays indexed by the order they were opened,
which is also the order of their start times, because the program is
single-threaded: a span's parent always has a smaller index.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from typing import Callable

NO_PARENT = -1
NO_TAG = -1
RAISED = "raised"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.tags: list = []
        self._tag_ids: dict = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.rid = array("i")      # index of the request's root span
        self.tag = array("i")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    # -- recording ------------------------------------------------------------

    def name_id(self, name: str) -> int | None:
        """The id spans store for `name`, or None if it was never wrapped."""
        return self._name_ids.get(name)

    def _intern_name(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _intern_tag(self, tag) -> int:
        if tag is None:
            return NO_TAG
        tid = self._tag_ids.get(tag)
        if tid is None:
            tid = self._tag_ids[tag] = len(self.tags)
            self.tags.append(tag)
        return tid

    def _open(self, nid: int) -> int:
        i = len(self.start)
        stack = self._stack
        if stack:
            parent = stack[-1]
            self.parent.append(parent)
            self.rid.append(self.rid[parent])
        else:
            self.parent.append(NO_PARENT)
            self.rid.append(i)
        self.name.append(nid)
        self.tag.append(NO_TAG)
        self.end.append(0.0)
        stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int, tag=None) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()
        if tag is not None:
            self.tag[i] = self._intern_tag(tag)

    @contextlib.contextmanager
    def request(self, name: str):
        """Root span of one scripted operation; names read `<phase>.<op>`."""
        if self._stack:
            raise RuntimeError("requests do not nest")
        i = self._open(self._intern_name(name))
        try:
            yield
        finally:
            self._close(i)

    # -- wrappers -------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str,
             tag: Callable | None = None, pre: Callable | None = None) -> None:
        """Record a span named `name` for each call of `owner.attr`.

        `pre(args)` runs before the call and its value reaches
        `tag(args, result, pre_value)`, whose return value is stored with
        the span (a string or a tuple of numbers).
        """
        original = getattr(owner, attr)
        nid = self._intern_name(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._stack:
                return original(*args, **kwargs)
            before = pre(args) if pre is not None else None
            i = tracer._open(nid)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer._close(i, RAISED)
                raise
            tracer._close(i, tag(args, result, before)
                          if tag is not None else None)
            return result

        self._install(owner, attr, original, traced)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of `owner.attr` inside requests, without spans.

        For hot leaf functions whose only metric is a call count.
        """
        original = getattr(owner, attr)
        counts = self.counts
        counts.setdefault(name, 0)
        stack = self._stack

        def counted(*args, **kwargs):
            if stack:
                counts[name] += 1
            return original(*args, **kwargs)

        self._install(owner, attr, original, counted)

    def _install(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def write_tsv(self, path) -> None:
        """All spans, one per line: index, parent, request, name, start,
        end (seconds), tag."""
        names, tags = self.names, self.tags
        with open(path, "w") as f:
            f.write("index\tparent\trequest\tname\tstart\tend\ttag\n")
            for i in range(len(self.start)):
                t = self.tag[i]
                f.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\t%s\n" % (
                    i, self.parent[i], self.rid[i], names[self.name[i]],
                    self.start[i], self.end[i], "" if t < 0 else tags[t]))


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval, and overlapping
    children count once. Spans must be indexed in order of start time.
    """
    n = len(start)
    covered = [0.0] * n
    reach = list(start)    # end of the covered prefix of each span so far
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


def has_ancestor(parent, name, wanted: set[int]) -> list[bool]:
    """Per span: whether some proper ancestor's name id is in `wanted`."""
    flags = [False] * len(parent)
    for i in range(len(parent)):
        p = parent[i]
        if p >= 0:
            flags[i] = flags[p] or name[p] in wanted
    return flags
