"""Spans around calls into the package's public functions, recorded from
outside the package by replacing module and class attributes.

Each span records its name, a tag (the bound id for ``eval_bound_hp``),
start and end (``perf_counter_ns``), its parent span and the id of the
operation it belongs to: a span with no parent starts an operation, and all
spans below it share that operation's id.  Spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import time
from collections import defaultdict
from pathlib import Path

#: (module attribute path, span name) of every traced boundary.
BOUNDARIES = (
    ("cli", "main"),
    ("oracle", "sweep"),
    ("oracle", "dominance_report"),
    ("oracle", "oracle_arctan"),
    ("catalog", "eval_bound_hp"),
    ("catalog", "eval_bound"),
    ("catalog", "enclosure"),
    ("catalog", "best_enclosure"),
    ("fixedpoint", "FixedReal.atan"),
    ("fixedpoint", "FixedReal.log"),
    ("kernel", "approx"),
    ("kernel", "error_profile"),
    ("family", "find_interior_minimum"),
    ("family", "stationarity_gap"),
)


class Span:
    __slots__ = ("id", "parent", "op", "name", "tag", "start", "end", "ok")

    def __init__(self, id, parent, op, name, tag, start):
        self.id, self.parent, self.op = id, parent, op
        self.name, self.tag, self.start = name, tag, start
        self.end, self.ok = start, True

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._paused = False

    def install(self, pkg) -> None:
        for module, attr in BOUNDARIES:
            owner = getattr(pkg, module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            self._wrap(owner, leaf, f"{module}.{attr}")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Calls made by the benchmark's own checks leave no spans."""
        previous, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = previous

    def _wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        tagged = name == "catalog.eval_bound_hp"     # tag: the bound id
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if self._paused:
                return original(*args, **kwargs)
            stack = self._stack
            parent = stack[-1] if stack else None
            span = Span(len(self.spans), parent.id if parent else None,
                        parent.op if parent else len(self.spans), name,
                        args[0].value if tagged else "", 0)
            self.spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                return original(*args, **kwargs)
            except BaseException:
                span.ok = False
                raise
            finally:
                span.end = clock()
                stack.pop()

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("id,parent,op,name,tag,start_ns,end_ns,ok\n")
            for s in self.spans:
                parent = "" if s.parent is None else s.parent
                out.write(f"{s.id},{parent},{s.op},{s.name},{s.tag},"
                          f"{s.start},{s.end},{int(s.ok)}\n")


class SpanIndex:
    """Aggregates over recorded spans: totals, self time and child counts."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        self.child_ns: dict[int, int] = defaultdict(int)
        for s in spans:
            self.by_name[s.name].append(s)
            if s.parent is not None:
                self.child_ns[s.parent] += s.duration

    def count(self, name: str) -> int:
        return len(self.by_name[name])

    def total_s(self, name: str) -> float:
        return sum(s.duration for s in self.by_name[name]) / 1e9

    def mean_us(self, name: str, tag: str = None) -> float:
        spans = [s for s in self.by_name[name] if tag is None or s.tag == tag]
        return sum(s.duration for s in spans) / len(spans) / 1e3 if spans else 0.0

    def self_s(self, name: str) -> float:
        return sum(s.duration - self.child_ns[s.id] for s in self.by_name[name]) / 1e9

    def children_of(self, parent_name: str, child_name: str) -> int:
        parents = {s.id for s in self.by_name[parent_name]}
        return sum(1 for s in self.by_name[child_name] if s.parent in parents)

    def errors(self, name: str) -> int:
        return sum(1 for s in self.by_name[name] if not s.ok)
