"""In-memory spans and per-cell counters around gridgaps' public functions.

Nothing under ``src/`` is changed: while a ``Tracer`` is installed it
replaces every binding of each traced function (module attributes,
tuples such as ``ALL_IDENTITIES`` and class attributes) with a timing
wrapper, and puts the originals back when it is removed.

Coarse calls (the command, ``dvo.load``, ``shapes.generate``, ``census``
and each identity) get one span each: name, start, end and parent span.
Per-cell calls run hundreds of thousands of times, so they get a counter
per parent span instead: calls, summed seconds and truthy results. A
per-cell call made inside another per-cell call is not recorded on its
own; its time is part of the outer call's.

A function that no longer exists is recorded as missing, not an error, so
the traced run survives refactors that remove one.
"""

from __future__ import annotations

import importlib
import os
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

COMMAND = "cli.main"

#: (layer name, module, attribute path) of the functions traced with a span
SPANS = (
    (COMMAND, "gridgaps.cli", "main"),
    ("dvo.load", "gridgaps.dvo", "load"),
    ("shapes.generate", "gridgaps.shapes", "generate"),
    ("objects.census", "gridgaps.objects", "census"),
)

#: functions called once per cell, traced with a counter
PER_CELL = (
    ("gaps.is_gap", "gridgaps.gaps", "is_gap"),
    ("gaps.classify_cell", "gridgaps.gaps", "classify_cell"),
    ("gaps.is_gap_by_adjacency", "gridgaps.gaps", "is_gap_by_adjacency"),
    ("objects.b_boundary", "gridgaps.objects", "CellCensus.b_boundary"),
    ("cells.faces", "gridgaps.cells", "faces"),
)

IDENTITIES = ("gridgaps.identities", "ALL_IDENTITIES")


def _census_counts(args: tuple, result: Any) -> dict[str, int]:
    obj = args[0]
    return {
        "objects.cells": sum(result.c),
        "objects.free_cells": sum(result.c_star),
        "objects.closure_faces": len(obj) * 3**obj.n,
    }


def _checked_hook(name: str) -> Callable[[tuple, Any], dict[str, int]]:
    return lambda args, result: {name + "_checked": result.checked}


#: counts read off a traced call's arguments and result
_HOOKS: dict[str, Callable[[tuple, Any], dict[str, int]]] = {
    "dvo.load": lambda args, result: {"dvo.load_bytes": os.path.getsize(args[0])},
    "objects.census": _census_counts,
}


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)


@dataclass
class Counter:
    calls: int = 0
    seconds: float = 0.0
    hits: int = 0


def _resolve(module: str, path: str) -> tuple[Any, str, Any] | None:
    """(owner, attribute, function) for a dotted path, or None if gone."""
    try:
        owner: Any = importlib.import_module(module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    fn = getattr(owner, attr, None)
    return None if fn is None else (owner, attr, fn)


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[tuple[int | None, str], Counter] = {}
        self.missing: set[str] = set()
        self._open: int | None = None
        self._in_cell = False
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _span(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            if self._in_cell:
                return fn(*args, **kwargs)
            span = Span(name, self._open)
            self.spans.append(span)
            self._open, outer = len(self.spans) - 1, self._open
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._open = outer
            if hook is not None:
                try:
                    span.counts.update(hook(args, result))
                except (AttributeError, TypeError, IndexError, OSError):
                    pass  # the API changed shape; the counts stay missing
            return result

        return traced

    def _counter(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            if self._in_cell:
                return fn(*args, **kwargs)
            self._in_cell = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._in_cell = False
            rec = self.counters.get((self._open, name))
            if rec is None:
                rec = self.counters[(self._open, name)] = Counter()
            rec.calls += 1
            rec.seconds += elapsed
            if result is True:
                rec.hits += 1
            return result

        return traced

    def root(self, name: str) -> int:
        """Open a root span by hand (for set-up); close it with ``close``."""
        self.spans.append(Span(name, None, start=perf_counter()))
        self._open = len(self.spans) - 1
        return self._open

    def close(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        self._open = self.spans[index].parent

    # -- installing --------------------------------------------------------

    def _replace(self, original: Any, wrapper: Callable) -> None:
        """Point every gridgaps binding of ``original`` at ``wrapper``."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "gridgaps" and not mod_name.startswith("gridgaps."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    replacement = wrapper
                elif isinstance(value, tuple) and any(v is original for v in value):
                    replacement = tuple(wrapper if v is original else v for v in value)
                else:
                    continue
                self._undo.append((module, attr, value))
                setattr(module, attr, replacement)

    def install(self) -> None:
        for target in SPANS + PER_CELL:
            name, module, path = target
            found = _resolve(module, path)
            if found is None:
                self.missing.add(name)
                continue
            owner, attr, fn = found
            if target in PER_CELL:
                wrapper = self._counter(name, fn)
            else:
                wrapper = self._span(name, fn, _HOOKS.get(name))
            if isinstance(owner, type):
                self._undo.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
            else:
                self._replace(fn, wrapper)
        found = _resolve(*IDENTITIES)
        if found is None:
            self.missing.add("identities")
            return
        for identity in found[2]:
            name = "identities." + identity.__name__
            self._replace(identity, self._span(name, identity, _checked_hook(name)))

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reading -----------------------------------------------------------

    def _root_of(self, index: int) -> int:
        while self.spans[index].parent is not None:
            index = self.spans[index].parent
        return index

    def totals(self, roots: set[int]) -> dict[str, float]:
        """Summed seconds, calls and counts of everything under ``roots``."""
        inside = {i for i in range(len(self.spans)) if self._root_of(i) in roots}
        out: dict[str, float] = {}

        def add(key: str, value: float) -> None:
            out[key] = out.get(key, 0) + value

        for i in inside:
            span = self.spans[i]
            add(span.name + "_s", span.end - span.start)
            add(span.name + "_calls", 1)
            for key, value in span.counts.items():
                add(key, value)
        for (parent, name), rec in self.counters.items():
            if parent in inside:
                add(name + "_s", rec.seconds)
                add(name + "_calls", rec.calls)
                add(name + "_hits", rec.hits)
        return out

    def self_seconds(self, index: int) -> float:
        """A span's duration minus its direct child spans and counters."""
        span = self.spans[index]
        children = sum(s.end - s.start for s in self.spans if s.parent == index)
        children += sum(r.seconds for (p, _), r in self.counters.items() if p == index)
        return span.end - span.start - children
