"""Outside-in span tracer for the traced pass of the benchmark.

The program has no tracing of its own, so the traced pass wraps the
public entry points of each layer *at the sites where they are called*
and records one span per call: ``(name, start, end, parent, args)``.
A function imported with ``from X import f`` is a separate binding in
every importing module, so each binding is patched where it is used;
methods are patched on the class that defines them.

Spans stay in memory (a flat list, parents by index) and are written
out once, as Chrome trace-event JSON, after the workload finishes.
:meth:`Tracer.self_times` gives each span's duration minus the part its
direct children cover, which is the per-layer self time.  The timed
pass never installs a tracer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    """One recorded call of a traced entry point."""

    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    args: Optional[Dict[str, Any]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


#: ``annotate(args, kwargs, result) -> dict`` attaches cheap references
#: to a span at exit; anything costly is derived after the run.
Annotate = Callable[[tuple, dict, Any], Dict[str, Any]]


@dataclass(frozen=True)
class Site:
    """One traced entry point: ``owner.attr`` recorded as span ``name``.

    ``owner`` is a dotted module path, or ``module:Class`` for a method.
    ``outermost`` records only calls that are not nested inside another
    call of the same span name (recursive entry points).
    """

    owner: str
    attr: str
    name: str
    outermost: bool = False
    annotate: Optional[Annotate] = None


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Installs span-recording wrappers and keeps the spans they record."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._depth: Dict[str, int] = {}
        self._patched: List[Tuple[object, str, bool, Any]] = []

    # -- recording -----------------------------------------------------
    def _wrap(self, fn: Callable, site: Site) -> Callable:
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter

        # updated=(): some sites are classes, whose __dict__ must not be
        # copied onto the wrapper function.
        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            if site.outermost and depth.get(site.name, 0):
                return fn(*args, **kwargs)
            depth[site.name] = depth.get(site.name, 0) + 1
            span = Span(site.name, clock(),
                        parent=stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                depth[site.name] -= 1
            if site.annotate is not None:
                span.args = site.annotate(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def region(self, name: str) -> Iterator[Span]:
        """Record the benchmark's own span around a block (the root)."""
        span = Span(name, time.perf_counter(),
                    parent=self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def install(self, sites: List[Site]) -> None:
        """Patch every site; :meth:`uninstall` restores the originals."""
        for site in sites:
            owner = _resolve(site.owner)
            own = site.attr in vars(owner)
            raw = vars(owner)[site.attr] if own else getattr(owner, site.attr)
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(raw.__func__, site))
            else:
                patched = self._wrap(raw, site)
            self._patched.append((owner, site.attr, own, raw))
            setattr(owner, site.attr, patched)

    def uninstall(self) -> None:
        for owner, attr, own, raw in reversed(self._patched):
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self._patched.clear()

    # -- analysis ------------------------------------------------------
    def self_times(self) -> List[float]:
        """Per span: duration minus the time its direct children cover.

        Spans nest properly (one thread, wrappers close in LIFO order),
        so the covered part is the sum of the children's durations.
        """
        out = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                out[span.parent] -= span.duration
        return out

    def write_chrome(self, path: Path, process_name: str) -> None:
        """Write the spans as Chrome trace-event JSON (Perfetto opens it)."""
        origin = self.spans[0].start if self.spans else 0.0
        events: List[dict] = [{"name": "process_name", "ph": "M", "pid": 1,
                               "tid": 1, "args": {"name": process_name}}]
        for index, span in enumerate(self.spans):
            event = {"name": span.name, "ph": "X", "pid": 1, "tid": 1,
                     "ts": (span.start - origin) * 1e6,
                     "dur": span.duration * 1e6,
                     "args": {"span": index, "parent": span.parent}}
            for key in ("request_id", "request_ids"):
                if span.args and key in span.args:
                    event["args"][key] = span.args[key]
            events.append(event)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))
