"""An in-memory span recorder that wraps functions from the outside.

The traced benchmark run replaces the public entry points of each
``repro`` layer with wrappers that record one span per call: name,
start, end, parent span and pass id. Spans stay in memory and are written
out when the benchmark ends, as Chrome trace-event JSON (opens in
Perfetto or ``chrome://tracing``) and as a flat table of per-layer self
time. Nothing inside the library changes; :func:`remove` puts every
patched attribute back exactly as it was found.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Id of the innermost open span in the current context.
_CURRENT: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "perfbench_span", default=None
)

#: ``hook(recorder, args, kwargs, result)`` runs after a wrapped call returns,
#: outside its span, to record counts the return value carries.
Hook = Callable[["Recorder", tuple, dict, Any], None]


@dataclass(frozen=True)
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    pass_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class LayerStats:
    """One layer's totals within a pass."""

    self_s: float
    total_s: float
    calls: int


class Recorder:
    """Collects spans and per-pass counters in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.pass_id = 0
        self._ids = itertools.count()
        # Distributed workers may be forked from the traced process and
        # inherit the wrappers; their spans could never reach this list.
        self._pid = os.getpid()

    def add(self, name: str, value: float) -> None:
        self.counters[self.pass_id][name] += value

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the body of a ``with`` block as one span."""
        parent = _CURRENT.get()
        span_id = next(self._ids)
        token = _CURRENT.set(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            _CURRENT.reset(token)
            self.spans.append(Span(span_id, parent, name, start, end, self.pass_id))

    def wrap(self, fn: Callable, name: str, hook: Optional[Hook] = None) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""

        # functools.wraps keeps __module__/__qualname__, so a wrapped
        # function still pickles by reference (the process pool ships
        # ``execute_work_unit`` that way).
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def pass_spans(self, pass_id: int) -> List[Span]:
        return [s for s in self.spans if s.pass_id == pass_id]


# ---------------------------------------------------------------------------
# Installing and removing wrappers
# ---------------------------------------------------------------------------

#: ``(owner, attribute, span name, hook)``: the owner is a module or a class.
Target = Tuple[Any, str, str, Optional[Hook]]
#: ``(owner, attribute, original value)`` as found before patching.
Patch = Tuple[Any, str, Any]


def install(recorder: Recorder, targets: Iterable[Target]) -> List[Patch]:
    """Wrap every target; returns what :func:`remove` needs to undo it.

    A class target must define the attribute itself rather than inherit
    it, so that restoring never leaves a copy behind in a subclass.
    """
    patches: List[Patch] = []
    try:
        for owner, attr, name, hook in targets:
            if isinstance(owner, type):
                if attr not in vars(owner):
                    raise AttributeError(f"{owner.__qualname__} does not define {attr}")
                original = vars(owner)[attr]
            else:
                original = getattr(owner, attr)
            setattr(owner, attr, recorder.wrap(original, name, hook))
            patches.append((owner, attr, original))
    except BaseException:
        remove(patches)
        raise
    return patches


def remove(patches: List[Patch]) -> None:
    """Restore every patched attribute, newest first."""
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Self time, per-layer totals, Chrome trace export
# ---------------------------------------------------------------------------


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its child spans cover.

    Children that overlap each other are counted once, and only the part
    of a child inside its parent's interval counts.
    """
    spans = list(spans)
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        edge = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo = max(child.start, edge)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[span.id] = span.duration - covered
    return out


def layer_stats(spans: Iterable[Span]) -> Dict[str, LayerStats]:
    """Self time, total time and call count per span name."""
    spans = list(spans)
    own = self_times(spans)
    self_s: Dict[str, float] = defaultdict(float)
    total_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for span in spans:
        self_s[span.name] += own[span.id]
        total_s[span.name] += span.duration
        calls[span.name] += 1
    return {name: LayerStats(self_s[name], total_s[name], calls[name]) for name in calls}


def write_chrome_trace(path: str, spans: Iterable[Span], metadata: Dict) -> None:
    """Write Chrome trace-event JSON: one complete ("X") event per span."""
    spans = sorted(spans, key=lambda s: s.start)
    origin = spans[0].start if spans else 0.0
    pid = os.getpid()
    events = [
        {
            "name": span.name,
            "cat": span.name.split(".")[0],
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": span.duration * 1e6,
            "pid": pid,
            "tid": 0,
            "args": {"span": span.id, "parent": span.parent, "pass": span.pass_id},
        }
        for span in spans
    ]
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata}, handle)
