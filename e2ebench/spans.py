"""Span recorder that wraps library entry points from outside the library.

The recorder never edits ``src/``: :meth:`Tracer.wrap` replaces one
attribute (a module function or a class method) with a timing wrapper and
:meth:`Tracer.close` puts every original back.  Each call of a wrapped
entry point becomes one span — its name, layer, start, end, parent span and
thread — kept in memory until the run writes them out.  A span's parent is
the innermost open span of the same thread, so the engine passes that the
serving layer runs on its flush threads are roots of their own.

Work counts ride along: a wrapper may take an ``on_return`` hook that reads
what the public call already returned (an operating point, a search result)
and adds it to :attr:`Tracer.counts`.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable


def span_name(owner: Any, attr: str) -> str:
    """Return the span name of ``owner.attr``: its dotted import path."""
    if isinstance(owner, type):
        return f"{owner.__module__}.{owner.__qualname__}.{attr}"
    return f"{owner.__name__}.{attr}"


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def add(self, key: str, value: float) -> None:
        """Add ``value`` to counter ``key`` (hooks run on several threads)."""
        with self._lock:
            self.counts[key] += value

    def peak(self, key: str, value: float) -> None:
        """Keep the maximum of counter ``key`` and ``value``."""
        with self._lock:
            self.counts[key] = max(self.counts[key], value)

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        on_return: Callable[["Tracer", tuple, dict, Any, float], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper recording one span per call.

        ``owner`` is the object the caller looks the attribute up through: the
        module whose global the library code calls, or the class whose method
        it calls.  ``on_return(tracer, args, kwargs, result, seconds)`` runs
        after the span closes, so its own cost stays out of the span.
        """
        original = owner.__dict__[attr]
        name = span_name(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            with tracer._lock:
                index = len(tracer.spans)
                parent = stack[-1] if stack else -1
                tracer.spans.append([name, layer, 0.0, 0.0, parent, threading.get_ident()])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = tracer.spans[index]
                span[2] = start
                span[3] = end
            if on_return is not None:
                on_return(tracer, args, kwargs, result, end - start)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def close(self) -> None:
        """Restore every wrapped attribute (the tracer keeps its spans)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #
    def layer_times(self) -> dict[str, dict[str, float]]:
        """Return ``{layer: {"busy_s", "self_s", "calls"}}`` over all spans.

        Busy time sums the spans that have no ancestor of the same layer, so
        a layer calling into itself is not counted twice; spans on different
        threads add up (busy time is thread time, not wall time).  Self time
        is each span's duration minus its children's.
        """
        child_time = [0.0] * len(self.spans)
        for name, layer, start, end, parent, thread in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"busy_s": 0.0, "self_s": 0.0, "calls": 0}
        )
        for index, (name, layer, start, end, parent, thread) in enumerate(self.spans):
            entry = out[layer]
            entry["calls"] += 1
            entry["self_s"] += end - start - child_time[index]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][1] != layer:
                ancestor = self.spans[ancestor][4]
            if ancestor < 0:
                entry["busy_s"] += end - start
        return dict(out)

    def name_times(self) -> dict[str, tuple[int, float]]:
        """Return ``{span name: (calls, summed duration)}``."""
        out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
        for name, layer, start, end, parent, thread in self.spans:
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
        return {name: (int(calls), total) for name, (calls, total) in out.items()}

    def durations(self, name: str) -> list[tuple[float, float, int, int]]:
        """Return ``(start, end, parent, thread)`` of every span called ``name``."""
        return [
            (start, end, parent, thread)
            for label, layer, start, end, parent, thread in self.spans
            if label == name
        ]

    def records(self) -> list[dict[str, Any]]:
        """Return the spans as JSON-ready dicts (times relative to the first)."""
        origin = min((span[2] for span in self.spans), default=0.0)
        return [
            {
                "name": name,
                "layer": layer,
                "start": round(start - origin, 9),
                "end": round(end - origin, 9),
                "parent": parent,
                "thread": thread,
            }
            for name, layer, start, end, parent, thread in self.spans
        ]
