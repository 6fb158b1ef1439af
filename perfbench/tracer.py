"""Call tracing from outside the program.

A :class:`Tracer` rebinds module-level names that callers look up at
call time (for example ``poismoe.sem.coordinate_descent_alphas``), so
each call into a layer opens a span without any change to the package.
Spans are aggregated in memory per (name, root), where the root is the
outermost open span when the call began; a layer's self time is its
duration minus the time covered by its child spans.
"""
from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

_clock = time.perf_counter


@dataclass
class Frame:
    name: str
    root: str
    start: float
    child_s: float = 0.0
    # counts of every span name at entry, for per-call deltas
    calls_at_entry: dict[str, int] = field(default_factory=dict)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


Observer = Callable[[Frame, tuple, dict, Any, BaseException | None], None]


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[tuple[str, str], SpanStats] = defaultdict(SpanStats)
        self.calls: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack: list[Frame] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, name: str | Callable[..., str],
             observe: Observer | None = None, snapshot: bool = False) -> None:
        """Replace ``owner.attr`` by a traced version of the same function.

        ``name`` may be a callable of the call's arguments. ``observe``
        sees the finished frame, the arguments, the result and any
        exception; with ``snapshot`` the frame carries the call counts
        at entry so the observer can take per-call deltas.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            span = name(*args, **kwargs) if callable(name) else name
            frame = tracer._enter(span, snapshot)
            result = error = None
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                tracer._exit(frame)
                if observe is not None:
                    observe(frame, args, kwargs, result, error)

        traced.__wrapped__ = original
        self._restore.append((owner, attr, original))
        setattr(owner, attr, traced)

    def unwrap_all(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _enter(self, name: str, snapshot: bool) -> Frame:
        self.calls[name] += 1
        root = self._stack[0].name if self._stack else name
        frame = Frame(name=name, root=root, start=0.0,
                      calls_at_entry=dict(self.calls) if snapshot else {})
        self._stack.append(frame)
        frame.start = _clock()
        return frame

    def _exit(self, frame: Frame) -> None:
        duration = _clock() - frame.start
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += duration
        stats = self.stats[(frame.name, frame.root)]
        stats.calls += 1
        stats.total_s += duration
        stats.self_s += duration - frame.child_s

    def delta(self, frame: Frame, name: str) -> int:
        return self.calls[name] - frame.calls_at_entry.get(name, 0)

    def total(self, name: str, root: str | None = None) -> SpanStats:
        """Sum of a span's stats, over every root or under one root."""
        out = SpanStats()
        for (span, span_root), stats in self.stats.items():
            if span == name and (root is None or span_root == root):
                out.calls += stats.calls
                out.total_s += stats.total_s
                out.self_s += stats.self_s
        return out

    def as_rows(self) -> list[dict]:
        return [{"name": span, "root": root, "calls": s.calls,
                 "total_s": s.total_s, "self_s": s.self_s}
                for (span, root), s in sorted(self.stats.items())]
