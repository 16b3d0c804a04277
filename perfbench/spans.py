"""Benchmark-side spans around the program's layer entry points.

The traced run wraps class and module attributes of the program from
here, never from inside it: each wrapper opens a span, calls the
original, and on return charges the span's duration minus its
children's to the span's name.  Spans nest per thread, so self time is
exact for every wrapped call and the wrappers' own cost shows up as
``trace_overhead`` and in the parent spans' self time.

Hot spans (engine, kernel executor, memory accesses) fire ~10^5 times
per point, so they are folded into per-point ``[count, self_s,
total_s]`` aggregates as they close.  Coarse spans (point, session,
calibration, transmit, runner, service calls) are also kept as records
(id, parent id, point id, thread, name, start, end, self) and written
out when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict

_perf = time.perf_counter


class SpanRecorder:
    """Per-thread span stacks plus per-point self-time aggregates."""

    def __init__(self, hot: frozenset[str]):
        self.hot = hot
        self.records: list[tuple] = []
        #: point id -> span name -> [count, self_s, total_s]
        self.points: dict[str, dict[str, list]] = defaultdict(
            lambda: defaultdict(lambda: [0, 0.0, 0.0])
        )
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _state(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.point = "-"
        return local, stack

    def add(self, name: str, amount: int) -> None:
        """Add *amount* to the count of *name* on this thread's point."""
        local, _stack = self._state()
        self.points[local.point][name][0] += amount

    def wrap(self, name: str, fn, new_point: bool = False):
        """A callable that runs *fn* inside a span called *name*.

        With *new_point*, each call starts a new point id, which the
        span and everything beneath it on this thread are charged to.
        """
        hot = name in self.hot
        recorder = self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            local, stack = recorder._state()
            parent = stack[-1][1] if stack else 0
            # A hot span gets no record or id of its own.
            frame = [0.0, parent if hot else next(recorder._ids)]
            if new_point:
                outer, local.point = local.point, f"{name}-{frame[1]}"
            stack.append(frame)
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                own = duration - frame[0]
                agg = recorder.points[local.point][name]
                agg[0] += 1
                agg[1] += own
                agg[2] += duration
                if not hot:
                    recorder.records.append((
                        frame[1], parent, local.point,
                        threading.get_ident(), name, start, end, own,
                    ))
                if new_point:
                    local.point = outer

        return spanned

    def totals(self) -> dict[str, list]:
        """Sum the per-point aggregates over every point."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for names in self.points.values():
            for name, (count, own, total) in names.items():
                agg = out[name]
                agg[0] += count
                agg[1] += own
                agg[2] += total
        return out

    def dump(self, path) -> None:
        """Write coarse span records and per-point aggregates as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                sid, parent, point, thread, name, start, end, own = rec
                fh.write(json.dumps({
                    "span": sid, "parent": parent, "point": point,
                    "thread": thread, "name": name, "start": start,
                    "end": end, "self_s": own,
                }) + "\n")
            for point, names in self.points.items():
                for name, (count, own, total) in names.items():
                    fh.write(json.dumps({
                        "point": point, "name": name, "count": count,
                        "self_s": own, "total_s": total,
                    }) + "\n")


class Patches:
    """Install span wrappers on attributes and restore the originals."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._saved: list[tuple[object, str, object, bool]] = []

    def wrap(self, owner, attr: str, name: str, new_point: bool = False,
             around=None) -> None:
        """Replace ``owner.attr`` by a span wrapper called *name*.

        *around*, if given, maps the original to the callable the span
        wraps (to count bytes on the way through, say).
        """
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else getattr(owner, attr)
        self._saved.append((owner, attr, original, had_own))
        inner = around(original) if around is not None else original
        setattr(owner, attr, self.recorder.wrap(name, inner, new_point))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original, had_own = self._saved.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
