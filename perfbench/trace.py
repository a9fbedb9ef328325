"""Span recording around the program's layer functions.

A :class:`Tracer` replaces named functions with timing wrappers, each
looked up where its caller finds it (a module global, a class attribute,
or an instance attribute), and puts the originals back on
:meth:`Tracer.close`.  Every call becomes a span ``[layer, start, end,
parent, request]``.  Spans are kept per thread, so recording takes no
lock, and are only merged and written out when the run ends.

Self time is a span's duration minus the time its children cover.  When
several threads have spans open at once (the gateway's worker pool), the
wall time of each instant is shared equally among the threads' innermost
open spans, so the self times of all layers plus the ``other_s``
residual (instants with no span open) add up to the traced wall exactly.
"""

from __future__ import annotations

import gzip
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

_LAYER, _START, _END, _PARENT, _REQUEST = range(5)


class _ThreadState:
    __slots__ = ("spans", "stack", "request", "counts", "samples", "thread")

    def __init__(self, thread: str) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request: str | None = None
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.thread = thread


class Tracer:
    """Installs span-recording wrappers and folds spans into layer metrics."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording -------------------------------------------------------------

    def state(self) -> _ThreadState:
        st = getattr(self._tls, "state", None)
        if st is None:
            st = _ThreadState(threading.current_thread().name)
            self._tls.state = st
            with self._states_lock:
                self._states.append(st)
        return st

    def set_request(self, request: str | None) -> None:
        """Tag the calling thread's following spans with *request*."""
        self.state().request = request

    def count(self, name: str, by: float = 1.0) -> None:
        self.state().counts[name] += by

    def sample(self, name: str, value: float) -> None:
        self.state().samples[name].append(value)

    def wrap(self, owner, attr: str, layer: str, before=None, after=None):
        """Replace ``owner.attr`` with a wrapper recording a *layer* span.

        *before(args, kwargs)* returns a token handed to
        *after(token, args, kwargs, result)*; both run outside the span.
        """
        is_own = attr in vars(owner)
        fn = getattr(owner, attr)
        tracer = self
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            st = getattr(tracer._tls, "state", None) or tracer.state()
            token = before(args, kwargs) if before is not None else None
            spans, stack = st.spans, st.stack
            rec = [layer, 0.0, 0.0, stack[-1] if stack else -1, st.request]
            stack.append(len(spans))
            spans.append(rec)
            rec[_START] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_END] = perf()
                stack.pop()
            if after is not None:
                after(token, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, fn, is_own))

    def close(self) -> None:
        """Put every wrapped function back, newest first."""
        while self._patches:
            owner, attr, fn, is_own = self._patches.pop()
            if is_own:
                setattr(owner, attr, fn)
            else:
                delattr(owner, attr)

    # -- folding ---------------------------------------------------------------

    def reset(self) -> None:
        """Drop everything recorded so far (call while no span is open)."""
        for st in self._states:
            st.spans.clear()
            st.counts.clear()
            st.samples.clear()

    def counts(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for st in self._states:
            for name, value in st.counts.items():
                out[name] += value
        return out

    def samples(self, name: str) -> list[float]:
        return [v for st in self._states for v in st.samples.get(name, ())]

    def self_times(self) -> dict[str, float]:
        """Self seconds per layer; whatever of the wall they leave is time
        in no span at all."""
        busy_threads = [st for st in self._states if st.spans]
        if len(busy_threads) <= 1:
            return _self_single(busy_threads[0].spans if busy_threads else [])
        return _self_shared(busy_threads)

    def busy(self) -> tuple[dict[str, float], dict[str, int]]:
        """``(seconds, calls)`` per layer: summed span durations and counts."""
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for st in self._states:
            for rec in st.spans:
                seconds[rec[_LAYER]] += rec[_END] - rec[_START]
                calls[rec[_LAYER]] += 1
        return seconds, calls

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line (gzip); times are
        seconds from the first span's start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        base = min((st.spans[0][_START] for st in self._states if st.spans),
                   default=0.0)
        with gzip.open(path, "wt", compresslevel=1) as out:
            for t, st in enumerate(self._states):
                for i, rec in enumerate(st.spans):
                    out.write(json.dumps({
                        "thread": st.thread, "id": f"{t}.{i}",
                        "parent": f"{t}.{rec[_PARENT]}"
                        if rec[_PARENT] >= 0 else None,
                        "name": rec[_LAYER], "request": rec[_REQUEST],
                        "start": rec[_START] - base,
                        "end": rec[_END] - base,
                    }) + "\n")


def _self_single(spans: list[list]) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for rec in spans:
        out[rec[_LAYER]] += rec[_END] - rec[_START]
        if rec[_PARENT] >= 0:
            out[spans[rec[_PARENT]][_LAYER]] -= rec[_END] - rec[_START]
    return out


def _self_shared(states: list[_ThreadState]) -> dict[str, float]:
    """Sweep the span boundaries of all threads in time order; each
    interval's length is split equally among the innermost open spans."""
    events: list[tuple[float, int, int, int]] = []
    for t, st in enumerate(states):
        for i, rec in enumerate(st.spans):
            # Ends sort before starts at the same instant.
            events.append((rec[_START], 1, t, i))
            events.append((rec[_END], 0, t, i))
    events.sort()
    stacks: list[list[int]] = [[] for _ in states]
    out: dict[str, float] = defaultdict(float)
    active: set[int] = set()
    last = events[0][0] if events else 0.0
    for when, is_start, t, i in events:
        if active and when > last:
            share = (when - last) / len(active)
            for a in active:
                out[states[a].spans[stacks[a][-1]][_LAYER]] += share
        last = when
        stack = stacks[t]
        if is_start:
            stack.append(i)
            active.add(t)
        else:
            stack.remove(i)
            if not stack:
                active.discard(t)
    return out
