"""In-memory spans recorded around calls into the program's layers.

The benchmark measures every layer from outside: it wraps public methods
of the objects a run builds (per instance, never per class) and records a
span per call.  Spans stay in memory and are written once, at the end of
the traced run.  A span is ``(id, name, start, end, parent, trace_id,
attrs)``; spans of one operation share a trace id.
"""

from __future__ import annotations

import gzip
import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

from measure import median

#: the problem-protocol methods a walk calls (see repro.problems.base)
PROBLEM_CALLS = ("variable_errors", "swap_deltas", "apply_swap", "cost")


class Tracer:
    """Collects spans from any thread; parents follow the calling thread."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(
        self,
        name: str,
        start: float,
        end: float,
        *,
        trace_id: str = "",
        parent: int | None = None,
        **attrs: Any,
    ) -> int:
        """Record a finished span; the parent defaults to the thread's
        innermost open span."""
        span_id = next(self._ids)
        if parent is None:
            stack = self._stack()
            parent = stack[-1] if stack else None
        with self._lock:
            self.spans.append((span_id, name, start, end, parent, trace_id, attrs))
        return span_id

    @contextmanager
    def span(self, name: str, *, trace_id: str = "", **attrs: Any) -> Iterator[dict]:
        """Time the ``with`` body as one span; the yielded dict becomes the
        span's attributes (callers add results to it)."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    (span_id, name, start, end, parent, trace_id, attrs)
                )

    def named(self, name: str) -> list[tuple]:
        return [s for s in self.spans if s[1] == name]

    def write(self, path: Path) -> None:
        """Write every span as one gzipped JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "start", "end", "parent", "trace_id", "attrs")
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span)), default=str) + "\n")


class ProblemTally:
    """Per-walk call counts and times of the problem-protocol methods.

    ``top`` is the time spent in outermost problem calls only, so a call
    made from inside another (``apply_swap`` -> ``swap_deltas``) is not
    subtracted twice when the walk's self time is computed.
    """

    def __init__(self) -> None:
        self.calls = {name: [0, 0.0] for name in PROBLEM_CALLS}
        self.depth = 0
        self.top = 0.0

    def reset(self) -> None:
        for entry in self.calls.values():
            entry[0] = 0
            entry[1] = 0.0
        self.top = 0.0

    def snapshot(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            f"{name}.calls": entry[0] for name, entry in self.calls.items()
        }
        out.update(
            {f"{name}.s": entry[1] for name, entry in self.calls.items()}
        )
        out["problem.s"] = self.top
        return out


def _timed(fn: Callable, entry: list, tally: ProblemTally) -> Callable:
    clock = time.perf_counter

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        tally.depth += 1
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = clock() - start
            tally.depth -= 1
            entry[0] += 1
            entry[1] += elapsed
            if tally.depth == 0:
                tally.top += elapsed

    return wrapper


def instrument_problem(problem: Any) -> ProblemTally:
    """Wrap ``problem``'s protocol methods on this instance only.

    The instance can no longer be pickled, so a traced run keeps it
    in-process and ships separate, unwrapped instances to workers.
    """
    tally = ProblemTally()
    for name in PROBLEM_CALLS:
        setattr(problem, name, _timed(getattr(problem, name), tally.calls[name], tally))
    return tally


def wrap_method(obj: Any, name: str, after: Callable) -> None:
    """Replace ``obj.name`` on the instance with a version that calls
    ``after(result, started, ended, *args)`` once the original returns."""
    original = getattr(obj, name)
    clock = time.perf_counter

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        start = clock()
        result = original(*args, **kwargs)
        after(result, start, clock(), *args)
        return result

    setattr(obj, name, wrapper)


def problem_metrics(tracer: Tracer) -> dict[str, float]:
    """problems/core per-layer metrics from ``core.solve`` spans."""
    out: dict[str, float] = {}
    spans = tracer.named("core.solve")
    self_time = total = 0.0
    for family in {s[6]["family"] for s in spans}:
        mine = [s for s in spans if s[6]["family"] == family]
        iters = sum(s[6]["iterations"] for s in mine)
        calls = sum(s[6]["swap_deltas.calls"] for s in mine)
        deltas_s = sum(s[6]["swap_deltas.s"] for s in mine)
        walk_s = sum(s[3] - s[2] for s in mine)
        out[f"problems.swap_deltas_us.{family}"] = 1e6 * deltas_s / max(calls, 1)
        out[f"problems.swap_deltas_calls_per_iter.{family}"] = calls / max(iters, 1)
        out[f"core.us_per_iter.{family}"] = 1e6 * walk_s / max(iters, 1)
        self_time += walk_s - sum(s[6]["problem.s"] for s in mine)
        total += walk_s
    if total:
        out["core.self_share"] = self_time / total
    builds = tracer.named("problems.build")
    if builds:
        out["problems.build_ms"] = 1e3 * median(s[3] - s[2] for s in builds)
    return out
