"""The one process fan-out under every per-call multiprocessing executor.

The paper's independent multi-walk has a single form of communication:
completion detection — the first walk to solve stops the others.
:func:`fan_out` is that race, written once.  The process, hybrid vector
and cooperative process executors differ only in the targets they start
and in how they fold the reports into a result.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import queue as queue_mod
import time
from typing import Any, Callable, Sequence

from repro.errors import ParallelError
from repro.telemetry.recorder import get_recorder
from repro.util.timing import Stopwatch

__all__ = ["fan_out"]


def fan_out(
    targets: Sequence[tuple[Callable[..., None], tuple]],
    n_reports: int,
    time_limit: float,
    mp_context: str | None = None,
) -> tuple[dict[int, dict[str, Any]], float | None]:
    """Run ``targets`` as processes until ``n_reports`` walk reports arrive.

    Every target is called as ``target(*args, cancel_event=...,
    result_queue=...)`` with one shared cancel event and one shared result
    queue, and puts ``(walk_id, payload)`` reports on the queue.  The first
    solved report sets the cancel event; an ``"error"`` payload raises
    :class:`ParallelError` naming the walk and carrying the child's
    traceback; ``"telemetry"`` records are popped into the active
    recorder.  Every child is joined (terminated if it will not exit)
    before this returns or raises.

    Returns the payloads by walk id and the seconds from start to the
    first solved report (``None`` when no walk solved).
    """
    ctx = mp.get_context(mp_context)
    cancel_event = ctx.Event()
    result_queue = ctx.Queue()
    recorder = get_recorder()
    stopwatch = Stopwatch().start()
    processes = [
        ctx.Process(
            target=target,
            args=args,
            kwargs={"cancel_event": cancel_event, "result_queue": result_queue},
            daemon=True,
        )
        for target, args in targets
    ]
    for proc in processes:
        proc.start()

    # queue-drain deadline: every walk ends by solving, budget exhaustion,
    # or cancellation; leave generous slack beyond the configured time
    # limit for scheduling noise on oversubscribed hosts
    if math.isinf(time_limit):
        deadline = None
    else:
        deadline = time.monotonic() + time_limit * (len(processes) + 1) + 60.0

    payloads: dict[int, dict[str, Any]] = {}
    first_solve: float | None = None
    try:
        while len(payloads) < n_reports:
            timeout = None
            if deadline is not None:
                timeout = max(0.1, deadline - time.monotonic())
            try:
                walk_id, payload = result_queue.get(timeout=timeout)
            except queue_mod.Empty:
                raise ParallelError(
                    f"multi-walk timed out: {n_reports - len(payloads)} of "
                    f"{n_reports} walks never reported"
                )
            if "error" in payload:
                raise ParallelError(
                    f"walk {walk_id} crashed:\n{payload['error']}"
                )
            records = payload.pop("telemetry", None)
            if records:
                recorder.ingest(records)
            payloads[walk_id] = payload
            if payload["solved"] and first_solve is None:
                first_solve = stopwatch.elapsed
                # broadcast completion as soon as the winner reports: the
                # workers set the event themselves, but if a winner raced
                # past an unset event (solved before any poll) the losers
                # would otherwise run to their full budget
                cancel_event.set()
    finally:
        cancel_event.set()
        for proc in processes:
            proc.join(timeout=30.0)
        for proc in processes:
            if proc.is_alive():  # pragma: no cover - defensive cleanup
                proc.terminate()
                proc.join(timeout=5.0)
    return payloads, first_solve
