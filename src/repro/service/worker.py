"""Child-process side of the persistent worker pool.

A service worker is a long-lived process running :func:`service_worker_main`:
it blocks on its private inbox queue and reacts to three message kinds,

``("problem", problem_id, problem)``
    cache the (already unpickled) problem instance — each problem crosses
    the process boundary once per worker, not once per walk;
``("problem_bytes", problem_id, payload)``
    same, but the parent ships the bytes it pickled once at registration
    (so respawns never re-serialize) and the worker unpickles;
``("problem_shm", problem_id, manifest)``
    zero-copy form: attach the named shared-memory segment published by
    the pool and rebuild the problem over read-only views of it (see
    :mod:`repro.parallel.shm`); the attachment is held until shutdown;
``("walk", task)``
    run one Adaptive Search walk and report
    ``("result", worker_id, job_id, walk_id, payload)`` on the shared
    outbox;
``("shutdown",)``
    exit the loop.

Cancellation uses a shared *generation* array instead of the one-shot event
of the plain process executor: every job holds a ``(slot, generation)``
token, a walk polls ``cancel_generations[slot] >= generation`` between
iterations, and cancelling a job raises the slot to that job's generation.
Generations only grow, so a slot can be handed to the next job immediately —
a stale walk of the previous tenant still sees itself cancelled while the
new tenant (holding a strictly larger generation) keeps running.  One job's
win therefore never kills another job's walks.

Progress: alongside the cancel poll, the walk publishes its iteration
count into the shared ``progress`` array (one int64 slot per worker).  The
scheduler snapshots it for free, node agents ship it in heartbeats, and
the coordinator's straggler detector feeds on it — all without any extra
IPC on the hot path.

Chaos: a :class:`~repro.chaos.plan.WalkFault` can ride inside the task
(``task.fault``); the worker then raises, hard-exits, or sleeps per
iteration exactly as instructed.  The spec travels with the task, so walk
faults work identically across process boundaries and need no global
state in the child.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.core.config import AdaptiveSearchConfig
from repro.core.solver import AdaptiveSearch
from repro.parallel.results import walk_payload
from repro.parallel.worker import ring_telemetry
from repro.telemetry.events import TraceContext

__all__ = [
    "WalkTask",
    "GenerationCancelCallback",
    "service_worker_main",
]


@dataclass(frozen=True)
class WalkTask:
    """One unit of pool work: a single walk of one job.

    ``trace`` is ``None`` unless the scheduler is tracing this job, in
    which case the worker runs the walk under a ring-buffered telemetry
    recorder and ships the buffered records home inside the result payload
    (``payload["telemetry"]``) — the pool outbox doubles as the telemetry
    uplink, so no extra IPC machinery exists for tracing.

    ``fault`` is ``None`` unless a chaos plan targeted this dispatch (see
    module docstring).
    """

    job_id: int
    walk_id: int
    problem_id: int
    config: Optional[AdaptiveSearchConfig]
    seed: np.random.SeedSequence
    slot: int
    generation: int
    poll_every: int = 64
    trace: Optional[TraceContext] = None
    milestone_every: int = 0
    fault: Optional[Any] = None  # chaos WalkFault, picklable


class GenerationCancelCallback:
    """Cancels a walk when its job's cancel slot reaches its generation.

    The shared array is only polled every ``poll_every`` iterations — the
    scheme needs completion detection, not instantaneous preemption
    (same trade-off as the process executor's event poll).  When a shared
    ``progress`` array is supplied, the same poll publishes the walk's
    iteration count into ``progress[progress_index]`` — piggybacked, so
    progress reporting costs nothing between polls.
    """

    def __init__(
        self, cancel_generations: Any, slot: int, generation: int,
        poll_every: int = 64,
        progress: Any = None,
        progress_index: int = 0,
    ) -> None:
        if poll_every < 1:
            raise ValueError(f"poll_every must be >= 1, got {poll_every}")
        self.cancel_generations = cancel_generations
        self.slot = slot
        self.generation = generation
        self.poll_every = poll_every
        self.progress = progress
        self.progress_index = progress_index

    def on_iteration(self, info: Any) -> bool | None:
        if info.iteration % self.poll_every == 0:
            if self.progress is not None:
                self.progress[self.progress_index] = info.iteration
            if self.cancel_generations[self.slot] >= self.generation:
                return False
        return None


class _FaultCallback:
    """Applies an injected walk fault from inside the solver loop."""

    def __init__(self, fault: Any) -> None:
        self.fault = fault

    def on_iteration(self, info: Any) -> bool | None:
        fault = self.fault
        if fault.action == "slow":
            time.sleep(fault.iteration_delay)
            return None
        if info.iteration >= fault.at_iteration:
            if fault.action == "exit":
                os._exit(3)
            raise RuntimeError(
                f"chaos: injected walk crash at iteration {info.iteration}"
            )
        return None


def service_worker_main(
    worker_id: int,
    inbox: Any,
    outbox: Any,
    cancel_generations: Any,
    progress: Any = None,
) -> None:
    """Run the worker loop until a shutdown message arrives.

    Every walk task produces exactly one result message; a walk that raises
    reports an ``{"error": traceback}`` payload and the worker *survives* —
    the retry decision belongs to the scheduler.  Only killing the process
    (or shutdown) ends the loop.
    """
    problems: dict[int, Any] = {}
    attachments: list[Any] = []
    while True:
        message = inbox.get()
        kind = message[0]
        if kind == "shutdown":
            # a shared-memory mapping cannot close while any array still
            # views it: drop every problem reference first
            problems.clear()
            for att in attachments:
                att.detach()
            break
        if kind == "problem":
            _, problem_id, problem = message
            problems[problem_id] = problem
            continue
        if kind == "problem_bytes":
            _, problem_id, payload = message
            problems[problem_id] = pickle.loads(payload)
            continue
        if kind == "problem_shm":
            from repro.parallel.shm import attach_problem

            _, problem_id, manifest = message
            att = attach_problem(manifest)
            attachments.append(att)
            problems[problem_id] = att.problem
            continue
        if kind != "walk":  # pragma: no cover - protocol guard
            continue
        task: WalkTask = message[1]
        payload = _run_walk(
            worker_id, task, problems, cancel_generations, progress
        )
        outbox.put(("result", worker_id, task.job_id, task.walk_id, payload))


def _run_walk(
    worker_id: int,
    task: WalkTask,
    problems: dict[int, Any],
    cancel_generations: Any,
    progress: Any,
) -> dict[str, Any]:
    """Run one walk task to its result payload.

    A function of its own so the walk's locals (problem, solver, result)
    are released when it returns, not held by the worker loop.
    """
    try:
        fault = task.fault
        if fault is not None and fault.at_iteration <= 0:
            # pre-solve faults fire deterministically even for walks
            # whose budget is smaller than one callback interval
            if fault.action == "exit":
                os._exit(3)
            if fault.action == "raise":
                raise RuntimeError(
                    "chaos: injected walk crash before the first "
                    "iteration"
                )
        problem = problems[task.problem_id]
        solver = AdaptiveSearch(task.config)
        callbacks: list[Any] = [
            GenerationCancelCallback(
                cancel_generations, task.slot, task.generation,
                task.poll_every,
                progress=progress, progress_index=worker_id,
            )
        ]
        if fault is not None:
            callbacks.append(_FaultCallback(fault))
        ring = None
        if task.trace is not None:
            # traced walk: record telemetry into a bounded ring and
            # ship it home with the result (see WalkTask docstring)
            callback, ring = ring_telemetry(
                f"worker-{worker_id}",
                task.milestone_every,
                trace_id=task.trace.trace_id,
                job_id=task.trace.job_id,
                walk_id=task.trace.walk_id,
            )
            callbacks.append(callback)
        result = solver.solve(
            problem, seed=task.seed, callbacks=callbacks
        )
        payload = walk_payload(result)
        if ring is not None:
            payload["telemetry"] = ring.drain()
    except Exception:
        import traceback

        payload = {"error": traceback.format_exc()}
    return payload


