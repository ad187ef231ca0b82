"""Process targets of the process and hybrid vector executors.

Kept in their own importable module so :mod:`multiprocessing` can pickle
the targets under every start method (fork, spawn, forkserver).  Each
target is started by :func:`repro.parallel.fanout.fan_out` and enqueues one
``(walk_id, payload)`` report per walk it runs, built by
:func:`~repro.parallel.results.walk_payload` — or an
``{"error": traceback}`` payload if it crashed.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.core.config import AdaptiveSearchConfig
from repro.core.solver import AdaptiveSearch
from repro.parallel.results import walk_payload
from repro.problems.base import Problem

__all__ = ["CancelCheckCallback", "ring_telemetry", "run_walk", "run_vector_slice"]


class CancelCheckCallback:
    """Cancels a walk when a shared event is set.

    The event is only polled every ``poll_every`` iterations: the check is a
    cross-process read, and the paper's scheme needs completion detection,
    not instantaneous preemption.
    """

    def __init__(self, cancel_event: Any, poll_every: int = 128) -> None:
        if poll_every < 1:
            raise ValueError(f"poll_every must be >= 1, got {poll_every}")
        self.cancel_event = cancel_event
        self.poll_every = poll_every

    def on_iteration(self, info: Any) -> bool | None:
        if info.iteration % self.poll_every == 0 and self.cancel_event.is_set():
            return False
        return None


def ring_telemetry(
    proc: str, milestone_every: int, **ids: Any
) -> tuple[Any, Any]:
    """A telemetry callback for a walk in a child process, recording into
    a bounded ring; the caller ships ``ring.drain()`` home in the walk
    report's ``"telemetry"`` field."""
    from repro.telemetry.recorder import Recorder
    from repro.telemetry.sinks import RingBufferSink
    from repro.telemetry.solver import TelemetryCallback

    ring = RingBufferSink()
    recorder = Recorder(
        sinks=[ring], proc=proc, milestone_every=milestone_every
    )
    return TelemetryCallback(recorder, **ids), ring


def run_walk(
    walk_id: int,
    problem: Problem,
    config: AdaptiveSearchConfig,
    seed: np.random.SeedSequence,
    cancel_event: Any,
    result_queue: Any,
    poll_every: int = 128,
    trace_id: str = "",
    milestone_every: int = 0,
) -> None:
    """Run one walk; report the outcome and raise the completion flag.

    Always enqueues exactly one ``(walk_id, payload)`` tuple.  When
    ``trace_id`` is set the walk runs under a ring-buffered telemetry
    recorder and the drained records ride home in ``payload["telemetry"]``
    — the result queue doubles as the telemetry uplink, same scheme as the
    warm-pool worker.
    """
    try:
        solver = AdaptiveSearch(config)
        callbacks: list[Any] = [CancelCheckCallback(cancel_event, poll_every)]
        ring = None
        if trace_id:
            callback, ring = ring_telemetry(
                f"walk-{walk_id}",
                milestone_every,
                trace_id=trace_id,
                walk_id=walk_id,
            )
            callbacks.append(callback)
        result = solver.solve(problem, seed=seed, callbacks=callbacks)
        if result.solved:
            # completion notification: the only inter-process communication
            cancel_event.set()
        payload = walk_payload(result)
        if ring is not None:
            payload["telemetry"] = ring.drain()
        result_queue.put((walk_id, payload))
    except Exception:  # pragma: no cover - defensive: surface worker crashes
        import traceback

        result_queue.put((walk_id, {"error": traceback.format_exc()}))


def run_vector_slice(
    walk_ids: Sequence[int],
    problem: Problem,
    config: AdaptiveSearchConfig,
    seeds: Sequence[np.random.SeedSequence],
    cancel_event: Any,
    result_queue: Any,
    poll_every_rounds: int = 16,
) -> None:
    """Run one lane slice of the hybrid processes x lanes layout; enqueue
    one ``(walk_id, payload)`` per lane.

    ``walk_ids[i]`` is the cluster-wide identity of local lane ``i`` and
    ``seeds[i]`` its exact stream, so the trajectory equals the same walk
    under every other executor.  The engine runs ``first_wins`` *within*
    the slice; across slices the shared event is polled every
    ``poll_every_rounds`` lock-step rounds (a round advances every live
    lane once, so the effective per-walk poll interval matches the scalar
    executor's ``poll_every`` iterations).
    """
    try:
        from repro.vector.engine import VectorWalkEngine

        def on_round(engine: Any) -> bool | None:
            if (
                engine.rounds % poll_every_rounds == 0
                and cancel_event.is_set()
            ):
                return False
            return None

        engine = VectorWalkEngine(
            problem,
            k=len(walk_ids),
            config=config,
            seeds=list(seeds),
            first_wins=True,
            round_callback=on_round,
        )
        outcome = engine.run()
        if outcome.solved:
            # completion notification: the only inter-process communication
            cancel_event.set()
        for walk_id, result in zip(walk_ids, outcome.walks):
            result_queue.put((walk_id, walk_payload(result)))
    except Exception:  # pragma: no cover - defensive: surface worker crashes
        import traceback

        err = {"error": traceback.format_exc()}
        for walk_id in walk_ids:
            result_queue.put((walk_id, err))
