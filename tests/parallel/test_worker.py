"""Tests for the process-executor worker plumbing (run in-process)."""

import queue
import threading

import numpy as np
import pytest

from repro.core.config import AdaptiveSearchConfig
from repro.parallel.worker import CancelCheckCallback, run_walk
from repro.problems import CostasProblem


class FakeEvent:
    """Minimal Event stand-in usable without multiprocessing."""

    def __init__(self, set_after: int | None = None):
        self._set = False
        self.checks = 0
        self._set_after = set_after

    def is_set(self) -> bool:
        self.checks += 1
        if self._set_after is not None and self.checks >= self._set_after:
            self._set = True
        return self._set

    def set(self) -> None:
        self._set = True


class TestCancelCheckCallback:
    def info(self, iteration):
        from repro.core.callbacks import IterationInfo

        return IterationInfo(
            iteration=iteration,
            cost=1.0,
            best_cost=1.0,
            selected_variable=0,
            selected_swap=0,
            delta=0.0,
            restarts=0,
            resets=0,
        )

    def test_polls_only_on_interval(self):
        event = FakeEvent()
        cb = CancelCheckCallback(event, poll_every=10)
        for it in range(1, 10):
            assert cb.on_iteration(self.info(it)) is None
        assert event.checks == 0
        cb.on_iteration(self.info(10))
        assert event.checks == 1

    def test_cancels_when_event_set(self):
        event = FakeEvent()
        event.set()
        cb = CancelCheckCallback(event, poll_every=1)
        assert cb.on_iteration(self.info(1)) is False

    def test_invalid_poll_every(self):
        with pytest.raises(ValueError, match="poll_every"):
            CancelCheckCallback(FakeEvent(), poll_every=0)


class TestRunWalkInProcess:
    """run_walk works with any queue/event objects — drive it directly."""

    def test_solved_walk_reports_and_sets_event(self):
        problem = CostasProblem(8)
        event = FakeEvent()
        results: queue.Queue = queue.Queue()
        run_walk(
            3,
            problem,
            AdaptiveSearchConfig(max_iterations=200_000),
            np.random.SeedSequence(1),
            event,
            results,
        )
        walk_id, payload = results.get_nowait()
        assert walk_id == 3
        assert payload["solved"] is True
        assert payload["reason"] == "SOLVED"
        assert event._set  # completion broadcast
        config = np.asarray(payload["config"])
        assert problem.cost(config) == 0

    def test_cancelled_walk_reports_cancellation(self):
        problem = CostasProblem(12)
        event = FakeEvent(set_after=1)  # cancel at the first poll
        results: queue.Queue = queue.Queue()
        run_walk(
            0,
            problem,
            AdaptiveSearchConfig(max_iterations=10**9),
            np.random.SeedSequence(123),
            event,
            results,
            poll_every=16,
        )
        _walk_id, payload = results.get_nowait()
        if not payload["solved"]:
            assert payload["reason"] == "CANCELLED"
            # a loser still ships its best configuration (best-so-far for
            # graceful degradation), and the reported cost is its cost
            config = np.asarray(payload["config"])
            assert sorted(config.tolist()) == list(range(12))
            assert problem.cost(config) == payload["cost"]

    def test_crash_reports_error_payload(self):
        class Exploding(CostasProblem):
            def variable_errors(self, state):
                raise RuntimeError("boom")

        results: queue.Queue = queue.Queue()
        run_walk(
            1,
            Exploding(8),
            AdaptiveSearchConfig(max_iterations=100),
            np.random.SeedSequence(0),
            FakeEvent(),
            results,
        )
        _walk_id, payload = results.get_nowait()
        assert "error" in payload
        assert "boom" in payload["error"]
