"""Tests for the persistent worker pool (mechanism layer)."""

import pytest

from repro.errors import ParallelError
from repro.problems import CostasProblem
from repro.service import SolverService, WorkerPool


class TestValidation:
    def test_bad_worker_count(self):
        with pytest.raises(ParallelError, match="n_workers"):
            WorkerPool(0)

    def test_bad_cancel_slots(self):
        with pytest.raises(ParallelError, match="cancel_slots"):
            WorkerPool(1, cancel_slots=0)


@pytest.mark.slow
class TestCancelTokens:
    def test_slot_lifecycle_and_generations(self):
        with WorkerPool(1, cancel_slots=2) as pool:
            first = pool.acquire_slot()
            second = pool.acquire_slot()
            assert {first.slot, second.slot} == {0, 1}
            # all slots taken -> the scheduler must queue the job
            assert pool.acquire_slot() is None

            pool.cancel(first)
            assert pool.is_cancelled(first)
            assert not pool.is_cancelled(second)

            # immediate slot reuse is safe: the next tenant's generation is
            # strictly above every cancel issued for previous tenants
            pool.release_slot(first)
            third = pool.acquire_slot()
            assert third.slot == first.slot
            assert third.generation > first.generation
            assert pool.is_cancelled(first)  # stale walks still see cancel
            assert not pool.is_cancelled(third)

    def test_cancel_is_idempotent(self):
        with WorkerPool(1) as pool:
            token = pool.acquire_slot()
            pool.cancel(token)
            pool.cancel(token)
            assert pool.is_cancelled(token)

    def test_cancel_never_lowers_the_generation(self):
        with WorkerPool(1) as pool:
            token = pool.acquire_slot()
            pool.release_slot(token)
            newer = pool.acquire_slot()
            pool.cancel(newer)
            # cancelling the *old* token afterwards must not resurrect it
            pool.cancel(token)
            assert pool.is_cancelled(newer)


@pytest.mark.slow
class TestProblems:
    def test_register_is_idempotent_per_object(self):
        with WorkerPool(1) as pool:
            problem = CostasProblem(7)
            other = CostasProblem(7)
            pid = pool.register_problem(problem)
            assert pool.register_problem(problem) == pid
            assert pool.register_problem(other) != pid


@pytest.mark.slow
class TestLifecycle:
    def test_workers_spawn_and_shut_down_cleanly(self):
        pool = WorkerPool(2)
        try:
            assert pool.worker_ids == [0, 1]
            assert all(pool.is_alive(w) for w in pool.worker_ids)
            assert len(pool.live_processes()) == 2
        finally:
            pool.shutdown()
        assert pool.live_processes() == []
        pool.shutdown()  # idempotent

    def test_closed_pool_rejects_use(self):
        pool = WorkerPool(1)
        pool.shutdown()
        with pytest.raises(ParallelError, match="shut down"):
            pool.acquire_slot()
        with pytest.raises(ParallelError, match="shut down"):
            pool.register_problem(CostasProblem(7))

    def test_respawn_replaces_dead_worker_and_reships_problems(self):
        with WorkerPool(1) as pool:
            problem = CostasProblem(7)
            pid = pool.register_problem(problem)
            victim = pool._workers[0]
            victim.process.terminate()
            victim.process.join(timeout=10.0)
            assert not pool.is_alive(0)

            pool.respawn(0)
            assert pool.is_alive(0)
            assert pool.incarnation(0) == 1
            # the fresh process was handed every registered problem again
            assert pid in pool._workers[0].known_problems
            assert pool._workers[0].process is not victim.process


@pytest.mark.slow
class TestCleanShutdown:
    def test_shared_memory_problem_pool_exits_clean(self, capfd):
        """Workers map a shared-memory problem (the pool's default way of
        shipping one); shutting down must close every mapping cleanly —
        no BufferError traceback, every worker at exit code 0."""
        problem = CostasProblem(8)
        service = SolverService(2).start()
        workers = service.pool.live_processes()
        try:
            assert service.solve(problem, 2, seed=1, timeout=120).solved
        finally:
            service.shutdown()
        assert [worker.exitcode for worker in workers] == [0, 0]
        assert "Traceback" not in capfd.readouterr().err
