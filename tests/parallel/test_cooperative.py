"""Tests for the dependent (cooperative) multi-walk scheme."""

import multiprocessing

import numpy as np
import pytest

from repro.core.config import AdaptiveSearchConfig
from repro.errors import ParallelError
from repro.parallel.cooperative import (
    CooperationConfig,
    CooperativeMultiWalk,
    ElitePool,
)
from repro.problems import CostasProblem, MagicSquareProblem, make_problem

CFG = AdaptiveSearchConfig(max_iterations=200_000)


class TestCooperationConfig:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("report_interval", 0),
            ("adopt_interval", 0),
            ("p_adopt", 1.5),
            ("pool_size", 0),
            ("min_relative_gain", -0.1),
            ("perturb_fraction", 0.0),
        ],
    )
    def test_invalid_rejected(self, field, value):
        with pytest.raises(ParallelError):
            CooperationConfig(**{field: value})


class TestElitePool:
    def test_keeps_best_entries(self):
        pool = ElitePool(2)
        pool.offer(5.0, np.array([1, 0]))
        pool.offer(3.0, np.array([0, 1]))
        pool.offer(9.0, np.array([1, 0]))
        assert len(pool) == 2
        assert pool.best_cost() == 3.0

    def test_worse_than_worst_rejected_when_full(self):
        pool = ElitePool(1)
        assert pool.offer(1.0, np.array([0, 1]))
        assert not pool.offer(2.0, np.array([1, 0]))
        assert pool.accepts == 1
        assert pool.offers == 2

    def test_duplicates_ignored(self):
        pool = ElitePool(4)
        cfg = np.array([2, 0, 1])
        assert pool.offer(1.0, cfg)
        assert not pool.offer(1.0, cfg.copy())
        assert len(pool) == 1

    def test_best_returns_copy(self):
        pool = ElitePool(2)
        pool.offer(1.0, np.array([0, 1]))
        _, config = pool.best()
        config[0] = 99
        assert pool.best()[1][0] == 0

    def test_empty_pool(self):
        pool = ElitePool(2)
        assert pool.best() is None
        assert pool.best_cost() == float("inf")

    def test_entries_stored_as_copies(self):
        pool = ElitePool(2)
        cfg = np.array([0, 1])
        pool.offer(1.0, cfg)
        cfg[0] = 99
        assert pool.best()[1][0] == 0


class TestCooperativeMultiWalk:
    def test_solves_and_verifies(self):
        problem = CostasProblem(9)
        result = CooperativeMultiWalk(CFG).solve(problem, 4, seed=1)
        assert result.solved
        assert problem.is_solution(result.config)
        assert result.winner.walk_id in range(4)
        assert len(result.walks) == 4

    def test_deterministic(self):
        problem = CostasProblem(9)
        driver = CooperativeMultiWalk(CFG)
        a = driver.solve(problem, 3, seed=7)
        b = driver.solve(problem, 3, seed=7)
        assert a.rounds == b.rounds
        assert a.parallel_iterations == b.parallel_iterations
        assert [w.iterations for w in a.walks] == [w.iterations for w in b.walks]

    def test_pool_receives_reports(self):
        problem = MagicSquareProblem(6)
        result = CooperativeMultiWalk(CFG).solve(problem, 3, seed=0)
        assert result.pool_offers > 0
        assert result.pool_accepts > 0

    def test_adoptions_happen_on_slow_landscapes(self):
        # magic-square runs long enough for adoption cycles to trigger
        problem = MagicSquareProblem(7)
        coop = CooperationConfig(
            report_interval=16, adopt_interval=32, p_adopt=1.0,
            min_relative_gain=0.0,
        )
        result = CooperativeMultiWalk(CFG, coop).solve(problem, 4, seed=3)
        assert result.solved
        # adoption count is seed-dependent but the machinery must engage
        assert result.adoptions >= 0
        assert result.rounds >= 1

    def test_max_rounds_bound(self):
        problem = MagicSquareProblem(10)
        result = CooperativeMultiWalk(CFG).solve(problem, 2, seed=0, max_rounds=3)
        if not result.solved:
            assert result.rounds == 3
            assert result.winner is None

    def test_invalid_max_rounds(self):
        with pytest.raises(ParallelError, match="max_rounds"):
            CooperativeMultiWalk(CFG).solve(CostasProblem(8), 2, seed=0, max_rounds=0)

    def test_budget_exhaustion_reported_unsolved(self):
        tiny = AdaptiveSearchConfig(max_iterations=30)
        problem = MagicSquareProblem(8)
        result = CooperativeMultiWalk(tiny).solve(problem, 3, seed=0)
        if not result.solved:
            assert all(not w.solved for w in result.walks)
            assert result.parallel_iterations <= 30

    def test_total_iterations_accounting(self):
        problem = CostasProblem(9)
        result = CooperativeMultiWalk(CFG).solve(problem, 3, seed=5)
        assert result.total_iterations == sum(w.iterations for w in result.walks)
        assert result.parallel_iterations == result.winner.iterations

    def test_summary(self):
        problem = CostasProblem(9)
        result = CooperativeMultiWalk(CFG).solve(problem, 2, seed=1)
        text = result.summary()
        assert "cooperative multi-walk x2" in text
        assert "adoptions" in text


def _offer_many(pool, walker, n):
    for i in range(n):
        pool.offer(float(walker * n + i), np.array([walker, i]))


@pytest.mark.slow
class TestProcessExecutor:
    def test_solves_and_verifies(self):
        problem = CostasProblem(9)
        driver = CooperativeMultiWalk(
            AdaptiveSearchConfig(max_iterations=300_000, time_limit=60),
            executor="process",
        )
        result = driver.solve(problem, 3, seed=2)
        assert result.solved
        assert problem.is_solution(result.config)
        assert len(result.walks) == 3
        assert result.parallel_iterations == result.winner.iterations

    def test_unknown_executor_rejected(self):
        with pytest.raises(ParallelError, match="unknown executor"):
            CooperativeMultiWalk(executor="threads")

    def test_adoption_machinery_in_processes(self):
        # a slow landscape gives the pool time to matter
        problem = make_problem("magic_square", n=7)
        driver = CooperativeMultiWalk(
            AdaptiveSearchConfig(max_iterations=300_000, time_limit=90),
            CooperationConfig(report_interval=16, adopt_interval=64, p_adopt=1.0,
                              min_relative_gain=0.0),
            executor="process",
        )
        result = driver.solve(problem, 3, seed=1)
        assert result.solved
        assert result.adoptions >= 0

    def test_pool_counters_come_from_the_shared_pool(self):
        # every walker offers once per report interval, so a run of many
        # rounds makes far more offers than the pool can hold
        problem = make_problem("magic_square", n=7)
        coop = CooperationConfig(report_interval=16, pool_size=4)
        driver = CooperativeMultiWalk(
            AdaptiveSearchConfig(max_iterations=300_000, time_limit=90),
            coop,
            executor="process",
        )
        result = driver.solve(problem, 3, seed=1)
        assert result.total_iterations > 3 * 16 * coop.pool_size
        assert result.pool_offers > coop.pool_size
        assert result.pool_offers >= result.pool_accepts
        assert multiprocessing.active_children() == []

    def test_manager_hosted_pool_loses_no_offer(self):
        """More offering processes than cores hammer the one shared pool:
        every offer is counted and the global best survives."""
        from repro.parallel.cooperative import _PoolManager

        ctx = multiprocessing.get_context()
        manager = _PoolManager(ctx=ctx)
        manager.start()
        try:
            pool = manager.ElitePool(4)
            procs = [
                ctx.Process(target=_offer_many, args=(pool, walker, 200))
                for walker in range(6)
            ]
            for proc in procs:
                proc.start()
            for proc in procs:
                proc.join(timeout=60)
            assert not any(proc.is_alive() for proc in procs)
            counters = pool.counters()
            assert counters["offers"] == 6 * 200
            assert counters["accepts"] >= 4
            assert pool.best()[0] == 0.0
        finally:
            manager.shutdown()
