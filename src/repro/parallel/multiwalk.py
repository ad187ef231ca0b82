"""The independent multi-walk driver.

``MultiWalkSolver.solve(problem, n_walkers)`` runs ``k`` independent
Adaptive Search engines under one of six executors and returns as soon as
one walk solves — or, under the inline executor, computes the equivalent
outcome exactly.  The package docstring lists the executors and when to
use which; the per-call process executors all race through the one
:func:`~repro.parallel.fanout.fan_out`.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.config import AdaptiveSearchConfig
from repro.core.result import SolveResult
from repro.core.solver import AdaptiveSearch
from repro.errors import ParallelError
from repro.parallel.fanout import fan_out
from repro.parallel.results import ParallelResult, WalkOutcome
from repro.parallel.seeding import partition_walks, walk_seeds
from repro.parallel.worker import run_vector_slice, run_walk
from repro.problems.base import Problem
from repro.telemetry.events import new_trace_id
from repro.telemetry.recorder import get_recorder
from repro.telemetry.solver import solver_callbacks
from repro.util.rng import SeedLike
from repro.util.timing import Stopwatch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (service -> parallel)
    from repro.coop import CoopConfig
    from repro.net.client import ClusterClient
    from repro.service.scheduler import SolverService

__all__ = ["MultiWalkSolver", "solve_parallel"]

_EXECUTORS = ("inline", "process", "pool", "net", "vector", "coop")


class MultiWalkSolver:
    """Runs ``k`` independent Adaptive Search walks, first finisher wins.

    Parameters
    ----------
    config:
        base solver configuration shared by every walk (per-problem defaults
        are merged per walk exactly as in the sequential engine).
    executor:
        ``"process"`` for real multi-core execution, ``"inline"`` for exact
        sequential emulation (deterministic; used by tests and experiments),
        ``"pool"`` to borrow warm workers from a shared solver service
        (requires ``pool``).
    poll_every:
        process executor and hybrid vector layout: how many iterations
        between cancel-event polls (the hybrid layout polls every
        ``poll_every // lanes`` lock-step rounds, the same per-walk
        interval).
    launch_overhead:
        inline executor: constant added to the computed parallel wall time,
        modelling job-launch latency (the process executor pays the real
        cost instead).
    pool:
        a started :class:`repro.service.SolverService` whose worker pool
        executes the walks when ``executor="pool"``; the caller owns its
        lifecycle, so many solvers (and concurrent solves) may share it.
    cluster:
        for ``executor="net"`` / ``"coop"``: a connected
        :class:`repro.net.ClusterClient` (caller-owned, shareable across
        solvers), or a coordinator address (``(host, port)`` tuple or
        ``"host:port"`` string) to dial per solve.
    coop:
        for ``executor="coop"``: the :class:`~repro.coop.CoopConfig`
        island scheme (topology, migration cadence, adoption policy);
        ``None`` uses the defaults (a ring).  The ``"coop"`` executor is
        ``"net"`` with cooperation switched on: each node slice becomes an
        island and elites migrate between islands per the topology.  A
        coop config without a seed inherits the integer job seed, so a
        fixed seed replays the exact migration log.
    lanes:
        for ``executor="vector"``: the maximum walk lanes batched into one
        :class:`~repro.vector.engine.VectorWalkEngine` process.  ``None``
        (default) runs every walk lock-step in the calling process; a
        smaller value splits the walks round-robin over
        ``ceil(k / lanes)`` processes — the hybrid processes x lanes
        layout.  Walk ``i`` keeps the identical trajectory either way.
    """

    def __init__(
        self,
        config: AdaptiveSearchConfig | None = None,
        *,
        executor: str = "process",
        poll_every: int = 128,
        launch_overhead: float = 0.0,
        mp_context: str | None = None,
        pool: Optional["SolverService"] = None,
        cluster: "ClusterClient | tuple[str, int] | str | None" = None,
        lanes: int | None = None,
        coop: "CoopConfig | dict | None" = None,
    ) -> None:
        if executor not in _EXECUTORS:
            raise ParallelError(
                f"unknown executor {executor!r}; choose from {_EXECUTORS}"
            )
        if poll_every < 1:
            raise ParallelError(f"poll_every must be >= 1, got {poll_every}")
        if launch_overhead < 0:
            raise ParallelError(
                f"launch_overhead must be >= 0, got {launch_overhead}"
            )
        if executor == "pool" and pool is None:
            raise ParallelError(
                'executor="pool" needs a SolverService via the pool argument'
            )
        if executor in ("net", "coop") and cluster is None:
            raise ParallelError(
                f'executor="{executor}" needs a ClusterClient or '
                "coordinator address via the cluster argument"
            )
        if coop is not None and executor != "coop":
            raise ParallelError(
                f'a coop config only applies to executor="coop", '
                f"not {executor!r}"
            )
        if lanes is not None and lanes < 1:
            raise ParallelError(f"lanes must be >= 1, got {lanes}")
        self.config = config or AdaptiveSearchConfig()
        self.executor = executor
        self.poll_every = poll_every
        self.launch_overhead = launch_overhead
        self.mp_context = mp_context
        self.pool = pool
        self.cluster = cluster
        self.lanes = lanes
        self.coop = coop

    # ------------------------------------------------------------------
    def solve(
        self,
        problem: Problem,
        n_walkers: int,
        seed: SeedLike = None,
        *,
        time_limit: float | None = None,
    ) -> ParallelResult:
        """Run the multi-walk; ``time_limit`` (seconds) bounds every walk."""
        seeds = walk_seeds(n_walkers, seed)
        config = self.config
        if time_limit is not None:
            config = config.replace(time_limit=min(config.time_limit, time_limit))
        recorder = get_recorder()
        if not recorder.enabled:
            return self._dispatch(problem, config, seeds, seed=seed)
        trace_id = new_trace_id()
        with recorder.span(
            "multiwalk.solve",
            trace_id=trace_id,
            executor=self.executor,
            n_walkers=n_walkers,
        ):
            return self._dispatch(
                problem, config, seeds, trace_id=trace_id, seed=seed
            )

    def _dispatch(
        self,
        problem: Problem,
        config: AdaptiveSearchConfig,
        seeds: list[np.random.SeedSequence],
        trace_id: str = "",
        seed: SeedLike = None,
    ) -> ParallelResult:
        if self.executor == "inline":
            return self._solve_inline(problem, config, seeds, trace_id)
        if self.executor == "pool":
            return self._solve_pool(problem, config, seeds)
        if self.executor in ("net", "coop"):
            return self._solve_cluster(problem, config, seeds, seed)
        if self.executor == "vector":
            return self._solve_vector(problem, config, seeds, trace_id)
        return self._solve_process(problem, config, seeds, trace_id)

    # ------------------------------------------------------------------
    def _solve_pool(
        self,
        problem: Problem,
        config: AdaptiveSearchConfig,
        seeds: list[np.random.SeedSequence],
    ) -> ParallelResult:
        """Run the walks as one job on the shared warm-worker service.

        The explicit seed list keeps trajectories identical to the other
        executors (walk ``i`` is the same walk under every executor).
        """
        assert self.pool is not None
        handle = self.pool.submit(
            problem, len(seeds), config=config, seeds=seeds
        )
        return handle.result().to_parallel_result()

    # ------------------------------------------------------------------
    def _solve_cluster(
        self,
        problem: Problem,
        config: AdaptiveSearchConfig,
        seeds: list[np.random.SeedSequence],
        seed: SeedLike = None,
    ) -> ParallelResult:
        """Run the walks as one job on a distributed coordinator cluster.

        The full ordered seed list ships to the coordinator, which
        partitions walk *indices* across nodes — so walk ``i`` runs the
        same trajectory as under every other executor, merely on another
        machine.  Under ``"coop"`` the submit also carries the coop
        scheme: the coordinator turns each node slice into an island and
        relays elite migrations between them, and the original job
        ``seed`` rides along so an unseeded coop config becomes
        deterministic per job.
        """
        from repro.net.client import ClusterClient

        coop = None
        if self.executor == "coop":
            from repro.coop import CoopConfig

            coop = self.coop
            if coop is None:
                coop = CoopConfig()
            elif not isinstance(coop, CoopConfig):
                coop = CoopConfig.from_wire(coop)
        client = self.cluster
        owned = not isinstance(client, ClusterClient)
        if owned:
            client = ClusterClient(client).connect()
        try:
            result = client.solve(
                problem, len(seeds), seed, config=config, seeds=seeds,
                coop=coop,
            )
            return result.to_parallel_result(executor=self.executor)
        finally:
            if owned:
                client.close()

    # ------------------------------------------------------------------
    def _solve_inline(
        self,
        problem: Problem,
        config: AdaptiveSearchConfig,
        seeds: list[np.random.SeedSequence],
        trace_id: str = "",
    ) -> ParallelResult:
        """Run every walk to completion; parallel time = min across walks.

        Exactness argument: with zero communication, walk ``i`` executes the
        same trajectory whether or not the other walks exist, so the
        multi-walk completion time on ``k`` dedicated cores is exactly
        ``min_i T_i`` (plus launch overhead), which we compute directly.
        """
        stopwatch = Stopwatch().start()
        solver = AdaptiveSearch(config)
        walks: list[WalkOutcome] = []
        for walk_id, walk_seed in enumerate(seeds):
            callbacks = solver_callbacks(trace_id=trace_id, walk_id=walk_id)
            result = solver.solve(
                problem, seed=walk_seed, callbacks=callbacks or None
            )
            walks.append(_in_process_outcome(walk_id, result))
        elapsed = stopwatch.stop()
        winner = _first_finisher(walks)
        if winner is not None:
            wall_time = winner.wall_time + self.launch_overhead
        else:
            wall_time = max(w.wall_time for w in walks) + self.launch_overhead
        return ParallelResult(
            solved=winner is not None,
            n_walkers=len(seeds),
            winner=winner,
            walks=walks,
            wall_time=wall_time,
            elapsed_time=elapsed,
            executor="inline",
        )

    # ------------------------------------------------------------------
    def _solve_vector(
        self,
        problem: Problem,
        config: AdaptiveSearchConfig,
        seeds: list[np.random.SeedSequence],
        trace_id: str = "",
    ) -> ParallelResult:
        """Advance all walks lock-step as lanes of the vector engine.

        Seeds come from the same :func:`walk_seeds` derivation as every
        other executor and each lane consumes its generator at the scalar
        call sites, so walk ``i`` is bit-identical to walk ``i`` under the
        inline/process/pool executors (the property the k=1 equivalence
        suite pins down).  With ``lanes`` set below the walk count the
        walks split round-robin over several engine processes — the
        hybrid processes x lanes layout.
        """
        if self.lanes is not None and self.lanes < len(seeds):
            return self._solve_vector_hybrid(problem, config, seeds)
        from repro.telemetry.vector import vector_telemetry
        from repro.vector.engine import VectorWalkEngine

        telemetry = vector_telemetry(trace_id=trace_id) if trace_id else None
        stopwatch = Stopwatch().start()
        engine = VectorWalkEngine(
            problem,
            k=len(seeds),
            config=config,
            seeds=seeds,
            first_wins=True,
            round_callback=(
                telemetry.round_callback if telemetry is not None else None
            ),
        )
        if telemetry is not None:
            telemetry.on_start(engine)
        outcome = engine.run()
        elapsed = stopwatch.stop()
        if telemetry is not None:
            telemetry.on_finish(outcome)
        walks = [
            _in_process_outcome(lane, result)
            for lane, result in enumerate(outcome.walks)
        ]
        winner = _first_finisher(walks)
        return ParallelResult(
            solved=winner is not None,
            n_walkers=len(seeds),
            winner=winner,
            walks=walks,
            wall_time=winner.wall_time if winner is not None else elapsed,
            elapsed_time=elapsed,
            executor="vector",
        )

    def _solve_vector_hybrid(
        self,
        problem: Problem,
        config: AdaptiveSearchConfig,
        seeds: list[np.random.SeedSequence],
    ) -> ParallelResult:
        """Hybrid layout: ``ceil(k / lanes)`` processes x ``lanes`` lanes."""
        assert self.lanes is not None
        n_procs = -(-len(seeds) // self.lanes)
        slices = [s for s in partition_walks(len(seeds), n_procs) if s]
        # a lock-step round advances every lane of a slice once
        targets = [
            (
                partial(
                    run_vector_slice,
                    poll_every_rounds=max(1, self.poll_every // len(slice_ids)),
                ),
                (
                    slice_ids,
                    problem,
                    config,
                    [seeds[walk_id] for walk_id in slice_ids],
                ),
            )
            for slice_ids in slices
        ]
        return self._fan_out(targets, len(seeds), config, "vector")

    # ------------------------------------------------------------------
    def _solve_process(
        self,
        problem: Problem,
        config: AdaptiveSearchConfig,
        seeds: list[np.random.SeedSequence],
        trace_id: str = "",
    ) -> ParallelResult:
        """One process per walk, first finisher cancels the rest."""
        target = partial(
            run_walk,
            poll_every=self.poll_every,
            trace_id=trace_id,
            milestone_every=get_recorder().milestone_every if trace_id else 0,
        )
        targets = [
            (target, (walk_id, problem, config, walk_seed))
            for walk_id, walk_seed in enumerate(seeds)
        ]
        return self._fan_out(targets, len(seeds), config, "process")

    def _fan_out(
        self,
        targets: list,
        n_walks: int,
        config: AdaptiveSearchConfig,
        executor: str,
    ) -> ParallelResult:
        """Race ``targets`` through :func:`fan_out`; fold the reports."""
        stopwatch = Stopwatch().start()
        payloads, first_solve = fan_out(
            targets, n_walks, config.time_limit, self.mp_context
        )
        elapsed = stopwatch.stop()
        walks = [
            WalkOutcome.from_payload(walk_id, payload)
            for walk_id, payload in sorted(payloads.items())
        ]
        winner = _first_finisher(walks)
        return ParallelResult(
            solved=winner is not None,
            n_walkers=n_walks,
            winner=winner,
            walks=walks,
            wall_time=first_solve if first_solve is not None else elapsed,
            elapsed_time=elapsed,
            executor=executor,
        )


def _in_process_outcome(walk_id: int, result: SolveResult) -> WalkOutcome:
    """Report a walk that ran in this process (losers keep no config)."""
    return WalkOutcome(
        walk_id=walk_id,
        solved=result.solved,
        cost=result.cost,
        iterations=result.stats.iterations,
        wall_time=result.stats.wall_time,
        reason=result.reason,
        config=result.config if result.solved else None,
    )


def _first_finisher(walks: list[WalkOutcome]) -> WalkOutcome | None:
    """The solved walk with the smallest wall time, if any walk solved."""
    solved = [w for w in walks if w.solved]
    return min(solved, key=lambda w: w.wall_time) if solved else None


def solve_parallel(
    problem: Problem,
    n_walkers: int,
    seed: SeedLike = None,
    *,
    config: AdaptiveSearchConfig | None = None,
    executor: str = "process",
    time_limit: float | None = None,
    poll_every: int = 128,
    launch_overhead: float = 0.0,
    mp_context: str | None = None,
    pool: Optional["SolverService"] = None,
    cluster: "ClusterClient | tuple[str, int] | str | None" = None,
    lanes: int | None = None,
    coop: "CoopConfig | dict | None" = None,
) -> ParallelResult:
    """One-shot convenience wrapper around :class:`MultiWalkSolver`.

    All executor tunables (``poll_every``, ``launch_overhead``,
    ``mp_context``, ``pool``, ``cluster``, ``coop``) are forwarded; see
    :class:`MultiWalkSolver` for their meaning.
    """
    solver = MultiWalkSolver(
        config,
        executor=executor,
        poll_every=poll_every,
        launch_overhead=launch_overhead,
        mp_context=mp_context,
        pool=pool,
        cluster=cluster,
        lanes=lanes,
        coop=coop,
    )
    return solver.solve(problem, n_walkers, seed, time_limit=time_limit)
