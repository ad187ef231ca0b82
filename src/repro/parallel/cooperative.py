"""Dependent multi-walk: cooperation through an elite pool.

The paper's conclusion sketches its future work: "more complex parallel
methods with inter-processes communication, i.e., in the dependent
multiple-walk scheme", designed to (1) minimize data transfers and (2)
re-use common computations / record "previous interesting crossroads in the
resolution, from which a restart can be operated" — while warning that "it
is a challenge to design a scheme that could outperform the independent
multiple-walk parallelization" because configuration costs are heuristic.

This module implements exactly that scheme so the conjecture can be tested:

- walkers are resumable :class:`~repro.core.session.AdaptiveSearchSession`s
  advancing in synchronized rounds of ``report_interval`` iterations;
- after each round a walker *reports* its current (cost, configuration) to
  a bounded :class:`ElitePool` (the "recorded crossroads") — the only data
  transfer, a single configuration vector;
- every ``adopt_interval`` iterations a walker may *adopt* a pool elite:
  with probability ``p_adopt``, if some elite beats its current cost by at
  least ``min_relative_gain``, the walker restarts from a perturbed copy of
  it (perturbation keeps the walkers diverse).

The executor is the deterministic inline one (synchronized rounds make the
scheme well-defined and exactly measurable in iteration time on any host);
``benchmarks/bench_abl_cooperation.py`` compares it head-to-head against
the paper's independent scheme.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.managers import BaseManager
from typing import Any, Optional

import numpy as np

from repro.core.config import AdaptiveSearchConfig
from repro.core.result import SolveResult
from repro.core.session import AdaptiveSearchSession
from repro.core.termination import TerminationReason
from repro.csp.permutation import random_partial_reset
from repro.errors import ParallelError
from repro.parallel.fanout import fan_out
from repro.parallel.results import WalkOutcome, walk_payload
from repro.parallel.seeding import walk_seeds
from repro.problems.base import Problem
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_fraction, check_probability

__all__ = [
    "CooperationConfig",
    "ElitePool",
    "CooperativeMultiWalk",
    "CooperativeResult",
    "adopt_elite",
    "round_allowance",
    "session_outcome",
]


@dataclass(frozen=True)
class CooperationConfig:
    """Tuning of the dependent multi-walk scheme.

    Parameters
    ----------
    report_interval:
        iterations per synchronized round; each walker reports its current
        configuration to the pool once per round.
    adopt_interval:
        minimum iterations a walker searches on its own between adoption
        attempts.
    p_adopt:
        probability an eligible adoption attempt actually happens.
    pool_size:
        elite pool capacity (best configurations seen, deduplicated).
    min_relative_gain:
        adopt only when the elite cost is below
        ``(1 - min_relative_gain) * own cost`` — the paper's warning made
        operational: heuristic costs are noisy, so small differences are
        not worth a jump.
    perturb_fraction:
        fraction of variables shuffled in the adopted copy, keeping
        walkers from collapsing onto identical trajectories.
    """

    report_interval: int = 64
    adopt_interval: int = 256
    p_adopt: float = 0.8
    pool_size: int = 8
    min_relative_gain: float = 0.1
    perturb_fraction: float = 0.05

    def __post_init__(self) -> None:
        if self.report_interval < 1:
            raise ParallelError(
                f"report_interval must be >= 1, got {self.report_interval}"
            )
        if self.adopt_interval < 1:
            raise ParallelError(
                f"adopt_interval must be >= 1, got {self.adopt_interval}"
            )
        if self.pool_size < 1:
            raise ParallelError(f"pool_size must be >= 1, got {self.pool_size}")
        try:
            check_probability("p_adopt", self.p_adopt)
            check_probability("min_relative_gain", self.min_relative_gain)
            check_fraction("perturb_fraction", self.perturb_fraction)
        except ValueError as err:
            raise ParallelError(str(err)) from None


class ElitePool:
    """Bounded pool of the best configurations reported so far.

    Entries are kept sorted by cost; duplicate configurations are ignored;
    offering a configuration worse than the current worst entry of a full
    pool is a no-op.  The pool only ever stores copies.

    Offers with a non-finite cost (NaN, ±inf) are rejected outright and
    counted in ``rejected`` — heuristic costs are noisy but they are never
    legitimately infinite, so such an offer is a corrupted migrant or an
    uninitialized walker, not an elite.

    The pool is thread-safe: the cluster-side island loop offers from a
    runner thread while its hosting agent folds arriving migrants in from
    the event-loop side, so every mutation and read happens under one
    internal lock.  (The in-process cooperative executor is single-threaded
    and pays only an uncontended acquire.)
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ParallelError(f"pool capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: list[tuple[float, np.ndarray]] = []
        self._lock = threading.Lock()
        self.offers = 0
        self.accepts = 0
        self.rejected = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def offer(self, cost: float, config: np.ndarray) -> bool:
        """Report a configuration; returns True if it entered the pool."""
        with self._lock:
            self.offers += 1
            cost = float(cost)
            if not math.isfinite(cost):
                self.rejected += 1
                return False
            if (
                len(self._entries) >= self.capacity
                and cost >= self._entries[-1][0]
            ):
                return False
            key = config.tobytes()
            for existing_cost, existing in self._entries:
                if existing_cost == cost and existing.tobytes() == key:
                    return False
            self._entries.append((cost, np.array(config, copy=True)))
            self._entries.sort(key=lambda e: e[0])
            del self._entries[self.capacity :]
            self.accepts += 1
            return True

    def best(self) -> Optional[tuple[float, np.ndarray]]:
        """The lowest-cost entry (cost, copy of config), or None if empty."""
        with self._lock:
            if not self._entries:
                return None
            cost, config = self._entries[0]
            return cost, config.copy()

    def best_cost(self) -> float:
        with self._lock:
            return self._entries[0][0] if self._entries else float("inf")

    def counters(self) -> dict[str, int]:
        """``offers`` / ``accepts`` / ``rejected`` — readable through a
        manager proxy, which forwards methods but not attributes."""
        with self._lock:
            return {
                "offers": self.offers,
                "accepts": self.accepts,
                "rejected": self.rejected,
            }


@dataclass
class CooperativeResult:
    """Outcome of one cooperative multi-walk execution.

    ``parallel_iterations`` is the completion time in the synchronized
    iteration clock: walkers advance in lockstep, so the run ends after the
    winner's own iteration count (all walkers execute iterations at the
    same rate on dedicated cores).
    """

    solved: bool
    n_walkers: int
    winner: Optional[WalkOutcome]
    walks: list[WalkOutcome] = field(default_factory=list)
    rounds: int = 0
    parallel_iterations: int = 0
    total_iterations: int = 0
    adoptions: int = 0
    pool_offers: int = 0
    pool_accepts: int = 0
    elapsed_time: float = 0.0

    @property
    def config(self) -> Optional[np.ndarray]:
        return self.winner.config if self.winner is not None else None

    def summary(self) -> str:
        status = (
            f"SOLVED by walk {self.winner.walk_id}" if self.solved else "UNSOLVED"
        )
        return (
            f"cooperative multi-walk x{self.n_walkers}: {status} after "
            f"{self.rounds} rounds ({self.parallel_iterations} parallel "
            f"iterations, {self.adoptions} adoptions, pool "
            f"{self.pool_accepts}/{self.pool_offers} accepts)"
        )


class CooperativeMultiWalk:
    """Dependent multi-walk driver.

    Two executors:

    - ``"inline"`` (default) — synchronized rounds in one process:
      deterministic, exact iteration-clock measurement; the reference
      implementation for experiments.
    - ``"process"`` — real OS processes (started through the shared
      :func:`~repro.parallel.fanout.fan_out`) sharing one
      :class:`ElitePool` hosted by a :mod:`multiprocessing` manager;
      non-deterministic (adoption timing depends on scheduling) but gives
      true parallelism on multi-core hosts.
    """

    def __init__(
        self,
        solver_config: AdaptiveSearchConfig | None = None,
        cooperation: CooperationConfig | None = None,
        *,
        executor: str = "inline",
        use_problem_defaults: bool = True,
        mp_context: str | None = None,
    ) -> None:
        if executor not in ("inline", "process"):
            raise ParallelError(
                f"unknown executor {executor!r}; choose 'inline' or 'process'"
            )
        self.solver_config = solver_config or AdaptiveSearchConfig()
        self.cooperation = cooperation or CooperationConfig()
        self.executor = executor
        self.use_problem_defaults = use_problem_defaults
        self.mp_context = mp_context

    # ------------------------------------------------------------------
    def solve(
        self,
        problem: Problem,
        n_walkers: int,
        seed: SeedLike = None,
        *,
        max_rounds: int = 1_000_000,
    ) -> CooperativeResult:
        """Run until one walker solves, every walker finishes, or
        ``max_rounds`` synchronized rounds elapse (inline executor only)."""
        if max_rounds < 1:
            raise ParallelError(f"max_rounds must be >= 1, got {max_rounds}")
        coop = self.cooperation
        config = self.solver_config
        if self.use_problem_defaults:
            config = config.merged_with(problem.default_solver_parameters())
        if self.executor == "process":
            return self._solve_process(problem, n_walkers, seed, config)

        seeds = walk_seeds(n_walkers + 1, seed)
        coordinator_rng = as_generator(seeds[-1])
        sessions = [
            AdaptiveSearchSession(problem, config, walk_seed)
            for walk_seed in seeds[:-1]
        ]
        pool = ElitePool(coop.pool_size)
        last_adopt = [0] * n_walkers
        adoptions = 0
        t0 = time.perf_counter()

        winner_id: int | None = None
        rounds = 0
        active = set(range(n_walkers))
        while rounds < max_rounds and active and winner_id is None:
            rounds += 1
            for walk_id in sorted(active):
                session = sessions[walk_id]
                out = session.step(coop.report_interval)
                if out is TerminationReason.SOLVED:
                    winner_id = walk_id
                    break
                if out is not None:  # budget/restart exhaustion
                    active.discard(walk_id)
                    continue
                # report: one configuration, the paper's minimal transfer
                pool.offer(session.cost, session.state.config)
                # adopt: restart from a recorded crossroad
                last_adopt[walk_id], elite_cost = adopt_elite(
                    session, pool, coop, coordinator_rng, last_adopt[walk_id]
                )
                adoptions += elite_cost is not None

        walks = [session_outcome(idx, s) for idx, s in enumerate(sessions)]
        winner = walks[winner_id] if winner_id is not None else None
        return _cooperative_result(
            walks,
            winner,
            rounds=rounds,
            adoptions=adoptions,
            pool_offers=pool.offers,
            pool_accepts=pool.accepts,
            elapsed_time=time.perf_counter() - t0,
        )

    # ------------------------------------------------------------------
    def _solve_process(
        self,
        problem: Problem,
        n_walkers: int,
        seed: SeedLike,
        config: AdaptiveSearchConfig,
    ) -> CooperativeResult:
        """Real-process executor; see class docstring for the trade-offs."""
        t0 = time.perf_counter()
        with _PoolManager(ctx=mp.get_context(self.mp_context)) as manager:
            pool = manager.ElitePool(self.cooperation.pool_size)
            targets = [
                (
                    run_cooperative_walk,
                    (walk_id, problem, config, self.cooperation, walk_seed, pool),
                )
                for walk_id, walk_seed in enumerate(walk_seeds(n_walkers, seed))
            ]
            payloads, _ = fan_out(
                targets, n_walkers, config.time_limit, self.mp_context
            )
            counters = pool.counters()

        walks = [
            WalkOutcome.from_payload(walk_id, payload)
            for walk_id, payload in sorted(payloads.items())
        ]
        solved_walks = [w for w in walks if w.solved]
        winner = min(solved_walks, key=lambda w: w.iterations, default=None)
        return _cooperative_result(
            walks,
            winner,
            rounds=0,  # rounds are a synchronized-executor notion
            adoptions=sum(p["adoptions"] for p in payloads.values()),
            pool_offers=counters["offers"],
            pool_accepts=counters["accepts"],
            elapsed_time=time.perf_counter() - t0,
        )


def session_outcome(
    walk_id: int,
    session: AdaptiveSearchSession,
    reason: Optional[TerminationReason] = None,
) -> WalkOutcome:
    """Report a cooperative walker (synchronized-round executors).

    ``reason`` overrides the session's own when the walk was stopped from
    outside a step; a walk stopped by neither counts as cancelled.
    """
    return WalkOutcome(
        walk_id=walk_id,
        solved=session.solved,
        cost=session.best_cost,
        iterations=session.stats.iterations,
        wall_time=session.elapsed,
        reason=reason or session.reason or TerminationReason.CANCELLED,
        config=session.best_config if session.solved else None,
    )


def _cooperative_result(
    walks: list[WalkOutcome], winner: Optional[WalkOutcome], **counters: Any
) -> CooperativeResult:
    """Fold finished walks into a result; the iteration clock ends at the
    winner's count, or at the longest walk when none solved."""
    return CooperativeResult(
        solved=winner is not None,
        n_walkers=len(walks),
        winner=winner,
        walks=walks,
        parallel_iterations=(
            winner.iterations
            if winner is not None
            else max((w.iterations for w in walks), default=0)
        ),
        total_iterations=sum(w.iterations for w in walks),
        **counters,
    )


def adopt_elite(
    session: AdaptiveSearchSession,
    pool: Any,
    coop: Any,
    rng: np.random.Generator,
    last_adopt: int,
) -> tuple[int, Optional[float]]:
    """One adoption attempt: the policy every cooperative walker follows.

    Eligible once ``coop.adopt_interval`` iterations have passed since
    ``last_adopt``; then, with probability ``coop.p_adopt``, the walker
    restarts from a perturbed copy of the pool's best elite if that elite
    beats its current cost by ``coop.min_relative_gain``.  ``pool`` is an
    :class:`ElitePool` (or a proxy of one) and ``coop`` any config with the
    four adoption fields.  The RNG draws in a fixed order — the ``p_adopt``
    draw, then the perturbation — so a seed fixes every decision.

    Returns the walker's new last-attempt iteration and the adopted
    elite's cost (``None`` when nothing was adopted).
    """
    if session.stats.iterations - last_adopt < coop.adopt_interval:
        return last_adopt, None
    last_adopt = session.stats.iterations
    if rng.random() >= coop.p_adopt:
        return last_adopt, None
    elite = pool.best()
    if elite is None or elite[0] >= (1.0 - coop.min_relative_gain) * session.cost:
        return last_adopt, None
    adopted = elite[1]
    random_partial_reset(adopted, coop.perturb_fraction, rng)
    session.inject_configuration(adopted)
    return last_adopt, float(elite[0])


def round_allowance(
    session: AdaptiveSearchSession, interval: int, started: float
) -> int | TerminationReason:
    """A cooperative walker's next step size: ``interval`` iterations,
    capped by what is left of its iteration budget — or, once its
    iteration or time budget (counted from ``started``) is spent, the
    reason it stops."""
    config = session.config
    remaining = config.max_iterations - session.stats.iterations
    if remaining <= 0:
        return TerminationReason.MAX_ITERATIONS
    if time.perf_counter() - started >= config.time_limit:
        return TerminationReason.TIME_LIMIT
    return int(min(interval, remaining))


class _PoolManager(BaseManager):
    """Serves one :class:`ElitePool` to every walker process."""


_PoolManager.register("ElitePool", ElitePool)


def run_cooperative_walk(
    walk_id: int,
    problem: Problem,
    config: AdaptiveSearchConfig,
    coop: CooperationConfig,
    seed: np.random.SeedSequence,
    pool: Any,
    cancel_event: Any,
    result_queue: Any,
) -> None:
    """One cooperative walker process; always enqueues one result tuple.

    The inline round loop without the rounds: the walker steps
    ``report_interval`` iterations at a time, offers its configuration to
    the shared manager-hosted pool, and tries :func:`adopt_elite`, until
    it solves, spends its budget, or sees the cancel event.  All pool
    traffic is one configuration per walker per report interval — the
    paper's "minimizing data transfers" requirement.
    """
    try:
        walk_seed, adopt_seed = seed.spawn(2)
        session = AdaptiveSearchSession(problem, config, walk_seed)
        adopt_rng = np.random.default_rng(adopt_seed)
        started = time.perf_counter()
        last_adopt = 0
        adoptions = 0
        while True:
            chunk = round_allowance(session, coop.report_interval, started)
            if isinstance(chunk, TerminationReason):
                reason = chunk
                break
            reason = session.step(chunk)
            if reason is TerminationReason.SOLVED:
                cancel_event.set()
            if reason is not None:
                break
            if cancel_event.is_set():
                reason = TerminationReason.CANCELLED
                break
            pool.offer(session.cost, session.state.config)
            last_adopt, elite_cost = adopt_elite(
                session, pool, coop, adopt_rng, last_adopt
            )
            adoptions += elite_cost is not None
        session.stats.wall_time = session.elapsed
        payload = walk_payload(
            SolveResult(
                solved=session.solved,
                config=session.best_config,
                cost=session.best_cost,
                reason=reason,
                stats=session.stats,
            )
        )
        payload["adoptions"] = adoptions
        result_queue.put((walk_id, payload))
    except Exception:  # pragma: no cover - defensive: surface worker crashes
        import traceback

        result_queue.put((walk_id, {"error": traceback.format_exc()}))
