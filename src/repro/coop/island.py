"""One island: a synchronized group of walkers around a local elite pool.

:class:`IslandRunner` is the node-side execution loop of the cross-node
cooperative scheme.  It is the in-process
:class:`~repro.parallel.cooperative.CooperativeMultiWalk` round loop lifted
into a form a :class:`~repro.net.agent.NodeAgent` can host on a thread:

- the island's walkers are resumable
  :class:`~repro.core.session.AdaptiveSearchSession`\\ s advancing in
  synchronized rounds of ``report_interval`` iterations, each feeding a
  local :class:`~repro.parallel.cooperative.ElitePool`;
- every ``migration_interval`` rounds the island *reports* its best
  (cost, configuration) upward through ``send_report`` and then blocks on
  ``inbox`` for the matching migrant batch — arriving migrants are offered
  into the local pool, where the ordinary adoption policy picks them up;
- a report whose push never arrives within ``migration_timeout`` is
  counted in ``migrations_lost`` and the island simply continues — losing
  every migration degrades the scheme to independent multi-walk, never to
  a hang.

The runner is transport-agnostic on purpose: ``send_report`` is any
non-blocking callable and ``inbox`` any queue, so the same loop is driven
by the real cluster protocol in production and by plain lists in tests.

Determinism: the adoption RNG is derived solely from ``(coop.seed,
island id)``, walker trajectories from their walk seeds, and migrant
batches from the coordinator's deterministic relay — so a fixed job seed
reproduces the island's decisions exactly.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.coop.config import COOP_STREAM, CoopConfig
from repro.core.config import AdaptiveSearchConfig
from repro.core.session import AdaptiveSearchSession
from repro.core.termination import TerminationReason
from repro.errors import CoopError
from repro.parallel.cooperative import (
    ElitePool,
    adopt_elite,
    round_allowance,
    session_outcome,
)
from repro.parallel.results import WalkOutcome
from repro.problems.base import Problem
from repro.telemetry.events import EliteAdopt

__all__ = ["IslandRunner", "IslandOutcome", "MigrantBatch"]


@dataclass(frozen=True)
class MigrantBatch:
    """One relayed migration round as the island receives it.

    ``migrants`` pairs each source island with the elite configuration it
    contributed; an empty list is a completed round that routed nothing to
    this island (e.g. a two-island ring where the partner died)."""

    round_index: int
    migrants: tuple[tuple[int, float, np.ndarray], ...] = ()


@dataclass
class IslandOutcome:
    """What one island hands back to its hosting agent."""

    island: int
    walks: list[WalkOutcome] = field(default_factory=list)
    winner: Optional[WalkOutcome] = None
    rounds: int = 0
    cancelled: bool = False
    #: reports_sent / migrations_in / migrations_lost / adoptions /
    #: pool_offers / pool_accepts — folded into the job-level coop stats
    stats: dict[str, int] = field(default_factory=dict)


class IslandRunner:
    """Run one island of walkers with periodic elite migration.

    Parameters
    ----------
    problem / config:
        the instance and a fully resolved solver configuration (the
        coordinator ships the job's config; defaults were merged
        client-side exactly as for independent net walks).
    coop:
        the job's :class:`~repro.coop.config.CoopConfig`; ``coop.seed``
        must be filled in by this point (the client guarantees it).
    island:
        this island's coordinator-assigned id (keys the adoption RNG).
    walk_ids / seeds:
        the cluster-wide walk ids of this island's walkers and their
        :class:`~numpy.random.SeedSequence`\\ s, aligned index-for-index.
    send_report:
        non-blocking callable ``(round_index, cost, config)`` shipping
        this island's elite upward.
    inbox:
        queue the host feeds :class:`MigrantBatch` instances into.
    cancel:
        event ending the island early (cluster-level job cancel).
    recorder:
        optional telemetry recorder for ``elite_adopt`` events.
    """

    def __init__(
        self,
        problem: Problem,
        config: AdaptiveSearchConfig,
        coop: CoopConfig,
        *,
        island: int,
        walk_ids: Sequence[int],
        seeds: Sequence[Any],
        send_report: Callable[[int, float, np.ndarray], None],
        inbox: "queue.Queue[MigrantBatch]",
        cancel: threading.Event | None = None,
        recorder: Any = None,
        trace_id: str = "",
        job_id: int = -1,
    ) -> None:
        if len(walk_ids) != len(seeds):
            raise CoopError(
                f"island {island} got {len(walk_ids)} walk ids but "
                f"{len(seeds)} seeds"
            )
        if not walk_ids:
            raise CoopError(f"island {island} has no walkers")
        if coop.seed is None:
            raise CoopError("CoopConfig.seed must be set before an island runs")
        self.problem = problem
        self.config = config
        self.coop = coop
        self.island = island
        self.walk_ids = list(walk_ids)
        self.seeds = list(seeds)
        self.send_report = send_report
        self.inbox = inbox
        self.cancel = cancel if cancel is not None else threading.Event()
        self.recorder = recorder
        self.trace_id = trace_id
        self.job_id = job_id
        #: adoption decisions draw from a stream owned by (seed, island) —
        #: independent of walker seeds and of which node hosts the island
        self._rng = np.random.default_rng(
            np.random.SeedSequence(coop.seed, spawn_key=(COOP_STREAM, island))
        )
        self.pool = ElitePool(coop.pool_size)

    # ------------------------------------------------------------------
    def run(self) -> IslandOutcome:
        """Drive the island to its end (solve, exhaustion, or cancel)."""
        coop = self.coop
        cfg = self.config
        sessions = {
            walk_id: AdaptiveSearchSession(self.problem, cfg, seed)
            for walk_id, seed in zip(self.walk_ids, self.seeds)
        }
        last_adopt = {walk_id: 0 for walk_id in self.walk_ids}
        finished: dict[int, TerminationReason] = {}
        stats = {
            "reports_sent": 0,
            "migrations_in": 0,
            "migrations_lost": 0,
            "adoptions": 0,
        }
        active = set(self.walk_ids)
        winner_id: Optional[int] = None
        rounds = 0
        started = time.perf_counter()

        while active and winner_id is None and not self.cancel.is_set():
            rounds += 1
            for walk_id in sorted(active):
                if self.cancel.is_set():
                    break
                session = sessions[walk_id]
                chunk = round_allowance(session, coop.report_interval, started)
                if isinstance(chunk, TerminationReason):  # budget spent
                    finished[walk_id] = chunk
                    active.discard(walk_id)
                    continue
                out = session.step(chunk)
                if out is TerminationReason.SOLVED:
                    winner_id = walk_id
                    finished[walk_id] = out
                    active.discard(walk_id)
                    break
                if out is not None:  # restarts exhausted / callback cancel
                    finished[walk_id] = out
                    active.discard(walk_id)
                    continue
                self.pool.offer(session.cost, session.state.config)
                self._maybe_adopt(session, walk_id, last_adopt, stats)
            if winner_id is None and active and not self.cancel.is_set():
                if rounds % coop.migration_interval == 0:
                    self._migrate(rounds, stats)

        walks = [
            session_outcome(walk_id, sessions[walk_id], finished[walk_id])
            for walk_id in self.walk_ids
            if walk_id in finished
        ]
        winner = next((w for w in walks if w.walk_id == winner_id), None)
        stats["pool_offers"] = self.pool.offers
        stats["pool_accepts"] = self.pool.accepts
        return IslandOutcome(
            island=self.island,
            walks=walks,
            winner=winner,
            rounds=rounds,
            cancelled=self.cancel.is_set(),
            stats=stats,
        )

    # ------------------------------------------------------------------
    def _maybe_adopt(
        self,
        session: AdaptiveSearchSession,
        walk_id: int,
        last_adopt: dict[int, int],
        stats: dict[str, int],
    ) -> None:
        """The local adoption policy — identical to the in-process scheme."""
        cost_before = session.cost
        last_adopt[walk_id], elite_cost = adopt_elite(
            session, self.pool, self.coop, self._rng, last_adopt[walk_id]
        )
        if elite_cost is None:
            return
        stats["adoptions"] += 1
        if self.recorder is not None and self.recorder.enabled:
            self.recorder.emit(
                EliteAdopt(
                    trace_id=self.trace_id,
                    job_id=self.job_id,
                    walk_id=walk_id,
                    island=self.island,
                    iteration=session.stats.iterations,
                    cost_before=float(cost_before),
                    cost_elite=elite_cost,
                )
            )

    def _migrate(self, round_index: int, stats: dict[str, int]) -> None:
        """Report the island's elite and wait for the relayed migrants."""
        best = self.pool.best()
        if best is None:  # nothing finite reported yet: skip this round
            return
        cost, config = best
        self.send_report(round_index, float(cost), config)
        stats["reports_sent"] += 1
        deadline = time.monotonic() + self.coop.migration_timeout
        while not self.cancel.is_set():
            timeout = deadline - time.monotonic()
            if timeout <= 0:
                stats["migrations_lost"] += 1
                return
            try:
                batch = self.inbox.get(timeout=min(timeout, 0.05))
            except queue.Empty:
                continue
            if batch.round_index > round_index:  # pragma: no cover - guard
                return  # protocol skew; never relayed for unreported rounds
            for _, migrant_cost, migrant_config in batch.migrants:
                self.pool.offer(float(migrant_cost), migrant_config)
                stats["migrations_in"] += 1
            if batch.round_index == round_index:
                return
            # an older round's push straggled in: its migrants were folded
            # into the pool above, but keep waiting for the current round
