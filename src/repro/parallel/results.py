"""Result types of multi-walk runs, and the walk-report codec.

Every executor that runs a walk in another process ships its outcome home
as one picklable dict built by :func:`walk_payload` and rebuilt by
:meth:`WalkOutcome.from_payload` — the single encoding of a walk report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.core.termination import TerminationReason

__all__ = ["WalkOutcome", "ParallelResult", "walk_payload"]


@dataclass
class WalkOutcome:
    """What one walk reported when it stopped."""

    walk_id: int
    solved: bool
    cost: float
    iterations: int
    wall_time: float
    reason: TerminationReason
    config: Optional[np.ndarray] = None

    @classmethod
    def from_payload(cls, walk_id: int, payload: dict[str, Any]) -> "WalkOutcome":
        """Rebuild a walk report encoded by :func:`walk_payload`."""
        return cls(
            walk_id=walk_id,
            solved=payload["solved"],
            cost=payload["cost"],
            iterations=payload["iterations"],
            wall_time=payload["wall_time"],
            reason=TerminationReason[payload["reason"]],
            config=(
                np.asarray(payload["config"], dtype=np.int64)
                if payload["config"] is not None
                else None
            ),
        )

    def as_dict(self) -> dict[str, object]:
        return {
            "walk_id": self.walk_id,
            "solved": self.solved,
            "cost": self.cost,
            "iterations": self.iterations,
            "wall_time": self.wall_time,
            "reason": self.reason.name,
        }


def walk_payload(result: Any) -> dict[str, Any]:
    """Reduce a :class:`~repro.core.result.SolveResult` to the picklable
    walk-report dict.

    The configuration ships whether or not the walk solved —
    ``result.config`` is the best configuration *seen*, which is what
    graceful degradation (deadline expiry, partial cluster loss) returns
    to the client as best-so-far.
    """
    return {
        "solved": result.solved,
        "cost": result.cost,
        "iterations": result.stats.iterations,
        "wall_time": result.stats.wall_time,
        "reason": result.reason.name,
        "config": (
            result.config.tolist() if result.config is not None else None
        ),
    }


@dataclass
class ParallelResult:
    """Outcome of one independent multi-walk execution.

    ``wall_time`` is the parallel completion time under multi-walk
    semantics: the winner's solving time (inline executor computes it as the
    exact min across walks; the process executor measures it).
    ``elapsed_time`` is the real time the whole call took on this host —
    on a single-core machine running ``k`` inline walks it is roughly the
    *sum*, not the min, which is exactly why the platform simulation exists.
    """

    solved: bool
    n_walkers: int
    winner: Optional[WalkOutcome]
    walks: list[WalkOutcome] = field(default_factory=list)
    wall_time: float = 0.0
    elapsed_time: float = 0.0
    executor: str = "inline"

    @property
    def config(self) -> Optional[np.ndarray]:
        """The winning configuration, if any walk solved."""
        return self.winner.config if self.winner is not None else None

    @property
    def total_iterations(self) -> int:
        """Iterations summed over all walks (total work performed)."""
        return sum(w.iterations for w in self.walks)

    def summary(self) -> str:
        status = (
            f"SOLVED by walk {self.winner.walk_id}" if self.solved else "UNSOLVED"
        )
        return (
            f"multi-walk x{self.n_walkers} [{self.executor}]: {status}, "
            f"parallel wall time {self.wall_time:.3f}s, "
            f"total work {self.total_iterations} iterations"
        )
