"""Output checks: every answer the benchmark receives is verified.

A solution is verified by the problem's own ``cost`` being 0; a walk that
stopped on its budget is verified by its reported cost matching the
problem's cost of its configuration, and by its trajectory digest
matching the committed reference in ``tables.json``.  Any failed check
makes the run report ``"correct": false``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Sequence

import numpy as np

TABLES = Path(__file__).resolve().parent / "tables.json"


def load_tables() -> dict[str, Any]:
    with open(TABLES, encoding="utf-8") as fh:
        return json.load(fh)


def walk_digest(iterations: int, cost: float, config: Sequence[int]) -> str:
    """Trajectory digest of one walk: iterations, final cost and a hash of
    the configuration it ended on."""
    config_hash = hashlib.sha256(
        np.asarray(config, dtype=np.int64).tobytes()
    ).hexdigest()[:16]
    return f"{int(iterations)}:{float(cost):g}:{config_hash}"


class Checks:
    """Collects failed verifications; ``correct`` is true while none has."""

    def __init__(self) -> None:
        self.errors: list[str] = []
        self.verified = 0

    @property
    def correct(self) -> bool:
        return not self.errors

    def fail(self, message: str) -> bool:
        self.errors.append(message)
        return False

    def solution(self, problem: Any, config: Any, label: str) -> bool:
        """``config`` must solve ``problem`` by its own cost function."""
        self.verified += 1
        if config is None:
            return self.fail(f"{label}: no solution returned")
        arr = np.asarray(config, dtype=np.int64)
        try:
            problem.check_configuration(arr)
        except Exception as err:  # noqa: BLE001 - any rejection fails the check
            return self.fail(f"{label}: invalid configuration: {err}")
        cost = problem.cost(arr)
        if cost != 0:
            return self.fail(f"{label}: returned configuration has cost {cost:g}")
        return True

    def walk(
        self,
        problem: Any,
        result: Any,
        reference: str | None,
        label: str,
    ) -> bool:
        """A budget-limited walk: reported cost is the configuration's cost
        and the trajectory digest equals the committed reference."""
        self.verified += 1
        cost = problem.cost(np.asarray(result.config, dtype=np.int64))
        if cost != result.cost:
            return self.fail(
                f"{label}: reported cost {result.cost:g} but configuration "
                f"costs {cost:g}"
            )
        digest = walk_digest(result.iterations, result.cost, result.config)
        if reference is None:
            return self.fail(f"{label}: no reference digest")
        if digest != reference:
            return self.fail(
                f"{label}: trajectory digest {digest} != reference {reference}"
            )
        return True

    def same_answer(self, first: Any, again: Any, label: str) -> bool:
        """A cached or coalesced answer equals the original job's answer."""
        self.verified += 1
        if first != again:
            return self.fail(f"{label}: repeated answer differs from original")
        return True
