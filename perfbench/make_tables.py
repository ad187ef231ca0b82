"""Regenerate ``tables.json``: the benchmark's fixed input pools and the
reference trajectory digests its output checks compare against.

    python3 perfbench/make_tables.py

Run it only when a workload's pools or budgets change on purpose; a
program change that alters a digest must fail the benchmark, not refresh
the table.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from checks import TABLES, walk_digest  # noqa: E402


def engine_digests() -> dict[str, dict[str, str]]:
    """Scalar reference digest of every pooled walk seed."""
    from repro import AdaptiveSearch, AdaptiveSearchConfig, make_problem

    import wl_engine

    out: dict[str, dict[str, str]] = {}
    for family, (size, budget, _) in wl_engine.FAMILIES.items():
        problem = make_problem(family, n=size)
        solver = AdaptiveSearch(AdaptiveSearchConfig(max_iterations=budget))
        out[family] = {}
        for walk_seed in range(wl_engine.POOL):
            result = solver.solve(problem, seed=np.random.SeedSequence(walk_seed))
            out[family][str(walk_seed)] = walk_digest(
                result.iterations, result.cost, result.config
            )
    return out


def multiwalk_pool() -> dict[str, list[int]]:
    """Job seeds whose k=2 first finisher needs an iteration count inside
    each family's band, so no single job dominates the tail.

    The first finisher of a k=2 job is (almost always) the walk needing
    fewer iterations, which lock-step lanes with ``first_wins`` find.
    """
    from repro import AdaptiveSearchConfig, make_problem
    from repro.vector.engine import solve_vector

    import wl_multiwalk

    config = AdaptiveSearchConfig(max_iterations=wl_multiwalk.BUDGET)
    out: dict[str, list[int]] = {}
    for family, (size, low, high) in wl_multiwalk.FAMILIES.items():
        problem = make_problem(family, n=size)
        keep: list[int] = []
        job_seed = wl_multiwalk.FIRST_JOB_SEED
        while len(keep) < wl_multiwalk.POOL:
            outcome = solve_vector(
                problem, wl_multiwalk.WALKERS, job_seed, config=config,
                first_wins=True,
            )
            iterations = outcome.walks[outcome.winner_lane].iterations
            if low <= iterations <= high:
                keep.append(job_seed)
            job_seed += 1
        out[family] = keep
    return out


def main() -> None:
    tables = {
        "engine": engine_digests(),
        "multiwalk": multiwalk_pool(),
    }
    TABLES.write_text(json.dumps(tables, indent=1, sort_keys=True) + "\n")
    print(f"wrote {TABLES}")


if __name__ == "__main__":
    main()
