"""``multiwalk`` workload: one researcher sampling runtimes on the cluster.

A closed loop with one client: ``ClusterClient.solve`` with k=2 walks per
job, next job only after the previous one answered.  Jobs alternate
between costas-12 and magic-square-10; each family's job seeds come from
a pool in ``tables.json`` whose first finisher needs an iteration count
inside a band (``make_tables.py``), so no single job dominates the tail.
Each run walks seeded permutations of the pools.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from checks import Checks, load_tables
from measure import FAILED, end_to_end, nearest_rank, overhead_pct
from spans import Tracer
from stack import (
    WARM_SEED,
    IterationTap,
    counter_delta,
    measured_run,
    run_ladder,
    settled_stats,
)

#: family -> (size, fewest and most first-finisher iterations kept)
FAMILIES = {
    "costas": (12, 100, 600),
    "magic_square": (10, 500, 2000),
}
WALKERS = 2
BUDGET = 100_000
POOL = 64
FIRST_JOB_SEED = 0
LADDER_JOBS = 12


@dataclass
class Job:
    family: str
    size: int
    seed: int
    start: float = 0.0
    end: float = 0.0
    result: Any = None
    error: str = ""


def jobs(seed: int):
    """Endless job stream: families alternate, each walking seeded
    permutations of its pool."""
    rng = np.random.default_rng(seed)
    pools = load_tables()["multiwalk"]
    order: dict[str, list[int]] = {f: [] for f in FAMILIES}
    while True:
        for family, (size, _, _) in FAMILIES.items():
            if not order[family]:
                order[family] = [int(s) for s in rng.permutation(pools[family])]
            yield Job(family, size, order[family].pop())


class Runner:
    def __init__(self) -> None:
        from repro import AdaptiveSearchConfig, make_problem

        self.config = AdaptiveSearchConfig(max_iterations=BUDGET)
        self.problems = {
            family: make_problem(family, n=size)
            for family, (size, _, _) in FAMILIES.items()
        }

    def warm(self, stack) -> None:
        for problem in self.problems.values():
            stack.client.solve(problem, WALKERS, WARM_SEED, config=self.config)

    def phase(self, stack, seed: int, seconds: float,
              tracer: Tracer | None = None) -> tuple[list[Job], float]:
        done = []
        stream = jobs(seed)
        start = time.perf_counter()
        deadline = start + seconds
        while time.perf_counter() < deadline:
            job = next(stream)
            problem = self.problems[job.family]
            job.start = time.perf_counter()
            try:
                job.result = stack.client.solve(
                    problem, WALKERS, job.seed, config=self.config, timeout=120
                )
            except Exception as err:  # noqa: BLE001 - counted as a failure
                job.error = f"{type(err).__name__}: {err}"
            job.end = time.perf_counter()
            if tracer is not None:
                tracer.add("net.solve", job.start, job.end,
                           trace_id=f"multiwalk-{seed}-{len(done)}",
                           family=job.family, seed=job.seed)
            done.append(job)
        return done, time.perf_counter() - start

    def verify(self, done: list[Job], checks: Checks) -> list[bool]:
        passed = []
        for job in done:
            label = f"{job.family}-{job.size} job seed {job.seed}"
            if job.error:
                passed.append(checks.fail(f"{label}: {job.error}"))
            elif not job.result.solved:
                passed.append(checks.fail(f"{label}: status {job.result.status.value}"))
            else:
                passed.append(
                    checks.solution(self.problems[job.family], job.result.config, label)
                )
        return passed


def latencies(done: list[Job], passed: list[bool]) -> list[float]:
    return [j.end - j.start if ok else FAILED for j, ok in zip(done, passed)]


def winner_iterations(done: list[Job]) -> int:
    return sum(
        j.result.winner.iterations
        for j in done
        if j.result is not None and j.result.winner is not None
    )


def execute(seed: int, seconds: float, trace: bool, out_dir) -> dict:
    checks = Checks()
    runner = Runner()

    def measure(stack) -> dict:
        done, elapsed = runner.phase(stack, seed, seconds / 2 if trace else seconds)
        passed = runner.verify(done, checks)
        report = {
            "attempted": len(done),
            "failed": passed.count(False),
            "errors": checks.errors,
        }
        if not trace:
            report["metrics"] = end_to_end(
                latencies(done, passed), passed.count(True),
                elapsed, winner_iterations(done),
            )
            report["correct"] = checks.correct
            return report

        tracer = Tracer()
        tap = IterationTap(stack)
        before = stack.client.stats()
        traced, _ = runner.phase(stack, seed, seconds / 2, tracer)
        after = settled_stats(stack)
        traced_passed = runner.verify(traced, checks)
        metrics = counter_delta(before, after)
        useful = winner_iterations(traced)
        metrics["net.wasted_iter_ratio"] = (
            (tap.iterations - useful) / tap.iterations if tap.iterations else 0.0
        )
        overhead = [
            (j.end - j.start) - j.result.winner.wall_time
            for j, ok in zip(traced, traced_passed) if ok
        ]
        if overhead:
            metrics["net.job_overhead_ms.p50"] = 1e3 * nearest_rank(overhead, 0.5)
            metrics["net.job_overhead_ms.p90"] = 1e3 * nearest_rank(overhead, 0.9)
        metrics["bench.tracing_overhead_pct"] = overhead_pct(
            latencies(done, passed), latencies(traced, traced_passed)
        )
        sample = [
            {"family": j.family, "size": j.size, "seed": j.seed,
             "walkers": WALKERS, "winner": j.result.winner.walk_id}
            for j, ok in zip(traced, traced_passed) if ok
        ][:LADDER_JOBS]
        sampled = {(j["family"], j["seed"]) for j in sample}
        primers = {
            family: [s for s in load_tables()["multiwalk"][family]
                     if (family, s) not in sampled]
            for family in FAMILIES
        }
        metrics.update(
            run_ladder(stack, sample, primers, BUDGET + 1, tracer, checks)
        )
        tracer.write(out_dir / f"spans-multiwalk-seed{seed}.jsonl.gz")
        report.update(
            attempted=len(done) + len(traced),
            failed=report["failed"] + traced_passed.count(False),
            correct=checks.correct,
            metrics=metrics,
        )
        return report

    return measured_run(runner.warm, measure)

