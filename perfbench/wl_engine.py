"""``engine`` workload: back-to-back in-process walks, no dispatch layer.

Each round draws ``lanes`` walk seeds per family from that family's seed
pool.  The first seed runs once through ``AdaptiveSearch.solve``; all of
them run together as lanes through ``solve_vector``.  Every walk stops on
a fixed iteration budget, so an operation's work is fixed by its inputs
and its trajectory digest can be checked against ``tables.json``.
Budgets and lane counts give each family and each engine a comparable
share of wall time on a 2-core x86 host (~80-120 ms per operation).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from checks import Checks, load_tables
from measure import FAILED, end_to_end, median, overhead_pct, repeated_setups
from spans import Tracer, instrument_problem, problem_metrics

#: family -> (size, iteration budget, lanes per vector operation)
FAMILIES = {
    "magic_square": (100, 120, 4),
    "costas": (18, 300, 4),
    "all_interval": (200, 24, 2),
}
#: walk seeds 0..POOL-1 of each family have a committed reference digest
POOL = 48


@dataclass
class Op:
    family: str
    engine: str  # "scalar" or "vector"
    seeds: list[int]


@dataclass
class Done:
    op: Op
    start: float
    end: float
    results: list = field(default_factory=list)
    iterations: int = 0
    ok: bool = False


def make_ops(seed: int):
    """Endless seeded stream of operations, one round (one scalar and one
    vector operation per family) at a time, in a seeded order."""
    rng = np.random.default_rng(seed)
    while True:
        ops = []
        for family, (_, _, lanes) in FAMILIES.items():
            seeds = [int(s) for s in rng.choice(POOL, size=lanes, replace=False)]
            ops.append(Op(family, "scalar", seeds[:1]))
            ops.append(Op(family, "vector", seeds))
        for index in rng.permutation(len(ops)):
            yield ops[index]


class Engine:
    def __init__(self) -> None:
        from repro import AdaptiveSearch, AdaptiveSearchConfig, make_problem
        from repro.vector.engine import solve_vector

        self.make_problem = make_problem
        self.solve_vector = solve_vector
        self.config = {
            family: AdaptiveSearchConfig(max_iterations=budget)
            for family, (_, budget, _) in FAMILIES.items()
        }
        self.solvers = {
            family: AdaptiveSearch(cfg) for family, cfg in self.config.items()
        }
        self.problems: dict = {}
        self.vector_problems: dict = {}

    def build(self, tracer: Tracer | None = None) -> None:
        """Build every instance and warm both engines on each."""
        for family, (size, _, lanes) in FAMILIES.items():
            start = time.perf_counter()
            problem = self.make_problem(family, n=size)
            end = time.perf_counter()
            if tracer is not None:
                tracer.add("problems.build", start, end, family=family)
            self.problems[family] = problem
            self.vector_problems[family] = self.make_problem(family, n=size)
            seeds = [np.random.SeedSequence(POOL + i) for i in range(lanes)]
            self.solvers[family].solve(problem, seed=seeds[0])
            self.solve_vector(
                self.vector_problems[family], lanes, seeds=seeds,
                config=self.config[family],
            )

    def run(self, op: Op, tracer: Tracer | None, trace_id: str) -> Done:
        seeds = [np.random.SeedSequence(s) for s in op.seeds]
        if tracer is not None and op.engine == "scalar":
            # counts only this walk's calls, not the previous output check's
            self.tallies[op.family].reset()
        start = time.perf_counter()
        if op.engine == "scalar":
            problem = self.problems[op.family]
            result = self.solvers[op.family].solve(problem, seed=seeds[0])
            results = [result]
        else:
            outcome = self.solve_vector(
                self.vector_problems[op.family], len(seeds), seeds=seeds,
                config=self.config[op.family],
            )
            results = outcome.walks
        end = time.perf_counter()
        done = Done(op, start, end, results, sum(r.iterations for r in results))
        if tracer is not None:
            attrs = {"family": op.family, "iterations": done.iterations,
                     "lanes": len(results)}
            if op.engine == "scalar":
                attrs.update(self.tallies[op.family].snapshot())
                tracer.add("core.solve", start, end, trace_id=trace_id, **attrs)
            else:
                tracer.add("vector.solve", start, end, trace_id=trace_id, **attrs)
        return done

    def instrument(self) -> None:
        self.tallies = {
            family: instrument_problem(problem)
            for family, problem in self.problems.items()
        }


def build_engine(tracer: Tracer | None = None) -> Engine:
    engine = Engine()
    engine.build(tracer)
    return engine


def phase(engine: Engine, seed: int, seconds: float, checks: Checks,
          tracer: Tracer | None = None) -> tuple[list[Done], float]:
    """Closed loop over the op stream until ``seconds`` have passed.

    Each operation is checked as soon as it returns (outside its latency)
    and its configurations are dropped, so memory does not grow with the
    number of operations a run completes."""
    reference = load_tables()["engine"]
    done = []
    stream = make_ops(seed)
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        item = engine.run(next(stream), tracer, f"engine-{seed}-{len(done)}")
        item.ok = verify(engine, item, reference, checks)
        item.results = []
        done.append(item)
    return done, time.perf_counter() - start


def verify(engine: Engine, item: Done, reference: dict, checks: Checks) -> bool:
    """Check every walk and lane of one operation against the reference
    digests."""
    ok = True
    problem = engine.problems[item.op.family]
    for walk_seed, result in zip(item.op.seeds, item.results):
        label = f"{item.op.family}/{item.op.engine}/seed {walk_seed}"
        expected = reference[item.op.family].get(str(walk_seed))
        ok = checks.walk(problem, result, expected, label) and ok
    return ok


def latencies(done: list[Done]) -> list[float]:
    return [d.end - d.start if d.ok else FAILED for d in done]


def per_layer(tracer: Tracer) -> dict[str, float]:
    out = problem_metrics(tracer)
    vector = tracer.named("vector.solve")
    for family in FAMILIES:
        lanes = [s for s in vector if s[6]["family"] == family]
        lane_iters = sum(s[6]["iterations"] for s in lanes)
        out[f"vector.us_per_lane_iter.{family}"] = (
            1e6 * sum(s[3] - s[2] for s in lanes) / max(lane_iters, 1)
        )
    return out


def execute(seed: int, seconds: float, trace: bool, out_dir) -> dict:
    checks = Checks()
    tracer = Tracer() if trace else None
    engine, setup_times = repeated_setups(lambda: build_engine(tracer))
    done, elapsed = phase(engine, seed, seconds / 2 if trace else seconds, checks)
    passed = sum(d.ok for d in done)
    report = {
        "attempted": len(done),
        "failed": len(done) - passed,
        "correct": checks.correct,
        "errors": checks.errors,
        "extra": {"walks_verified": checks.verified,
                  "setup_cold_s": setup_times[0]},
    }
    if not trace:
        report["metrics"] = end_to_end(
            latencies(done), passed, elapsed, sum(d.iterations for d in done)
        )
        later = repeated_setups(build_engine)[1]
        report["metrics"]["setup_s"] = median(setup_times + later)
        return report
    engine.instrument()
    traced, _ = phase(engine, seed, seconds / 2, checks, tracer)
    metrics = per_layer(tracer)
    metrics["bench.tracing_overhead_pct"] = overhead_pct(
        latencies(done), latencies(traced)
    )
    tracer.write(out_dir / f"spans-engine-seed{seed}.jsonl.gz")
    report.update(
        attempted=len(done) + len(traced),
        failed=report["failed"] + sum(not d.ok for d in traced),
        correct=checks.correct,
        metrics=metrics,
    )
    return report
