"""Statistics and run-record helpers shared by every workload.

Everything here is pure (no repro imports) so the unit tests can pin it
down without a cluster.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
import time
from typing import Callable, Iterable, Sequence, TypeVar

#: a failed operation's latency: it ranks above every real sample
FAILED = math.inf

#: what an infinite percentile is reported as (JSON has no infinity)
JSON_INFINITY = sys.float_info.max

#: set-ups before a workload's measured phase (the last one is kept) and
#: again after it, so ``setup_s`` samples the host at both ends of a run
SETUP_REPS = 5

T = TypeVar("T")


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0 < q <= 1) by the nearest-rank rule.

    Failed operations enter as :data:`FAILED` and so rank last: a failure
    counts as missing every latency limit.
    """
    if not values:
        raise ValueError("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def finite(value: float) -> float:
    """``value`` made JSON-safe: infinity becomes :data:`JSON_INFINITY`."""
    return JSON_INFINITY if math.isinf(value) else value


def ladder_increments(rungs: Sequence[float]) -> list[float]:
    """Each rung's latency minus the rung below (the first rung is its
    own increment)."""
    return [value - below for value, below in zip(rungs, [0.0, *rungs])]


def repeated_setups(
    build: Callable[[], T], teardown: Callable[[T], None] | None = None
) -> tuple[T, list[float]]:
    """Call ``build`` SETUP_REPS times, tearing down every product but the
    last; return the last product and each call's wall time."""
    times = []
    product = None
    for _ in range(SETUP_REPS):
        if product is not None and teardown is not None:
            teardown(product)
        start = time.perf_counter()
        product = build()
        times.append(time.perf_counter() - start)
    return product, times


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def end_to_end(
    latencies: Sequence[float],
    completed: int,
    elapsed: float,
    iterations: int,
) -> dict[str, float]:
    """The end-to-end metrics of a measured phase (``setup_s`` and
    ``peak_rss_mb`` are added by the caller)."""
    return {
        "ops_per_s": completed / elapsed,
        "latency_p50_ms": finite(1e3 * nearest_rank(latencies, 0.5)),
        "latency_p90_ms": finite(1e3 * nearest_rank(latencies, 0.9)),
        "iters_per_s": iterations / elapsed,
    }


def overhead_pct(untraced: Sequence[float], traced: Sequence[float]) -> float:
    """Median latency of the traced phase over the untraced one, in %."""
    base = median(untraced)
    return 100.0 * (median(traced) - base) / base


# ----------------------------------------------------------------------
# run record
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def stop_helpers(timeout: float = 10.0) -> None:
    """Stop every process the run started and wait for each to end.

    The stacks join their own workers; this catches any child still
    alive, then stops multiprocessing's resource tracker (started by the
    pool's shared-memory store).  Left alone, the tracker outlives the
    run by a moment, since it only exits once it sees the run's end.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    children = multiprocessing.active_children()
    for child in children:
        child.terminate()
    for child in children:
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()
    # after every child has ended, so no inherited copy of the tracker's
    # pipe keeps it waiting; _stop closes the pipe and reaps the tracker
    resource_tracker._resource_tracker._stop()


def load_average() -> list[float]:
    try:
        return [round(x, 2) for x in os.getloadavg()]
    except OSError:  # pragma: no cover - platform without loadavg
        return []


def host_fingerprint() -> dict[str, object]:
    """What distinguishes this host's numbers from another's."""
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }
