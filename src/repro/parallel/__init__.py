"""Independent multi-walk parallel runtime.

The paper's parallelization scheme: launch ``k`` independent copies of the
sequential Adaptive Search engine from different random initial
configurations, with **no communication except completion** — the first walk
to find a solution terminates all others.  :class:`MultiWalkSolver` runs it
under six executors:

- ``"inline"`` — walks run in turn in-process; parallel time = exact min.
- ``"process"`` — one OS process per walk racing on a shared cancel event.
- ``"vector"`` — lanes of one NumPy engine; ``lanes`` splits processes.
- ``"pool"`` — warm workers of a shared :class:`repro.service.SolverService`.
- ``"net"`` — one job on a :mod:`repro.net` coordinator cluster.
- ``"coop"`` — ``"net"`` with islands migrating elites between nodes.

Processes, not threads: the GIL rules out threads for a CPU-bound Python
solver, and the shared cancel event mirrors the paper's MPI termination
message.  For zero-communication walks the inline min is exact, which is
what the simulated-platform experiments build on.

The per-call process executors (``"process"``, hybrid ``"vector"`` and the
process executor of :class:`CooperativeMultiWalk`, the dependent scheme)
share one fan-out (:mod:`repro.parallel.fanout`) and one walk-report codec
(:func:`~repro.parallel.results.walk_payload` /
:meth:`WalkOutcome.from_payload`).  Walk ``i`` runs the same trajectory
under every executor.
"""

from repro.parallel.cooperative import (
    CooperationConfig,
    CooperativeMultiWalk,
    CooperativeResult,
    ElitePool,
)
from repro.parallel.multiwalk import MultiWalkSolver, solve_parallel
from repro.parallel.results import ParallelResult, WalkOutcome
from repro.parallel.scaling import ScalingPoint, ScalingStudy, measure_scaling
from repro.parallel.seeding import partition_seeds, partition_walks, walk_seeds

__all__ = [
    "MultiWalkSolver",
    "CooperativeMultiWalk",
    "CooperationConfig",
    "CooperativeResult",
    "ElitePool",
    "solve_parallel",
    "ParallelResult",
    "WalkOutcome",
    "walk_seeds",
    "partition_seeds",
    "partition_walks",
    "measure_scaling",
    "ScalingStudy",
    "ScalingPoint",
]
