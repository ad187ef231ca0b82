"""Cross-version pins of seed-fixed cooperative trajectories.

The determinism tests elsewhere compare two runs of the same code.  These
compare against literal ``(rounds, adoptions, winner walk id, winner
iterations)`` values recorded before the inline executor and the island
runner were moved onto the shared adoption rule, so a change to the
order in which adoption draws from its RNG shows up as a failure here.
"""

import queue
import threading

import numpy as np
import pytest

from repro.coop import CoopConfig, IslandRunner, MigrantBatch
from repro.core.config import AdaptiveSearchConfig
from repro.parallel.cooperative import CooperationConfig, CooperativeMultiWalk
from repro.problems import make_problem

CFG = AdaptiveSearchConfig(max_iterations=200_000)
ADOPTION = dict(
    report_interval=16, adopt_interval=32, p_adopt=0.9, min_relative_gain=0.0
)


@pytest.mark.parametrize(
    "seed,expected", [(3, (5, 6, 0, 73)), (5, (64, 110, 3, 1015))]
)
def test_inline_cooperative_trajectory_is_pinned(seed, expected):
    result = CooperativeMultiWalk(CFG, CooperationConfig(**ADOPTION)).solve(
        make_problem("magic_square", n=7), 4, seed=seed
    )
    assert result.solved
    assert (
        result.rounds,
        result.adoptions,
        result.winner.walk_id,
        result.winner.iterations,
    ) == expected


@pytest.mark.parametrize(
    "seed,expected", [(6, (28, 19, 1, 438)), (8, (106, 77, 1, 1696))]
)
def test_island_trajectory_is_pinned(seed, expected):
    """One island on a loopback transport: every report is answered at
    once with the island's own elite, so no round ever times out."""
    inbox = queue.Queue()

    def echo(round_index, cost, config):
        inbox.put(
            MigrantBatch(
                round_index=round_index,
                migrants=((9, float(cost), config.copy()),),
            )
        )

    runner = IslandRunner(
        make_problem("magic_square", n=6),
        CFG,
        CoopConfig(
            **ADOPTION, migration_interval=1, migration_timeout=5.0, seed=seed
        ),
        island=0,
        walk_ids=[0, 1],
        seeds=np.random.SeedSequence(1234).spawn(2),
        send_report=echo,
        inbox=inbox,
        cancel=threading.Event(),
    )
    outcome = runner.run()
    assert outcome.stats["migrations_lost"] == 0
    assert (
        outcome.rounds,
        outcome.stats["adoptions"],
        outcome.winner.walk_id,
        outcome.winner.iterations,
    ) == expected
