"""Straggler hedging: quantile trigger, median fallback, attribution.

The trigger logic is unit-tested against a :class:`JobTable` holding a
fabricated in-flight job (no sockets, no event loop — the table is pure
bookkeeping, and a watchdog tick returns the hedges it fires as
effects), plus one live-cluster test proving quantile hedges fire
end-to-end and carry their attribution.
"""

import json
import time

import pytest

from repro.autoscale import ModelStore, Predictor
from repro.errors import NetError
from repro.net import LocalCluster
from repro.net.coordinator import Coordinator
from repro.net.jobtable import Emit, JobTable
from repro.net.protocol import Message, pickle_blob
from repro.problems import make_problem
from repro.telemetry.events import HedgeDispatch


def warmed_predictor(family="costas", wall=0.05, n=40, size=7):
    predictor = Predictor(ModelStore(min_samples=4, refit_interval=4))
    for _ in range(n):
        predictor.observe(family, wall, size=size)
    return predictor


def fake_job(table, problem, n_walkers=2, age=100.0):
    """An in-flight job whose walks were dispatched ``age`` seconds ago,
    spread over two nodes so every walk has another node to hedge onto."""
    then = time.monotonic() - age
    for node_id in range(2):
        table.node_joined(node_id, f"node-{node_id}", 1, node_id, then)
    payload = {"problem": problem, "seeds": list(range(n_walkers))}
    submit = Message("submit", {"request_id": 0}, blob=pickle_blob(payload))
    table.submit("client", submit, then)
    return table.jobs[table.max_job_id]


def hedge_calls(table, now):
    """The hedges one watchdog tick fires, with their attribution."""
    return [
        {
            "walk_id": effect.event.walk_id,
            "elapsed": effect.event.elapsed,
            "trigger": effect.event.trigger,
            "threshold": effect.event.threshold,
        }
        for effect in table.tick(now)
        if isinstance(effect, Emit)
        and isinstance(effect.event, HedgeDispatch)
    ]


class TestQuantileTrigger:
    def test_requires_predictor(self):
        with pytest.raises(NetError, match="predictor"):
            Coordinator(hedge_quantile=0.95)

    def test_rejects_bad_quantile(self):
        with pytest.raises(NetError, match="hedge_quantile"):
            Coordinator(predictor=Predictor(), hedge_quantile=1.5)

    def test_threshold_is_the_fitted_quantile(self):
        predictor = warmed_predictor(wall=2.0)
        table = JobTable(
            predictor=predictor, hedge_quantile=0.9, min_hedge_delay=0.01
        )
        job = fake_job(table, make_problem("costas", n=7))
        threshold = table.quantile_threshold(job)
        assert threshold is not None
        model = predictor.store.get("costas", 7)
        assert threshold == pytest.approx(model.quantile(0.9), rel=1e-6)

    def test_min_hedge_delay_floors_the_threshold(self):
        table = JobTable(
            predictor=warmed_predictor(wall=0.001),
            hedge_quantile=0.9,
            min_hedge_delay=5.0,
        )
        job = fake_job(table, make_problem("costas", n=7))
        assert table.quantile_threshold(job) == 5.0

    def test_no_model_means_no_quantile_threshold(self):
        table = JobTable(predictor=Predictor(), hedge_quantile=0.9)
        job = fake_job(table, make_problem("costas", n=7))
        assert table.quantile_threshold(job) is None

    def test_overdue_walks_hedge_with_attribution(self):
        table = JobTable(
            telemetry=True,
            predictor=warmed_predictor(wall=0.05),
            hedge_quantile=0.9,
            min_hedge_delay=0.01,
            max_hedges=8,
        )
        fake_job(table, make_problem("costas", n=7), n_walkers=2, age=10.0)
        calls = hedge_calls(table, time.monotonic())
        assert [c["walk_id"] for c in calls] == [0, 1]
        for call in calls:
            assert call["trigger"] == "quantile"
            assert call["elapsed"] > call["threshold"] > 0

    def test_fresh_walks_not_hedged(self):
        table = JobTable(
            telemetry=True,
            predictor=warmed_predictor(wall=100.0),
            hedge_quantile=0.9,
            min_hedge_delay=0.01,
        )
        # walks are 10s old but the learned p90 is ~100s: not stragglers
        fake_job(table, make_problem("costas", n=7), age=10.0)
        calls = hedge_calls(table, time.monotonic())
        assert calls == []

    def test_quantile_needs_no_within_job_completions(self):
        # the median rule refuses to act before half the job finished; the
        # quantile rule acts from history alone
        table = JobTable(
            telemetry=True,
            predictor=warmed_predictor(wall=0.05),
            hedge_quantile=0.9,
            min_hedge_delay=0.01,
            max_hedges=8,
        )
        job = fake_job(
            table, make_problem("costas", n=7), n_walkers=4, age=10.0
        )
        assert not job.completed_walls
        calls = hedge_calls(table, time.monotonic())
        assert len(calls) == 4

    def test_unknown_family_falls_back_to_median_rule(self):
        table = JobTable(
            telemetry=True,
            predictor=warmed_predictor(family="costas"),
            hedge_quantile=0.9,
            hedge_factor=2.0,
            min_hedge_delay=0.01,
            max_hedges=8,
        )
        job = fake_job(
            table, make_problem("magic_square", n=10), n_walkers=4, age=10.0
        )
        # half done with fast walls: the median rule is armed
        job.outstanding = {2, 3}
        job.completed_walls = [0.1, 0.1]
        calls = hedge_calls(table, time.monotonic())
        assert len(calls) == 2
        assert all(c["trigger"] == "median_factor" for c in calls)

    def test_max_hedges_caps_the_job(self):
        table = JobTable(
            telemetry=True,
            predictor=warmed_predictor(wall=0.05),
            hedge_quantile=0.9,
            min_hedge_delay=0.01,
            max_hedges=1,
        )
        job = fake_job(
            table, make_problem("costas", n=7), n_walkers=4, age=10.0
        )
        job.hedge_count = 1  # budget already spent
        calls = hedge_calls(table, time.monotonic())
        assert calls == []


class TestWalkObservation:
    def test_solved_walls_feed_the_predictor(self):
        predictor = Predictor(ModelStore(min_samples=2, refit_interval=2))
        table = JobTable(predictor=predictor, hedge_quantile=0.9)
        job = fake_job(table, make_problem("costas", n=7))
        for wall in [0.5, 0.6, 0.7]:
            table.observe_walk(job, wall)
        model = predictor.store.get("costas", 7)
        assert model is not None
        assert model.n_observed == 3
        # the family aggregate learned too
        assert predictor.store.get("costas", 99) is not None


@pytest.mark.slow
class TestQuantileHedgingEndToEnd:
    def test_live_cluster_fires_quantile_hedges(self, tmp_path):
        """A predictor whose model says 'costas-7 solves in ~50 ms' makes
        any walk of a hard problem an immediate straggler: quantile hedges
        fire (attributed in telemetry) long before the median rule could
        even arm."""
        predictor = warmed_predictor(
            family="magic_square", wall=0.05, size=30
        )
        with LocalCluster(
            n_nodes=2,
            workers_per_node=1,
            predictor=predictor,
            hedge_quantile=0.9,
            min_hedge_delay=0.05,
            max_hedges=2,
            trace_dir=tmp_path,
        ) as cluster:
            client = cluster.client()
            problem = make_problem("magic_square", n=30)
            handle = client.submit(problem, 2, seed=5, deadline=6.0)
            deadline = time.monotonic() + 10.0
            coordinator = cluster.coordinator
            while time.monotonic() < deadline:
                if coordinator.counters["hedges_quantile"] >= 1:
                    break
                time.sleep(0.1)
            assert coordinator.counters["hedges_quantile"] >= 1
            handle.result(timeout=60)

        # attribution survives the JSONL round trip for `repro trace`
        records = (tmp_path / "coordinator.jsonl").read_text().splitlines()
        hedges = [
            r
            for r in (json.loads(line) for line in records)
            if r.get("event") == "hedge"
        ]
        assert hedges
        assert all(h["trigger"] == "quantile" for h in hedges)
        assert all(h["threshold"] > 0 for h in hedges)
        assert all(h["elapsed"] > h["threshold"] for h in hedges)
