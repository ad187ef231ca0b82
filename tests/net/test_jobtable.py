"""The sans-IO job table, driven directly: a fake clock, no event loop.

Peers are plain strings — the table only stores and compares them — so
every assertion reads the ordered effect list an input returns, exactly
what the coordinator shell would execute.
"""

from repro.core.termination import TerminationReason
from repro.net.jobtable import JobTable, Record, Send
from repro.net.protocol import Message, pickle_blob
from repro.net.results import job_result_from_message, outcome_to_message
from repro.parallel.results import WalkOutcome
from repro.problems import make_problem
from repro.service import JobStatus

PROBLEM = make_problem("queens", n=8)


def submit_frame(n_walkers=2, request_id=1, **fields):
    payload = {"problem": PROBLEM, "seeds": list(range(n_walkers))}
    fields = {"request_id": request_id, **fields}
    return Message("submit", fields, blob=pickle_blob(payload))


def report(job_id, walk_id, *, generation=0, solved=True, wall=0.5):
    outcome = WalkOutcome(
        walk_id=walk_id,
        solved=solved,
        cost=0.0 if solved else 3.0,
        iterations=100,
        wall_time=wall,
        reason=(
            TerminationReason.SOLVED
            if solved
            else TerminationReason.MAX_ITERATIONS
        ),
    )
    return outcome_to_message(job_id, generation, outcome)


def frames(effects, to=None, kind=None):
    return [
        e.message
        for e in effects
        if isinstance(e, Send)
        and (to is None or e.to == to)
        and (kind is None or e.message.type == kind)
    ]


def records(effects, kind):
    return [
        e.record
        for e in effects
        if isinstance(e, Record) and e.record["kind"] == kind
    ]


def cluster(n_nodes=2, **kwargs):
    table = JobTable(**kwargs)
    for node_id in range(n_nodes):
        table.node_joined(node_id, f"node-{node_id}", 1, node_id, 0.0)
    return table


def assigned_node(table, job_id, walk_id):
    return next(
        node.node_id
        for node in table.nodes.values()
        if walk_id in node.assigned.get(job_id, ())
    )


class TestFirstFinisherWins:
    def test_two_solved_reports_give_one_winner_and_one_finish(self):
        table = cluster()
        table.submit("client", submit_frame(), now=1.0)
        job_id = table.max_job_id
        holders = [assigned_node(table, job_id, w) for w in (0, 1)]
        effects = table.walk_result(holders[0], report(job_id, 0), now=2.0)
        effects += table.walk_result(holders[1], report(job_id, 1), now=2.1)
        assert len(records(effects, "finish")) == 1
        results = frames(effects, to="client", kind="job_result")
        assert len(results) == 1
        result = job_result_from_message(results[0])
        assert result.status is JobStatus.SOLVED
        assert result.winner.walk_id == 0
        assert result.wall_time == 1.0
        assert table.counters()["jobs_solved"] == 1
        assert table.counters()["stale_results"] == 1
        assert job_id not in table.jobs

    def test_stale_generation_report_is_dropped(self):
        table = cluster(n_nodes=3)
        table.submit("client", submit_frame(n_walkers=3), now=0.0)
        job_id = table.max_job_id
        dead = assigned_node(table, job_id, 0)
        redispatch = table.node_lost(dead, "heartbeat timeout", now=1.0)
        job = table.jobs[job_id]
        assert job.generation == 1
        assert records(redispatch, "generation") == [
            {"kind": "generation", "job_id": job_id, "generation": 1}
        ]
        # a survivor reports walk 0 under the pre-redispatch generation
        survivor = assigned_node(table, job_id, 0)
        effects = table.walk_result(
            survivor, report(job_id, 0, generation=0), now=1.5
        )
        assert records(effects, "finish") == []
        assert 0 in job.outstanding
        assert table.counters()["stale_results"] == 1
        # the same walk under the current generation wins the job
        effects = table.walk_result(
            survivor, report(job_id, 0, generation=1), now=1.6
        )
        assert len(records(effects, "finish")) == 1


class TestClientKey:
    def test_resubmission_reattaches_to_a_running_job(self):
        table = cluster()
        table.submit("old-client", submit_frame(client_key="k"), now=0.0)
        job_id = table.max_job_id
        table.client_gone("old-client", resilient=True, now=0.5)
        effects = table.submit(
            "new-client", submit_frame(request_id=7, client_key="k"), now=1.0
        )
        accepted = frames(effects, to="new-client", kind="job_accepted")
        assert [m["job_id"] for m in accepted] == [job_id]
        assert records(effects, "submit") == []  # no second copy of the work
        assert table.max_job_id == job_id
        assert table.counters()["reattached_clients"] == 1
        # the result now goes to the re-attached client
        effects = table.walk_result(
            assigned_node(table, job_id, 0), report(job_id, 0), now=2.0
        )
        (result,) = frames(effects, kind="job_result")
        assert frames(effects, to="new-client") == [result]
        assert result["request_id"] == 7

    def test_resubmission_replays_a_finished_job(self):
        table = cluster()
        table.submit("client", submit_frame(client_key="k"), now=0.0)
        job_id = table.max_job_id
        table.walk_result(
            assigned_node(table, job_id, 1), report(job_id, 1), now=1.0
        )
        effects = table.submit(
            "again", submit_frame(request_id=9, client_key="k"), now=2.0
        )
        replies = frames(effects, to="again")
        assert [m.type for m in replies] == ["job_accepted", "job_result"]
        assert replies[0]["job_id"] == job_id
        assert job_result_from_message(replies[1]).winner.walk_id == 1
        assert records(effects, "submit") == []
        assert table.max_job_id == job_id


class TestWriteAheadOrdering:
    def test_submit_record_precedes_accept_and_assigns(self):
        table = cluster()
        effects = table.submit("client", submit_frame(), now=0.0)
        order = [
            e.record["kind"] if isinstance(e, Record) else e.message.type
            for e in effects
            if isinstance(e, (Record, Send))
        ]
        assert order == ["submit", "job_accepted", "assign", "assign"]

    def test_finish_record_precedes_the_result_frame(self):
        table = cluster()
        table.submit("client", submit_frame(), now=0.0)
        job_id = table.max_job_id
        effects = table.walk_result(
            assigned_node(table, job_id, 0), report(job_id, 0), now=1.0
        )
        kinds = [
            e.record["kind"] if isinstance(e, Record) else e.message.type
            for e in effects
            if isinstance(e, (Record, Send))
        ]
        assert kinds.index("finish") < kinds.index("job_result")


class TestRecordFold:
    def test_records_fold_into_an_equal_table(self):
        live = cluster(n_nodes=3)
        for key in ("a", "b", "c"):
            live.submit(
                "client",
                submit_frame(n_walkers=3, client_key=key, priority=2),
                now=0.0,
            )
        # finish job 0, bump job 1's generation with a node loss
        live.walk_result(assigned_node(live, 0, 0), report(0, 0), now=1.0)
        live.node_lost(assigned_node(live, 1, 0), "connection lost", now=1.0)
        assert live.jobs[1].generation == 1

        fresh = JobTable()
        for record in live.records(now=1.0):
            fresh.apply_record(record)
        assert set(fresh.jobs) == set(live.jobs) == {1, 2}
        assert fresh.max_job_id == live.max_job_id == 2
        assert fresh.client_keys == {"b": 1, "c": 2}
        for job_id, job in live.jobs.items():
            folded = fresh.jobs[job_id]
            assert folded.generation == job.generation
            assert folded.priority == job.priority == 2
            assert folded.payload == job.payload
        # the fold serializes back to the same records
        assert fresh.records() == live.records()

        recovered = fresh.recover(now=5.0)
        assert records(recovered, "generation") == [
            {"kind": "generation", "job_id": job_id, "generation": gen + 1}
            for job_id, gen in sorted(
                (job_id, job.generation) for job_id, job in live.jobs.items()
            )
        ]
        assert fresh.pending == [1, 2]
        assert fresh.jobs[1].seeds == [0, 1, 2]
        assert fresh.counters()["recovered_jobs"] == 2

    def test_finish_and_checkpoint_keep_the_high_water_mark(self):
        table = JobTable()
        table.apply_record({"kind": "checkpoint", "job_id": 41})
        table.apply_record({"kind": "finish", "job_id": 3, "status": "x"})
        assert table.jobs == {}
        assert table.max_job_id == 41
        assert table.records() == [{"kind": "checkpoint", "job_id": 41}]
