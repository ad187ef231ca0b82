"""Hot-standby coordinator: mirroring, promotion, and re-homing tests.

The heavyweight kill-the-leader-mid-job path lives in the
``leader-failover`` chaos scenario (deterministic, CI-gated); this
module covers the HA building blocks in isolation:

- ordered address-list parsing (the re-homing contract's input);
- the standby's journal mirror tracks leader state while dormant;
- promotion replays the mirror: jobs recover, generations bump,
  ``client_key`` dedup survives the switch;
- clients and agents started with the ordered list re-home onto the
  promoted standby and finish real work;
- a re-homing client closes the dead connection's socket;
- the per-connection bounded write queue drops droppable frames (and
  only those) when a consumer stalls, and counts every drop.
"""

import asyncio
import gc
import time
import warnings

import pytest

from repro.errors import NetError
from repro.net import LocalCluster, StandbyCoordinator, parse_addresses
from repro.net.coordinator import _DROPPABLE_FRAMES, _Conn
from repro.net.protocol import Message
from repro.problems import make_problem

pytestmark = pytest.mark.slow


class TestParseAddresses:
    def test_single_string(self):
        assert parse_addresses("h:1") == [("h", 1)]

    def test_comma_list_preserves_order(self):
        assert parse_addresses("lead:1, spare:2 ,third:3") == [
            ("lead", 1),
            ("spare", 2),
            ("third", 3),
        ]

    def test_single_pair(self):
        assert parse_addresses(("h", 9)) == [("h", 9)]

    def test_sequence_of_pairs(self):
        assert parse_addresses([("a", 1), "b:2"]) == [("a", 1), ("b", 2)]

    def test_empty_rejected(self):
        with pytest.raises(NetError):
            parse_addresses("")
        with pytest.raises(NetError):
            parse_addresses([])


class TestDormantStandby:
    def test_mirror_tracks_leader_and_stays_dormant(self, tmp_path):
        with LocalCluster(
            n_nodes=1,
            workers_per_node=1,
            standby=True,
            journal=tmp_path / "leader.journal",
        ) as cluster:
            client = cluster.client()
            problem = make_problem("magic_square", n=4)
            result = client.solve(problem, 2, seed=3, timeout=120)
            assert result.solved
            standby = cluster.standby
            assert standby is not None
            assert not standby.promoted.is_set()
            # the submit record reached the mirror over the wire
            deadline = 50
            while standby.records_mirrored == 0 and deadline:
                deadline -= 1
                import time

                time.sleep(0.1)
            assert standby.records_mirrored >= 1

    def test_promotion_recovers_pending_job(self, tmp_path):
        """Kill the leader with a job in flight but *no* agents: the
        promoted standby must resurrect the job from its mirror and
        dispatch it once an agent joins the new coordinator."""
        cluster = LocalCluster(
            n_nodes=0,
            workers_per_node=1,
            standby=True,
            lease_timeout=1.0,
            heartbeat_timeout=1.0,
            journal=tmp_path / "leader.journal",
        )
        cluster.start()
        try:
            client = cluster.client(reconnect_backoff=0.05)
            problem = make_problem("magic_square", n=4)
            handle = client.submit(problem, 2, seed=3)
            # wait for the submit record to reach the mirror: replication
            # is asynchronous and the kill below is immediate
            import time

            deadline = time.monotonic() + 10.0
            while (
                cluster.standby.jobs_mirrored == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.05)
            assert cluster.standby.jobs_mirrored >= 1
            cluster.kill_coordinator()
            cluster.promote_standby(timeout=30.0)
            promoted = cluster.coordinator
            assert promoted.counters["recovered_jobs"] >= 1
            assert cluster.standby.promote_reason in (
                "lease-timeout",
                "connection-lost",
            )
            # an agent joining the *promoted* coordinator finishes the job
            cluster.add_agent()
            result = handle.result(timeout=120)
            assert result.solved
            assert promoted.counters["jobs_solved"] == 1
        finally:
            cluster.stop()


class TestBoundedWriteQueue:
    def test_droppable_frames_dropped_when_full_and_counted(self):
        async def scenario():
            # a reader that never reads: the peer socket stalls, the
            # queue fills, and only droppable frames may be discarded
            server_ready = asyncio.Event()
            conns = []

            async def on_conn(reader, writer):
                conns.append(writer)
                server_ready.set()
                await asyncio.sleep(10)

            server = await asyncio.start_server(on_conn, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            reader, writer = await asyncio.open_connection(host, port)
            await server_ready.wait()
            drops = []
            conn = _Conn(
                reader, writer, max_queue=4, on_drop=drops.append
            )
            try:
                # stall the drain loop by never letting the first write
                # complete: fill the kernel buffer with huge frames
                blob = b"x" * (1 << 20)
                for _ in range(64):
                    await asyncio.wait_for(
                        conn.send(Message("assign", {"job_id": 1}, blob=blob)),
                        timeout=5.0,
                    )
                    if conn._queue.full():
                        break
                assert conn._queue.full()
                before = conn.dropped_frames
                await conn.send(Message("lease", {"sent_at": 0.0}))
                await conn.send(Message("stats", {}))
                assert conn.dropped_frames == before + 2
                assert drops == ["lease", "stats"]
            finally:
                conn.abort()
                server.close()
                for w in conns:
                    w.close()

        asyncio.run(scenario())

    def test_lease_and_stats_are_the_droppable_set(self):
        # job-carrying frames must never appear here
        assert _DROPPABLE_FRAMES == {"stats", "lease"}


class TestEndToEndRehoming:
    def test_client_and_agent_rehome_and_solve(self, tmp_path):
        """The full switch without chaos machinery: run a job, kill the
        leader, promote, run *another* job through the same client and
        the same (re-homed) agent."""
        cluster = LocalCluster(
            n_nodes=1,
            workers_per_node=1,
            standby=True,
            lease_timeout=1.0,
            heartbeat_timeout=1.0,
            heartbeat_interval=0.1,
            journal=tmp_path / "leader.journal",
        )
        cluster.start()
        try:
            client = cluster.client(reconnect_backoff=0.05)
            problem = make_problem("magic_square", n=4)
            first = client.solve(problem, 2, seed=3, timeout=120)
            assert first.solved
            cluster.kill_coordinator()
            cluster.promote_standby(timeout=30.0)
            second = client.solve(problem, 2, seed=4, timeout=120)
            assert second.solved
            assert client.reconnects >= 1
            assert any(agent.reconnects >= 1 for agent in cluster.agents)
        finally:
            cluster.stop()


class TestRehomingClosesDeadSocket:
    def test_old_socket_is_closed_on_reconnect(self):
        """Re-homing must release the dead connection's descriptor, not
        leave it for the garbage collector to report as unclosed."""
        cluster = LocalCluster(n_nodes=0)
        cluster.start()
        try:
            client = cluster.client(reconnect=True, reconnect_backoff=0.05)
            old = client._sock
            assert old is not None and old.fileno() != -1
            cluster.kill_coordinator()
            cluster.restart_coordinator(rejoin_agents=False)
            deadline = time.monotonic() + 30.0
            while client.reconnects < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert client.reconnects == 1
            assert client._sock is not old
            assert old.fileno() == -1
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                del old
                gc.collect()
            assert not [
                w for w in caught if issubclass(w.category, ResourceWarning)
            ]
        finally:
            cluster.stop()


class TestStandbyValidation:
    def test_bad_lease_timeout_rejected(self):
        with pytest.raises(NetError):
            StandbyCoordinator(("127.0.0.1", 1), lease_timeout=0.0)
