"""The cluster coordinator.

One asyncio TCP server in front of a :class:`~repro.net.jobtable.JobTable`.
The table owns all cluster-wide policy and is pure bookkeeping; this
module is the thin shell around it that owns the I/O:

- **connections** — agents (``hello role=node``), clients and hot
  standbys (``role=replica``) connect in; every connection gets a
  bounded, serialized write queue (:class:`_Conn`);
- **inputs** — every frame a peer sends, every connection loss and every
  watchdog tick becomes one table input stamped with ``time.monotonic()``;
- **effects** — the effects the table returns run in order: frames go
  onto write queues, journal records are appended to the write-ahead
  journal *and* teed to standbys, telemetry events reach the recorder,
  and a firing chaos crash point kills the coordinator there, dropping
  every later effect;
- **liveness** — a node is declared dead on connection loss *or*
  heartbeat silence beyond ``heartbeat_timeout`` (the slow path catches
  hung-but-connected hosts), and every watchdog tick renews the leader
  lease on standbys and nodes;
- **crash recovery** — with a ``journal_path``, :meth:`Coordinator.start`
  folds the journal into the table and recovers every unfinished job
  under a strictly larger generation (see :mod:`repro.net.journal`).

What the table decides — round-robin walk partitioning with
:func:`repro.parallel.seeding.partition_walks`, first-finisher-wins
across nodes with a cancel broadcast, capped re-dispatch off dead nodes,
idempotent ``client_key`` resubmission, straggler hedging, the coop
migration relay, deadline degradation and result aggregation — is
documented in :mod:`repro.net.jobtable`.

The coordinator executes no walks itself — like the paper's OpenMPI
launcher it is pure control plane, which is why a single asyncio task per
connection is plenty even at large node counts.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from typing import Any, Callable

from repro.errors import NetError
from repro.net.jobtable import (
    CrashPoint,
    Effect,
    Emit,
    JobTable,
    Record,
    Send,
)
from repro.net.journal import JobJournal, read_records
from repro.net.protocol import (
    PROTOCOL_VERSION,
    Message,
    read_message,
    write_message,
)
from repro.telemetry.events import CancelAck, JobFinish
from repro.telemetry.recorder import Recorder, get_recorder

__all__ = ["Coordinator"]

#: per-connection write-queue depth before the slow-consumer policy kicks
#: in: droppable frames are discarded, job frames backpressure the sender
_MAX_SEND_QUEUE = 256

#: frame types a slow consumer may lose without breaking correctness —
#: telemetry and liveness hints, re-sent periodically anyway.  Job frames
#: (assign/cancel/job_result/replica_record/...) are NEVER dropped: a full
#: queue backpressures the coordinator task instead, which bounds leader
#: memory while preserving delivery.
_DROPPABLE_FRAMES = frozenset({"stats", "lease"})

#: node frames that are table inputs of the same name
_NODE_INPUTS = frozenset(
    {"heartbeat", "walk_result", "elite_report", "island_stats", "cancel_ack"}
)


class _Conn:
    """One connection with a bounded, serialized write queue.

    Many coordinator tasks may send concurrently; all writes funnel
    through one drain task per connection, so a stalled peer socket can
    hold at most ``max_queue`` frames of leader memory.  When the queue
    is full, frames in :data:`_DROPPABLE_FRAMES` are dropped and counted
    (``on_drop`` feeds the metrics registry); everything else waits.
    Write errors surface in the drain task, which aborts the connection —
    the per-connection reader task then runs the usual loss path.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        max_queue: int = _MAX_SEND_QUEUE,
        on_drop: Any = None,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.closed = False
        self.dropped_frames = 0
        self._on_drop = on_drop
        self._queue: asyncio.Queue[Message] = asyncio.Queue(maxsize=max_queue)
        self._writer_task: asyncio.Task | None = None

    async def send(self, message: Message) -> None:
        if self.closed:
            return
        if self._writer_task is None:
            self._writer_task = asyncio.ensure_future(self._drain_loop())
        if self._queue.full() and message.type in _DROPPABLE_FRAMES:
            self.dropped_frames += 1
            if self._on_drop is not None:
                self._on_drop(message.type)
            return
        await self._queue.put(message)

    async def _drain_loop(self) -> None:
        while True:
            message = await self._queue.get()
            try:
                await write_message(self.writer, message)
            except (NetError, ConnectionError, OSError):
                self.abort()
                return
            finally:
                # also runs on cancellation mid-write, so close() waiters
                # are always released
                self._queue.task_done()

    def abort(self) -> None:
        if not self.closed:
            self.closed = True
            if self._writer_task is not None:
                self._writer_task.cancel()
            # release any close() waiters: the unsent tail is gone anyway
            while True:
                try:
                    self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                self._queue.task_done()
            transport = self.writer.transport
            if transport is not None:
                transport.abort()

    async def close(self, *, graceful: bool = False) -> None:
        """Shut the connection and wait until its writer task is gone.

        ``graceful`` flushes the queue and sends a FIN instead of a reset
        — an RST may discard a buffered ``reject`` frame before the peer
        reads it.
        """
        if graceful and not self.closed:
            # wait until every queued frame hit the transport (or the
            # connection died — abort releases the join either way)
            try:
                await asyncio.wait_for(self._queue.join(), timeout=5.0)
            except asyncio.TimeoutError:  # pragma: no cover - defensive
                pass
            self.closed = True
            if self._writer_task is not None:
                self._writer_task.cancel()
            self.writer.close()
        else:
            self.abort()
        if self._writer_task is not None:
            await asyncio.wait({self._writer_task})


class Coordinator:
    """Asyncio TCP coordinator for distributed multi-walk solving.

    Parameters
    ----------
    host / port:
        bind address; ``port=0`` picks a free port (read it back from
        :attr:`address` after :meth:`start` — how every test wires up).
    heartbeat_timeout:
        seconds of heartbeat silence after which a connected node is
        declared dead (connection loss is detected immediately regardless).
    check_interval:
        watchdog period for heartbeat scanning, deadlines and hedging.
    max_redispatch:
        how many times one job's slices may be moved off dead nodes before
        the job fails.
    journal_path:
        when set, a :class:`~repro.net.journal.JobJournal` write-ahead log
        is kept there and replayed on :meth:`start` — unfinished jobs of a
        crashed predecessor are re-created and re-dispatched.
    journal_max_bytes:
        size trigger for journal rotation: once a ``finish`` append leaves
        the file over this many bytes it is compacted down to the
        unfinished jobs (``None`` = never rotate).
    hedge_factor:
        straggler hedging threshold: once at least half of a job's walks
        completed, an outstanding walk older than
        ``hedge_factor x median(finished wall times)`` (and slower than
        half the median iteration rate, when progress is known) gets a
        second copy on another node.  ``None`` disables hedging.
    max_hedges / min_hedge_delay:
        per-job cap on hedged copies, and the floor below which no walk is
        considered a straggler regardless of the median.
    predictor / hedge_quantile:
        a live :class:`~repro.autoscale.Predictor` upgrades hedging from
        the fixed multiplier to a *quantile trigger*: every solved walk's
        wall time streams into the predictor's runtime models, and an
        outstanding walk is hedged as soon as it outlives the fitted
        ``hedge_quantile`` (default p95) for its problem family — no need
        to wait for half of *this* job to finish, because the threshold
        comes from history.  Families the predictor has no model for yet
        fall back to the ``hedge_factor`` rule (when enabled) and their
        walks warm the model for next time.
    chaos:
        optional :class:`~repro.chaos.plan.FaultPlan` consulted at the
        ``submit`` / ``dispatch`` / ``walk_result`` / ``finish`` lifecycle
        points; a firing plan crashes the coordinator there (the
        in-process ``kill -9``).
    recorder:
        telemetry recorder for dispatch/cancel events; defaults to the
        process recorder (disabled unless configured).  Cancel round-trip
        stats are collected regardless — they feed the ``stats`` frame.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        heartbeat_timeout: float = 5.0,
        check_interval: float = 0.25,
        max_redispatch: int = 2,
        journal_path: Any = None,
        journal_max_bytes: int | None = None,
        hedge_factor: float | None = None,
        max_hedges: int = 2,
        min_hedge_delay: float = 0.25,
        predictor: Any = None,
        hedge_quantile: float | None = None,
        chaos: Any = None,
        recorder: Recorder | None = None,
    ) -> None:
        if heartbeat_timeout <= 0:
            raise NetError(
                f"heartbeat_timeout must be > 0, got {heartbeat_timeout}"
            )
        self.host = host
        self.port = port
        self.heartbeat_timeout = heartbeat_timeout
        self.check_interval = check_interval
        self.journal_path = journal_path
        self.journal_max_bytes = journal_max_bytes
        self.recorder = recorder if recorder is not None else get_recorder()
        self.table = JobTable(
            max_redispatch=max_redispatch,
            hedge_factor=hedge_factor,
            max_hedges=max_hedges,
            min_hedge_delay=min_hedge_delay,
            predictor=predictor,
            hedge_quantile=hedge_quantile,
            telemetry=self.recorder.enabled,
        )
        #: this instance's counters — a promoted standby in the same
        #: process starts from zero, not from its dead leader's totals
        self.metrics = self.table.metrics
        self.chaos = chaos
        if chaos is not None:
            chaos.arm()

        self._server: asyncio.AbstractServer | None = None
        self._watchdog: asyncio.Task | None = None
        self._journal: JobJournal | None = None
        self.crashed = False
        self._node_ids = itertools.count()
        self._node_conns: dict[int, _Conn] = {}
        #: attached hot standbys tailing the journal stream
        self._replicas: set[_Conn] = set()
        #: every open connection and its handler task, for teardown
        self._conns: set[_Conn] = set()
        self._handlers: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def counters(self) -> dict[str, int]:
        """A read-only snapshot of every coordinator counter by name."""
        return self.table.counters()

    @property
    def cancel_latencies(self) -> Any:
        """Recent cancel round trips (seconds, coordinator clock)."""
        return self.table.cancel_latencies

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    @property
    def node_names(self) -> list[str]:
        return sorted(node.name for node in self.table.nodes.values())

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and start serving; returns the actual (host, port)."""
        if self.journal_path is not None:
            for record in read_records(self.journal_path):
                self.table.apply_record(record)
            self._journal = JobJournal(
                self.journal_path, max_bytes=self.journal_max_bytes
            )
            await self._run(self.table.recover(time.monotonic()))
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._watchdog = asyncio.ensure_future(self._watch())
        return self.address

    async def stop(self) -> None:
        """Close the server and every connection (idempotent)."""
        server = self._server
        self._server = None
        if server is not None:
            server.close()
        if self._journal is not None:
            self._journal.close()
            self._journal = None
        await self._close_connections()
        if server is not None:
            await server.wait_closed()

    async def crash(self) -> None:
        """Die abruptly: no cancels, no client answers, no journal fsync.

        The in-process stand-in for ``kill -9`` — every connection is
        reset, the journal fd is dropped without a final sync, and the
        job table is never consulted again.  Recovery must come
        exclusively from the journal (which is exactly what the chaos
        tests assert).
        """
        self.crashed = True
        if self._journal is not None:
            self._journal.abort()
            self._journal = None
        if self._server is not None:
            self._server.close()
            self._server = None
        await self._close_connections()

    async def _close_connections(self) -> None:
        """Stop the watchdog, reset every connection, and wait for their
        writer and handler tasks so none outlives the event loop."""
        # a crash point may fire inside the watchdog or a handler task:
        # never cancel or wait for the task we are running in
        current = asyncio.current_task()
        watchdog, self._watchdog = self._watchdog, None
        if watchdog is not None and watchdog is not current:
            watchdog.cancel()
        await asyncio.gather(*(conn.close() for conn in list(self._conns)))
        tasks = [
            t for t in (watchdog, *self._handlers) if t not in (None, current)
        ]
        if tasks:
            await asyncio.wait(tasks, timeout=5.0)
        self._node_conns.clear()
        self._replicas.clear()

    async def serve_forever(self) -> None:
        """Block until cancelled (the ``repro coordinator`` CLI loop)."""
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    # inputs and effects
    # ------------------------------------------------------------------
    async def _feed(self, table_input: Callable, *args: Any) -> None:
        """Hand one input to the job table and run its effects; a crashed
        coordinator takes no more input."""
        if not self.crashed:
            await self._run(table_input(*args, time.monotonic()))

    async def _run(self, effects: list[Effect]) -> None:
        """Execute effects in order; a firing crash point drops the rest."""
        for effect in effects:
            if self.crashed:
                return
            if type(effect) is Send:
                await effect.to.send(effect.message)
            elif type(effect) is Record:
                await self._record(effect.record)
            elif type(effect) is Emit:
                self._emit(effect.event)
            elif type(effect) is CrashPoint and self.chaos is not None:
                if self.chaos.coordinator_crash(effect.point):
                    await self.crash()
                    return

    async def _record(self, record: dict[str, Any]) -> None:
        """Journal one record, then tee it to every attached standby.

        ``replica_record`` frames are job frames — never dropped by the
        slow-consumer policy; a wedged standby backpressures the leader's
        own task instead of ballooning its memory.  Streams regardless of
        whether the leader keeps a journal file of its own.
        """
        if self._journal is not None:
            self._journal.append_record(record)
        if not self._replicas:
            return
        message = Message("replica_record", {"record": record})
        streamed = self.metrics.counter("replica_records_streamed")
        for replica in list(self._replicas):
            if replica.closed:
                self._replicas.discard(replica)
                continue
            await replica.send(message)
            streamed.inc()

    def _emit(self, event: Any) -> None:
        recorder = self.recorder
        if isinstance(event, CancelAck):
            recorder.registry.histogram("net.cancel_latency").observe(
                event.latency
            )
        recorder.emit(event)
        if isinstance(event, JobFinish):
            recorder.emit_span(
                "coordinator.job",
                start=time.time() - event.latency,
                duration=event.latency,
                trace_id=event.trace_id,
                job_id=event.job_id,
                status=event.status,
            )

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Conn(reader, writer, on_drop=self._on_frame_dropped)
        task = asyncio.current_task()
        self._conns.add(conn)
        if task is not None:
            self._handlers.add(task)
        try:
            await self._serve(conn)
        finally:
            self._conns.discard(conn)
            self._handlers.discard(task)

    async def _serve(self, conn: _Conn) -> None:
        try:
            hello = await read_message(conn.reader)
        except NetError:
            hello = None
        if hello is None or hello.type != "hello":
            await conn.close()
            return
        peer_version = hello.get("protocol")
        # exact match: every peer is built from this same tree, and bool
        # is not a version even though True == 1
        if type(peer_version) is not int or peer_version != PROTOCOL_VERSION:
            await conn.send(
                Message(
                    "reject",
                    {
                        "protocol": PROTOCOL_VERSION,
                        "min_protocol": PROTOCOL_VERSION,
                        "error": (
                            f"protocol version mismatch: coordinator speaks "
                            f"{PROTOCOL_VERSION}, peer sent {peer_version!r}"
                        ),
                    },
                )
            )
            await conn.close(graceful=True)
            return
        role = hello.get("role")
        if role == "node":
            await self._run_node(conn, hello)
        elif role == "client":
            await self._run_client(conn, hello)
        elif role == "replica":
            await self._run_replica(conn)
        else:
            await conn.close()

    def _on_frame_dropped(self, frame_type: str) -> None:
        """Slow-consumer policy fired: account one discarded frame."""
        self.metrics.counter("frames_dropped").inc()
        self.recorder.registry.counter("net.dropped_frames").inc()

    async def _run_node(self, conn: _Conn, hello: Message) -> None:
        node_id = next(self._node_ids)
        self._node_conns[node_id] = conn
        await conn.send(
            Message(
                "welcome", {"protocol": PROTOCOL_VERSION, "node_id": node_id}
            )
        )
        await self._feed(
            self.table.node_joined,
            node_id,
            hello.get("name") or f"node-{node_id}",
            int(hello.get("capacity", 1)),
            conn,
        )
        try:
            while not self.crashed:
                message = await read_message(conn.reader)
                if message is None:
                    break
                if message.type in _NODE_INPUTS:
                    await self._feed(
                        getattr(self.table, message.type), node_id, message
                    )
        except (NetError, ConnectionError, OSError):
            pass
        finally:
            self._node_conns.pop(node_id, None)
            await conn.close()
            await self._feed(self.table.node_lost, node_id, "connection lost")

    async def _run_client(self, conn: _Conn, hello: Message) -> None:
        # a resilient client keeps its jobs running on disconnect instead
        # of having them cancelled
        resilient = bool(hello.get("reconnect", False))
        await conn.send(Message("welcome", {"protocol": PROTOCOL_VERSION}))
        try:
            while not self.crashed:
                message = await read_message(conn.reader)
                if message is None:
                    break
                if message.type == "submit":
                    await self._feed(self.table.submit, conn, message)
                elif message.type == "stats":
                    await conn.send(
                        self._stats_message(message.get("request_id"))
                    )
        except (NetError, ConnectionError, OSError):
            pass
        finally:
            await conn.close()
            await self._feed(self.table.client_gone, conn, resilient)

    async def _run_replica(self, conn: _Conn) -> None:
        """Serve one hot standby: snapshot, then tail the journal stream.

        The standby is a read-only peer — after the snapshot it only ever
        receives ``replica_record`` and ``lease`` frames; anything it
        sends (nothing, today) is ignored until EOF.
        """
        await conn.send(Message("welcome", {"protocol": PROTOCOL_VERSION}))
        # register + snapshot with no await in between: a concurrent
        # submit can only queue its tee record *behind* the snapshot frame
        # (per-connection FIFO), so the standby never misses a record nor
        # sees one that predates its snapshot
        self._replicas.add(conn)
        self.metrics.counter("replicas_joined").inc()
        records = self.table.records(time.monotonic())
        await conn.send(Message("replica_snapshot", {"records": records}))
        try:
            while await read_message(conn.reader) is not None:
                pass
        except (NetError, ConnectionError, OSError):
            pass
        finally:
            self._replicas.discard(conn)
            await conn.close()

    # ------------------------------------------------------------------
    # watchdog
    # ------------------------------------------------------------------
    async def _watch(self) -> None:
        while True:
            await asyncio.sleep(self.check_interval)
            now = time.monotonic()
            silent = self.table.silent_nodes(now, self.heartbeat_timeout)
            for node_id in silent:
                conn = self._node_conns.get(node_id)
                if conn is not None:
                    conn.abort()
                await self._feed(
                    self.table.node_lost, node_id, "heartbeat timeout"
                )
            await self._broadcast_lease(now)
            await self._feed(self.table.tick)

    async def _broadcast_lease(self, now: float) -> None:
        """Renew the leader lease on every standby and node.

        Rides the watchdog tick, so a leader whose event loop wedges stops
        renewing exactly like one whose process died — both trip the
        standby's ``lease_timeout``.  Lease frames are droppable under the
        slow-consumer policy: a standby too stalled to drain them *should*
        be treated as gone.  Nodes get the same frames: their connections
        can outlive a dead leader (forked workers keep the socket's fd
        open, so no FIN is ever delivered), and lease silence is what
        triggers re-homing.
        """
        lease = Message(
            "lease",
            {
                "sent_at": now,
                "jobs_active": len(self.table.jobs),
                "jobs_pending": len(self.table.pending),
            },
        )
        for conn in [*self._replicas, *self._node_conns.values()]:
            await conn.send(lease)

    def _stats_message(self, request_id: Any = None) -> Message:
        coordinator, nodes = self.table.stats(time.monotonic())
        coordinator["replicas_connected"] = sum(
            1 for r in self._replicas if not r.closed
        )
        return Message(
            "stats",
            {
                "request_id": request_id,
                "coordinator": coordinator,
                "nodes": nodes,
            },
        )
