"""Hot-standby coordinator: journal-streaming replication + takeover.

:class:`StandbyCoordinator` closes the gap between the PR 5 write-ahead
journal (recovery after a *manual* restart) and true high availability:

- **replication stream** — the standby connects to the leader with the
  protocol v7 ``hello role=replica`` handshake and tails the job journal
  over the wire: one ``replica_snapshot`` frame reconstructing every live
  job, then one ``replica_record`` frame per journal append (submit /
  generation / finish, with priority and coop metadata verbatim).  Every
  record is appended to the standby's *own* journal file — the mirror is
  durable, not just warm memory — and folded into a
  :class:`~repro.net.jobtable.JobTable` mirror through the same
  ``apply_record`` fold that journal replay uses;
- **leader lease** — the leader renews a lease from its heartbeat
  watchdog tick; the standby promotes itself when the lease goes silent
  past ``lease_timeout`` (wedged leader) or the replication connection
  drops (dead leader) — both reduce to "the leader stopped renewing";
- **deterministic takeover** — promotion simply constructs a fresh
  :class:`~repro.net.coordinator.Coordinator` over the mirrored journal
  on the standby's pre-reserved port: the battle-tested journal recovery
  re-creates every unfinished job under a strictly bumped generation
  (stale pre-crash reports stay stale), re-registers ``client_key``
  dedup, and re-dispatches as soon as re-homed agents join.  Exactly-one
  winner is preserved by the same machinery that already guards
  re-dispatch and hedging;
- **re-homing** — clients and node agents take an ordered coordinator
  address list (leader first, standby second) and fail over with the
  existing jittered reconnect/backoff machinery, so nothing above this
  layer needs new logic to survive the switch.

Split-brain note: a wedged-but-alive leader plus a promoted standby can
coexist briefly.  This is bounded and harmless by construction — clients
and agents prefer addresses in order (they only reach the standby once
the leader stops answering), promotion bumps every job generation so any
report the old leader's assignments still produce is dropped as stale,
and the ``client_key`` cache dedupes double answers.  We document the
window instead of adding a consensus protocol the paper's control plane
does not need.
"""

from __future__ import annotations

import asyncio
import socket
import tempfile
import time
from pathlib import Path
from typing import Any, Optional

from repro.errors import NetError
from repro.net.coordinator import Coordinator
from repro.net.jobtable import JobTable
from repro.net.journal import JobJournal
from repro.net.protocol import (
    PROTOCOL_VERSION,
    Message,
    read_message,
    write_message,
)
from repro.telemetry.events import FailoverBegin, FailoverComplete
from repro.telemetry.recorder import Recorder, get_recorder

__all__ = ["StandbyCoordinator"]


class StandbyCoordinator:
    """A warm spare tailing the leader's journal, ready to take over.

    Parameters
    ----------
    leader:
        the leader coordinator's ``(host, port)`` (or ``"host:port"``).
    host / port:
        where the *promoted* coordinator will serve.  ``port=0`` reserves
        a free port during :meth:`start` — before promotion — so clients
        and agents can be handed the ordered address list up front.
    journal_path:
        where the mirrored journal lives; ``None`` keeps it in a private
        temporary directory that dies with this object.
    lease_timeout:
        seconds of lease silence before the standby declares the leader
        dead and promotes itself.  Connection loss promotes immediately.
    poll_interval:
        how often the lease watchdog checks.
    connect_timeout:
        dial + handshake budget against the leader.
    coordinator_kwargs:
        keyword arguments forwarded to the promoted
        :class:`~repro.net.coordinator.Coordinator` (heartbeat/hedging
        knobs, ``predictor``, ``journal_max_bytes``, ...), so the standby
        inherits the leader's policy, not the defaults.
    recorder:
        telemetry recorder for the ``FailoverBegin`` / ``FailoverComplete``
        events (and, forwarded, for the promoted coordinator).
    """

    def __init__(
        self,
        leader: Any,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        journal_path: Any = None,
        lease_timeout: float = 2.0,
        poll_interval: float = 0.05,
        connect_timeout: float = 10.0,
        coordinator_kwargs: dict[str, Any] | None = None,
        recorder: Recorder | None = None,
    ) -> None:
        from repro.net.client import parse_address

        if lease_timeout <= 0:
            raise NetError(f"lease_timeout must be > 0, got {lease_timeout}")
        self.leader = parse_address(leader)
        self.host = host
        self.port = port
        self.lease_timeout = lease_timeout
        self.poll_interval = poll_interval
        self.connect_timeout = connect_timeout
        self.coordinator_kwargs = dict(coordinator_kwargs or {})
        self.recorder = recorder if recorder is not None else get_recorder()
        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None
        if journal_path is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-standby-")
            journal_path = Path(self._tmpdir.name) / "journal.jsonl"
        self.journal_path = Path(journal_path)
        self._journal: Optional[JobJournal] = None
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._tasks: list[asyncio.Task] = []
        self._last_lease = 0.0
        self._stopped = False
        self._promoting = False
        #: set once the promoted coordinator is serving
        self.promoted = asyncio.Event()
        #: the promoted :class:`Coordinator` (None while standing by)
        self.coordinator: Optional[Coordinator] = None
        self.promote_reason = ""
        #: detection-to-serving seconds of the takeover (0.0 until then)
        self.failover_elapsed = 0.0
        self.records_mirrored = 0
        #: the leader's job state, folded from the streamed records
        self._mirror = JobTable()

    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """Where the promoted coordinator serves (valid after start)."""
        return (self.host, self.port)

    @property
    def jobs_mirrored(self) -> int:
        """Live (unfinished) jobs currently in the warm mirror."""
        return len(self._mirror.jobs)

    def _reserve_port(self) -> None:
        """Pin the serving port before promotion.

        Clients and agents need the standby's address *while the leader
        is still alive*, so ``port=0`` is resolved here by binding a
        throwaway socket and releasing it.  The port could in principle
        be stolen between release and promotion — a documented, tiny race
        accepted over shipping address updates through a side channel.
        """
        if self.port:
            return
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            probe.bind((self.host, 0))
            self.port = probe.getsockname()[1]
        finally:
            probe.close()

    async def start(self) -> tuple[str, int]:
        """Attach to the leader and start mirroring; returns the address
        the *promoted* coordinator will serve on."""
        self._reserve_port()
        # retry refused dials until the budget expires: a standby is
        # routinely booted alongside its leader, which may still be
        # importing/binding when we first knock
        deadline = time.monotonic() + self.connect_timeout
        while True:
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(*self.leader),
                    max(0.1, deadline - time.monotonic()),
                )
                break
            except (OSError, asyncio.TimeoutError) as err:
                if time.monotonic() >= deadline:
                    raise NetError(
                        f"standby cannot reach leader "
                        f"{self.leader[0]}:{self.leader[1]}: {err}"
                    ) from None
                await asyncio.sleep(0.2)
        await write_message(
            writer,
            Message(
                "hello", {"role": "replica", "protocol": PROTOCOL_VERSION}
            ),
        )
        try:
            welcome = await asyncio.wait_for(
                read_message(reader), self.connect_timeout
            )
        except asyncio.TimeoutError:
            writer.close()
            raise NetError("leader never answered the replica hello") from None
        if welcome is None or welcome.type != "welcome":
            error = welcome.get("error") if welcome is not None else "EOF"
            writer.close()
            raise NetError(f"leader refused the replica handshake: {error}")
        self._reader, self._writer = reader, writer
        self._journal = JobJournal(self.journal_path)
        self._last_lease = time.monotonic()
        self._tasks = [
            asyncio.ensure_future(self._tail_loop()),
            asyncio.ensure_future(self._watch_lease()),
        ]
        return self.address

    # ------------------------------------------------------------------
    # replication tail
    # ------------------------------------------------------------------
    async def _tail_loop(self) -> None:
        assert self._reader is not None
        try:
            while True:
                message = await read_message(self._reader)
                if message is None:
                    break
                # any frame is proof of leader liveness
                self._last_lease = time.monotonic()
                if message.type == "replica_snapshot":
                    for record in message.get("records") or []:
                        self._ingest(record)
                elif message.type == "replica_record":
                    record = message.get("record")
                    if record is not None:
                        self._ingest(record)
        except (NetError, ConnectionError, OSError):
            pass
        # EOF / reset / graceful leader stop all mean the same thing to a
        # standby: nobody is renewing the lease anymore
        if not self._stopped:
            await self.promote(reason="connection-lost")

    def _ingest(self, record: Any) -> None:
        """Durably journal one streamed record and fold the warm mirror."""
        if not isinstance(record, dict):
            return
        if self._journal is not None:
            self._journal.append_record(record)
        self.records_mirrored += 1
        self._mirror.apply_record(record)

    async def _watch_lease(self) -> None:
        while True:
            await asyncio.sleep(self.poll_interval)
            if self._stopped or self._promoting:
                return
            if time.monotonic() - self._last_lease > self.lease_timeout:
                await self.promote(reason="lease-timeout")
                return

    # ------------------------------------------------------------------
    # takeover
    # ------------------------------------------------------------------
    async def promote(self, reason: str = "manual") -> None:
        """Take over: replay the mirrored journal, serve on our port.

        Idempotent; called by the tail loop (connection lost), the lease
        watchdog (silence), or tests (manual).  The promoted coordinator
        runs the ordinary journal recovery, which bumps every generation
        above anything the dead leader ever assigned and queues every
        unfinished job for dispatch the moment re-homed agents join.
        """
        if self._promoting or self._stopped:
            return
        self._promoting = True
        detected = time.monotonic()
        self.promote_reason = reason
        leader_addr = f"{self.leader[0]}:{self.leader[1]}"
        standby_addr = f"{self.host}:{self.port}"
        if self.recorder.enabled:
            self.recorder.emit(
                FailoverBegin(
                    leader=leader_addr, standby=standby_addr, reason=reason
                )
            )
        # release the journal fd so the promoted coordinator owns the file
        await self._detach()
        kwargs = dict(self.coordinator_kwargs)
        kwargs.setdefault("recorder", self.recorder)
        self.coordinator = Coordinator(
            self.host,
            self.port,
            journal_path=self.journal_path,
            **kwargs,
        )
        await self.coordinator.start()
        self.failover_elapsed = time.monotonic() - detected
        if self.recorder.enabled:
            self.recorder.emit(
                FailoverComplete(
                    standby=standby_addr,
                    jobs_recovered=self.coordinator.counters[
                        "recovered_jobs"
                    ],
                    elapsed=self.failover_elapsed,
                )
            )
        self.promoted.set()

    async def _detach(self) -> None:
        """Stop mirroring: cancel and await the *other* loop task (promote
        runs inside one of them), drop the leader connection, close the
        mirror journal."""
        current = asyncio.current_task()
        tasks = [task for task in self._tasks if task is not current]
        self._tasks = []
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.wait(tasks)
        if self._writer is not None:
            transport = self._writer.transport
            if transport is not None:
                transport.abort()
            self._writer = None
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    async def wait_promoted(self, timeout: float | None = None) -> None:
        await asyncio.wait_for(self.promoted.wait(), timeout)

    # ------------------------------------------------------------------
    async def stop(self) -> None:
        """Tear down the standby (and the promoted coordinator, if any)."""
        self._stopped = True
        await self._detach()
        if self.coordinator is not None:
            await self.coordinator.stop()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None
