"""Sans-IO job table: every job-lifecycle decision of the coordinator.

:class:`JobTable` is the coordinator's state machine with the I/O taken
out.  It owns the node and job registries and decides everything the
cluster does with a job — dispatch, first-finisher-wins, cancel,
re-dispatch under a bumped generation, straggler hedging, the coop
migration relay, deadlines and ``client_key`` dedup — but it never
touches a socket, a file or a clock.  It handles one input at a time;
every input carries ``now`` (coordinator monotonic seconds) and returns
an ordered list of effects:

:class:`Send`
    put a frame on a peer's connection (peers are opaque handles supplied
    by the shell — the table only compares and stores them);
:class:`Record`
    write one journal record (the shell appends it to the journal file
    *and* tees it to every hot standby);
:class:`Emit`
    emit one telemetry event;
:class:`CrashPoint`
    a chaos lifecycle point (``submit`` / ``dispatch`` / ``walk_result``
    / ``finish``); a firing plan crashes the shell there and every effect
    after it is dropped, exactly like a ``kill -9`` at that point.

Ordering invariants the effect lists encode: a job's ``submit`` record
precedes its ``job_accepted`` frame and any assign; a ``finish`` record
precedes the result frame (journal recovery invariant 4).

Journal replay, compaction, the standby mirror and the replica snapshot
share one fold, :meth:`JobTable.apply_record`, and one serializer,
:meth:`JobTable.records`.  A folded job is not runnable until
:meth:`JobTable.recover` decodes its payload and bumps its generation
above every journaled assignment.

Generations: every walk remembers the generation it was last dispatched
under, and a report carrying an older one is stale.  A re-dispatch (and
recovery) bumps the job generation, so what a "dead" node or a crashed
predecessor's assignment still manages to report is dropped on arrival.
"""

from __future__ import annotations

import base64
import hashlib
import math
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any, Optional, Union

from repro.coop import CoopConfig, migration_routes
from repro.errors import CoopError, NetError
from repro.net.protocol import Message, pickle_blob, unpickle_blob
from repro.net.results import (
    NetJobResult,
    job_result_to_message,
    outcome_from_message,
)
from repro.parallel.seeding import partition_walks
from repro.service.jobs import JobStatus
from repro.telemetry.events import (
    AssignEvent,
    CancelAck,
    CancelBroadcast,
    EliteReport,
    FirstSolve,
    HedgeDispatch,
    JobDispatch,
    JobFinish,
    JobSubmit,
    Migration,
)
from repro.telemetry.metrics import MetricsRegistry

__all__ = [
    "JobTable",
    "Job",
    "Send",
    "Record",
    "Emit",
    "CrashPoint",
    "submit_record",
    "generation_record",
    "finish_record",
    "checkpoint_record",
]

#: cancel round trips retained for the stats frame (ring buffer)
_MAX_CANCEL_SAMPLES = 1024

#: finished results cached for client_key replay (bounded LRU)
_MAX_FINISHED_CACHE = 256

#: the coordinator counters of the ``stats`` frame (the shell bumps the
#: last three: slow-consumer drops and standby replication)
COUNTERS = tuple(
    """
    jobs_submitted jobs_completed jobs_solved jobs_failed jobs_cancelled
    walks_dispatched walk_results stale_results redispatches nodes_joined
    nodes_lost cancels_sent cancel_acks hedges hedges_quantile
    recovered_jobs reattached_clients assigns_sent assign_bytes
    problems_shipped repeat_assigns repeat_assign_bytes coop_jobs
    elite_reports migrations_relayed migrations_lost islands_lost
    frames_dropped replicas_joined replica_records_streamed
    """.split()
)


# ----------------------------------------------------------------------
# effects
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class Send:
    """Put ``message`` on the connection of peer ``to``."""

    to: Any
    message: Message


@dataclass(frozen=True, slots=True)
class Record:
    """Append ``record`` to the journal and tee it to every standby."""

    record: dict


@dataclass(frozen=True, slots=True)
class Emit:
    """Emit one telemetry event."""

    event: Any


@dataclass(frozen=True, slots=True)
class CrashPoint:
    """A chaos lifecycle point; the shell may die here."""

    point: str


Effect = Union[Send, Record, Emit, CrashPoint]


# ----------------------------------------------------------------------
# journal records
#
# The journal file, the replication stream and the replica snapshot carry
# the exact same records; these builders are the single source of truth
# for their shape.
# ----------------------------------------------------------------------
def submit_record(
    job_id: int,
    *,
    client_key: str,
    trace_id: str,
    n_walkers: int,
    deadline: float | None,
    payload: bytes,
    priority: int = 0,
    coop: dict | None = None,
) -> dict[str, Any]:
    """The journal record of one accepted job."""
    record: dict[str, Any] = {
        "kind": "submit",
        "job_id": job_id,
        "client_key": client_key,
        "trace_id": trace_id,
        "n_walkers": n_walkers,
        "deadline": deadline,
        "priority": priority,
        "payload": base64.b64encode(payload).decode("ascii"),
    }
    if coop is not None:
        # a recovered cooperative job must come back as a cooperative
        # job, so the wire dict is journaled verbatim
        record["coop"] = coop
    return record


def generation_record(job_id: int, generation: int) -> dict[str, Any]:
    return {"kind": "generation", "job_id": job_id, "generation": generation}


def finish_record(job_id: int, status: str) -> dict[str, Any]:
    return {"kind": "finish", "job_id": job_id, "status": status}


def checkpoint_record(max_job_id: int) -> dict[str, Any]:
    """Job-id high-water mark (written by compaction and snapshots)."""
    return {"kind": "checkpoint", "job_id": max_job_id}


def _refuse(client: Any, request_id: Any, error: str) -> Send:
    message = Message("error", {"request_id": request_id, "error": error})
    return Send(client, message)


def _accept(client: Any, request_id: Any, job_id: int) -> Send:
    return Send(
        client,
        Message("job_accepted", {"request_id": request_id, "job_id": job_id}),
    )


def _valid_coop(coop: Any) -> Optional[dict]:
    """The canonical coop wire dict, or None when absent or corrupt — a
    corrupt journaled coop dict must not lose the job, which then runs as
    plain independent multi-walk."""
    if coop is None:
        return None
    try:
        return CoopConfig.from_wire(coop).to_wire()
    except CoopError:
        return None


# ----------------------------------------------------------------------
# registry entries
# ----------------------------------------------------------------------
class Node:
    """Registry entry for one connected node agent."""

    def __init__(
        self, node_id: int, name: str, capacity: int, peer: Any, now: float
    ) -> None:
        self.node_id = node_id
        self.name = name
        self.capacity = capacity
        self.peer = peer
        self.last_heartbeat = now
        self.load: dict[str, Any] = {}
        #: job_id -> walk ids currently assigned to this node
        self.assigned: dict[int, set[int]] = {}
        #: problem digests this connection has already received — later
        #: assigns ship a digest reference instead of the pickled problem
        #: (reset naturally on reconnect: a new Node)
        self.known_problems: set[str] = set()


class _CoopState:
    """Bookkeeping for one cooperative (island) job.

    The coordinator's role in a migration round is a *barrier relay*:
    every active island sends one ``elite_report`` per round and then
    waits; once every active island has an unconsumed report the
    coordinator routes them through the job's topology and answers every
    reporting island with exactly one ``elite_push`` (possibly carrying
    no migrants) — a uniform protocol with deterministic content.  The
    barrier counts *reports per island*, not matching round numbers, so
    an island re-created by a re-dispatch (whose local round counter
    restarts at 1) still participates instead of wedging the relay.
    Islands that die or finish shrink the expected set, and an island
    whose push is lost times out locally and continues (degradation,
    never deadlock).
    """

    def __init__(self, config: CoopConfig) -> None:
        self.config = config
        #: island id -> {"node": node_id, "walks": set, "generation": int}
        self.islands: dict[int, dict[str, Any]] = {}
        self.done: set[int] = set()  # sent island_stats (finished cleanly)
        self.lost: set[int] = set()  # hosting node died
        self.next_island = 0
        #: island id -> (island-local round index, cost, raw pickled
        #: config bytes) — at most one unconsumed report per island
        self.pending: dict[int, tuple[int, float, bytes]] = {}
        self.best_cost = math.inf
        self.stats = {
            "elite_reports": 0,
            "rounds_relayed": 0,
            "rounds_dropped": 0,
            "migrations_relayed": 0,
            "pushes_failed": 0,
            "island_reports": 0,
            "island_adoptions": 0,
            "island_migrations_in": 0,
            "island_migrations_lost": 0,
        }

    def is_active(self, island: Any) -> bool:
        """Still expected to report: known, live node, not finished."""
        return (
            island in self.islands
            and island not in self.done
            and island not in self.lost
        )

    def active_islands(self) -> set[int]:
        return {island for island in self.islands if self.is_active(island)}

    def summary(self) -> dict[str, Any]:
        """The migration ledger of a finished job's result."""
        stats = self.stats
        return {
            "topology": self.config.topology,
            "islands": self.next_island,
            "islands_lost": len(self.lost),
            "elite_reports": stats["elite_reports"],
            "rounds_relayed": stats["rounds_relayed"],
            "rounds_dropped": stats["rounds_dropped"],
            "migrations_relayed": stats["migrations_relayed"],
            # everything cooperation promised but never delivered:
            # island-side push timeouts plus relay-side losses
            "migrations_lost": (
                stats["island_migrations_lost"]
                + stats["rounds_dropped"]
                + stats["pushes_failed"]
            ),
            "adoptions": stats["island_adoptions"],
            "migrations_in": stats["island_migrations_in"],
            "best_cost": (
                self.best_cost if math.isfinite(self.best_cost) else None
            ),
        }


class Job:
    """Registry entry for one in-flight cluster job.

    ``payload`` is the pickled submit payload (problem + config + seeds)
    exactly as journaled.  A job folded from journal records carries only
    that payload; :meth:`load` decodes it into ``problem`` / ``config`` /
    ``seeds`` once the job is about to run.
    """

    def __init__(
        self,
        job_id: int,
        *,
        payload: bytes,
        n_walkers: int,
        client: Any = None,
        request_id: int = 0,
        trace_id: str = "",
        client_key: str = "",
        priority: int = 0,
        coop: Optional[dict] = None,
        deadline: Optional[float] = None,
    ) -> None:
        self.job_id = job_id
        self.payload = payload
        self.n_walkers = n_walkers
        #: ``None`` while the owning client is disconnected (resilient
        #: client away, or job recovered from the journal)
        self.client = client
        self.request_id = request_id
        self.trace_id = trace_id
        self.client_key = client_key
        #: orders the pending-dispatch queue (higher first) and travels in
        #: assign frames so node-local schedulers agree
        self.priority = priority
        #: seconds of cluster-side budget as submitted; ``deadline_at`` is
        #: the absolute expiry once the job is live
        self.deadline = deadline
        self.deadline_at: Optional[float] = None
        self.problem: Any = None
        self.config: Any = None
        self.seeds: list[Any] = []
        self.submitted_at = 0.0
        self.generation = 0
        #: walk id -> generation of its latest dispatch (older reports are
        #: stale)
        self.walk_generation: dict[int, int] = {}
        self.outstanding: set[int] = set(range(n_walkers))
        self.outcomes: dict[int, Any] = {}
        self.nodes: dict[int, str] = {}
        self.winner: Any = None
        self.winner_node: Optional[str] = None
        self.redispatches = 0
        self.error: Optional[str] = None
        self.degraded = False
        #: straggler bookkeeping: last dispatch time and heartbeat progress
        #: per outstanding walk, wall times of finished walks, hedge caps
        self.dispatched_at: dict[int, float] = {}
        self.progress: dict[int, dict[str, Any]] = {}
        self.completed_walls: list[float] = []
        self.hedged: dict[int, int] = {}
        self.hedge_count = 0
        self._problem_digest: Optional[str] = None
        #: the validated coop wire dict (None = independent multi-walk) and
        #: the live island/migration bookkeeping
        self.coop = coop
        self.coop_state = None
        if coop is not None:
            self.coop_state = _CoopState(CoopConfig.from_wire(coop))

    def load(self, payload: dict[str, Any]) -> None:
        """Adopt a decoded submit payload; every walk is outstanding."""
        self.problem = payload["problem"]
        self.config = payload.get("config")
        self.seeds = list(payload["seeds"])
        self.n_walkers = len(self.seeds)
        self.outstanding = set(range(self.n_walkers))

    @property
    def problem_digest(self) -> str:
        """Content digest of this job's problem (computed once)."""
        if self._problem_digest is None:
            from repro.parallel.shm import problem_digest

            self._problem_digest = problem_digest(self.problem)
        return self._problem_digest


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------
class JobTable:
    """Node and job registries plus every lifecycle rule (see module doc).

    Parameters mirror the policy knobs of
    :class:`~repro.net.coordinator.Coordinator`; ``telemetry`` says
    whether :class:`Emit` effects are produced at all.  The counters live
    in this table's own :attr:`metrics` registry, so every coordinator
    instance (a promoted standby in the same process included) counts
    from zero.
    """

    def __init__(
        self,
        *,
        max_redispatch: int = 2,
        hedge_factor: float | None = None,
        max_hedges: int = 2,
        min_hedge_delay: float = 0.25,
        predictor: Any = None,
        hedge_quantile: float | None = None,
        telemetry: bool = False,
    ) -> None:
        if max_redispatch < 0:
            raise NetError(
                f"max_redispatch must be >= 0, got {max_redispatch}"
            )
        if hedge_factor is not None and hedge_factor <= 0:
            raise NetError(f"hedge_factor must be > 0, got {hedge_factor}")
        if max_hedges < 0:
            raise NetError(f"max_hedges must be >= 0, got {max_hedges}")
        if hedge_quantile is not None and not 0.0 < hedge_quantile < 1.0:
            raise NetError(
                f"hedge_quantile must be in (0, 1), got {hedge_quantile}"
            )
        if hedge_quantile is not None and predictor is None:
            raise NetError("hedge_quantile requires a predictor")
        self.max_redispatch = max_redispatch
        self.hedge_factor = hedge_factor
        self.max_hedges = max_hedges
        self.min_hedge_delay = min_hedge_delay
        self.predictor = predictor
        self.hedge_quantile = hedge_quantile
        self.telemetry = telemetry
        self.metrics = MetricsRegistry()
        self._counters = {
            name: self.metrics.counter(name) for name in COUNTERS
        }

        self.nodes: dict[int, Node] = {}
        self.jobs: dict[int, Job] = {}
        self.pending: list[int] = []  # job ids waiting for a first node
        #: highest job id ever issued (snapshot checkpoint high-water mark)
        self.max_job_id = -1
        #: client_key -> job_id of the still-running job with that key
        self.client_keys: dict[str, int] = {}
        #: client_key -> finished NetJobResult, for idempotent resubmission
        self.finished_by_key: OrderedDict[str, NetJobResult] = OrderedDict()
        #: recent cancel round trips, coordinator-clock seconds (sent_at is
        #: echoed back by the node, so this is true RTT)
        self.cancel_latencies: deque[float] = deque(maxlen=_MAX_CANCEL_SAMPLES)
        self._dispatch_offset = 0  # rotates the first node across dispatches

    def _count(self, name: str, amount: int = 1) -> None:
        self._counters[name].inc(amount)

    def _event(
        self, effects: list[Effect], kind: type, job: Job, **fields: Any
    ) -> None:
        """Append one telemetry event about ``job`` (when telemetry is on)."""
        if self.telemetry:
            effects.append(
                Emit(kind(trace_id=job.trace_id, job_id=job.job_id, **fields))
            )

    def _touch(self, node_id: int, now: float) -> Optional[Node]:
        """Any frame from a node proves it alive; None once it is lost."""
        node = self.nodes.get(node_id)
        if node is not None:
            node.last_heartbeat = now
        return node

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def counters(self) -> dict[str, int]:
        """Every counter of the registry by name (integers)."""
        return {
            instrument.name: instrument.to_json()
            for instrument in self.metrics.instruments()
            if instrument.kind == "counter"
        }

    def stats(self, now: float) -> tuple[dict[str, Any], list[dict]]:
        """The ``coordinator`` and ``nodes`` sections of a stats frame."""
        samples = list(self.cancel_latencies)
        coordinator = {
            **self.counters(),
            "jobs_active": len(self.jobs),
            "jobs_pending": len(self.pending),
            "nodes_connected": len(self.nodes),
            "cancel_latency": {
                "count": len(samples),
                "mean": sum(samples) / len(samples) if samples else 0.0,
                "min": min(samples) if samples else 0.0,
                "max": max(samples) if samples else 0.0,
            },
        }
        nodes = [
            {
                "name": node.name,
                "capacity": node.capacity,
                "heartbeat_age": now - node.last_heartbeat,
                "assigned_walks": sum(len(v) for v in node.assigned.values()),
                "load": node.load,
            }
            for node in self.nodes.values()
        ]
        return coordinator, nodes

    def silent_nodes(self, now: float, timeout: float) -> list[int]:
        """Nodes whose last frame is older than ``timeout`` seconds."""
        return [
            node.node_id
            for node in self.nodes.values()
            if now - node.last_heartbeat > timeout
        ]

    # ------------------------------------------------------------------
    # journal fold and serializer
    # ------------------------------------------------------------------
    def apply_record(self, record: Any) -> None:
        """Fold one journal record into the table.

        ``submit`` creates a (not yet runnable) job, ``generation`` raises
        its generation, ``finish`` drops it, and every record's job id
        raises the high-water mark.  Malformed records are skipped.
        """
        if not isinstance(record, dict):
            return
        job_id = record.get("job_id")
        if not isinstance(job_id, int):
            return
        self.max_job_id = max(self.max_job_id, job_id)
        kind = record.get("kind")
        if kind == "submit":
            try:
                payload = base64.b64decode(record["payload"])
            except (KeyError, TypeError, ValueError):
                return  # corrupt entry: skip it, keep the rest
            job = Job(
                job_id,
                payload=payload,
                n_walkers=int(record.get("n_walkers", 0) or 0),
                trace_id=record.get("trace_id") or "",
                client_key=record.get("client_key") or "",
                priority=int(record.get("priority", 0) or 0),
                coop=_valid_coop(record.get("coop")),
                deadline=record.get("deadline"),
            )
            self.jobs[job_id] = job
            if job.client_key:
                self.client_keys[job.client_key] = job_id
        elif kind == "generation" and job_id in self.jobs:
            job = self.jobs[job_id]
            job.generation = max(
                job.generation, int(record.get("generation", 0))
            )
        elif kind == "finish":
            job = self.jobs.pop(job_id, None)
            if job is not None and job.client_key:
                self.client_keys.pop(job.client_key, None)

    def records(self, now: float | None = None) -> list[dict[str, Any]]:
        """Journal records that fold back into this table.

        A checkpoint with the job-id high-water mark (a recovered or
        promoted coordinator must never reuse an id a cached result may
        still reference), then one ``submit`` per job plus its
        ``generation`` when above 0.  With ``now``, live deadlines are
        re-based to the *remaining* budget so a standby promoted later
        does not grant dead jobs a second life.
        """
        out = [checkpoint_record(self.max_job_id)]
        for job_id in sorted(self.jobs):
            job = self.jobs[job_id]
            deadline = job.deadline
            if now is not None and job.deadline_at is not None:
                deadline = max(0.0, job.deadline_at - now)
            out.append(self._submit_record(job, deadline))
            if job.generation:
                out.append(generation_record(job_id, job.generation))
        return out

    @staticmethod
    def _submit_record(job: Job, deadline: Any) -> dict[str, Any]:
        return submit_record(
            job.job_id,
            client_key=job.client_key,
            trace_id=job.trace_id,
            n_walkers=job.n_walkers,
            deadline=deadline,
            payload=job.payload,
            priority=job.priority,
            coop=job.coop,
        )

    def recover(self, now: float) -> list[Effect]:
        """Make every folded job runnable again.

        Decodes each payload (a corrupt one loses only its own job),
        bumps the generation strictly above every journaled assignment —
        pre-crash reports from surviving nodes stay stale — restarts the
        deadline clock and queues the job for dispatch.  The bumped
        generations are journaled so a second crash still starts above
        every assignment ever made.
        """
        effects: list[Effect] = []
        for job_id in sorted(self.jobs):
            job = self.jobs[job_id]
            try:
                job.load(unpickle_blob(job.payload))
            except Exception:
                job.seeds = []
            if not job.seeds:
                del self.jobs[job_id]
                if job.client_key:
                    self.client_keys.pop(job.client_key, None)
                continue
            job.generation += 1
            job.submitted_at = now
            if job.deadline is not None:
                job.deadline_at = now + float(job.deadline)
            self.pending.append(job_id)
            self._count("recovered_jobs")
            effects.append(Record(generation_record(job_id, job.generation)))
        return effects

    # ------------------------------------------------------------------
    # inputs: clients
    # ------------------------------------------------------------------
    def submit(
        self, client: Any, message: Message, now: float
    ) -> list[Effect]:
        """A client submitted a job (or resubmitted a ``client_key``)."""
        effects: list[Effect] = [CrashPoint("submit")]
        payload = unpickle_blob(message.blob)
        seeds = list(payload["seeds"])
        if not seeds:
            refusal = "submit carries no walk seeds"
            request_id = message.get("request_id")
            return effects + [_refuse(client, request_id, refusal)]
        client_key = message.get("client_key") or ""
        request_id = message.get("request_id", 0)
        if client_key:
            # idempotent resubmission: the same key either replays the
            # finished result or re-attaches to the still-running job —
            # it never starts a second copy of the work
            cached = self.finished_by_key.get(client_key)
            if cached is not None:
                return effects + [
                    _accept(client, request_id, cached.job_id),
                    Send(client, job_result_to_message(cached, request_id)),
                ]
            active = self.jobs.get(self.client_keys.get(client_key, -1))
            if active is not None:
                active.client = client
                active.request_id = request_id
                self._count("reattached_clients")
                return effects + [_accept(client, request_id, active.job_id)]
        coop = message.get("coop")
        if coop is not None:
            try:
                coop_config = CoopConfig.from_wire(coop)
            except CoopError as err:
                refusal = f"invalid coop config: {err}"
                return effects + [_refuse(client, request_id, refusal)]
            if coop_config.seed is None:
                refusal = (
                    "cooperative submit carries no coop seed "
                    "(the client derives it from the job seed)"
                )
                return effects + [_refuse(client, request_id, refusal)]
            coop = coop_config.to_wire()
            self._count("coop_jobs")
        self.max_job_id += 1
        deadline = message.get("deadline")
        job = Job(
            self.max_job_id,
            payload=message.blob or b"",
            n_walkers=len(seeds),
            client=client,
            request_id=request_id,
            trace_id=message.get("trace_id") or "",
            client_key=client_key,
            priority=int(message.get("priority", 0) or 0),
            coop=coop,
            deadline=deadline,
        )
        job.load(payload)
        job.submitted_at = now
        if deadline is not None:
            job.deadline_at = now + float(deadline)
        self.jobs[job.job_id] = job
        if client_key:
            self.client_keys[client_key] = job.job_id
        # write-ahead: the job is durable before the client hears
        # "accepted" and before any node sees a slice of it
        effects.append(Record(self._submit_record(job, deadline)))
        self._count("jobs_submitted")
        self._event(
            effects,
            JobSubmit,
            job,
            n_walkers=len(seeds),
            problem=getattr(job.problem, "name", type(job.problem).__name__),
        )
        effects.append(_accept(client, request_id, job.job_id))
        if not self.nodes:
            self.pending.append(job.job_id)
        else:
            effects += self._dispatch(job, sorted(job.outstanding), now)
        return effects

    def client_gone(
        self, client: Any, resilient: bool, now: float
    ) -> list[Effect]:
        """A client disconnected: its jobs are cancelled cluster-wide —
        unless the client declared itself resilient (hello
        ``reconnect=True``), in which case its jobs keep running detached
        and the client re-attaches by resubmitting its ``client_key``."""
        effects: list[Effect] = []
        for job in [j for j in self.jobs.values() if j.client is client]:
            if resilient:
                job.client = None
                continue
            effects += self._broadcast_cancel(job, now)
            effects += self._finish(job, JobStatus.CANCELLED, now)
        return effects

    # ------------------------------------------------------------------
    # inputs: nodes
    # ------------------------------------------------------------------
    def node_joined(
        self, node_id: int, name: str, capacity: int, peer: Any, now: float
    ) -> list[Effect]:
        """A node agent completed its handshake."""
        self.nodes[node_id] = Node(node_id, name, capacity, peer, now)
        self._count("nodes_joined")
        return self._flush_pending(now)

    def heartbeat(
        self, node_id: int, message: Message, now: float
    ) -> list[Effect]:
        """Liveness, load and per-walk progress from one node."""
        node = self._touch(node_id, now)
        if node is None:
            return []
        if message.get("load") is not None:
            node.load = message["load"]
        elif message.get("load_delta") is not None:
            # delta scheme: only changed keys travel
            node.load.update(message["load_delta"])
        for entry in message.get("progress") or ():
            if not isinstance(entry, dict):
                continue
            job = self.jobs.get(entry.get("job_id"))
            walk_id = entry.get("walk_id")
            if job is not None and walk_id in job.outstanding:
                job.progress[walk_id] = {
                    "iterations": int(entry.get("iterations", 0)),
                    "elapsed": float(entry.get("elapsed", 0.0)),
                    "node": node.name,
                    "at": now,
                }
        return []

    def node_lost(self, node_id: int, reason: str, now: float) -> list[Effect]:
        """A node died (connection loss or heartbeat silence): re-dispatch
        its unfinished walks to the survivors."""
        node = self.nodes.pop(node_id, None)
        if node is None:
            return []
        self._count("nodes_lost")
        effects: list[Effect] = []
        for job_id, walk_ids in node.assigned.items():
            job = self.jobs.get(job_id)
            if job is None:
                continue
            state = job.coop_state
            if state is not None:
                # islands hosted on the dead node are gone; their walks
                # come back below as *new* islands (fresh ids), and any
                # round that was waiting on them may now be complete
                for island, entry in state.islands.items():
                    if entry["node"] == node_id and state.is_active(island):
                        state.lost.add(island)
                        self._count("islands_lost")
                effects += self._relay_rounds(job)
            unfinished = sorted(walk_ids & job.outstanding)
            if unfinished:
                effects += self._redispatch(job, unfinished, node, reason, now)
        return effects

    def walk_result(
        self, node_id: int, message: Message, now: float
    ) -> list[Effect]:
        """One walk finished on a node: first solved report wins the job."""
        effects: list[Effect] = [CrashPoint("walk_result")]
        self._count("walk_results")
        node = self._touch(node_id, now)
        job = self.jobs.get(message["job_id"])
        walk_id = message["walk_id"]
        if (
            node is None
            or job is None
            or walk_id not in job.outstanding
            or message.get("generation", 0)
            < job.walk_generation.get(walk_id, 0)
        ):
            # late loser after a cancel, an assignment from before a
            # re-dispatch or a crash, a node already declared dead, or the
            # losing copy of a hedged walk: dropped, never double-counted
            self._count("stale_results")
            return effects
        # a hedged walk may be assigned on several nodes; clear them all
        for holder in self.nodes.values():
            holder.assigned.get(job.job_id, set()).discard(walk_id)
        job.outstanding.discard(walk_id)
        job.progress.pop(walk_id, None)
        job.nodes[walk_id] = node.name
        if message.get("error") is not None:
            # the walk failed remotely even after the node's local retries
            job.error = message["error"]
            if not job.outstanding and job.winner is None:
                effects += self._finish(job, JobStatus.FAILED, now)
            return effects
        outcome = outcome_from_message(message)
        job.outcomes[walk_id] = outcome
        job.completed_walls.append(outcome.wall_time)
        if self.predictor is not None and outcome.solved:
            # every solved walk teaches the runtime models; unsolved walks
            # are censored observations (cancelled losers, iteration caps)
            # and would bias the fit, so they stay out
            self.observe_walk(job, outcome.wall_time)
        if outcome.solved and job.winner is None:
            job.winner = outcome
            job.winner_node = node.name
            self._event(
                effects,
                FirstSolve,
                job,
                walk_id=walk_id,
                node=node.name,
                wall_time=outcome.wall_time,
            )
            effects += self._broadcast_cancel(job, now)
            effects += self._finish(job, JobStatus.SOLVED, now)
        elif not job.outstanding:
            effects += self._finish(
                job, JobStatus.FAILED if job.error else JobStatus.UNSOLVED, now
            )
        return effects

    def cancel_ack(
        self, node_id: int, message: Message, now: float
    ) -> list[Effect]:
        """A node confirmed a cancel; ``sent_at`` round-tripped verbatim,
        so the latency is measured on this table's clock alone."""
        self._count("cancel_acks")
        node = self._touch(node_id, now)
        sent_at = message.get("sent_at")
        latency = (
            max(0.0, now - sent_at)
            if isinstance(sent_at, (int, float))
            else 0.0
        )
        self.cancel_latencies.append(latency)
        if not self.telemetry:
            return []
        job_id = message.get("job_id", -1)
        job = self.jobs.get(job_id)
        # the job is usually already finished when acks arrive; recover
        # the trace id from the frame in that case
        ack = CancelAck(
            trace_id=job.trace_id if job else message.get("trace_id") or "",
            job_id=job_id,
            node=node.name if node is not None else "",
            latency=latency,
        )
        return [Emit(ack)]

    # ------------------------------------------------------------------
    # inputs: cooperative search (elite migration relay)
    # ------------------------------------------------------------------
    def elite_report(
        self, node_id: int, message: Message, now: float
    ) -> list[Effect]:
        """Buffer one island's elite for the barrier relay."""
        self._count("elite_reports")
        node = self._touch(node_id, now)
        job = self.jobs.get(message.get("job_id"))
        state = job.coop_state if job is not None else None
        island = message.get("island")
        if (
            node is None
            or state is None
            or not state.is_active(island)
            or message.blob is None
        ):
            # an island id from a pre-redispatch assignment (ids are never
            # reused) or a malformed frame: drop, never mis-route
            self._count("stale_results")
            return []
        round_index = int(message.get("round_index", 0))
        cost = float(message["cost"])
        state.stats["elite_reports"] += 1
        state.best_cost = min(state.best_cost, cost)
        # at most one unconsumed report per island: a newer report simply
        # replaces one that never completed a barrier (its island timed
        # out locally and moved on)
        state.pending[island] = (round_index, cost, message.blob)
        effects: list[Effect] = []
        self._event(
            effects,
            EliteReport,
            job,
            island=island,
            round_index=round_index,
            cost=cost,
            node=node.name,
        )
        return effects + self._relay_rounds(job)

    def island_stats(
        self, node_id: int, message: Message, now: float
    ) -> list[Effect]:
        """An island finished: fold its counters, shrink the barrier."""
        self._touch(node_id, now)
        job = self.jobs.get(message.get("job_id"))
        state = job.coop_state if job is not None else None
        island = message.get("island")
        if state is None or not state.is_active(island):
            return []
        state.done.add(island)
        state.stats["island_reports"] += 1
        state.stats["island_adoptions"] += int(message.get("adoptions", 0))
        state.stats["island_migrations_in"] += int(
            message.get("migrations_in", 0)
        )
        lost = int(message.get("migrations_lost", 0))
        state.stats["island_migrations_lost"] += lost
        self._count("migrations_lost", lost)
        # the expected set shrank: a round waiting on this island may now
        # be complete
        return self._relay_rounds(job)

    def _relay_rounds(self, job: Job) -> list[Effect]:
        """Relay every migration round whose barrier is now complete.

        Called whenever the barrier inputs change: a report arrived, an
        island finished (``island_stats``), or a hosting node died — the
        last two *shrink* the expected set, which can complete a round
        that was waiting on the shrunk-away island.
        """
        state = job.coop_state
        if state is None:
            return []
        # reports from islands that died or finished while buffered can
        # never be pushed back — drop them and account the loss
        for island in list(state.pending):
            if island in state.done or island in state.lost:
                del state.pending[island]
                state.stats["rounds_dropped"] += 1
                self._count("migrations_lost")
        active = state.active_islands()
        if not active or not active <= set(state.pending):
            return []
        reports = {island: state.pending.pop(island) for island in active}
        return self._relay_round(job, reports)

    def _relay_round(
        self, job: Job, reports: dict[int, tuple[int, float, bytes]]
    ) -> list[Effect]:
        """Route one complete round's elites and push the migrant batches.

        Everything here is a pure function of the (sorted) reports and the
        relay counter, so two runs with the same seed and topology produce
        bit-identical migration logs — the determinism the trace-diff test
        asserts.  The coordinator never unpickles a configuration: the raw
        report blobs are forwarded verbatim inside the push blob.
        """
        state = job.coop_state
        assert state is not None
        relay_index = state.stats["rounds_relayed"] + 1
        participants = sorted(reports)
        best_island = min(participants, key=lambda i: (reports[i][1], i))
        try:
            routes = migration_routes(
                state.config.topology,
                participants,
                round_index=relay_index,
                group_size=state.config.group_size,
                best_island=best_island,
            )
        except CoopError:  # pragma: no cover - defensive: topologies are
            state.stats["rounds_dropped"] += 1  # validated at submit
            return []
        state.stats["rounds_relayed"] += 1
        effects: list[Effect] = []
        for target in participants:
            sources = routes.get(target, [])
            entry = state.islands.get(target)
            node = self.nodes.get(entry["node"]) if entry else None
            if node is None:
                state.stats["pushes_failed"] += 1
                self._count("migrations_lost", len(sources))
                continue
            effects.append(
                Send(
                    node.peer,
                    Message(
                        "elite_push",
                        {
                            "job_id": job.job_id,
                            "island": target,
                            # echo the *target's own* reported round index
                            # so the island's inbox matches it against its
                            # current round
                            "round_index": reports[target][0],
                            "migrants": [
                                {"from": source, "cost": reports[source][1]}
                                for source in sources
                            ],
                        },
                        blob=(
                            pickle_blob([reports[s][2] for s in sources])
                            if sources
                            else None
                        ),
                    ),
                )
            )
            state.stats["migrations_relayed"] += len(sources)
            self._count("migrations_relayed", len(sources))
            for source in sources if self.telemetry else ():
                self._event(
                    effects,
                    Migration,
                    job,
                    round_index=relay_index,
                    from_island=source,
                    to_island=target,
                    cost=reports[source][1],
                    digest=hashlib.sha256(reports[source][2]).hexdigest()[:12],
                )
        return effects

    # ------------------------------------------------------------------
    # inputs: watchdog tick
    # ------------------------------------------------------------------
    def tick(self, now: float) -> list[Effect]:
        """Expire overdue jobs, then hedge stragglers (when enabled)."""
        effects: list[Effect] = []
        for job in list(self.jobs.values()):
            if job.deadline_at is None or now < job.deadline_at:
                continue
            # graceful degradation: best-so-far instead of an error
            job.degraded = bool(job.outcomes)
            job.error = job.error or (
                f"deadline expired with {len(job.outstanding)} of "
                f"{job.n_walkers} walks unfinished"
            )
            effects += self._finish(job, JobStatus.TIMED_OUT, now)
        if self.hedge_factor is not None or self.hedge_quantile is not None:
            effects += self._check_stragglers(now)
        return effects

    def quantile_threshold(self, job: Job) -> Optional[float]:
        """Predictor-backed straggler threshold for ``job``'s family.

        The fitted ``hedge_quantile`` runtime (e.g. p95) of the problem
        family, learned from *previous* walks cluster-wide — available
        from the first walk of a job, unlike the median rule which needs
        half of this job to finish first.  ``None`` when no model exists.
        """
        if self.predictor is None or self.hedge_quantile is None:
            return None
        family = getattr(job.problem, "family", None)
        if not family:
            return None
        size = getattr(job.problem, "size", None)
        try:
            delay = self.predictor.hedge_delay(
                family,
                size=int(size) if size is not None else None,
                quantile=self.hedge_quantile,
            )
        except (TypeError, ValueError):
            return None
        if delay is None:
            return None
        return max(float(delay), self.min_hedge_delay)

    def _median_threshold(self, job: Job) -> Optional[float]:
        """The fixed-multiplier fallback: ``hedge_factor x median`` of this
        job's finished walls, armed only once half the job completed."""
        if self.hedge_factor is None:
            return None
        completed = job.n_walkers - len(job.outstanding)
        if not job.completed_walls or completed * 2 < job.n_walkers:
            return None  # too early to call anything a straggler
        walls = sorted(job.completed_walls)
        median_wall = walls[len(walls) // 2]
        return max(self.hedge_factor * median_wall, self.min_hedge_delay)

    def observe_walk(self, job: Job, wall_time: float) -> None:
        """Feed one solved walk's wall time into the predictor's models."""
        family = getattr(job.problem, "family", None)
        if not family:
            return
        size = getattr(job.problem, "size", None)
        try:
            self.predictor.observe(
                family,
                wall_time,
                size=int(size) if size is not None else None,
            )
        except (TypeError, ValueError):
            pass  # a malformed problem shape must never kill the reader

    def _check_stragglers(self, now: float) -> list[Effect]:
        """Hedge outstanding straggler walks.

        Trigger ladder per job: the predictor's quantile threshold when a
        runtime model exists, else the median-multiplier rule.  The
        quantile path needs no within-job completions and no progress
        heuristics — history already says what "too long" means; the
        median path keeps its old-and-slow double check.
        """
        effects: list[Effect] = []
        for job in list(self.jobs.values()):
            if job.coop_state is not None:
                # a hedged duplicate island would double-report into the
                # migration barrier; cooperative jobs are never hedged
                continue
            threshold = self.quantile_threshold(job)
            trigger = "quantile"
            if threshold is None:
                threshold = self._median_threshold(job)
                trigger = "median_factor"
            if threshold is None:
                continue
            for walk_id in sorted(job.outstanding):
                if job.hedge_count >= self.max_hedges:
                    break
                if job.hedged.get(walk_id, 0) >= 1:
                    continue  # one hedged copy per walk is the cap
                started = job.dispatched_at.get(walk_id)
                if started is None:
                    continue
                elapsed = now - started
                if elapsed > threshold and (
                    trigger == "quantile" or self._is_slow(job, walk_id)
                ):
                    effects += self._hedge(
                        job, walk_id, elapsed, trigger, threshold, now
                    )
        return effects

    def _is_slow(self, job: Job, walk_id: int) -> bool:
        """Slow = no progress report, or under half the median iteration
        rate of this job's finished walks."""
        entry = job.progress.get(walk_id)
        if entry is None:
            return True
        rates = sorted(
            o.iterations / max(o.wall_time, 1e-9)
            for o in job.outcomes.values()
        )
        if not rates:
            return True
        median_rate = rates[len(rates) // 2]
        elapsed = max(float(entry.get("elapsed", 0.0)), 1e-9)
        rate = float(entry.get("iterations", 0)) / elapsed
        return rate < 0.5 * median_rate

    def _hedge(
        self,
        job: Job,
        walk_id: int,
        elapsed: float,
        trigger: str,
        threshold: float,
        now: float,
    ) -> list[Effect]:
        """Dispatch a duplicate of ``walk_id`` to another node.

        Same seed, same generation: whichever copy reports first wins the
        walk (outstanding-membership drops the loser as stale), so hedging
        never changes *what* is computed, only how long the tail waits.
        ``trigger``/``threshold`` record *why* it fired for `repro trace`.
        """
        slow_node = next(
            (
                node
                for node in self.nodes.values()
                if walk_id in node.assigned.get(job.job_id, ())
            ),
            None,
        )
        candidates = [n for n in self.nodes.values() if n is not slow_node]
        if not candidates:
            return []
        target = min(
            candidates,
            key=lambda n: sum(len(v) for v in n.assigned.values()),
        )
        job.hedged[walk_id] = job.hedged.get(walk_id, 0) + 1
        job.hedge_count += 1
        job.dispatched_at[walk_id] = now
        target.assigned.setdefault(job.job_id, set()).add(walk_id)
        self._count("hedges")
        if trigger == "quantile":
            self._count("hedges_quantile")
        self._count("walks_dispatched")
        effects: list[Effect] = []
        self._event(
            effects,
            HedgeDispatch,
            job,
            walk_id=walk_id,
            node=target.name,
            from_node=slow_node.name if slow_node else "",
            elapsed=elapsed,
            trigger=trigger,
            threshold=threshold,
        )
        effects.append(Send(target.peer, self._assign(job, target, [walk_id])))
        return effects

    # ------------------------------------------------------------------
    # dispatch, cancel, finish
    # ------------------------------------------------------------------
    def _flush_pending(self, now: float) -> list[Effect]:
        """Dispatch jobs that were waiting for a first node to join."""
        if not self.pending or not self.nodes:
            return []
        pending, self.pending = self.pending, []
        # drain the backlog highest-priority first; equal priorities keep
        # their submission order (job ids are monotonic), so an
        # all-default backlog stays plain FIFO
        pending.sort(
            key=lambda job_id: (
                -(self.jobs[job_id].priority if job_id in self.jobs else 0),
                job_id,
            )
        )
        effects: list[Effect] = []
        for job_id in pending:
            job = self.jobs.get(job_id)
            if job is not None:
                effects += self._dispatch(job, sorted(job.outstanding), now)
        return effects

    def _dispatch(
        self, job: Job, walk_ids: list[int], now: float
    ) -> list[Effect]:
        """Partition ``walk_ids`` round-robin over the nodes and ship slices.

        The starting node rotates across dispatch calls so a stream of
        jobs smaller than the cluster (e.g. the single-walk jobs of
        ``collect_samples(cluster=...)``) spreads over every node instead
        of piling onto the first one.  Rotation moves only *where* a walk
        runs; its seed — and hence trajectory — travels with the walk id.
        """
        effects: list[Effect] = [CrashPoint("dispatch")]
        nodes = list(self.nodes.values())
        start = self._dispatch_offset % len(nodes)
        self._dispatch_offset += 1
        nodes = nodes[start:] + nodes[:start]
        slices = partition_walks(len(walk_ids), len(nodes))
        for node, index_slice in zip(nodes, slices):
            slice_ids = [walk_ids[i] for i in index_slice]
            if not slice_ids:
                continue
            island_id: Optional[int] = None
            if job.coop_state is not None:
                # one island per node-slice; ids are never reused, so a
                # replacement island after a re-dispatch is a *new*
                # identity and stale elite reports stay unambiguous
                state = job.coop_state
                island_id = state.next_island
                state.next_island += 1
                state.islands[island_id] = {
                    "node": node.node_id,
                    "walks": set(slice_ids),
                    "generation": job.generation,
                }
            node.assigned.setdefault(job.job_id, set()).update(slice_ids)
            for walk_id in slice_ids:
                job.dispatched_at[walk_id] = now
                job.walk_generation[walk_id] = job.generation
            self._count("walks_dispatched", len(slice_ids))
            self._event(
                effects,
                AssignEvent,
                job,
                node=node.name,
                walk_ids=tuple(slice_ids),
                generation=job.generation,
            )
            for walk_id in slice_ids if self.telemetry else ():
                self._event(
                    effects, JobDispatch, job, walk_id=walk_id, node=node.name
                )
            effects.append(
                Send(node.peer, self._assign(job, node, slice_ids, island_id))
            )
        return effects

    def _assign(
        self,
        job: Job,
        node: Node,
        walk_ids: list[int],
        island_id: Optional[int] = None,
    ) -> Message:
        """One assign frame, shipping the problem at most once per node.

        The payload always names the problem by content digest; the
        pickled problem itself rides along only the first time this
        connection sees that digest (re-dispatches, hedges and later jobs
        over the same problem are then near-empty frames).
        """
        digest = job.problem_digest
        payload: dict[str, Any] = {
            "problem_digest": digest,
            "config": job.config,
            "seeds": {walk_id: job.seeds[walk_id] for walk_id in walk_ids},
        }
        first_ship = digest not in node.known_problems
        if first_ship:
            payload["problem"] = job.problem
            node.known_problems.add(digest)
            self._count("problems_shipped")
        blob = pickle_blob(payload)
        self._count("assigns_sent")
        self._count("assign_bytes", len(blob))
        if not first_ship:
            self._count("repeat_assigns")
            self._count("repeat_assign_bytes", len(blob))
        fields: dict[str, Any] = {
            "job_id": job.job_id,
            "generation": job.generation,
            "walk_ids": walk_ids,
            "trace_id": job.trace_id,
            "priority": job.priority,
        }
        if island_id is not None:
            fields["coop"] = job.coop
            fields["island"] = island_id
        return Message("assign", fields, blob=blob)

    def _redispatch(
        self,
        job: Job,
        walk_ids: list[int],
        dead: Node,
        reason: str,
        now: float,
    ) -> list[Effect]:
        """Move a dead node's unfinished slice to the survivors (capped)."""
        if job.redispatches >= self.max_redispatch:
            job.error = (
                f"node {dead.name} died ({reason}) and job {job.job_id} "
                f"exhausted its {self.max_redispatch} re-dispatch budget"
            )
        elif not self.nodes:
            job.error = (
                f"node {dead.name} died ({reason}) with walks "
                f"{walk_ids} in flight and no surviving nodes"
            )
        else:
            job.redispatches += 1
            # bump the job generation: any report the "dead" node still
            # manages to emit for the old assignment is dropped as stale
            job.generation += 1
            self._count("redispatches")
            return [Record(generation_record(job.job_id, job.generation))] + (
                self._dispatch(job, walk_ids, now)
            )
        job.degraded = bool(job.outcomes)
        return self._broadcast_cancel(job, now) + self._finish(
            job, JobStatus.FAILED, now
        )

    def _broadcast_cancel(self, job: Job, now: float) -> list[Effect]:
        """Tell every node holding a slice of ``job`` to stop its walks.

        The frame carries ``sent_at`` on this table's clock; nodes echo it
        in their ``cancel_ack``, so :meth:`cancel_ack` measures the
        propagation round trip on one clock, free of host skew.
        """
        effects: list[Effect] = []
        cancelled: list[str] = []
        for node in self.nodes.values():
            if node.assigned.pop(job.job_id, None):
                effects.append(
                    Send(
                        node.peer,
                        Message(
                            "cancel",
                            {
                                "job_id": job.job_id,
                                "generation": job.generation,
                                "sent_at": now,
                                "trace_id": job.trace_id,
                            },
                        ),
                    )
                )
                cancelled.append(node.name)
                self._count("cancels_sent")
        if cancelled:
            self._event(effects, CancelBroadcast, job, nodes=tuple(cancelled))
        return effects

    def _finish(self, job: Job, status: JobStatus, now: float) -> list[Effect]:
        """Retire ``job``: cancel leftovers, journal, answer the client."""
        effects: list[Effect] = [CrashPoint("finish")]
        if self.jobs.pop(job.job_id, None) is None:
            return effects  # already finished through another path
        # idempotent: stops the losing copies of hedged walks (and any
        # slice the solved-path broadcast already handled is a no-op)
        effects += self._broadcast_cancel(job, now)
        # journal the terminal state *before* the client hears it
        effects.append(Record(finish_record(job.job_id, status.value)))
        if job.client_key:
            self.client_keys.pop(job.client_key, None)
        self._count("jobs_completed")
        if status is JobStatus.SOLVED:
            self._count("jobs_solved")
        elif status is JobStatus.FAILED:
            self._count("jobs_failed")
        elif status is JobStatus.CANCELLED:
            self._count("jobs_cancelled")
        wall_time = now - job.submitted_at
        self._event(
            effects, JobFinish, job, status=status.value, latency=wall_time
        )
        result = NetJobResult(
            job_id=job.job_id,
            status=status,
            n_walkers=job.n_walkers,
            walks=[job.outcomes[k] for k in sorted(job.outcomes)],
            winner=job.winner,
            winner_node=job.winner_node,
            nodes=dict(job.nodes),
            error=job.error,
            redispatches=job.redispatches,
            wall_time=wall_time,
            degraded=job.degraded,
            coop=job.coop_state.summary() if job.coop_state else None,
        )
        if job.client_key:
            # keep the result around so a resubmission of the same key
            # (reconnected client, post-recovery replay) gets this exact
            # answer instead of a second run
            self.finished_by_key[job.client_key] = result
            while len(self.finished_by_key) > _MAX_FINISHED_CACHE:
                self.finished_by_key.popitem(last=False)
        if job.client is not None:
            effects.append(
                Send(job.client, job_result_to_message(result, job.request_id))
            )
        return effects
