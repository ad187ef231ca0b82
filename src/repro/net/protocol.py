"""Framed wire protocol of the distributed backend.

Every message on a coordinator/agent/client connection is one
length-prefixed frame::

    uint32 body_len | uint8 kind | uint32 crc32 | body

with two body kinds,

``JSON`` (kind 0)
    UTF-8 JSON object holding ``{"type": ..., **fields}`` — all control
    traffic (handshakes, heartbeats, cancels, stats) is JSON so a frame can
    be inspected with nothing but a hex dump and ``json.loads``;
``BLOB`` (kind 1)
    ``uint32 header_len | JSON header | raw bytes`` — control header plus
    an opaque binary payload (pickled problem instances, seed sequences,
    solution configurations) that would be wasteful or impossible as JSON.

Both directions speak the same frames; :class:`Message` is the symmetric
in-memory form.  The module offers the codec twice: asyncio stream helpers
(:func:`read_message` / :func:`write_message`) for the coordinator and node
agents, and blocking socket helpers (:func:`recv_message` /
:func:`send_message`) for the synchronous client.

Security note: BLOB payloads are unpickled by the receiver, which is only
acceptable between mutually trusted processes — the coordinator and its
agents are assumed to live inside one trust domain (a private cluster
network), exactly like the paper's MPI ranks.

Handshake
---------
The first frame on any connection must be ``hello`` carrying ``role``
(``"node"``, ``"client"`` or ``"replica"``) and ``protocol``.  The
coordinator accepts exactly :data:`PROTOCOL_VERSION` — every peer is
built from this same tree, so there is no version window to negotiate —
and answers ``welcome`` (its ``protocol``, plus ``node_id`` for a node);
any other value, a bool included, gets ``reject`` (``protocol``,
``min_protocol``, ``error``) and a close.  A node hello also carries
``name`` and ``capacity``; a client hello may carry ``reconnect`` (keep
its jobs alive across a disconnect).

Frames
------
Every frame body is CRC32-checked (:func:`zlib.crc32`) on both decode
paths, so a corrupt frame is a :class:`NetError`, never garbage fed to
``json.loads``/``pickle.loads``.  Fields in brackets are optional.

client -> coordinator
    ``submit`` (``request_id``, [``trace_id``, ``client_key``,
    ``deadline``, ``priority``, ``coop``]; blob: problem, config and
    per-walk seeds) — ``client_key`` makes resubmission idempotent,
    ``deadline`` is seconds of cluster-side budget, ``priority`` orders
    the pending queue (higher first), ``coop`` is a
    :class:`~repro.coop.config.CoopConfig` wire dict; ``stats``.
coordinator -> client
    ``job_accepted``, ``job_result`` (blob: walk outcomes), ``error``,
    ``stats``.
coordinator -> node
    ``assign`` (``job_id``, ``generation``, ``walk_ids``, ``trace_id``,
    ``priority``, [``coop``, ``island``]; blob: ``problem_digest``,
    config, seeds, and the pickled ``problem`` only the first time that
    digest goes to that connection — see
    :func:`repro.parallel.shm.problem_digest`); ``cancel`` (``job_id``,
    ``generation``, ``sent_at``, ``trace_id``) stops every walk of that
    generation or older; ``elite_push`` (the topology-routed migrant
    batch of one coop round; blob: raw report blobs); ``lease``.
node -> coordinator
    ``heartbeat`` (``load`` or ``load_delta`` — changed keys only — and
    [``progress``], per-walk iteration counts for the straggler
    detector); ``walk_result`` (blob: the walk's configuration);
    ``cancel_ack`` echoing ``sent_at`` verbatim, so cancel round trips
    are measured on the coordinator's own clock; ``elite_report`` (an
    island's best cost per migration round; blob: its configuration);
    ``island_stats`` (a finishing island's adoption and migration-loss
    counters).
coordinator -> replica
    one ``replica_snapshot`` (the journal records of every live job),
    then one ``replica_record`` per journal append, and ``lease``.  The
    leader broadcasts ``lease`` to standbys *and* nodes on every
    watchdog tick: a node's connection can outlive a dead leader without
    ever seeing an EOF (forked workers still hold the socket's fd), so
    lease silence is what triggers re-homing.
"""

from __future__ import annotations

import asyncio
import json
import pickle
import socket
import struct
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.chaos import hooks as _chaos
from repro.errors import NetError

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "Message",
    "encode_message",
    "decode_frame_body",
    "read_message",
    "write_message",
    "recv_message",
    "send_message",
    "pickle_blob",
    "unpickle_blob",
]

PROTOCOL_VERSION = 7

#: hard frame-size ceiling: a problem pickle is kilobytes, so anything in
#: the hundreds of megabytes is a corrupt length prefix, not a real frame
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct("!IBI")  # body length, kind, crc32(body)
_LEN = struct.Struct("!I")

_KIND_JSON = 0
_KIND_BLOB = 1


@dataclass(frozen=True)
class Message:
    """One decoded frame: a type tag, JSON-safe fields, optional blob."""

    type: str
    fields: dict[str, Any] = field(default_factory=dict)
    blob: Optional[bytes] = None

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)


def pickle_blob(obj: Any) -> bytes:
    """Serialize an arbitrary object for a BLOB frame."""
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def unpickle_blob(blob: Optional[bytes]) -> Any:
    if blob is None:
        raise NetError("message carries no binary payload")
    return pickle.loads(blob)


# ----------------------------------------------------------------------
# codec
# ----------------------------------------------------------------------
def encode_message(message: Message) -> bytes:
    """Encode one message into a complete wire frame."""
    header = dict(message.fields)
    header["type"] = message.type
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    if message.blob is None:
        body = header_bytes
        kind = _KIND_JSON
    else:
        body = _LEN.pack(len(header_bytes)) + header_bytes + message.blob
        kind = _KIND_BLOB
    if len(body) > MAX_FRAME_BYTES:
        raise NetError(
            f"refusing to send a {len(body)}-byte frame "
            f"(limit {MAX_FRAME_BYTES})"
        )
    return _HEADER.pack(len(body), kind, zlib.crc32(body)) + body


def _verify_crc(body: bytes, expected: int) -> None:
    """Reject a frame whose body fails its CRC32."""
    actual = zlib.crc32(body)
    if actual != expected:
        raise NetError(
            f"frame CRC mismatch (got {actual:#010x}, header says "
            f"{expected:#010x}); closing connection"
        )


def decode_frame_body(kind: int, body: bytes) -> Message:
    """Decode a frame body (everything after the header)."""
    if kind == _KIND_JSON:
        header_bytes, blob = body, None
    elif kind == _KIND_BLOB:
        if len(body) < _LEN.size:
            raise NetError("truncated BLOB frame")
        (header_len,) = _LEN.unpack_from(body)
        if _LEN.size + header_len > len(body):
            raise NetError("BLOB frame header overruns the frame")
        header_bytes = body[_LEN.size : _LEN.size + header_len]
        blob = body[_LEN.size + header_len :]
    else:
        raise NetError(f"unknown frame kind {kind}")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise NetError(f"malformed frame header: {err}") from None
    if not isinstance(header, dict) or "type" not in header:
        raise NetError(f"frame header is not a typed object: {header!r}")
    message_type = header.pop("type")
    return Message(type=message_type, fields=header, blob=blob)


def _check_length(body_len: int) -> None:
    if body_len > MAX_FRAME_BYTES:
        raise NetError(
            f"incoming frame claims {body_len} bytes "
            f"(limit {MAX_FRAME_BYTES}); closing connection"
        )


def _faulted_frames(
    plan: Any, message: Message, frame: bytes
) -> tuple[list[bytes], float]:
    """Apply an installed fault plan to one outgoing frame.

    Returns the frames to actually put on the wire (empty = dropped,
    doubled = duplicated) and a pre-send delay in seconds.
    """
    fault = plan.frame_fault(message.type)
    if fault is None:
        return [frame], 0.0
    if fault.action == "drop":
        return [], 0.0
    if fault.action == "delay":
        return [frame], fault.delay
    if fault.action == "corrupt":
        return [plan.corrupt_frame(frame, _HEADER.size)], 0.0
    return [frame, frame], 0.0  # duplicate


# ----------------------------------------------------------------------
# asyncio streams (coordinator, node agents)
# ----------------------------------------------------------------------
async def read_message(reader: asyncio.StreamReader) -> Optional[Message]:
    """Read one message; ``None`` on a clean EOF at a frame boundary."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as err:
        if not err.partial:
            return None
        raise NetError("connection closed mid-frame") from None
    body_len, kind, crc = _HEADER.unpack(header)
    _check_length(body_len)
    try:
        body = await reader.readexactly(body_len)
    except asyncio.IncompleteReadError:
        raise NetError("connection closed mid-frame") from None
    _verify_crc(body, crc)
    return decode_frame_body(kind, body)


async def write_message(
    writer: asyncio.StreamWriter, message: Message
) -> None:
    """Write one message and drain the transport."""
    frame = encode_message(message)
    plan = _chaos.active()
    if plan is not None:
        frames, delay = _faulted_frames(plan, message, frame)
        if delay:
            await asyncio.sleep(delay)
        if not frames:
            return
        for faulted in frames:
            writer.write(faulted)
        await writer.drain()
        return
    writer.write(frame)
    await writer.drain()


# ----------------------------------------------------------------------
# blocking sockets (synchronous client)
# ----------------------------------------------------------------------
def _recv_exactly(sock: socket.socket, n: int) -> Optional[bytes]:
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == n:
                return None  # clean EOF at a frame boundary
            raise NetError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> Optional[Message]:
    """Blocking read of one message; ``None`` on clean EOF."""
    header = _recv_exactly(sock, _HEADER.size)
    if header is None:
        return None
    body_len, kind, crc = _HEADER.unpack(header)
    _check_length(body_len)
    body = _recv_exactly(sock, body_len) if body_len else b""
    if body is None:
        raise NetError("connection closed mid-frame")
    _verify_crc(body, crc)
    return decode_frame_body(kind, body)


def send_message(sock: socket.socket, message: Message) -> None:
    """Blocking write of one complete frame."""
    frame = encode_message(message)
    plan = _chaos.active()
    if plan is not None:
        frames, delay = _faulted_frames(plan, message, frame)
        if delay:
            time.sleep(delay)
        for faulted in frames:
            sock.sendall(faulted)
        return
    sock.sendall(frame)
