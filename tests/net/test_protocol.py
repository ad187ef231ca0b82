"""Frame codec, fuzz and handshake tests.

Four concerns:

1. every frame type round-trips through the codec, blobs included —
   the generic frames, the cooperative-search frames (``elite_report`` /
   ``elite_push`` / ``island_stats``) and the high-availability frames
   (``replica_snapshot`` / ``replica_record`` / ``lease``);
2. the synchronous socket transport reports EOF and corruption cleanly;
3. damaged coop and replica frames die cleanly (hypothesis fuzz, same
   harness as the generic CRC tests in ``test_protocol_fuzz.py``);
4. the handshake accepts exactly ``PROTOCOL_VERSION``: any other version
   (or a bool) gets a ``reject`` frame, and a replica hello gets the
   welcome + snapshot stream.
"""

import socket
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NetError
from repro.net import LocalCluster
from repro.net.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    Message,
    decode_frame_body,
    encode_message,
    pickle_blob,
    recv_message,
    send_message,
    unpickle_blob,
)
from repro.problems import make_problem


def roundtrip(message: Message) -> Message:
    frame = encode_message(message)
    # header layout (v3): uint32 body_len | uint8 kind | uint32 crc32
    body_len = int.from_bytes(frame[:4], "big")
    kind = frame[4]
    crc = int.from_bytes(frame[5:9], "big")
    body = frame[9:]
    assert body_len == len(body)
    assert crc == zlib.crc32(body)
    return decode_frame_body(kind, body)


class TestCodec:
    def test_json_roundtrip(self):
        msg = Message("heartbeat", {"load": {"jobs": 3}, "running_walks": 2})
        out = roundtrip(msg)
        assert out.type == "heartbeat"
        assert out["load"] == {"jobs": 3}
        assert out["running_walks"] == 2
        assert out.blob is None

    def test_blob_roundtrip(self):
        payload = {"seeds": np.arange(5), "config": None}
        msg = Message("assign", {"job_id": 9}, blob=pickle_blob(payload))
        out = roundtrip(msg)
        assert out.type == "assign"
        assert out["job_id"] == 9
        decoded = unpickle_blob(out.blob)
        np.testing.assert_array_equal(decoded["seeds"], np.arange(5))

    def test_empty_blob_is_preserved(self):
        out = roundtrip(Message("x", {}, blob=b""))
        assert out.blob == b""

    def test_unicode_fields(self):
        out = roundtrip(Message("hello", {"name": "nøde-α"}))
        assert out["name"] == "nøde-α"

    def test_oversize_frame_refused_on_send(self):
        with pytest.raises(NetError, match="refusing to send"):
            encode_message(
                Message("big", {}, blob=b"\x00" * (MAX_FRAME_BYTES + 1))
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(NetError, match="unknown frame kind"):
            decode_frame_body(7, b"{}")

    def test_malformed_json_rejected(self):
        with pytest.raises(NetError, match="malformed frame header"):
            decode_frame_body(0, b"not json at all")

    def test_untyped_header_rejected(self):
        with pytest.raises(NetError, match="not a typed object"):
            decode_frame_body(0, b'{"no_type": 1}')

    def test_truncated_blob_header_rejected(self):
        with pytest.raises(NetError, match="truncated BLOB"):
            decode_frame_body(1, b"\x00")

    def test_blob_header_overrun_rejected(self):
        # header_len claims 100 bytes but only 2 follow
        with pytest.raises(NetError, match="overruns"):
            decode_frame_body(1, b"\x00\x00\x00\x64{}")

    def test_unpickle_requires_blob(self):
        with pytest.raises(NetError, match="no binary payload"):
            unpickle_blob(None)


class TestSyncSocketTransport:
    def test_socketpair_roundtrip_and_eof(self):
        left, right = socket.socketpair()
        try:
            send_message(left, Message("a", {"i": 1}))
            send_message(left, Message("b", {}, blob=b"\x01\x02"))
            first = recv_message(right)
            second = recv_message(right)
            assert first.type == "a" and first["i"] == 1
            assert second.type == "b" and second.blob == b"\x01\x02"
            left.close()
            assert recv_message(right) is None  # clean EOF
        finally:
            right.close()

    def test_mid_frame_eof_raises(self):
        left, right = socket.socketpair()
        try:
            frame = encode_message(Message("a", {"k": "v"}))
            left.sendall(frame[: len(frame) - 2])  # drop the tail
            left.close()
            with pytest.raises(NetError, match="mid-frame"):
                recv_message(right)
        finally:
            right.close()

    def test_corrupt_body_rejected_by_crc(self):
        left, right = socket.socketpair()
        try:
            frame = bytearray(encode_message(Message("a", {"k": "value"})))
            frame[-1] ^= 0xFF  # flip one body bit on the wire
            left.sendall(bytes(frame))
            with pytest.raises(NetError, match="CRC mismatch"):
                recv_message(right)
        finally:
            left.close()
            right.close()

    def test_corrupt_header_crc_rejected(self):
        left, right = socket.socketpair()
        try:
            frame = bytearray(encode_message(Message("a", {"k": "value"})))
            frame[6] ^= 0x55  # damage the stored CRC itself
            left.sendall(bytes(frame))
            with pytest.raises(NetError, match="CRC mismatch"):
                recv_message(right)
        finally:
            left.close()
            right.close()

    def test_corrupt_length_prefix_rejected(self):
        left, right = socket.socketpair()
        try:
            # full v3 header (9 bytes) with an absurd body length
            left.sendall(b"\xff\xff\xff\xff\x00\x00\x00\x00\x00")
            with pytest.raises(NetError, match="claims"):
                recv_message(right)
        finally:
            left.close()
            right.close()


class TestCoopFrameCodec:
    def test_elite_report_roundtrip(self):
        config = np.arange(16, dtype=np.int64)
        msg = Message(
            "elite_report",
            {"job_id": 3, "island": 1, "round_index": 4, "cost": 12.5},
            blob=pickle_blob(config),
        )
        out = roundtrip(msg)
        assert out.type == "elite_report"
        assert out["island"] == 1
        assert out["round_index"] == 4
        assert out["cost"] == 12.5
        np.testing.assert_array_equal(unpickle_blob(out.blob), config)

    def test_elite_push_roundtrip_with_raw_blob_list(self):
        """The push blob is a pickled list of *raw* report blobs — the
        coordinator relays configurations without unpickling them."""
        raw = [
            pickle_blob(np.arange(9, dtype=np.int64)),
            pickle_blob(np.arange(9, dtype=np.int64)[::-1].copy()),
        ]
        msg = Message(
            "elite_push",
            {
                "job_id": 3,
                "island": 0,
                "round_index": 4,
                "migrants": [
                    {"from": 1, "cost": 3.0},
                    {"from": 2, "cost": 5.0},
                ],
            },
            blob=pickle_blob(raw),
        )
        out = roundtrip(msg)
        assert out.type == "elite_push"
        assert [m["from"] for m in out["migrants"]] == [1, 2]
        decoded = [unpickle_blob(b) for b in unpickle_blob(out.blob)]
        np.testing.assert_array_equal(
            decoded[0], np.arange(9, dtype=np.int64)
        )

    def test_empty_push_roundtrip(self):
        """A completed round that routed nothing still pushes a frame."""
        out = roundtrip(
            Message(
                "elite_push",
                {"job_id": 1, "island": 2, "round_index": 7, "migrants": []},
            )
        )
        assert out["migrants"] == []
        assert out.blob is None

    def test_island_stats_roundtrip(self):
        msg = Message(
            "island_stats",
            {
                "job_id": 2,
                "island": 3,
                "rounds": 12,
                "reports_sent": 11,
                "adoptions": 4,
                "migrations_in": 9,
                "migrations_lost": 2,
            },
        )
        out = roundtrip(msg)
        assert out["migrations_lost"] == 2
        assert out["rounds"] == 12


class TestReplicaFrameCodec:
    def test_lease_roundtrip(self):
        out = roundtrip(
            Message(
                "lease",
                {"sent_at": 123.5, "jobs_active": 3, "jobs_pending": 1},
            )
        )
        assert out.type == "lease"
        assert out["sent_at"] == 123.5
        assert out["jobs_active"] == 3
        assert out["jobs_pending"] == 1

    def test_replica_record_roundtrip(self):
        record = {
            "kind": "submit",
            "job_id": 9,
            "n_walkers": 4,
            "generation": 2,
            "priority": 1,
            "client_key": "abc-123",
            "coop": {"topology": "ring", "seed": 7},
        }
        out = roundtrip(Message("replica_record", {"record": record}))
        assert out.type == "replica_record"
        assert out["record"] == record

    def test_replica_snapshot_roundtrip(self):
        records = [
            {"kind": "submit", "job_id": 1, "generation": 0},
            {"kind": "generation", "job_id": 1, "generation": 3},
        ]
        out = roundtrip(Message("replica_snapshot", {"records": records}))
        assert out.type == "replica_snapshot"
        assert out["records"] == records
        assert out.blob is None


def _recv_bytes(data: bytes):
    left, right = socket.socketpair()
    try:
        left.sendall(data)
        left.close()
        return recv_message(right)
    finally:
        right.close()


@settings(max_examples=60, deadline=None)
@given(
    island=st.integers(min_value=0, max_value=10_000),
    cost=st.floats(allow_nan=False, allow_infinity=False, width=32),
    blob=st.binary(max_size=128),
    cut=st.integers(min_value=1, max_value=10_000),
)
def test_truncated_elite_report_never_hangs(island, cost, blob, cut):
    frame = encode_message(
        Message(
            "elite_report",
            {"job_id": 0, "island": island, "round_index": 1, "cost": cost},
            blob=blob,
        )
    )
    cut = min(cut, len(frame))
    if cut == len(frame):
        out = _recv_bytes(frame)
        assert out is not None and out["island"] == island
        return
    with pytest.raises(NetError):
        _recv_bytes(frame[:cut])


@settings(max_examples=80, deadline=None)
@given(
    migrants=st.lists(
        st.fixed_dictionaries(
            {
                "from": st.integers(min_value=0, max_value=64),
                "cost": st.floats(allow_nan=False, allow_infinity=False),
            }
        ),
        max_size=4,
    ),
    bit=st.integers(min_value=0, max_value=7),
    data=st.data(),
)
def test_bit_flipped_elite_push_always_rejected(migrants, bit, data):
    frame = bytearray(
        encode_message(
            Message(
                "elite_push",
                {"job_id": 1, "island": 0, "round_index": 2,
                 "migrants": migrants},
                blob=pickle_blob([b"x" * 8]),
            )
        )
    )
    index = data.draw(
        st.integers(min_value=0, max_value=len(frame) - 1), label="index"
    )
    frame[index] ^= 1 << bit
    with pytest.raises(NetError):
        _recv_bytes(bytes(frame))


@settings(max_examples=60, deadline=None)
@given(
    job_id=st.integers(min_value=0, max_value=10_000),
    generation=st.integers(min_value=0, max_value=64),
    cut=st.integers(min_value=1, max_value=10_000),
)
def test_truncated_replica_record_never_hangs(job_id, generation, cut):
    frame = encode_message(
        Message(
            "replica_record",
            {
                "record": {
                    "kind": "generation",
                    "job_id": job_id,
                    "generation": generation,
                }
            },
        )
    )
    cut = min(cut, len(frame))
    if cut == len(frame):
        out = _recv_bytes(frame)
        assert out is not None and out["record"]["job_id"] == job_id
        return
    with pytest.raises(NetError):
        _recv_bytes(frame[:cut])


@settings(max_examples=80, deadline=None)
@given(
    sent_at=st.floats(
        allow_nan=False, allow_infinity=False, min_value=0, max_value=1e9
    ),
    bit=st.integers(min_value=0, max_value=7),
    data=st.data(),
)
def test_bit_flipped_lease_always_rejected(sent_at, bit, data):
    frame = bytearray(
        encode_message(
            Message(
                "lease",
                {"sent_at": sent_at, "jobs_active": 1, "jobs_pending": 0},
            )
        )
    )
    index = data.draw(
        st.integers(min_value=0, max_value=len(frame) - 1), label="index"
    )
    frame[index] ^= 1 << bit
    with pytest.raises(NetError):
        _recv_bytes(bytes(frame))


@pytest.fixture(scope="module")
def cluster():
    with LocalCluster(n_nodes=1, workers_per_node=1) as local:
        yield local


def _handshake(cluster, hello_payload):
    sock = socket.create_connection(cluster.address, timeout=10)
    try:
        send_message(sock, Message("hello", hello_payload))
        return sock, recv_message(sock)
    except BaseException:
        sock.close()
        raise


@pytest.mark.slow
class TestHandshake:
    def test_other_version_rejected(self, cluster):
        for version in (PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1, 4):
            sock, reply = _handshake(
                cluster, {"role": "client", "protocol": version}
            )
            try:
                assert reply is not None and reply.type == "reject"
                assert "mismatch" in reply["error"]
                assert reply["protocol"] == PROTOCOL_VERSION
            finally:
                sock.close()

    def test_bool_version_is_not_an_int(self, cluster):
        # True == 1 numerically; the handshake must not be fooled
        sock, reply = _handshake(cluster, {"role": "client", "protocol": True})
        try:
            assert reply is not None and reply.type == "reject"
        finally:
            sock.close()

    def test_replica_gets_welcome_then_snapshot(self, cluster):
        # pre-load one live job so the snapshot is non-trivial
        client = cluster.client()
        problem = make_problem("magic_square", n=4)
        result = client.solve(problem, 1, seed=1, timeout=120)
        assert result.solved
        sock, welcome = _handshake(
            cluster, {"role": "replica", "protocol": PROTOCOL_VERSION}
        )
        try:
            assert welcome is not None and welcome.type == "welcome"
            assert welcome["protocol"] == PROTOCOL_VERSION
            snapshot = recv_message(sock)
            assert snapshot is not None
            assert snapshot.type == "replica_snapshot"
            assert isinstance(snapshot.get("records"), list)
        finally:
            sock.close()
