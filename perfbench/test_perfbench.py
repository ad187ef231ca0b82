"""Tests of the benchmark's own code (not of the program it measures).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import socket
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from checks import Checks, walk_digest  # noqa: E402
from measure import (  # noqa: E402
    FAILED,
    JSON_INFINITY,
    end_to_end,
    ladder_increments,
    nearest_rank,
    repeated_setups,
    quartile_spread,
)


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
def test_p90_of_100_samples_has_ten_beyond():
    values = [float(i) for i in range(1, 101)]
    assert nearest_rank(values, 0.9) == 90.0
    assert sum(v > 90.0 for v in values) == 10
    # with 99 samples fewer than ten lie beyond: why a run needs >= 100
    short = values[:99]
    assert sum(v > nearest_rank(short, 0.9) for v in short) < 10


def test_median_and_extremes():
    assert nearest_rank([3.0, 1.0, 2.0], 0.5) == 2.0
    assert nearest_rank([5.0], 0.9) == 5.0
    with pytest.raises(ValueError):
        nearest_rank([], 0.5)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0.0)


def test_failures_rank_as_infinity():
    ok = [0.1] * 90
    assert nearest_rank(ok + [FAILED] * 10, 0.9) == 0.1
    assert math.isinf(nearest_rank(ok + [FAILED] * 11, 0.9))
    metrics = end_to_end(ok + [FAILED] * 11, 90, 10.0, 0)
    assert metrics["latency_p90_ms"] == JSON_INFINITY
    assert metrics["latency_p50_ms"] == pytest.approx(100.0)
    json.dumps(metrics, allow_nan=False)  # always valid JSON


# ----------------------------------------------------------------------
# ladder and spread
# ----------------------------------------------------------------------
def test_ladder_increments():
    assert ladder_increments([10.0, 15.0, 27.0, 40.0]) == [10.0, 5.0, 12.0, 13.0]
    assert ladder_increments([4.0]) == [4.0]
    # increments add back up to the top rung
    assert sum(ladder_increments([3.0, 3.5, 9.0])) == pytest.approx(9.0)


def test_quartile_spread():
    assert quartile_spread([10.0] * 10) == 0.0
    values = [9.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 11.0]
    assert quartile_spread(values) == pytest.approx(0.0)
    assert quartile_spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(0.3)


# ----------------------------------------------------------------------
# set-up repetition and the gateway event stream
# ----------------------------------------------------------------------
def test_repeated_setups_keeps_only_the_last():
    built, torn = [], []

    def build():
        built.append(len(built))
        return built[-1]

    last, times = repeated_setups(build, torn.append)
    assert last == built[-1] and len(times) == len(built) >= 2
    assert torn == built[:-1]  # every product but the kept one
    assert all(t >= 0.0 for t in times)


STOP_HELPERS_SCRIPT = """
import multiprocessing, os, sys, time
from multiprocessing import resource_tracker, shared_memory
sys.path.insert(0, sys.argv[1])
from measure import stop_helpers

block = shared_memory.SharedMemory(create=True, size=64)  # starts the tracker
child = multiprocessing.get_context("fork").Process(target=time.sleep, args=(60,))
child.start()
pids = [child.pid, resource_tracker._resource_tracker._pid]
block.close()
block.unlink()
stop_helpers(timeout=5.0)
print(*[os.path.exists(f"/proc/{pid}") for pid in pids])
"""


def test_stop_helpers_leaves_no_process_behind():
    proc = subprocess.run(
        [sys.executable, "-c", STOP_HELPERS_SCRIPT, str(HERE)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]  # child and tracker reaped


def _scripted_events(frames: list[tuple[int, bytes]]) -> tuple[tuple[str, int], threading.Thread]:
    """A one-connection server that answers the WebSocket upgrade and
    then sends ``frames`` (opcode, payload) as unmasked server frames."""
    server = socket.create_server(("127.0.0.1", 0))

    def serve() -> None:
        conn, _ = server.accept()
        with conn, server:
            request = b""
            while b"\r\n\r\n" not in request:
                request += conn.recv(4096)
            assert request.startswith(b"GET /v1/jobs/j1/events ")
            conn.sendall(b"HTTP/1.1 101 Switching Protocols\r\n"
                         b"Upgrade: websocket\r\nConnection: Upgrade\r\n\r\n")
            for opcode, payload in frames:
                head = bytes([0x80 | opcode])
                if len(payload) < 126:
                    head += bytes([len(payload)])
                else:
                    head += bytes([126]) + struct.pack("!H", len(payload))
                conn.sendall(head + payload)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return server.getsockname(), thread


def test_await_terminal_stops_at_the_terminal_event():
    from stack import await_terminal

    def event(name: str, pad: int = 0) -> tuple[int, bytes]:
        return 0x1, json.dumps({"event": name, "pad": "x" * pad}).encode()

    address, thread = _scripted_events(
        [event("queued"), event("milestone", pad=300), event("solved")]
    )
    status, arrived = await_terminal(address, "j1", timeout=10)
    thread.join(10)
    assert status == "solved" and arrived > 0

    address, thread = _scripted_events([event("queued"), (0x8, b"\x03\xe8")])
    assert await_terminal(address, "j1", timeout=10)[0] == "not terminal"
    thread.join(10)


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def costas_solution():
    from repro import AdaptiveSearch, make_problem

    problem = make_problem("costas", n=8)
    result = AdaptiveSearch().solve(problem, seed=3)
    assert result.solved
    return problem, result


def test_solution_check_accepts_a_solution(costas_solution):
    problem, result = costas_solution
    checks = Checks()
    assert checks.solution(problem, result.config.tolist(), "good")
    assert checks.correct


def test_corrupted_solution_trips_the_check(costas_solution):
    problem, result = costas_solution
    corrupted = result.config.copy()
    corrupted[[0, 1]] = corrupted[[1, 0]]
    checks = Checks()
    assert not checks.solution(problem, corrupted, "swapped")
    assert not checks.solution(problem, None, "missing")
    assert not checks.solution(problem, [1] * problem.size, "not a permutation")
    assert not checks.correct and len(checks.errors) == 3


def test_repeated_answer_must_equal_the_original(costas_solution):
    _, result = costas_solution
    checks = Checks()
    assert checks.same_answer(result.config.tolist(), result.config.tolist(), "hit")
    assert not checks.same_answer(result.config.tolist(), result.config[::-1].tolist(), "hit")
    assert not checks.correct


def test_walk_digest_check():
    from repro import AdaptiveSearch, AdaptiveSearchConfig, make_problem

    problem = make_problem("costas", n=10)
    result = AdaptiveSearch(AdaptiveSearchConfig(max_iterations=40)).solve(
        problem, seed=np.random.SeedSequence(1)
    )
    reference = walk_digest(result.iterations, result.cost, result.config)
    checks = Checks()
    assert checks.walk(problem, result, reference, "same")
    assert not checks.walk(problem, result, reference.replace(":", "x", 1), "changed")
    result.cost += 1  # a reported cost the configuration does not have
    assert not checks.walk(problem, result, reference, "corrupted")
    assert len(checks.errors) == 2


def test_engine_reference_matches_a_fresh_walk():
    from checks import load_tables
    from repro import AdaptiveSearch, AdaptiveSearchConfig, make_problem

    import wl_engine

    size, budget, _ = wl_engine.FAMILIES["costas"]
    problem = make_problem("costas", n=size)
    result = AdaptiveSearch(AdaptiveSearchConfig(max_iterations=budget)).solve(
        problem, seed=np.random.SeedSequence(0)
    )
    digest = walk_digest(result.iterations, result.cost, result.config)
    assert load_tables()["engine"]["costas"]["0"] == digest


# ----------------------------------------------------------------------
# the command's contract
# ----------------------------------------------------------------------
def test_metric_catalogue_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "engine",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
