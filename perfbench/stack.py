"""The system under test for ``multiwalk``, plus the layer ladder and the
cluster-side counters it reports.

The stack is an in-process ``LocalCluster(n_nodes=1, workers_per_node=2)``
(coordinator, one node agent with a warm two-process pool).  The ladder
adds a ``LocalGateway`` and a ``SolverService`` beside it.  Everything
runs in the benchmark process except the pool workers, so public objects
can be wrapped per instance to measure a layer without editing the
program.
"""

from __future__ import annotations

import base64
import http.client
import json
import os
import re
import socket
import struct
import time
from typing import Any, Callable

from measure import ladder_increments, median, nearest_rank, repeated_setups
from spans import Tracer, instrument_problem, problem_metrics, wrap_method

N_NODES = 1
WORKERS = 2
#: job seeds from here on are used only for warm-up jobs
WARM_SEED = 1_000_000
TERMINAL = {"solved", "unsolved", "failed", "timed_out", "cancelled"}
#: the ladder's rungs, from the engine up to the gateway
RUNGS = ("core", "service", "net", "gateway")


class Http:
    """One keep-alive HTTP connection to the gateway."""

    def __init__(self, address: tuple[str, int]) -> None:
        self.conn = http.client.HTTPConnection(*address, timeout=60)

    def request(self, method: str, path: str, body: Any = None) -> tuple[int, Any]:
        payload = json.dumps(body) if body is not None else None
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.conn.request(method, path, payload, headers)
        response = self.conn.getresponse()
        raw = response.read()
        if response.getheader("Content-Type", "").startswith("application/json"):
            return response.status, json.loads(raw)
        return response.status, raw.decode("utf-8", "replace")

    def close(self) -> None:
        self.conn.close()


def await_terminal(address: tuple[str, int], job_id: str,
                   timeout: float = 60.0) -> tuple[str, float]:
    """Follow ``/v1/jobs/{id}/events`` over WebSocket until the job's
    terminal event; return its status and when it arrived.

    The gateway pushes each event as it happens, so the wait adds no
    polling delay to the job's latency.  Server frames are unmasked and
    unfragmented text frames; a close frame before a terminal event means
    the job ended without one.
    """
    nonce = base64.b64encode(os.urandom(16)).decode()
    host, port = address
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(
            (
                f"GET /v1/jobs/{job_id}/events HTTP/1.1\r\n"
                f"Host: {host}:{port}\r\n"
                "Upgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                f"Sec-WebSocket-Key: {nonce}\r\n"
                "Sec-WebSocket-Version: 13\r\n\r\n"
            ).encode()
        )
        stream = sock.makefile("rb")
        answer = stream.readline()
        if b" 101 " not in answer:
            return f"websocket refused: {answer.decode().strip()}", time.perf_counter()
        while stream.readline() not in (b"\r\n", b""):
            pass  # rest of the handshake response
        while True:
            head = stream.read(2)
            if len(head) < 2:
                return "not terminal", time.perf_counter()
            opcode, length = head[0] & 0x0F, head[1] & 0x7F
            if length == 126:
                (length,) = struct.unpack("!H", stream.read(2))
            elif length == 127:
                (length,) = struct.unpack("!Q", stream.read(8))
            payload = stream.read(length)
            if opcode == 0x8:  # close
                return "not terminal", time.perf_counter()
            if opcode == 0x1:
                event = json.loads(payload)["event"]
                if event in TERMINAL:
                    return event, time.perf_counter()


def http_job(http: "Http", address: tuple[str, int], body: dict) -> dict:
    """POST one job and wait for its terminal event, then fetch it.

    Returns the times of the POST, its answer and the terminal event
    (``start``, ``posted``, ``end``) and the final job document (``job``;
    empty when the POST was refused).  The fetch comes after ``end``.
    """
    start = time.perf_counter()
    status, answer = http.request("POST", "/v1/jobs", body)
    posted = time.perf_counter()
    if status != 202:
        return {"start": start, "posted": posted, "end": posted, "job": {},
                "status": f"http {status}"}
    try:
        final, end = await_terminal(address, answer["job_id"])
    except OSError as err:  # the job's answer is then missing: a failed check
        return {"start": start, "posted": posted, "end": time.perf_counter(),
                "job": {}, "status": f"event stream: {err}"}
    _, job = http.request("GET", f"/v1/jobs/{answer['job_id']}")
    return {"start": start, "posted": posted, "end": end, "job": job,
            "status": final}


def job_body(family: str, size: int, seed: int, walkers: int, budget: int) -> dict:
    return {
        "problem": family,
        "params": {"n": size},
        "seed": seed,
        "n_walkers": walkers,
        "config": {"max_iterations": budget},
    }


class Stack:
    def __init__(self) -> None:
        from repro.net.testing import LocalCluster

        self.cluster = LocalCluster(n_nodes=N_NODES, workers_per_node=WORKERS)
        self.client = None

    def start(self) -> "Stack":
        self.cluster.start()
        self.client = self.cluster.client()
        return self

    def stop(self) -> None:
        self.cluster.stop()


def measured_run(warm: Callable[[Stack], None],
                 measure: Callable[[Stack], dict]) -> dict:
    """Set up, ``measure(stack)``, tear down, then set up again.

    ``setup_s`` is the median of every set-up (see ``repeated_setups``);
    the first, cold one also goes to the run record as ``setup_cold_s``.
    """
    def build() -> Stack:
        stack = Stack().start()
        warm(stack)
        return stack

    stack, times = repeated_setups(build, Stack.stop)
    try:
        report = measure(stack)
    finally:
        stack.stop()
    stack, later = repeated_setups(build, Stack.stop)
    stack.stop()
    report["metrics"]["setup_s"] = median(times + later)
    report.setdefault("extra", {})["setup_cold_s"] = times[0]
    return report


# ----------------------------------------------------------------------
# cluster-side counters
# ----------------------------------------------------------------------
class IterationTap:
    """Counts every walk iteration the node's pool workers report,
    losers included, by wrapping the pool outbox's ``get`` on the
    instance (the node's service is the agent's ``_service``)."""

    def __init__(self, stack: Stack) -> None:
        self.iterations = 0
        pool = stack.cluster.agents[0]._service.pool
        wrap_method(pool.outbox, "get", after=self._seen)

    def _seen(self, message, *_: Any) -> None:
        if message and message[0] == "result":
            self.iterations += int(message[4].get("iterations", 0))


def counter_delta(before: dict, after: dict) -> dict[str, float]:
    """Coordinator and node counters accumulated between two ``stats()``."""
    cb, ca = before["coordinator"], after["coordinator"]
    jobs = max(ca["jobs_submitted"] - cb["jobs_submitted"], 1)
    lat_b, lat_a = cb.get("cancel_latency") or {}, ca.get("cancel_latency") or {}
    n_cancel = lat_a.get("count", 0) - lat_b.get("count", 0)
    cancel_s = (
        lat_a.get("mean", 0.0) * lat_a.get("count", 0)
        - lat_b.get("mean", 0.0) * lat_b.get("count", 0)
    )
    lb = before["nodes"][0]["load"] or {}
    la = after["nodes"][0]["load"] or {}
    walks = la.get("jobs_completed", 0) - lb.get("jobs_completed", 0)
    wait_s = (
        la.get("queue_wait_mean", 0.0) * la.get("jobs_completed", 0)
        - lb.get("queue_wait_mean", 0.0) * lb.get("jobs_completed", 0)
    )
    return {
        "net.cancel_latency_ms": 1e3 * cancel_s / n_cancel if n_cancel else 0.0,
        "net.assign_bytes_per_job": (ca["assign_bytes"] - cb["assign_bytes"]) / jobs,
        "net.stale_results": ca["stale_results"] - cb["stale_results"],
        "net.redispatches": ca["redispatches"] - cb["redispatches"],
        "net.frames_dropped": ca["frames_dropped"] - cb["frames_dropped"],
        "service.queue_wait_ms": 1e3 * wait_s / walks if walks > 0 else 0.0,
    }


def settled_stats(stack: Stack, heartbeat_s: float = 0.5) -> dict:
    """``stats()`` after node load reports have caught up (they ride on
    heartbeats)."""
    time.sleep(heartbeat_s)
    return stack.client.stats()


def shed_count(address: tuple[str, int]) -> float:
    """429 and 503 answers so far, from the gateway's ``/metrics``."""
    http = Http(address)
    try:
        _, text = http.request("GET", "/metrics")
    finally:
        http.close()
    total = 0.0
    for name in ("gateway_shed_total", "gateway_rate_limited_total",
                 "gateway_breaker_open_total"):
        match = re.search(rf"^{name}(?:{{[^}}]*}})? ([0-9.eE+-]+)$", text, re.M)
        if match:
            total += float(match.group(1))
    return total


class PlannerProbe:
    """Times every call of the gateway's ``planner.record`` (instance
    wrapper)."""

    def __init__(self, gateway) -> None:
        self.record_s: list[float] = []
        wrap_method(gateway.planner, "record", after=self._recorded)

    def _recorded(self, _result, start: float, end: float, *_: Any) -> None:
        self.record_s.append(end - start)


# ----------------------------------------------------------------------
# the ladder
# ----------------------------------------------------------------------
def run_ladder(
    stack: Stack,
    sample: list[dict],
    primers: dict[str, list[int]],
    budget: int,
    tracer: Tracer,
    checks,
) -> dict[str, float]:
    """Replay each sampled job one at a time through every public entry
    point in turn: ``AdaptiveSearch.solve`` (winner seed) ->
    ``SolverService.solve`` -> ``ClusterClient.solve`` -> HTTP.

    ``sample`` items carry ``family``, ``size``, ``seed``, ``walkers`` and
    the ``winner`` walk id.  A rung's value is the median over jobs of
    the job's latency there minus its latency one rung below.  Each job
    runs with ``budget`` (one above the workload's) so its gateway and
    coordinator cache keys are new while its trajectories stay those of
    the original job.  Before the timed jobs, the gateway's planner is
    given ``min_samples`` solved jobs per family from ``primers`` (job
    seeds per family, none of them in ``sample``), so every timed job's
    ``planner.record`` refits the family's runtime distribution as it
    does on a gateway that has served that family before.  Also replays
    the winner walk with instrumented problem calls for the problems/core
    metrics, and re-POSTs each body to time a result-cache hit.  Returns
    the ladder, problems/core and gateway per-layer metrics.
    """
    from repro import AdaptiveSearch, AdaptiveSearchConfig, make_problem
    from repro.gateway.testing import LocalGateway
    from repro.parallel.seeding import walk_seeds
    from repro.service import SolverService

    if not sample:
        return {}
    config = AdaptiveSearchConfig(max_iterations=budget)
    solver = AdaptiveSearch(config)
    rungs: dict[str, list[float]] = {r: [] for r in RUNGS}
    problems: dict[tuple[str, int], Any] = {}
    traced: dict[tuple[str, int], Any] = {}
    tallies: dict[tuple[str, int], Any] = {}
    for item in sample:
        key = (item["family"], item["size"])
        if key not in problems:
            start = time.perf_counter()
            problems[key] = make_problem(item["family"], n=item["size"])
            tracer.add("problems.build", start, time.perf_counter(), family=key[0])
            traced[key] = make_problem(item["family"], n=item["size"])
            tallies[key] = instrument_problem(traced[key])

    gateway = LocalGateway(stack.cluster.address).start()
    service = SolverService(n_workers=WORKERS).start()
    http_client = Http(gateway.address)
    try:
        for key, problem in problems.items():  # warm the fresh pool
            service.solve(problem, WORKERS, WARM_SEED, config=config)
        walkers = sample[0]["walkers"]
        for (family, size), problem in problems.items():
            for seed in primers[family][: gateway.gateway.planner.min_samples]:
                body = job_body(family, size, seed, walkers, budget)
                done = http_job(http_client, gateway.address, body)
                checks.solution(
                    problem, (done["job"].get("result") or {}).get("solution"),
                    f"planner primer {family}-{size} seed {seed} ({done['status']})",
                )
        probe = PlannerProbe(gateway.gateway)

        for index, item in enumerate(sample):
            key = (item["family"], item["size"])
            problem = problems[key]
            trace_id = f"ladder-{index}"
            seeds = walk_seeds(item["walkers"], item["seed"])
            label = f"ladder {key[0]}-{key[1]} seed {item['seed']}"

            with tracer.span("ladder.core", trace_id=trace_id):
                result = solver.solve(problem, seed=seeds[item["winner"]])
            rungs["core"].append(tracer.spans[-1][3] - tracer.spans[-1][2])
            checks.solution(problem, result.config, f"{label} core")

            tally = tallies[key]
            tally.reset()
            start = time.perf_counter()
            replay = solver.solve(traced[key], seed=seeds[item["winner"]])
            tracer.add(
                "core.solve", start, time.perf_counter(), trace_id=trace_id,
                family=key[0], iterations=replay.iterations, **tally.snapshot(),
            )

            with tracer.span("ladder.service", trace_id=trace_id):
                job = service.solve(problem, item["walkers"], item["seed"], config=config)
            rungs["service"].append(tracer.spans[-1][3] - tracer.spans[-1][2])
            checks.solution(problem, job.config, f"{label} service")

            with tracer.span("ladder.net", trace_id=trace_id):
                net = stack.client.solve(problem, item["walkers"], item["seed"], config=config)
            rungs["net"].append(tracer.spans[-1][3] - tracer.spans[-1][2])
            checks.solution(problem, net.config, f"{label} net")

            body = job_body(key[0], key[1], item["seed"], item["walkers"], budget)
            done = http_job(http_client, gateway.address, body)
            result = done["job"].get("result") or {}
            attrs = {"post_s": done["posted"] - done["start"]}
            if "wall_time" in result:
                attrs["self_s"] = done["end"] - done["start"] - result["wall_time"]
            tracer.add("ladder.gateway", done["start"], done["end"],
                       trace_id=trace_id, **attrs)
            rungs["gateway"].append(done["end"] - done["start"])
            checks.solution(problem, result.get("solution"),
                            f"{label} gateway ({done['status']})")

            # the same body again must come back from the result cache
            with tracer.span("gateway.hit", trace_id=trace_id):
                status, again = http_client.request("POST", "/v1/jobs", body)
            if status != 200 or not again.get("cached"):
                checks.fail(f"{label}: repeated POST answered {status} uncached")
            else:
                checks.same_answer(
                    result.get("solution"), again["result"].get("solution"),
                    f"{label} cache hit",
                )
        shed = shed_count(gateway.address)
    finally:
        http_client.close()
        service.shutdown()
        gateway.stop()

    # paired per job, so the spread of job lengths cancels out
    rows = zip(*(rungs[r] for r in RUNGS))
    increments = [ladder_increments(row) for row in rows]
    out = {
        f"ladder.{rung}_ms": 1e3 * median(inc[i] for inc in increments)
        for i, rung in enumerate(RUNGS)
    }
    out.update(problem_metrics(tracer))
    out.update(ladder_gateway_metrics(tracer, probe, shed))
    return out


def ladder_gateway_metrics(tracer: Tracer, probe: PlannerProbe,
                           shed: float) -> dict[str, float]:
    """Gateway figures from the ladder's HTTP rung: each job is one miss
    (POSTed, followed to its terminal event) and one cache hit (the same
    body again)."""
    misses = tracer.named("ladder.gateway")
    hits = tracer.named("gateway.hit")
    posts = [s[6]["post_s"] for s in misses] + [s[3] - s[2] for s in hits]
    own = [s[6]["self_s"] for s in misses if "self_s" in s[6]]
    out = {
        "gateway.post_ms.p50": 1e3 * nearest_rank(posts, 0.5),
        "gateway.post_ms.p90": 1e3 * nearest_rank(posts, 0.9),
        "gateway.cache_hit_ratio": len(hits) / len(posts),
        "gateway.miss_latency_p50_ms": 1e3 * median(s[3] - s[2] for s in misses),
        "gateway.hit_latency_p50_ms": 1e3 * median(s[3] - s[2] for s in hits),
        "gateway.shed": shed,
    }
    if own:
        out["gateway.self_ms.p50"] = 1e3 * nearest_rank(own, 0.5)
        out["gateway.self_ms.p90"] = 1e3 * nearest_rank(own, 0.9)
    if probe.record_s:
        out["gateway.planner_record_ms"] = 1e3 * sum(probe.record_s) / len(probe.record_s)
    return out
