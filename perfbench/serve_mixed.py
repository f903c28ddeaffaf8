"""serve-mixed: many tenants' mixed requests over the NDJSON socket.

The server runs in its own process (``serve_host.py``).  This process
is the one load generator: at most ``nproc`` connections (two here),
each pipelining many requests.  Traffic: ``TENANTS`` tenants, each with
four single-row 2048-bit vectors; requests are one of the nine bulk
operations (70 %), ``write`` (15 %) or ``read`` (15 %), drawn from the
seed.  A tenant has at most one request in flight, so its requests
execute in the order it sent them and the client-side numpy model stays
exact while many tenants overlap.

* Set-up (timed ``SETUPS`` times, each on a fresh server process):
  start the server, create every vector and write its initial data.
* Phase A, closed loop: each connection keeps ``WINDOW`` requests
  outstanding for ``PHASE_A_REQUESTS`` requests per second of
  ``--seconds``; ``ops_per_s`` is the median completion rate over two
  equal slices of each round of the phase.
* Phase B, open loop: requests due at a fixed ``RATE``, each timed from
  when it was due to be sent.  Its p50 and pooled p99 are printed, and
  its op requests give the server's stage breakdown in the traced run,
  but neither latency is a BENCHMARK.json metric: on a shared 2-core
  host the p50 moved with how busy the host was (the server's core
  idles between requests and pays a wake-up, and a slow host brought the
  rate near saturation), and whether one full garbage-collection pause
  of the server (0.2-0.3 s over the growing command trace) falls in
  phase B sets the p99.
  How late the generator itself sent them is reported; a run in which
  that lateness exceeds ``LATE_SHARE`` of the latency at p50 is marked
  invalid, because then the generator, not the server, set the latency.
  The printed p99 is flagged when the same holds at p99.
* Phase C, one request at a time: ``SERIAL_REQUESTS`` per second of
  ``--seconds``, each sent as soon as the previous response arrived,
  with the generator polling for the response rather than sleeping;
  ``latency_p50_ms`` is their median round trip.
* The phases alternate in ``ROUNDS`` rounds, each round sending a
  ``ROUNDS``-th of each phase's requests.
* Every read is compared with the model, and every vector is read back
  at the end.  Responses are folded into the model after each phase, in
  the order they arrived, so that checking them does not hold up the
  generator.

Every phase sends a fixed number of requests, so the modelled DRAM time,
AAP/AP counts and retained trace length of a seed repeat exactly.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import subprocess
import sys
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from common import (
    OUT, Result, beyond, median, now_ns, quantile,
)
from tracing import layer_metrics

VECTORS = 4
BITS = 2048
WORDS = BITS // 64
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
WINDOW = 32
#: Phase A sends this many requests per second of ``--seconds`` (it
#: takes about 40 % of the run at this host's closed-loop rate).
PHASE_A_REQUESTS = 1000
#: Phase B's offered load, for this share of ``--seconds``.  A request
#: arriving alone costs the server about 1 ms of CPU, against 0.3 ms in
#: phase A's batches, so at 1000/s (about half the closed-loop rate)
#: phase B sat at saturation and the p50 of ten runs spread by its own
#: size.  400/s keeps the server about 40 % busy.  Lower rates were not
#: steadier: between requests the server's core idles and pays a
#: wake-up, and at 100/s the p50 was the highest of all.
RATE = 400.0
PHASE_B_SHARE = 0.4
#: Phase C sends this many requests per second of ``--seconds`` (about a
#: tenth of the run).
SERIAL_REQUESTS = 100
#: Largest share of a latency quantile the generator's own lateness may be.
LATE_SHARE = 0.1
SPIN_NS = 1_000_000
SETUPS = 3
#: The phases alternate this many times, so that each samples the whole
#: run rather than one stretch of a host whose speed drifts.
ROUNDS = 5
#: Phase B's pooled p99 latency as measured on a 2-core host (0.10-0.20
#: s: the garbage collector's pause over the growing command trace).
PHASE_B_P99_S = 0.2
#: Single-row vectors the default ``ServeConfig`` holds: 512 rows per
#: subarray less 18 reserved, 2 scratch and 2 spare rows (its
#: ``ambit_serve_slots_free`` gauge after start-up).
SERVER_SLOTS = 490
#: A tenant has one request in flight at a time, so the generator needs
#: one tenant per request it keeps outstanding: ``CONNECTIONS * WINDOW``
#: in phase A, and ``RATE`` times the latency in phase B, about 80 at
#: p99.  The default server holds at most ``SERVER_SLOTS // VECTORS``
#: (122) tenants.  During a pause longer than ``TENANTS / RATE`` the
#: generator holds further requests back (still timed from when they
#: were due) and reports how many it held.
TENANTS = min(CONNECTIONS * WINDOW + round(RATE * PHASE_B_P99_S),
              SERVER_SLOTS // VECTORS)
OP_ARITY = {
    "and": 2, "or": 2, "xor": 2, "nand": 2, "nor": 2, "xnor": 2,
    "not": 1, "copy": 1, "maj": 3,
}
OPS = tuple(OP_ARITY)
#: Request mix: an assumption, not a measurement -- no traffic trace
#: exists for this service.  Ops dominate because they are what the
#: service is for; ``write`` and ``read`` are frequent enough that the
#: path bypassing the coalescer carries a fair share of the load.  The
#: op is drawn uniformly from the nine, as ``repro loadgen`` draws it.
MIX = (("op", 0.70), ("write", 0.15), ("read", 0.15))


# ----------------------------------------------------------------------
# Traffic and the client-side model
# ----------------------------------------------------------------------
def _maj(a, b, c):
    return (a & b) | (a & c) | (b & c)


_MODEL = {
    "and": lambda s: s[0] & s[1],
    "or": lambda s: s[0] | s[1],
    "xor": lambda s: s[0] ^ s[1],
    "nand": lambda s: ~(s[0] & s[1]),
    "nor": lambda s: ~(s[0] | s[1]),
    "xnor": lambda s: ~(s[0] ^ s[1]),
    "not": lambda s: ~s[0],
    "copy": lambda s: s[0].copy(),
    "maj": lambda s: _maj(s[0], s[1], s[2]),
}


class Traffic:
    """The seeded request sequence and the model it is checked against."""

    def __init__(self, seed: int, count: int):
        rng = np.random.default_rng(seed)
        kinds = rng.choice(len(MIX), size=count, p=[w for _, w in MIX])
        self.kinds = [MIX[k][0] for k in kinds]
        self.ops = [OPS[k] for k in rng.integers(0, len(OPS), count)]
        #: per request: a permutation of the tenant's vectors (dst first)
        self.perms = [rng.permutation(VECTORS) for _ in range(count)]
        self.data = rng.integers(0, 2**64, size=(count, WORDS),
                                 dtype=np.uint64, endpoint=False)
        self.initial = rng.integers(0, 2**64, size=(TENANTS, VECTORS, WORDS),
                                    dtype=np.uint64, endpoint=False)
        self.model = self.initial.copy()

    def request(self, index: int, tenant: int) -> Dict[str, Any]:
        kind = self.kinds[index]
        perm = self.perms[index]
        req: Dict[str, Any] = {"cmd": kind, "tenant": f"t{tenant}"}
        if kind == "op":
            op = self.ops[index]
            req["op"] = op
            req["dst"] = f"v{perm[0]}"
            for k in range(OP_ARITY[op]):
                req[f"src{k + 1}"] = f"v{perm[k + 1]}"
        elif kind == "write":
            req["name"] = f"v{perm[0]}"
            req["data"] = self.data[index].tobytes().hex()
        else:
            req["name"] = f"v{perm[0]}"
        return req

    def apply(self, index: int, tenant: int, response: Dict[str, Any]
              ) -> Optional[str]:
        """Fold a successful response into the model; return a mismatch."""
        kind = self.kinds[index]
        perm = self.perms[index]
        vectors = self.model[tenant]
        if kind == "op":
            op = self.ops[index]
            srcs = [vectors[perm[k + 1]] for k in range(OP_ARITY[op])]
            vectors[perm[0]] = _MODEL[op](srcs)
        elif kind == "write":
            vectors[perm[0]] = self.data[index]
        else:
            return check_read(response, vectors[perm[0]],
                              f"t{tenant}/v{perm[0]}")
        return None


def check_read(response: Dict[str, Any], want: np.ndarray, label: str
               ) -> Optional[str]:
    got = np.frombuffer(bytes.fromhex(response.get("data", "")), dtype="<u8")
    if got.shape != want.shape or not np.array_equal(got, want):
        return f"read of {label} differs from the model"
    return None


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
class Connection:
    """One pipelined NDJSON connection; responses matched by id."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.pending: Dict[int, asyncio.Future] = {}
        self.next_id = 0
        self.task = asyncio.ensure_future(self._read())

    async def _read(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                break
            frame = json.loads(line)
            future = self.pending.pop(frame.get("id"), None)
            if future is not None and not future.done():
                future.set_result((frame, now_ns()))
        for future in self.pending.values():
            if not future.done():
                future.set_exception(ConnectionError("server closed"))

    def send(self, request: Dict[str, Any]) -> asyncio.Future:
        self.next_id += 1
        request["id"] = self.next_id
        future = asyncio.get_running_loop().create_future()
        self.pending[self.next_id] = future
        self.writer.write(json.dumps(request, separators=(",", ":")).encode()
                          + b"\n")
        return future

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self.task.cancel()
        try:
            await self.task
        except (asyncio.CancelledError, ConnectionError):
            pass


class Host:
    """The server process: start, read its port, stop, read its report."""

    def __init__(self, trace: bool, spans_path=None):
        cmd = [sys.executable, os.path.join(os.path.dirname(__file__),
                                            "serve_host.py"),
               "--trace", str(int(trace))]
        if spans_path is not None:
            cmd += ["--spans", str(spans_path)]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=30)
            raise RuntimeError("server process exited before listening")
        self.port = json.loads(line)["port"]

    def stop(self) -> Dict[str, Any]:
        out, _ = self.proc.communicate(input="", timeout=60)
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited with {self.proc.returncode}")
        return json.loads(out.splitlines()[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)


class Session:
    """Connections, idle tenants and the bookkeeping of one server."""

    def __init__(self, traffic: Traffic, result: Result, timing: bool):
        self.traffic = traffic
        self.result = result
        self.timing = timing
        self.conns: List[Connection] = []
        self.idle: deque = deque(range(TENANTS))
        self.idle_event = asyncio.Event()
        self.idle_event.set()
        self.rejected = 0
        self.op_requests = 0
        #: phase-B requests that found every tenant busy when due
        self.held = 0
        #: per phase-B op request: the server's stage breakdown (ns)
        self.stages: List[Dict[str, int]] = []
        #: responses not yet folded into the model, in arrival order
        self.unchecked: List[Tuple[int, int, Dict[str, Any]]] = []

    async def connect(self, port: int) -> None:
        for _ in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port, limit=2**24
            )
            self.conns.append(Connection(reader, writer))

    async def close(self) -> None:
        for conn in self.conns:
            await conn.close()

    async def take_tenant(self) -> int:
        while not self.idle:
            self.idle_event.clear()
            await self.idle_event.wait()
        return self.idle.popleft()

    def give_tenant(self, tenant: int) -> None:
        self.idle.append(tenant)
        self.idle_event.set()

    async def populate(self) -> None:
        """Create every vector and write its initial data."""
        futures = []
        for t in range(TENANTS):
            conn = self.conns[t % len(self.conns)]
            for v in range(VECTORS):
                futures.append(conn.send({
                    "cmd": "create", "tenant": f"t{t}", "name": f"v{v}",
                    "bits": BITS,
                }))
                futures.append(conn.send({
                    "cmd": "write", "tenant": f"t{t}", "name": f"v{v}",
                    "data": self.traffic.initial[t, v].tobytes().hex(),
                }))
        for future in futures:
            frame, _ = await future
            if not frame.get("ok"):
                raise RuntimeError(f"set-up request failed: {frame}")

    async def issue(self, conn: Connection, index: int, tenant: int,
                    record_stages: bool) -> int:
        """Send request ``index`` for ``tenant``; count it and queue its
        response for :meth:`settle`;
        return when its response arrived."""
        request = self.traffic.request(index, tenant)
        is_op = request["cmd"] == "op"
        if is_op:
            self.op_requests += 1
            if self.timing:
                request["detail"] = "timing"
        result = self.result
        result.attempted += 1
        frame, done = await conn.send(request)
        if not frame.get("ok"):
            if frame.get("error") == "backpressure":
                self.rejected += 1
            result.fail(f"{request['cmd']} refused: {frame.get('error')}")
        else:
            self.unchecked.append((index, tenant, frame))
            if is_op and record_stages and "timing" in frame:
                self.stages.append(frame["timing"]["stages_ns"])
        self.give_tenant(tenant)
        return done

    async def closed_loop(self, first: int, count: int) -> List[int]:
        """Phase A; returns the completion time of every request."""
        cursor = iter(range(first, first + count))
        done_at: List[int] = []

        async def worker(conn: Connection) -> None:
            for index in cursor:
                tenant = await self.take_tenant()
                done_at.append(await self.issue(conn, index, tenant, False))

        await asyncio.gather(*[
            worker(conn) for conn in self.conns for _ in range(WINDOW)
        ])
        return done_at

    async def open_loop(self, first: int, count: int
                        ) -> Tuple[List[int], List[int]]:
        """Phase B; returns each request's latency from when it was due,
        and how late the generator reached it (both ns)."""
        latencies: List[int] = []
        late: List[int] = []
        tasks = []
        loop = asyncio.get_running_loop()
        start = now_ns() + 20_000_000

        async def fire(conn, index, due) -> None:
            if not self.idle:
                self.held += 1
            tenant = await self.take_tenant()
            done = await self.issue(conn, index, tenant, True)
            latencies.append(done - due)

        interval = 1e9 / RATE
        # The generator's own garbage collections would make it late.
        gc.disable()
        try:
            for i in range(count):
                due = start + int(i * interval)
                # The event loop's timers wake up to a millisecond late,
                # more than the gap between requests: sleep until a
                # millisecond before the due time, then poll the loop
                # until it arrives.
                wait = due - now_ns()
                if wait > SPIN_NS:
                    await asyncio.sleep((wait - SPIN_NS) / 1e9)
                while now_ns() < due:
                    await asyncio.sleep(0)
                late.append(now_ns() - due)
                conn = self.conns[i % len(self.conns)]
                tasks.append(loop.create_task(fire(conn, first + i, due)))
        finally:
            gc.enable()
        await asyncio.gather(*tasks)
        return latencies, late

    async def serial(self, first: int, count: int) -> List[int]:
        """Phase C; returns the round trip of every request (ns)."""
        conn = self.conns[0]
        round_trips: List[int] = []
        for index in range(first, first + count):
            tenant = await self.take_tenant()
            sent = now_ns()
            reply = asyncio.ensure_future(
                self.issue(conn, index, tenant, False)
            )
            # Polling keeps this process on its core: waiting in the
            # selector would add the host's wake-up to every round trip.
            while not reply.done():
                await asyncio.sleep(0)
            round_trips.append(reply.result() - sent)
        return round_trips

    def settle(self) -> None:
        """Fold the responses of a phase into the model and check them.

        A tenant has one request in flight at a time, so arrival order is
        each tenant's request order.
        """
        for index, tenant, frame in self.unchecked:
            problem = self.traffic.apply(index, tenant, frame)
            if problem:
                self.result.fail(problem)
        self.unchecked.clear()

    async def verify_all(self) -> None:
        """Read every vector back and compare it with the model."""
        futures = []
        for t in range(TENANTS):
            conn = self.conns[t % len(self.conns)]
            for v in range(VECTORS):
                futures.append((t, v, conn.send({
                    "cmd": "read", "tenant": f"t{t}", "name": f"v{v}",
                })))
        for t, v, future in futures:
            frame, _ = await future
            self.result.attempted += 1
            if not frame.get("ok"):
                self.result.fail(f"final read of t{t}/v{v} failed: {frame}")
                continue
            problem = check_read(frame, self.traffic.model[t, v],
                                 f"t{t}/v{v} at the end")
            if problem:
                self.result.fail(problem)


def _rate(rounds: List[List[int]], slices: int = 2) -> float:
    """Median completion rate over equal slices of every phase-A round."""
    rates = []
    for done_at in rounds:
        done_at = sorted(done_at)
        step = len(done_at) // slices
        for k in range(slices):
            lo, hi = done_at[k * step], done_at[(k + 1) * step - 1]
            if hi > lo:
                rates.append((step - 1) / ((hi - lo) / 1e9))
    return median(rates)


async def _pass(seed: int, seconds: float, result: Result, trace: bool,
                timing: bool, setups: int, spans_path=None) -> Dict[str, Any]:
    """Set up ``setups`` times, run both phases on the last server."""
    n_a = int(PHASE_A_REQUESTS * seconds) // ROUNDS
    n_b = int(RATE * seconds * PHASE_B_SHARE) // ROUNDS
    n_c = int(SERIAL_REQUESTS * seconds) // ROUNDS
    setup_ns: List[int] = []
    for k in range(setups):
        traffic = Traffic(seed, ROUNDS * (n_a + n_b + n_c))
        session = Session(traffic, result, timing)
        start = now_ns()
        host = Host(trace and k == setups - 1, spans_path)
        try:
            await session.connect(host.port)
            await session.populate()
            setup_ns.append(now_ns() - start)
            if k < setups - 1:
                await session.close()
                host.stop()
                continue
            done_at: List[List[int]] = []
            latencies: List[int] = []
            late: List[int] = []
            round_trips: List[int] = []
            for r in range(ROUNDS):
                first = r * (n_a + n_b + n_c)
                done_at.append(await session.closed_loop(first, n_a))
                session.settle()
                lat, lag = await session.open_loop(first + n_a, n_b)
                session.settle()
                latencies += lat
                late += lag
                round_trips += await session.serial(first + n_a + n_b, n_c)
                session.settle()
            await session.verify_all()
            await session.close()
            report = host.stop()
        finally:
            host.kill()
    return {
        "setup_ns": setup_ns,
        "ops_per_s": _rate(done_at),
        "latencies": latencies,
        "round_trips": round_trips,
        "late": late,
        "server": report,
        "session": session,
    }


def run(seed: int, seconds: float, trace: bool, result: Result) -> None:
    result.notes["inputs"] = (
        f"{TENANTS} tenants x {VECTORS} vectors x {BITS} bits, "
        f"{CONNECTIONS} connections, window {WINDOW}, open-loop rate "
        f"{RATE:g}/s"
    )
    if trace:
        _run_traced(seed, seconds, result)
        return
    out = asyncio.run(_pass(seed, seconds, result, False, False, SETUPS))
    latencies, server = out["latencies"], out["server"]
    m = result.metrics
    m["setup_s"] = median(out["setup_ns"]) / 1e9
    m["ops_per_s"] = out["ops_per_s"]
    m["latency_p50_ms"] = quantile(out["round_trips"], 0.50) / 1e6
    m["sim_time_ms"] = server["elapsed_ns"] / 1e6
    m["peak_rss_mb"] = server["peak_rss_mb"]
    _generator_health(out, result)
    result.notes["setup_ms"] = [round(ns / 1e6, 1) for ns in out["setup_ns"]]
    result.notes["latency_samples"] = (
        f"{len(out['round_trips'])} in phase C, {len(latencies)} in phase B"
    )
    result.notes["server"] = {
        k: v for k, v in server.items() if k != "spans"
    }


def _generator_health(out: Dict[str, Any], result: Result) -> float:
    """Note how late the generator sent; return its p99 lateness (ms).

    Phase-B latency is timed from when a request was due, so lateness of
    the generator itself adds to it.  The run is invalid (``correct`` is
    false) when that share is material: lateness above a tenth of the
    latency at p50.  Phase B's latencies are only printed; the p99 is
    flagged when the same holds at p99, because then stalls of the
    generator (or of the whole host) are part of that tail.
    """
    late, latencies = out["late"], out["latencies"]
    held = out["session"].held
    result.notes["generator_held"] = (
        f"{held} of {len(latencies)} phase-B requests waited for one of "
        f"the {TENANTS} tenants to be free"
    )
    lag50, lag99 = quantile(late, 0.5), quantile(late, 0.99)
    lat50, lat99 = quantile(latencies, 0.5), quantile(latencies, 0.99)
    result.notes["generator_late"] = (
        f"p50 {lag50 / 1e6:.3f} ms, p99 {lag99 / 1e6:.3f} ms"
    )
    printed = (f"p50 {lat50 / 1e6:.6g} ms, pooled p99 {lat99 / 1e6:.6g} ms "
               f"with {beyond(latencies, 0.99)} samples beyond it (not "
               f"BENCHMARK.json metrics, see perfbench/README.md)")
    if lag99 > LATE_SHARE * lat99:
        printed += (f"; the generator's own p99 lateness is "
                    f"{lag99 / lat99:.0%} of the p99")
    result.notes["phase_b_latency"] = printed
    if lag50 > LATE_SHARE * lat50:
        result.invalidate("the load generator, not the server, fell behind "
                          "its schedule")
    return lag99 / 1e6


def _run_traced(seed: int, seconds: float, result: Result) -> None:
    half = seconds / 2
    # Both passes ask for the timing breakdown, so they differ only in
    # the span wrappers.
    plain = asyncio.run(_pass(seed, half, result, False, True, 1))
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-serve-mixed-seed{seed}.jsonl"
    traced = asyncio.run(_pass(seed, half, result, True, True, 1, spans_path))
    server = traced["server"]
    session: Session = traced["session"]
    summary = server["spans"]
    layer_metrics(summary, session.op_requests, result)
    m = result.metrics
    stages = session.stages
    wall = sum(sum(s.values()) for s in stages)
    m["serve.coalescer.queue_ms_p50"] = quantile(
        [s["queue"] for s in stages], 0.5) / 1e6
    m["serve.coalescer.coalesce_ms_p50"] = quantile(
        [s["coalesce"] for s in stages], 0.5) / 1e6
    m["serve.server.device_ms_p50"] = quantile(
        [s["device"] for s in stages], 0.5) / 1e6
    m["serve.server.other_share"] = sum(s["other"] for s in stages) / wall
    m["serve.coalescer.reject_ratio"] = (
        session.rejected / max(1, session.op_requests)
    )
    m["serve.generator.late_ms_p99"] = _generator_health(traced, result)
    m["engine.plan.hit_ratio"] = server["plan_hits"] / max(
        1, server["plan_hits"] + server["plan_misses"])
    m["engine.plan.hits"] = server["plan_hits"]
    m["engine.plan.misses"] = server["plan_misses"]
    m["dram.aap_count"] = server["aap_count"]
    m["dram.ap_count"] = server["ap_count"]
    m["dram.trace_entries"] = server["trace_entries"]
    m["dram.trace_entries_per_op"] = server["trace_entries"] / max(
        1, session.op_requests)
    m["trace.overhead_ratio"] = plain["ops_per_s"] / traced["ops_per_s"] - 1.0
    result.n_a(["engine.batch.tracemalloc_peak_bytes_per_row"],
               "allocation is traced on the in-process workloads only")
    result.n_a(["dram.subarray.roofline_ratio"],
               "roofline measured on bulk-wide only")
    result.notes["spans"] = (
        f"{server['span_count']} written to {spans_path.name}"
    )
    result.notes["stage_samples"] = len(stages)
