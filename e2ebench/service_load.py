"""The service workloads, driven over TCP against ``python -m repro serve``.

One benchmark process drives at most two connections; each connection
is a closed loop with one request in flight.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import random
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field

import common
import inputs
import model
import oracle

#: Registry capacity of the schema-churn server; its working set is
#: four times larger, so registrations both hit and evict.
CHURN_CAPACITY = 4
CHURN_WORKING_SET = 16
#: The schema the second schema-churn connection validates against.
CHURN_HOT_SCHEMA = "orders-v2"
#: The second schema-churn connection pauses this long (seconds) after
#: each response.  Unpaced, it kept the server saturated, and the queue
#: of two busy connections made every latency of the workload swing with
#: the host's speed; paced, a validation's latency is its own cost plus
#: its wait for the GIL held by compiles and approximations.
CHURN_PAUSE = 0.005
#: One in this many requests of the second validate-hot connection
#: carries a large document; the first connection sends only small ones.
#: Keeping large documents on one connection means they never queue
#: behind each other, so their latency has one mode, and small requests
#: show the head-of-line blocking in their tail.
LARGE_EVERY = 20
SETUP_REPEATS = 7


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Server:
    """One ``python -m repro serve`` process."""

    def __init__(self, root: str, capacity: int) -> None:
        self.port = _free_port()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", str(self.port), "--registry-capacity", str(capacity)],
            cwd=root, env=common.child_env(root),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )

    async def connect(self, timeout: float = 60.0) -> "Client":
        """A connection that has answered a ping."""
        deadline = time.perf_counter() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with code {self.proc.returncode}")
            try:
                client = await Client.open(self.port)
            except OSError:
                if time.perf_counter() > deadline:
                    raise
                await asyncio.sleep(0.01)
                continue
            _, response = await client.call(b'{"id":0,"op":"ping"}\n')
            if response is None or not response.get("ok"):
                raise RuntimeError("server does not answer ping")
            return client

    def stop(self) -> None:
        common.stop(self.proc)


class Client:
    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Client":
        reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=1 << 24)
        return cls(reader, writer)

    async def call(self, line: bytes):
        """Send one request line; (client latency in ms, decoded response
        or None when the connection closed)."""
        started = time.perf_counter()
        try:
            self.writer.write(line)
            await self.writer.drain()
            raw = await self.reader.readline()
        except (ConnectionError, OSError):
            raw = b""
        elapsed = (time.perf_counter() - started) * 1000.0
        return elapsed, (json.loads(raw) if raw else None)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def request(op: str, request_id: int, **fields) -> bytes:
    """A request line; string fields given as ``raw_<name>`` are already
    JSON-encoded."""
    parts = [f'"id":{request_id}', f'"op":"{op}"']
    for name, value in fields.items():
        if name.startswith("raw_"):
            parts.append(f'"{name[4:]}":{value}')
        else:
            parts.append(f'"{name}":{json.dumps(value)}')
    return ("{" + ",".join(parts) + "}\n").encode()


async def start_and_register(root: str, capacity: int, schemas: dict, ledger) -> tuple:
    """Set-up, timed and repeated: spawn the server, wait until it is
    ready, register *schemas* (name -> text).  Only the last server is
    kept.  Returns (server, schema ids, set-up seconds per repeat)."""
    expected = {name: model.parse_schema(text).is_single_type() for name, text in schemas.items()}
    times = []
    server = None
    ids: dict = {}
    for repeat in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        started = time.perf_counter()
        server = Server(root, capacity)
        try:
            client = await server.connect()
            for index, (name, text) in enumerate(schemas.items()):
                _, response = await client.call(
                    request("register_schema", index + 1, schema=text))
                ok = (
                    response is not None and response.get("ok")
                    and response["result"]["single_type"] == expected[name]
                )
                ledger["setup"].record(bool(ok), f"register {name}: {response}")
                if ok:
                    ids[name] = response["result"]["schema_id"]
        except BaseException:
            server.stop()
            raise
        times.append(time.perf_counter() - started)
        await client.close()
    return server, ids, times


@dataclass
class Sent:
    """One validate request and what came back."""

    doc: inputs.Document
    latency_ms: float = 0.0
    server_ms: float = float("nan")
    ok: bool = False


@dataclass
class ChurnOp:
    op: str  # register | upper | lower
    schema: int  # index in the working set
    latency_ms: float = 0.0
    server_ms: float = float("nan")
    miss: bool = False
    ok: bool = False
    output: str = ""


def _check_validate(sent: Sent, response) -> str:
    """Empty when the response is right, else what is wrong with it."""
    if response is None:
        return "connection closed"
    if not response.get("ok"):
        return f"error envelope {response.get('error')}"
    result = response["result"]
    expected = "valid" if sent.doc.valid else "invalid"
    if result.get("verdict") != expected:
        return f"verdict {result.get('verdict')}, expected {expected}"
    sent.server_ms = result["elapsed_ms"]
    return ""


async def _validate_loop(client, ids, docs_by_kind, rng, deadline, log, ledger, large_every,
                         pause=0.0):
    """Closed loop of validate requests until *deadline*, sleeping
    *pause* seconds after each response; every *large_every*-th request
    (from a seeded offset) carries a large document, none when it is 0."""
    request_id = 1000
    offset = rng.randrange(large_every) if large_every else 0
    while time.perf_counter() < deadline:
        large = bool(large_every) and (request_id + offset) % large_every == 0
        doc = rng.choice(docs_by_kind[large])
        request_id += 1
        line = request("validate", request_id, schema_id=ids[doc.schema], raw_document=doc.json)
        sent = Sent(doc)
        sent.latency_ms, response = await client.call(line)
        problem = _check_validate(sent, response)
        sent.ok = not problem
        ledger["load"].record(sent.ok, problem)
        log.append(sent)
        if response is None:
            return
        if pause:
            await asyncio.sleep(pause)


@dataclass
class ServiceRun:
    setup_s: list
    wall_s: float
    peak_rss_mb: float
    registry: dict
    sent: list = field(default_factory=list)  # validate requests, in order
    churn: list = field(default_factory=list)  # schema-churn writes, in order
    working_set: list = field(default_factory=list)
    hot_schema: str = ""


async def registry_stats(client, ledger) -> dict:
    """The registry counters from the wire ``stats`` op."""
    _, response = await client.call(request("stats", 1))
    ok = response is not None and response.get("ok")
    ledger["probe"].record(bool(ok), f"stats: {response}")
    return response["result"]["registry"] if ok else {}


async def validate_hot(root: str, seed: int, seconds: float, ledger) -> ServiceRun:
    pool = inputs.document_pool(seed)
    schemas = {name: spec[0] for name, spec in inputs.REAL_WORLD.items()}
    server, ids, setup = await start_and_register(root, 128, schemas, ledger)
    try:
        docs = {large: [d for d in pool if d.large == large] for large in (False, True)}
        clients = [await server.connect() for _ in range(2)]
        logs: list = [[], []]
        started = time.perf_counter()
        deadline = started + seconds
        await asyncio.gather(*(
            _validate_loop(client, ids, docs, random.Random(f"validate-{seed}-{index}"),
                           deadline, logs[index], ledger, LARGE_EVERY * index)
            for index, client in enumerate(clients)
        ))
        wall = time.perf_counter() - started
        registry = await registry_stats(clients[0], ledger)
        for client in clients:
            await client.close()
    finally:
        server.stop()
    merged = [s for pair in itertools.zip_longest(*logs) for s in pair if s is not None]
    return ServiceRun(setup, wall, common.children_peak_rss_mb(), registry, sent=merged)


def churn_stream(rng: random.Random, size: int):
    """(schema index, direction) pairs, endlessly.  Each round visits a
    seeded permutation of the working set and revisits every schema right
    after its successor (so about half the registrations hit); a schema's
    first visit in a round approximates upward, its second downward.
    Every round makes the same requests, so the seed changes their order
    but not their cost."""
    while True:
        order = rng.sample(range(size), size)
        visits = [order[0]]
        for previous, index in zip(order, order[1:]):
            visits += [index, previous]
        visits.append(order[-1])
        seen: set = set()
        for index in visits:
            yield index, ("lower" if index in seen else "upper")
            seen.add(index)


async def _churn_writer(client, working_set, rng, deadline, log, ledger):
    compiles = (await registry_stats(client, ledger)).get("compiles", 0)
    request_id = 1
    stream = churn_stream(rng, len(working_set))
    while time.perf_counter() < deadline:
        index, direction = next(stream)
        register = ChurnOp("register", index)
        request_id += 1
        register.latency_ms, response = await client.call(
            request("register_schema", request_id, schema=working_set[index]))
        register.ok = bool(response and response.get("ok")
                           and response["result"]["single_type"] is False)
        ledger["load"].record(register.ok, f"register: {response}")
        log.append(register)
        if not register.ok:
            if response is None:
                return
            continue
        schema_id = response["result"]["schema_id"]
        now = (await registry_stats(client, ledger)).get("compiles", compiles)
        register.miss, compiles = now > compiles, now
        approx = ChurnOp(direction, index)
        request_id += 1
        approx.latency_ms, response = await client.call(
            request("approximate", request_id, schema_id=schema_id, direction=direction))
        if response is not None and response.get("ok"):
            approx.ok = True  # settled by the output check after the run
            approx.output = response["result"]["schema"]
            approx.server_ms = response["result"]["elapsed_ms"]
        else:
            ledger["load"].record(False, f"approximate: {response}")
        log.append(approx)
        if response is None:
            return


async def schema_churn(root: str, seed: int, seconds: float, ledger) -> ServiceRun:
    rng = random.Random(f"churn-load-{seed}")
    working_set = inputs.churn_working_set(CHURN_WORKING_SET)
    hot = CHURN_HOT_SCHEMA
    pool = [d for d in inputs.document_pool(seed, large_per_schema=0) if d.schema == hot]
    server, ids, setup = await start_and_register(
        root, CHURN_CAPACITY, {hot: inputs.REAL_WORLD[hot][0]}, ledger)
    try:
        writer, reader = await server.connect(), await server.connect()
        validations: list = []
        churn: list = []
        started = time.perf_counter()
        deadline = started + seconds
        await asyncio.gather(
            _churn_writer(writer, working_set, rng, deadline, churn, ledger),
            _validate_loop(reader, ids, {False: pool}, random.Random(f"hot-{seed}"),
                           deadline, validations, ledger, 0, CHURN_PAUSE),
        )
        wall = time.perf_counter() - started
        registry = await registry_stats(writer, ledger)
        await writer.close()
        await reader.close()
    finally:
        server.stop()
    check_approximations(churn, working_set, ledger)
    return ServiceRun(setup, wall, common.children_peak_rss_mb(), registry, sent=validations,
                      churn=churn, working_set=working_set, hot_schema=hot)


def check_approximations(churn: list, working_set: list, ledger) -> None:
    """Check every distinct approximation output once, then count each
    approximate request as succeeded or failed."""
    verdicts: dict = {}
    for op in churn:
        if op.op not in ("upper", "lower") or not op.ok:
            continue
        key = (op.schema, op.op, op.output)
        if key not in verdicts:
            source = working_set[op.schema]
            if op.op == "upper":
                verdicts[key] = oracle.check_upper(op.output, [source])
            else:
                verdicts[key] = oracle.check_lower(op.output, [source])
        problems = verdicts[key]
        op.ok = not problems
        ledger["load"].record(op.ok, f"{op.op} of schema {op.schema}: {problems}")
