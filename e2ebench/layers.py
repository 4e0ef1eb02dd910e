"""Per-layer metrics (``--trace 1``).

The timers live here, around calls into each layer's public functions;
nothing inside the package is instrumented.  Service workloads replay
the requests a TCP run just sent, in-process and in the order the
server's request path calls the layers::

    protocol.decode_request -> SchemaRegistry.register / lookup
      -> from_xml -> CompiledSchema.validate(tree)
      |  CompiledSchema.approximate_upper / approximate_lower -> dumps
      -> protocol.encode_response

The same requests are replayed twice, untimed and timed, and the
difference is ``trace.overhead_pct``.  The CLI workload runs each job
through ``cli_driver.py``, which mirrors the CLI command in a fresh
process, and compares its output byte for byte with the CLI's.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from collections import defaultdict

import common
import inputs
import service_load

#: Every per-layer metric and its unit; a layer a workload does not
#: reach reports 0.
PER_LAYER = {
    "xml_io.ingest_ms": "ms",
    "xml_io.us_per_node_small": "us",
    "xml_io.us_per_node_large": "us",
    "xml_io.nodes": "count",
    "xml_io.bytes": "bytes",
    "xml_io.share_pct": "%",
    "api.validate_us_per_node": "us",
    "api.validate_steps": "count",
    "api.validate_share_pct": "%",
    "protocol.decode_us": "us",
    "protocol.encode_us": "us",
    "protocol.share_pct": "%",
    "service.wait_p99_ms": "ms",
    "service.unattributed_ms": "ms",
    "api.compile_ms": "ms",
    "text_format.loads_ms": "ms",
    "edtd.reduced_ms": "ms",
    "cache.structural_key_ms": "ms",
    "registry.share_pct": "%",
    "registry.hits": "count",
    "registry.misses": "count",
    "registry.compiles": "count",
    "registry.evictions": "count",
    "registry.hit_ratio": "ratio",
    "upper.ms": "ms",
    "upper.states": "count",
    "upper.steps": "count",
    "upper.share_pct": "%",
    "lower.ms": "ms",
    "lower.share_pct": "%",
    "minimize.ms": "ms",
    "minimize.types_in": "count",
    "minimize.types_out": "count",
    "minimize.share_pct": "%",
    "text_format.dumps_ms": "ms",
    "text_format.share_pct": "%",
    "kernels.memo_hits": "count",
    "kernels.memo_misses": "count",
    "kernels.memo_hit_ratio": "ratio",
    "process.import_s": "s",
    "process.share_pct": "%",
    "trace.overhead_pct": "%",
}

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro.cli, repro.service; "
    "print(time.perf_counter() - t)"
)


def _as_metrics(values: dict) -> dict:
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in PER_LAYER.items()
    }


def _print(values: dict) -> None:
    for name, unit in PER_LAYER.items():
        print(f"layer {name} = {values.get(name, 0.0):.6g} {unit}")


def import_seconds(root: str, ledger, repeats: int = 3) -> float:
    """Median import time of the CLI and service modules in a fresh
    interpreter."""
    times = []
    for _ in range(repeats):
        _, code, stdout = common.run_child([sys.executable, "-c", IMPORT_PROBE], root)
        ledger["probe"].record(code == 0, f"import probe exited {code}")
        if code == 0:
            times.append(float(stdout))
    return common.median(times) if times else 0.0


def _clear_memos() -> None:
    from repro import api
    from repro.strings import kernels, schema_guided
    from repro.tree_automata import kernels as tree_kernels
    from repro.tree_automata import schema_guided as tree_guided

    for module in (kernels, schema_guided, tree_kernels, tree_guided):
        module.clear_caches()
    api.clear_handles()


class _Clock:
    """Busy time and call counts per layer; a no-op when untimed."""

    def __init__(self, timed: bool) -> None:
        self.timed = timed
        self.busy: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.counts: dict = defaultdict(float)
        self.excluded = 0.0  # probe calls that are not on the request path
        self.memo: dict = {}  # strings.kernels.cache_stats() after the pass

    def call(self, layer: str, function, *args, **kwargs):
        if not self.timed:
            return function(*args, **kwargs)
        started = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            self.busy[layer] += time.perf_counter() - started
            self.calls[layer] += 1

    def mean_ms(self, layer: str) -> float:
        return 1000.0 * self.busy[layer] / self.calls[layer] if self.calls[layer] else 0.0


class _Replay:
    """One in-process pass over a recorded request sequence."""

    def __init__(self, workload: str, run, clock: _Clock, ledger) -> None:
        from repro.service.registry import SchemaRegistry

        self.clock = clock
        self.ledger = ledger
        self.run = run
        if workload == "validate-hot":
            capacity, names = 128, list(inputs.REAL_WORLD)
        else:
            capacity, names = service_load.CHURN_CAPACITY, [run.hot_schema]
        self.registry = SchemaRegistry(capacity=capacity)
        # set-up registrations: their compile steps are measured, their
        # registry time is not part of the replayed requests
        self.ids = {name: self._register(inputs.REAL_WORLD[name][0]).schema_id for name in names}
        self.churn_ids: dict = {}
        clock.busy.pop("registry", None)
        clock.calls.pop("registry", None)

    def _register(self, text: str):
        clock = self.clock
        compiles = self.registry.compiles
        handle = clock.call("registry", self.registry.register, text)
        if clock.timed and self.registry.compiles > compiles:
            self._probe_compile(text)
        return handle

    def _probe_compile(self, text: str) -> None:
        """Time the compile path's steps by calling them again on the same
        text; kept out of the pass's wall time."""
        from repro import cache
        from repro.api import compile_schema
        from repro.schemas.text_format import loads

        clock = self.clock
        started = time.perf_counter()
        schema = clock.call("text_format.loads", loads, text)
        clock.call("edtd.reduced", schema.reduced)
        clock.call("cache.structural_key", cache.schema_structural_key, schema)
        clock.call("api.compile", compile_schema, text)
        clock.excluded += time.perf_counter() - started

    def validate(self, sent) -> None:
        from repro.service import protocol
        from repro.trees.xml_io import from_xml

        clock = self.clock
        doc = sent.doc
        kind = "large" if doc.large else "small"
        line = service_load.request(
            "validate", 1, schema_id=self.ids[doc.schema], raw_document=doc.json)
        started = time.perf_counter()
        payload = clock.call("protocol.decode", protocol.decode_request, line)
        handle = clock.call("registry", self.registry.lookup, payload["schema_id"])
        tree = clock.call(f"xml_io.{kind}", from_xml, payload["document"])
        result = clock.call("api.validate", handle.validate, tree)
        row = {
            "verdict": "valid" if result.valid else "invalid",
            "valid": result.valid,
            "states": result.usage.states,
            "steps": result.usage.steps,
            "elapsed_ms": result.usage.elapsed_seconds * 1000.0,
        }
        clock.call("protocol.encode", protocol.encode_response, protocol.ok_response(1, row))
        counts = clock.counts
        counts["validate.path_s"] += time.perf_counter() - started
        counts[f"nodes.{kind}"] += doc.nodes
        counts["bytes"] += len(doc.xml)
        counts["steps"] += result.usage.steps
        self.ledger["replay"].record(
            result.valid == doc.valid, f"replayed verdict {result.valid} on {doc.schema}")

    def churn(self, op) -> None:
        from repro.schemas.text_format import dumps
        from repro.service import protocol

        clock = self.clock
        if op.op == "register":
            line = service_load.request("register_schema", 1, schema=self.run.working_set[op.schema])
            payload = clock.call("protocol.decode", protocol.decode_request, line)
            handle = self._register(payload["schema"])
            self.churn_ids[op.schema] = handle.schema_id
            result = {"schema_id": handle.schema_id, "single_type": handle.is_single_type}
            ok = not handle.is_single_type
        else:
            line = service_load.request(
                "approximate", 1, schema_id=self.churn_ids[op.schema], direction=op.op)
            payload = clock.call("protocol.decode", protocol.decode_request, line)
            handle = clock.call("registry", self.registry.lookup, payload["schema_id"])
            method = handle.approximate_upper if op.op == "upper" else handle.approximate_lower
            approx = clock.call(op.op, method)
            clock.counts[f"{op.op}.states"] += approx.usage.states
            clock.counts[f"{op.op}.steps"] += approx.usage.steps
            result = {"schema": clock.call("text_format.dumps", dumps, approx.schema)}
            ok = result["schema"] == op.output
        clock.call("protocol.encode", protocol.encode_response, protocol.ok_response(1, result))
        self.ledger["replay"].record(ok, f"replayed {op.op} of schema {op.schema} differs")


def _sequence(workload: str, run) -> list:
    """The recorded requests in replay order; the churn writes and the
    concurrent validations are interleaved in proportion."""
    if workload == "validate-hot":
        return [("validate", s) for s in run.sent]
    ratio = len(run.sent) / max(len(run.churn), 1)
    order, taken = [], 0
    for index, op in enumerate(run.churn):
        if op.ok:
            order.append(("churn", op))
        upto = round((index + 1) * ratio)
        order.extend(("validate", s) for s in run.sent[taken:upto])
        taken = max(taken, upto)
    return order


def _pass(workload: str, run, sequence: list, timed: bool, ledger, seconds: float):
    """Replay *sequence*, or as much of it as fits in *seconds*.
    Returns (clock, wall seconds, requests replayed)."""
    from repro.strings import kernels

    _clear_memos()
    clock = _Clock(timed)
    replay = _Replay(workload, run, clock, ledger)
    clock.excluded = 0.0
    started = time.perf_counter()
    count = 0
    for kind, item in sequence:
        if time.perf_counter() - started > seconds:
            break
        if kind == "validate":
            replay.validate(item)
        else:
            replay.churn(item)
        count += 1
    wall = time.perf_counter() - started - clock.excluded
    clock.memo = kernels.cache_stats()
    return clock, wall, count


def service_layers(root: str, workload: str, run, seconds: float, ledger) -> dict:
    sequence = _sequence(workload, run)
    _, plain_wall, count = _pass(workload, run, sequence, False, ledger, seconds / 2)
    clock, wall, _ = _pass(workload, run, sequence[:count], True, ledger, float("inf"))
    values = _service_values(run, clock, wall)
    values["trace.overhead_pct"] = 100.0 * (wall - plain_wall) / plain_wall
    values["process.import_s"] = import_seconds(root, ledger)
    print(f"replayed {count} requests: timed {wall:.3f} s, untimed {plain_wall:.3f} s")
    _print(values)
    return _as_metrics(values)


def _share(clock: _Clock, wall: float, *layers) -> float:
    return 100.0 * sum(clock.busy[layer] for layer in layers) / wall if wall else 0.0


def _service_values(run, clock: _Clock, wall: float) -> dict:
    counts = clock.counts
    documents = clock.calls["xml_io.small"] + clock.calls["xml_io.large"]
    ingest = clock.busy["xml_io.small"] + clock.busy["xml_io.large"]
    nodes = counts["nodes.small"] + counts["nodes.large"]
    per_doc = 1.0 / documents if documents else 0.0
    uppers = max(clock.calls["upper"], 1)
    values = {
        "xml_io.ingest_ms": 1000.0 * ingest * per_doc,
        "xml_io.us_per_node_small": _per(clock.busy["xml_io.small"] * 1e6, counts["nodes.small"]),
        "xml_io.us_per_node_large": _per(clock.busy["xml_io.large"] * 1e6, counts["nodes.large"]),
        "xml_io.nodes": nodes * per_doc,
        "xml_io.bytes": counts["bytes"] * per_doc,
        "xml_io.share_pct": _share(clock, wall, "xml_io.small", "xml_io.large"),
        "api.validate_us_per_node": _per(clock.busy["api.validate"] * 1e6, nodes),
        "api.validate_steps": counts["steps"] * per_doc,
        "api.validate_share_pct": _share(clock, wall, "api.validate"),
        "protocol.decode_us": 1000.0 * clock.mean_ms("protocol.decode"),
        "protocol.encode_us": 1000.0 * clock.mean_ms("protocol.encode"),
        "protocol.share_pct": _share(clock, wall, "protocol.decode", "protocol.encode"),
        "api.compile_ms": clock.mean_ms("api.compile"),
        "text_format.loads_ms": clock.mean_ms("text_format.loads"),
        "edtd.reduced_ms": clock.mean_ms("edtd.reduced"),
        "cache.structural_key_ms": clock.mean_ms("cache.structural_key"),
        "registry.share_pct": _share(clock, wall, "registry"),
        "upper.ms": clock.mean_ms("upper"),
        "upper.states": counts["upper.states"] / uppers,
        "upper.steps": counts["upper.steps"] / uppers,
        "upper.share_pct": _share(clock, wall, "upper"),
        "lower.ms": clock.mean_ms("lower"),
        "lower.share_pct": _share(clock, wall, "lower"),
        "text_format.dumps_ms": clock.mean_ms("text_format.dumps"),
        "text_format.share_pct": _share(clock, wall, "text_format.dumps"),
    }
    values.update(_memo_values(
        sum(cache["hits"] for cache in clock.memo.values()),
        sum(cache["misses"] for cache in clock.memo.values()),
    ))
    values.update(_registry_values(run.registry))
    validations = [s for s in run.sent if s.ok]
    if validations and documents:
        # the server's elapsed_ms covers CompiledSchema.validate(str);
        # the rest of a client's latency is wire, protocol and waiting
        values["service.wait_p99_ms"] = common.percentile(
            [s.latency_ms - s.server_ms for s in validations], 0.99)
        client_mean = sum(s.latency_ms for s in validations) / len(validations)
        values["service.unattributed_ms"] = client_mean - 1000.0 * counts["validate.path_s"] / documents
    return values


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def _memo_values(hits: float, misses: float) -> dict:
    return {
        "kernels.memo_hits": hits,
        "kernels.memo_misses": misses,
        "kernels.memo_hit_ratio": _per(hits, hits + misses),
    }


def _registry_values(registry: dict) -> dict:
    hits, misses = registry.get("hits", 0), registry.get("misses", 0)
    return {
        "registry.hits": hits,
        "registry.misses": misses,
        "registry.compiles": registry.get("compiles", 0),
        "registry.evictions": registry.get("evictions", 0),
        "registry.hit_ratio": _per(hits, hits + misses),
    }


def cli_layers(root: str, workdir: str, seed: int, ledger) -> dict:
    """One pass of the job list through the CLI (untimed), then the same
    jobs through ``cli_driver.py`` (timed): the smallest run that covers
    every job."""
    import cli_load

    paths = cli_load.write_inputs(workdir)
    order = list(inputs.CLI_JOBS)
    random.Random(f"cli-{seed}").shuffle(order)
    plain = cli_load.CliRun([], 0.0, 0.0)
    cli_load.run_pass(root, paths, order, plain, ledger)
    cli_load.check_outputs(plain, ledger)
    busy: dict = defaultdict(float)
    counts: dict = defaultdict(float)
    imports, driven = [], 0.0
    driver = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_driver.py")]
    for job in order:
        wall, code, stdout = common.run_child(driver + cli_load.job_argv(job, paths), root)
        driven += wall
        report = json.loads(stdout) if code == 0 else None
        same = report is not None and report["output"].encode() == plain.outputs[job.name]
        ledger["replay"].record(same, f"driver output of {job.name} differs from the CLI's")
        if report is None:
            continue
        for layer, seconds_busy in report["busy"].items():
            busy[layer] += seconds_busy
        imports.append(report["busy"]["import"])
        prefix = "upper" if job.command != "lower" else "lower"
        counts[f"{prefix}.states"] += report["states"]
        counts[f"{prefix}.steps"] += report["steps"]
        counts["types_in"] += report["types_in"]
        counts["types_out"] += report["types_out"]
        for cache in report["memo"].values():
            counts["memo_hits"] += cache["hits"]
            counts["memo_misses"] += cache["misses"]
    plain_wall = sum(times[0] for times in plain.times.values())

    def share(*layers):
        return 100.0 * sum(busy[layer] for layer in layers) / driven

    values = {
        "text_format.loads_ms": 1000.0 * busy["text_format.loads"],
        "upper.ms": 1000.0 * busy["upper"],
        "upper.states": counts["upper.states"],
        "upper.steps": counts["upper.steps"],
        "upper.share_pct": share("upper"),
        "lower.ms": 1000.0 * busy["lower"],
        "lower.share_pct": share("lower"),
        "minimize.ms": 1000.0 * busy["minimize"],
        "minimize.types_in": counts["types_in"],
        "minimize.types_out": counts["types_out"],
        "minimize.share_pct": share("minimize"),
        "text_format.dumps_ms": 1000.0 * busy["text_format.dumps"],
        "text_format.share_pct": share("text_format.loads", "text_format.dumps"),
        "process.import_s": common.median(imports) if imports else 0.0,
        "process.share_pct": share("import"),
        "trace.overhead_pct": 100.0 * (driven - plain_wall) / plain_wall,
    }
    values.update(_memo_values(counts["memo_hits"], counts["memo_misses"]))
    print(f"drove {len(order)} jobs: driver {driven:.3f} s, CLI {plain_wall:.3f} s")
    _print(values)
    return _as_metrics(values)
