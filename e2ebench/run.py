"""End-to-end benchmark of the repro package: service validation, schema
churn and CLI approximation, measured end to end and layer by layer.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload validate-hot --seed 1 --seconds 30 --trace 0

Workloads (inputs are made from ``--seed``; see ``BENCHMARK.json``):

* ``validate-hot`` — a ``python -m repro serve`` process with the five
  real-world schemas registered during set-up.  Two closed-loop
  connections send ``validate`` requests: the first only small compact
  documents (~100 nodes), the second also one large pretty-printed
  document (~10^4 nodes) in every 20 requests; a fifth of the documents
  of each kind are invalid.
* ``schema-churn`` — a server with registry capacity 4.  Connection 1
  registers inline schemas from a fixed working set of 16 non-single-type
  schemas, in a seeded order that revisits each schema once soon after
  (so the registry both hits and evicts), and approximates each, upper
  on its first visit of a round and lower (default ``max_size``) on its
  second; connection 2 validates small documents against one hot
  schema, pausing 5 ms after each response, so the server is not
  saturated and a request's latency shows its own cost and the wait
  for the GIL rather than the queue behind the other connection.
* ``cli-approximate`` — fresh ``python -m repro --no-cache`` processes
  over a fixed job list (``inputs.CLI_JOBS``) in a seeded order; passes
  repeat until ``--seconds`` have passed, at least three.

End-to-end metrics (``--trace 0``).  Every workload reports the same six
names, each bound to that workload's own operations:

=================  ==================  =======================  =====================
metric             validate-hot        schema-churn             cli-approximate
=================  ==================  =======================  =====================
setup_s            spawn + register 5  spawn + register 1       one no-op CLI start
peak_rss_mb        server              server                   largest CLI child
throughput_per_s   validations/s       requests/s, both conns   jobs/s
latency_ms         small mean          validate p50 (conn 2)    geomean job time
tail_ms            small p99           validate p90 (conn 2)    slowest job
heavy_ms           large p50           approximate geomean      total of the jobs
=================  ==================  =======================  =====================

``setup_s`` is the median of several set-ups, a service latency a
percentile or mean over the whole load, and a CLI job's time the mean
over the passes (at least three; the same job varies by up to a third
from pass to pass, and the mean of a few passes is steadier than their
median).  validate-hot's latency is the mean over small
documents: their median is mostly the loopback round trip and process
wake-ups, which on a shared host vary far more between runs than the
program's work does, while the mean also carries the waits behind large
documents.  "approximate geomean" is the geometric mean, over the
working set's (schema, direction) pairs, of each pair's median latency:
the pairs differ in cost by up to 30x, so one median over all of them
would jump between the upper and the lower mode.  Each workload's own
metrics, under descriptive names (``validate_rps``, ``large_p90_ms``,
``register_p50_ms``, ``churn_validate_p99_ms``, ``cli_total_s``,
``error_rate``, ...), are printed with their units on the ``metric``
lines before the result.

``--trace 1`` gives the per-layer metrics instead.  A service run drives
the workload for 40% of its time, then replays the same requests
in-process, untimed and then timed, calling each layer's public
functions the way the server does (``layers.py``).  A CLI run drives one
pass of the job list through the CLI and one through ``cli_driver.py``,
which mirrors each command with a timer around each layer call.
Service layer times and counts are means per call; CLI ones are totals
over the pass.  ``*.share_pct`` is a layer's busy time as a share of the
replayed or driven end-to-end time; ``trace.overhead_pct`` compares the
timed replay (or driver) with the untimed one (or the CLI).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import shutil
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

WORKLOADS = ("validate-hot", "schema-churn", "cli-approximate")

#: Units of the end-to-end metrics (the names in BENCHMARK.json).
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_ms": "ms",
    "tail_ms": "ms",
    "heavy_ms": "ms",
}


def fingerprint() -> dict:
    try:
        import numpy  # noqa: F401

        has_numpy = True
    except ImportError:
        has_numpy = False
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": has_numpy,
        "commit": _git_commit(),
        "machine": platform.machine(),
    }


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git;
    ``unknown`` outside a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _service_metrics(workload: str, run) -> tuple:
    """(end-to-end metric values in E2E_UNITS order after setup_s and
    peak_rss_mb, the workload's own named metrics, sample counts)."""
    from common import geomean, median, percentile

    def small(sent):
        return [s.latency_ms for s in sent if s.ok and not s.doc.large]

    def large(sent):
        return [s.latency_ms for s in sent if s.ok and s.doc.large]

    if workload == "validate-hot":
        small_ms, large_ms = small(run.sent), large(run.sent)
        named = {
            "validate_rps": sum(s.ok for s in run.sent) / run.wall_s,
            "small_p50_ms": median(small_ms),
            "small_mean_ms": sum(small_ms) / max(len(small_ms), 1),
            "small_p99_ms": percentile(small_ms, 0.99),
            "large_p50_ms": median(large_ms),
            "large_p90_ms": percentile(large_ms, 0.90),
        }
        headline = (named["validate_rps"], named["small_mean_ms"],
                    named["small_p99_ms"], named["large_p50_ms"])
        counts = {"small": len(small_ms), "large": len(large_ms)}
    else:
        validate_ms = small(run.sent)
        misses = [op.latency_ms for op in run.churn if op.op == "register" and op.ok and op.miss]
        # one median per (schema, direction) pair; every round of the
        # churn stream makes each pair once, whatever the seed
        pairs: dict = {}
        for op in run.churn:
            if op.op != "register" and op.ok:
                pairs.setdefault((op.schema, op.op), []).append(op.latency_ms)
        done = sum(s.ok for s in run.sent) + sum(op.ok for op in run.churn)
        named = {
            "churn_rps": done / run.wall_s,
            "register_p50_ms": median(misses),
            "approximate_geomean_ms": geomean([median(v) for v in pairs.values()]),
            "approximate_p50_ms": median([x for v in pairs.values() for x in v]),
            "churn_validate_p50_ms": median(validate_ms),
            "churn_validate_p90_ms": percentile(validate_ms, 0.90),
            "churn_validate_p99_ms": percentile(validate_ms, 0.99),
        }
        headline = (named["churn_rps"], named["churn_validate_p50_ms"],
                    named["churn_validate_p90_ms"], named["approximate_geomean_ms"])
        counts = {"validate": len(validate_ms), "register-miss": len(misses),
                  "approximate": sum(len(v) for v in pairs.values())}
    return headline, named, counts


def _cli_metrics(run) -> tuple:
    from common import geomean

    per_job = {name: sum(times) / len(times) for name, times in run.times.items()}
    total = sum(per_job.values())
    named = {"cli_total_s": total, "cli_geomean_s": geomean(list(per_job.values()))}
    headline = (len(per_job) / total, named["cli_geomean_s"] * 1000.0,
                max(per_job.values()) * 1000.0, total * 1000.0)
    for name, value in sorted(per_job.items()):
        named[f"job.{name}_s"] = value
    counts = {name: len(times) for name, times in run.times.items()}
    return headline, named, counts


_NAMED_UNITS = {"validate_rps": "1/s", "churn_rps": "1/s", "error_rate": "ratio", "peak_rss_mb": "MB"}


def _unit(name: str) -> str:
    if name in _NAMED_UNITS:
        return _NAMED_UNITS[name]
    return name.rsplit("_", 1)[-1]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, workdir: str):
    import cli_load
    import layers
    import service_load
    from common import Ledger, median

    ledger = Ledger()
    if workload == "cli-approximate":
        if trace:
            metrics = layers.cli_layers(ROOT, workdir, seed, ledger)
            return ledger, metrics
        run = cli_load.run(ROOT, workdir, seed, seconds, ledger)
        headline, named, counts = _cli_metrics(run)
    else:
        drive = service_load.validate_hot if workload == "validate-hot" else service_load.schema_churn
        if trace:
            run = asyncio.run(drive(ROOT, seed, seconds * 0.4, ledger))
            metrics = layers.service_layers(ROOT, workload, run, seconds * 0.6, ledger)
            return ledger, metrics
        run = asyncio.run(drive(ROOT, seed, seconds, ledger))
        headline, named, counts = _service_metrics(workload, run)
    values = (median(run.setup_s), run.peak_rss_mb) + headline
    metrics = {
        name: {"value": value, "unit": unit}
        for (name, unit), value in zip(E2E_UNITS.items(), values)
    }
    named["setup_s"] = median(run.setup_s)
    named["peak_rss_mb"] = run.peak_rss_mb
    named["error_rate"] = ledger.failed / max(ledger.attempted, 1)
    print("samples " + json.dumps(counts))
    for name, value in named.items():
        print(f"metric {name} = {value:.6g} {_unit(name)}")
    return ledger, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # stopped from outside: unwind, so that every child process is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no repro sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # no inherited artifact-cache directory: every run computes afresh,
    # and nothing is written outside the checkout
    os.environ.pop("REPRO_CACHE_DIR", None)
    workdir = os.path.join(ROOT, ".e2ebench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    print(f"e2ebench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("fingerprint " + json.dumps(fingerprint()))
    try:
        ledger, metrics = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run is using it
    for name, phase in ledger.phases.items():
        print(f"phase {name}: sent {phase.sent} ok {phase.ok} failed {phase.failed}")
        for problem in phase.problems:
            print(f"  problem: {problem}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
