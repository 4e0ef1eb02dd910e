"""The cli-approximate workload: fresh ``python -m repro --no-cache``
processes over a fixed job list."""

from __future__ import annotations

import os
import random
import sys
import time
from dataclasses import dataclass, field

import common
import inputs
import oracle

SETUP_REPEATS = 7


def write_inputs(workdir: str) -> dict:
    """Input files of the job list; returns stem -> path."""
    paths = {}
    for stem, text in inputs.cli_input_texts().items():
        path = os.path.join(workdir, stem + ".schema")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        paths[stem] = path
    return paths


def job_argv(job: inputs.CliJob, paths: dict) -> list:
    return [job.command] + [paths[stem] for stem in job.inputs]


def check_output(job: inputs.CliJob, output: str, texts: dict) -> list:
    sources = [texts[stem] for stem in job.inputs]
    if job.command == "lower":
        # Theorem 4.8: inside L(A) | L(B), and containing L(A)
        return oracle.check_lower(output, sources, contained=sources[:1])
    return oracle.check_upper(output, sources, job.expected_types)


@dataclass
class CliRun:
    setup_s: list
    wall_s: float
    peak_rss_mb: float
    times: dict = field(default_factory=dict)  # job name -> wall seconds per repeat
    outputs: dict = field(default_factory=dict)  # job name -> stdout bytes of the first run


def run_pass(root: str, paths: dict, order: list, result: CliRun, ledger) -> None:
    """Each job of *order* once, through ``python -m repro --no-cache``."""
    for job in order:
        wall, code, stdout = common.run_child(
            [sys.executable, "-m", "repro", "--no-cache"] + job_argv(job, paths), root)
        first = result.outputs.setdefault(job.name, stdout)
        problem = ""
        if code != 0:
            problem = f"{job.name} exited {code}"
        elif stdout != first:
            problem = f"{job.name} output differs between repeats"
        ledger["load"].record(not problem, problem)
        result.times.setdefault(job.name, []).append(wall)


def check_outputs(result: CliRun, ledger) -> None:
    texts = inputs.cli_input_texts()
    for job in inputs.CLI_JOBS:
        problems = check_output(job, result.outputs[job.name].decode(), texts)
        ledger["check"].record(not problems, f"{job.name}: {problems}")


def run(root: str, workdir: str, seed: int, seconds: float, ledger, min_passes: int = 3) -> CliRun:
    setup = []
    for _ in range(SETUP_REPEATS):
        wall, code, _ = common.run_child([sys.executable, "-m", "repro", "--help"], root)
        ledger["setup"].record(code == 0, f"no-op start exited {code}")
        setup.append(wall)
    paths = write_inputs(workdir)
    rng = random.Random(f"cli-{seed}")
    result = CliRun(setup, 0.0, 0.0)
    started = time.perf_counter()
    passes = 0
    while passes < min_passes or time.perf_counter() - started < seconds:
        order = list(inputs.CLI_JOBS)
        rng.shuffle(order)
        run_pass(root, paths, order, result, ledger)
        passes += 1
    result.wall_s = time.perf_counter() - started
    result.peak_rss_mb = common.children_peak_rss_mb()
    check_outputs(result, ledger)
    return result
