"""EXP-EDC — the validation payoff of the EDC constraint.

Paper motivation (Section 1 / Related Work): the single-type restriction
"facilitates a simple one-pass top-down validation algorithm" — general
EDTDs need bottom-up subset simulation instead.

Reproduction: validate the same sampled documents with (a) the
deterministic one-pass top-down algorithm of stEDTDs and (b) the generic
bottom-up EDTD algorithm; record throughput per document size.
"""

from __future__ import annotations

import random
import time

import pytest

from benchmarks.conftest import run_timed
from repro.families.random_schemas import random_single_type_edtd
from repro.schemas.edtd import EDTD
from repro.trees.generate import sample_tree

EXPERIMENT = "EXP-EDC  one-pass top-down vs bottom-up validation"
NOTE = "same answers; top-down is the EDC benefit the paper's intro motivates"


def _document_schema():
    """A recursive document schema producing arbitrarily deep/wide trees."""
    from repro.schemas.st_edtd import SingleTypeEDTD

    return SingleTypeEDTD(
        alphabet={"doc", "sec", "para", "note", "ref"},
        types={"d", "s", "p", "n", "r"},
        rules={
            "d": "s+",
            "s": "(p | s)*, n?",
            "p": "r*",
            "n": "~",
            "r": "~",
        },
        starts={"d"},
        mu={"d": "doc", "s": "sec", "p": "para", "n": "note", "r": "ref"},
    )


@pytest.mark.parametrize("target_size", [20, 60, 120, 240])
def test_validation_throughput(target_size, record, benchmark):
    schema = _document_schema()
    bottom_up = EDTD(
        alphabet=schema.alphabet,
        types=schema.types,
        rules=schema.rules,
        starts=schema.starts,
        mu=schema.mu,
    )
    rng = random.Random(target_size)
    documents = [sample_tree(schema, rng, target_size=target_size) for _ in range(20)]

    def top_down_all():
        return [schema.validate_top_down(doc) for doc in documents]

    answers, top_down_seconds = run_timed(benchmark, top_down_all, rounds=3)
    start = time.perf_counter()
    expected = [bottom_up.accepts(doc) for doc in documents]
    bottom_up_seconds = time.perf_counter() - start

    from repro.schemas.streaming import events_of_tree, validate_events

    streams = [list(events_of_tree(doc)) for doc in documents]
    start = time.perf_counter()
    streamed = [validate_events(schema, stream) for stream in streams]
    streaming_seconds = time.perf_counter() - start

    assert answers == expected == streamed
    assert all(answers)
    total_nodes = sum(doc.size() for doc in documents)
    record(
        EXPERIMENT,
        {
            "doc_nodes(avg)": total_nodes // len(documents),
            "docs": len(documents),
            "top_down_s": f"{top_down_seconds:.4f}",
            "streaming_s": f"{streaming_seconds:.4f}",
            "bottom_up_s": f"{bottom_up_seconds:.4f}",
            "speedup": f"{bottom_up_seconds / max(top_down_seconds, 1e-9):.1f}x",
        },
        note=NOTE,
    )
