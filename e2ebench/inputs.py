"""Inputs of the three workloads.

Every input is made here before anything is timed, and the program
receives only the resulting schema text, documents and files.  The seed
picks the documents and the order of the requests; the churn working set
and the CLI job list are fixed.  Expected verdicts are known by
construction:

* valid documents are sampled from the schema by the benchmark's own
  sampler (:mod:`model`); large ones concatenate sampled subtrees under
  a starred parent;
* an invalid document is a valid one with one element renamed to a label
  outside the schema's alphabet.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import model

#: The five ``families/real_world.py`` schemas, in the text format, with
#: the starred parent type and the child types the large documents
#: repeat under it (the star is the last item of each parent's content
#: model, so appending more children keeps a document valid).
REAL_WORLD = {
    "rss": (
        """\
start: t_rss
t_rss [rss] -> t_channel
t_channel [channel] -> t_ctitle, t_clink, t_item*
t_item [item] -> t_ititle, t_ilink, t_date?
t_ctitle [title] -> ~
t_clink [link] -> ~
t_ititle [title] -> ~
t_ilink [link] -> ~
t_date [pubDate] -> ~
""",
        "t_channel",
        ["t_item"],
    ),
    "atom": (
        """\
start: t_feed
t_feed [feed] -> t_ftitle, t_flink*, t_entry*
t_entry [entry] -> t_etitle, t_elink, t_sum?
t_ftitle [title] -> ~
t_flink [link] -> ~
t_etitle [title] -> ~
t_elink [link] -> ~
t_sum [summary] -> ~
""",
        "t_feed",
        ["t_entry"],
    ),
    "xhtml": (
        """\
start: t_html
t_html [html] -> t_head, t_body
t_head [head] -> t_title
t_body [body] -> (t_p | t_div)*
t_div [div] -> (t_p | t_div)*
t_p [p] -> t_em*
t_title [title] -> ~
t_em [em] -> ~
""",
        "t_body",
        ["t_p", "t_div"],
    ),
    "orders-v1": (
        """\
start: t_os
t_os [orders] -> t_o*
t_o [order] -> t_c, t_l+
t_l [line] -> t_s, t_q
t_c [customer] -> ~
t_s [sku] -> ~
t_q [qty] -> ~
""",
        "t_os",
        ["t_o"],
    ),
    "orders-v2": (
        """\
start: t_os
t_os [orders] -> t_o*
t_o [order] -> t_p?, t_c, t_l+
t_l [line] -> t_s, t_q, t_d?
t_c [customer] -> ~
t_s [sku] -> ~
t_q [qty] -> ~
t_d [discount] -> ~
t_p [priority] -> ~
""",
        "t_os",
        ["t_o"],
    ),
}

#: A label no schema here uses: renaming one element to it makes a
#: document invalid.
FOREIGN_LABEL = "bogus"


@dataclass(frozen=True)
class Document:
    schema: str  # key of REAL_WORLD
    xml: str
    nodes: int
    large: bool
    valid: bool
    json: str  # the XML as a JSON string literal, ready for a request line


def _bulk_tree(name: str, rng: random.Random, target_nodes: int):
    """A member tree of about *target_nodes* nodes: one sampled document
    whose starred parent gets sampled subtrees appended until the size
    is reached."""
    text, parent, bulk = REAL_WORLD[name]
    schema = model.parse_schema(text)
    sampler = model.Sampler(schema, rng, max_depth=5)

    def grow(type_name, depth):
        label = schema.labels[type_name]
        word = sampler.word(schema.rules[type_name], depth)
        children = [grow(child, depth + 1) for child in word]
        if type_name == parent:
            total = 1 + sum(model.size(c) for c in children)
            # the ancestors of the parent add a few nodes more
            while total < target_nodes - 4:
                child = sampler.tree(rng.choice(bulk), depth + 1)
                children.append(child)
                total += model.size(child)
        return (label, tuple(children))

    (start,) = schema.starts
    return grow(start, 0)


def make_document(name: str, rng: random.Random, *, large: bool, valid: bool) -> Document:
    target = rng.randint(9_500, 10_500) if large else rng.randint(80, 120)
    tree = _bulk_tree(name, rng, target)
    if not valid:
        tree = model.relabel_one(tree, rng, FOREIGN_LABEL)
    xml = model.to_xml(tree, pretty=large)
    return Document(name, xml, model.size(tree), large, valid, json.dumps(xml))


def document_pool(seed: int, small_per_schema: int = 24, large_per_schema: int = 4,
                  invalid_share: float = 0.2) -> list[Document]:
    """Small (compact) and large (pretty-printed) documents for every
    real-world schema; *invalid_share* of each kind is invalid."""
    rng = random.Random(f"documents-{seed}")
    pool = []
    for name in REAL_WORLD:
        for large, count in ((False, small_per_schema), (True, large_per_schema)):
            invalid = round(count * invalid_share)
            for index in range(count):
                pool.append(make_document(name, rng, large=large, valid=index >= invalid))
    return pool


# ----------------------------------------------------------------------
# schema-churn: a working set of non-single-type schemas
# ----------------------------------------------------------------------

def churn_schema(rng: random.Random) -> str:
    """A random EDTD that violates EDC: the root's content model holds two
    types with one label.  Every non-root content model admits the empty
    word, so every type is productive and the language is non-empty."""
    labels = ["a", "b", "c"][: rng.randint(2, 3)]
    types = [f"u{i}" for i in range(rng.randint(4, 6))]
    label_of = {t: labels[i % len(labels)] for i, t in enumerate(types)}
    twin = next(t for t in types[1:] if label_of[t] == label_of["u0"])
    lines = ["start: r", f"r [root] -> u0 | {twin}"]
    for type_name in types:
        if type_name != "u0" and rng.random() < 0.35:
            lines.append(f"{type_name} [{label_of[type_name]}] -> ~")
            continue
        atoms = [p + rng.choice(["", "?", "?", "*"]) for p in rng.sample(types, rng.randint(1, 2))]
        body = (" | " if rng.random() < 0.4 else ", ").join(atoms)
        lines.append(f"{type_name} [{label_of[type_name]}] -> ({body})?")
    return "\n".join(lines) + "\n"


def churn_working_set(size: int) -> list[str]:
    """*size* distinct churn schemas with 4 to 8 typed derivations of up
    to 6 nodes.  A lower approximation's greedy search tries every member
    tree of up to 6 nodes, so its cost grows with that number, from
    about 10 to 200 ms.  The set is the same for every seed (the seed
    orders the requests): a seeded set would let the seed decide how much
    approximation work a run does."""
    rng = random.Random("churn-working-set")
    strata = [4 + index % 5 for index in range(size)]
    schemas: list[str] = []
    while strata:
        text = churn_schema(rng)
        derivations = sum(model.derivation_counts(model.parse_schema(text), 6))
        if text not in schemas and derivations in strata:
            strata.remove(derivations)
            schemas.append(text)
    return schemas


# ----------------------------------------------------------------------
# cli-approximate: the fixed job list
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CliJob:
    name: str
    command: str  # to-xsd | union | lower
    inputs: tuple  # file stems
    expected_types: int | None  # the paper's shape, when it predicts one


def theorem_3_6_union_types(n: int) -> int:
    """EXP-3.6b: 10 types at n = 1, and the count's second difference
    is +4 (first differences 12, 16, 20, ...)."""
    return 10 + sum(12 + 4 * k for k in range(n - 1))


CLI_JOBS = (
    CliJob("to-xsd.thm3.2.n3", "to-xsd", ("thm32_3",), 2 ** 4),
    CliJob("to-xsd.thm3.2.n4", "to-xsd", ("thm32_4",), 2 ** 5),
    CliJob("to-xsd.thm3.2.n5", "to-xsd", ("thm32_5",), 2 ** 6),
    CliJob("to-xsd.ex2.6", "to-xsd", ("ex26",), None),
    CliJob("union.thm3.6.n3", "union", ("thm36_3_d1", "thm36_3_d2"), theorem_3_6_union_types(3)),
    CliJob("union.thm3.6.n4", "union", ("thm36_4_d1", "thm36_4_d2"), theorem_3_6_union_types(4)),
    CliJob("union.orders", "union", ("orders_v1", "orders_v2"), None),
    CliJob("lower.thm4.3", "lower", ("thm43_d1", "thm43_d2"), None),
    CliJob("lower.orders", "lower", ("orders_v1", "orders_v2"), None),
)


def cli_input_texts() -> dict:
    """The job list's input schemas, made by the paper's family
    constructors and written in the text format."""
    from repro.families.hard import (
        example_2_6,
        theorem_3_2_family,
        theorem_3_6_family,
        theorem_4_3_d1_d2,
    )
    from repro.schemas.text_format import dumps

    texts = {f"thm32_{n}": dumps(theorem_3_2_family(n)) for n in (3, 4, 5)}
    texts["ex26"] = dumps(example_2_6())
    for n in (3, 4):
        d1, d2 = theorem_3_6_family(n)
        texts[f"thm36_{n}_d1"], texts[f"thm36_{n}_d2"] = dumps(d1), dumps(d2)
    d1, d2 = theorem_4_3_d1_d2()
    texts["thm43_d1"], texts["thm43_d2"] = dumps(d1), dumps(d2)
    texts["orders_v1"] = REAL_WORLD["orders-v1"][0]
    texts["orders_v2"] = REAL_WORLD["orders-v2"][0]
    return texts
