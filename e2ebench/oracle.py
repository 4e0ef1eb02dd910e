"""Correctness oracles for approximation outputs.

The checks read the output with the benchmark's own parser and decide
membership with the benchmark's own EDTD semantics (:mod:`model`).  The
bounded tree universe comes from the program's ``enumerate_trees``, run
on the *other* side of each inclusion, so a wrong output cannot be
checked against itself.
"""

from __future__ import annotations

import model

#: Trees up to this many nodes are compared.
MAX_TREE_SIZE = 6


def _tuple_tree(tree):
    return (tree.label, tuple(_tuple_tree(child) for child in tree.children))


def _members(text: str):
    from repro.schemas.text_format import loads
    from repro.trees.generate import enumerate_trees

    return [_tuple_tree(t) for t in enumerate_trees(loads(text), MAX_TREE_SIZE)]


def _read_single_type(output: str, problems: list) -> "model.Schema | None":
    try:
        schema = model.parse_schema(output)
    except model.ModelError as error:
        problems.append(f"output does not parse: {error}")
        return None
    if not schema.is_single_type():
        problems.append("output is not single-type")
        return None
    return schema


def check_upper(output: str, inputs: list, expected_types: "int | None" = None) -> list:
    """An upper approximation: single-type, with the predicted type count
    when the paper predicts one, and containing every input tree."""
    problems: list = []
    schema = _read_single_type(output, problems)
    if schema is None:
        return problems
    if expected_types is not None and len(schema.rules) != expected_types:
        problems.append(f"{len(schema.rules)} types, the paper predicts {expected_types}")
    for text in inputs:
        missing = [t for t in _members(text) if not schema.accepts(t)]
        if missing:
            problems.append(f"upper approximation misses {len(missing)} input trees")
    return problems


def check_lower(output: str, targets: list, contained: list = ()) -> list:
    """A lower approximation: single-type, non-empty, inside the union of
    *targets*, and containing every tree of the schemas in *contained*."""
    problems: list = []
    schema = _read_single_type(output, problems)
    if schema is None:
        return problems
    members = _members(output)
    if not members:
        problems.append("lower approximation is empty up to the size bound")
    readers = [model.parse_schema(text) for text in targets]
    outside = [t for t in members if not any(r.accepts(t) for r in readers)]
    if outside:
        problems.append(f"lower approximation admits {len(outside)} trees outside its input")
    for text in contained:
        missing = [t for t in _members(text) if not schema.accepts(t)]
        if missing:
            problems.append(f"lower approximation misses {len(missing)} trees it must keep")
    return problems
