"""One tokenizer, one top-down typing loop: every validate path agrees.

* A single-type handle validates a string straight from
  :func:`repro.trees.xml_io.iter_events`, building no :class:`Tree`, and
  agrees with :meth:`SingleTypeEDTD.validate_top_down` and with the arena
  kernel of a plain-:class:`EDTD` copy of the same schema.
* On malformed text it raises the :class:`TreeSyntaxError` that
  :func:`from_xml` raises, with the same message, line and column.
* Ingest is linear: a whitespace-padded ~3.2 MiB document parses and
  validates well within a generous wall bound.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import compile_schema
from repro.errors import TreeSyntaxError
from repro.schemas.edtd import EDTD
from repro.schemas.st_edtd import SingleTypeEDTD
from repro.trees.tree import Tree
from repro.trees.xml_io import from_xml, to_xml
from tests.strategies import LABELS, examples, hostile_documents, single_type_edtds, trees

#: Trees over the schemas' own labels, so that many of them are valid.
schema_trees = st.recursive(
    st.sampled_from(LABELS).map(Tree),
    lambda children: st.tuples(st.sampled_from(LABELS), st.lists(children, max_size=4)).map(
        lambda pair: Tree(pair[0], pair[1])
    ),
    max_leaves=25,
)


def _plain(schema: SingleTypeEDTD) -> EDTD:
    return EDTD(schema.alphabet, schema.types, schema.rules, schema.starts, schema.mu)


def _error_of(function, *args) -> tuple:
    with pytest.raises(TreeSyntaxError) as info:
        function(*args)
    return str(info.value), info.value.line, info.value.column


# ----------------------------------------------------------------------
# Differential: streamed text, top-down over a tree, bottom-up arena
# ----------------------------------------------------------------------

@given(single_type_edtds(), st.one_of(schema_trees, trees))
@settings(max_examples=examples(150), deadline=None)
def test_validators_agree_on_trees(schema, tree):
    handle = compile_schema(schema)
    expected = _plain(schema).accepts(tree)
    assert schema.validate_top_down(tree) == expected
    assert handle.validate(to_xml(tree)).valid == expected
    assert handle.validate(tree).valid == expected


@given(single_type_edtds(), hostile_documents)
@settings(max_examples=examples(150), deadline=None)
def test_validators_agree_on_hostile_text(schema, text):
    handle = compile_schema(schema)
    try:
        tree = from_xml(text)
    except TreeSyntaxError:
        assert _error_of(handle.validate, text) == _error_of(from_xml, text)
    else:
        expected = _plain(schema).accepts(tree)
        assert schema.validate_top_down(tree) == expected
        assert handle.validate(text).valid == expected


@pytest.mark.parametrize(
    "text",
    [
        "<store><item></store>",
        "<store>\n  <item>\n    <price/>\n  </item>\n</store>\n<store/>",
        "<!DOCTYPE store>\n<store/>",
        "<store>\n  <!-- note -->\n</store>",
        "<store>text</store>",
        "<store>\n  <item>\n",
        "   \n  ",
        # Invalid at the third element, over the depth cap further on.
        "<store>" + "<item>" * 250 + "</item>" * 250 + "</store>",
    ],
)
def test_malformed_text_raises_what_from_xml_raises(store_schema, text):
    handle = compile_schema(store_schema)
    assert _error_of(handle.validate, text) == _error_of(from_xml, text)


def test_single_type_handle_builds_no_tree(store_schema, monkeypatch):
    # A plain EDTD that satisfies EDC gets a single-type handle too.
    handle = compile_schema(_plain(store_schema))
    assert handle.is_single_type

    def no_trees(self, *args, **kwargs):
        raise AssertionError("a Tree was built")

    monkeypatch.setattr(Tree, "__init__", no_trees)
    result = handle.validate("<store><item><price/></item><item><price/></item></store>")
    assert result.valid and result.usage.steps == 5
    result = handle.validate("<store><item/></store>")
    assert not result.valid and result.usage.steps == 2


# ----------------------------------------------------------------------
# Linear ingest
# ----------------------------------------------------------------------

PADDED_ELEMENTS = 40_000


def test_padded_document_ingests_in_linear_time():
    pad = " " * 78 + "\n"
    document = "<r>" + "".join(pad + "<a/>" for _ in range(PADDED_ELEMENTS)) + pad + "</r>"
    assert 3.0 * 2**20 < len(document) < 3.5 * 2**20
    handle = compile_schema(
        SingleTypeEDTD(
            alphabet={"r", "a"},
            types={"R", "A"},
            rules={"R": "A*", "A": "~"},
            starts={"R"},
            mu={"R": "r", "A": "a"},
        )
    )
    started = time.perf_counter()
    tree = from_xml(document)
    parse_seconds = time.perf_counter() - started
    started = time.perf_counter()
    result = handle.validate(document)
    validate_seconds = time.perf_counter() - started
    assert tree.size() == PADDED_ELEMENTS + 1
    assert result.valid and result.usage.steps == PADDED_ELEMENTS + 1
    # Generous: linear ingest takes ~0.1 s, a quadratic tokenizer ~15 s.
    assert parse_seconds < 2.0
    assert validate_seconds < 2.0
