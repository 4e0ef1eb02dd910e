"""Unit tests for EDTDs (Definition 2.2, Proviso 2.3)."""

from __future__ import annotations

import pytest

from repro.errors import SchemaError
from repro.schemas.edtd import EDTD
from repro.trees.generate import enumerate_trees
from repro.trees.tree import parse_tree


def two_root_edtd() -> EDTD:
    """Root a is either all-b-children or exactly-two-b-children typed."""
    return EDTD(
        alphabet={"a", "b"},
        types={"r1", "r2", "x", "y"},
        rules={"r1": "x*", "r2": "y, y", "x": "~", "y": "~"},
        starts={"r1", "r2"},
        mu={"r1": "a", "r2": "a", "x": "b", "y": "b"},
    )


class TestConstruction:
    def test_mu_must_be_total(self):
        with pytest.raises(SchemaError):
            EDTD(
                alphabet={"a"},
                types={"t", "u"},
                rules={},
                starts={"t"},
                mu={"t": "a"},
            )

    def test_mu_into_alphabet(self):
        with pytest.raises(SchemaError):
            EDTD(alphabet={"a"}, types={"t"}, rules={}, starts={"t"}, mu={"t": "z"})

    def test_starts_must_be_types(self):
        with pytest.raises(SchemaError):
            EDTD(alphabet={"a"}, types={"t"}, rules={}, starts={"z"}, mu={"t": "a"})

    def test_rules_over_unknown_types_rejected(self):
        with pytest.raises(SchemaError):
            EDTD(
                alphabet={"a"},
                types={"t"},
                rules={"t": "zz"},
                starts={"t"},
                mu={"t": "a"},
            )

    def test_rules_for_unknown_types_rejected(self):
        with pytest.raises(SchemaError):
            EDTD(
                alphabet={"a"},
                types={"t"},
                rules={"u": "~"},
                starts={"t"},
                mu={"t": "a"},
            )


class TestMembership:
    def test_accepts_either_typing(self):
        edtd = two_root_edtd()
        assert edtd.accepts(parse_tree("a"))         # r1 with zero x's
        assert edtd.accepts(parse_tree("a(b, b)"))   # both typings
        assert edtd.accepts(parse_tree("a(b, b, b)"))

    def test_rejects_wrong_label(self):
        assert not two_root_edtd().accepts(parse_tree("b"))

    def test_rejects_foreign_label(self):
        assert not two_root_edtd().accepts(parse_tree("a(c)"))

    def test_rejects_foreign_label_deep_in_the_tree(self):
        # No alphabet pre-walk: the foreign leaf's empty type mask alone
        # must make the root reject, as the reference inference says.
        edtd = EDTD(
            alphabet={"a"},
            types={"t"},
            rules={"t": "t*"},
            starts={"t"},
            mu={"t": "a"},
        )
        valid = parse_tree("a(a(a(a(a), a)), a)")
        foreign = parse_tree("a(a(a(a(zz), a)), a)")
        assert edtd.accepts(valid)
        assert edtd.possible_types_reference(valid) == {"t"}
        assert not edtd.accepts(foreign)
        assert edtd.possible_types_reference(foreign) == frozenset()
        assert edtd.possible_types(foreign) == frozenset()

    def test_possible_types(self):
        edtd = two_root_edtd()
        assert edtd.possible_types(parse_tree("a(b, b)")) == {"r1", "r2"}
        assert edtd.possible_types(parse_tree("a(b)")) == {"r1"}
        assert edtd.possible_types(parse_tree("b")) == {"x", "y"}

    def test_typed_witness_valid(self):
        edtd = two_root_edtd()
        witness = edtd.typed_witness(parse_tree("a(b, b)"))
        assert witness is not None
        assert witness.label in {"r1", "r2"}
        assert witness.map_labels(lambda t: edtd.mu[t]) == parse_tree("a(b, b)")

    def test_typed_witness_none_for_nonmember(self):
        assert two_root_edtd().typed_witness(parse_tree("b(a)")) is None

    def test_deep_nesting(self):
        edtd = EDTD(
            alphabet={"a"},
            types={"t"},
            rules={"t": "t?"},
            starts={"t"},
            mu={"t": "a"},
        )
        tree = parse_tree("a(a(a(a)))")
        assert edtd.accepts(tree)
        assert not edtd.accepts(parse_tree("a(a, a)"))


class TestReduction:
    def test_unproductive_removed(self):
        edtd = EDTD(
            alphabet={"a", "b"},
            types={"r", "dead"},
            rules={"r": "dead | ~", "dead": "dead"},
            starts={"r"},
            mu={"r": "a", "dead": "b"},
        )
        reduced = edtd.reduced()
        assert reduced.types == {"r"}
        assert reduced.accepts(parse_tree("a"))
        assert not reduced.accepts(parse_tree("a(b)"))

    def test_unreachable_removed(self):
        edtd = EDTD(
            alphabet={"a"},
            types={"r", "island"},
            rules={"r": "~", "island": "~"},
            starts={"r"},
            mu={"r": "a", "island": "a"},
        )
        assert edtd.reduced().types == {"r"}

    def test_reduction_preserves_language(self, ab_universe_4):
        edtd = EDTD(
            alphabet={"a", "b"},
            types={"r", "x", "dead"},
            rules={"r": "x* | dead", "x": "~", "dead": "dead"},
            starts={"r"},
            mu={"r": "a", "x": "b", "dead": "b"},
        )
        reduced = edtd.reduced()
        for tree in ab_universe_4:
            assert edtd.accepts(tree) == reduced.accepts(tree), tree

    def test_is_reduced(self):
        assert two_root_edtd().is_reduced()

    def test_empty_language(self):
        edtd = EDTD(
            alphabet={"a"},
            types={"loop"},
            rules={"loop": "loop"},
            starts={"loop"},
            mu={"loop": "a"},
        )
        assert edtd.is_empty_language()
        assert edtd.reduced().types == set()

    def test_reduction_idempotent(self):
        reduced = two_root_edtd().reduced()
        assert reduced.reduced().types == reduced.types


class TestStructure:
    def test_occurring_types(self):
        edtd = two_root_edtd()
        assert edtd.occurring_types("r1") == {"x"}
        assert edtd.occurring_types("r2") == {"y"}
        assert edtd.occurring_types("x") == set()

    def test_occurring_excludes_useless_symbols(self):
        # d(t) = u, # -- u never occurs in a word.
        edtd = EDTD(
            alphabet={"a"},
            types={"t", "u"},
            rules={"t": "u, #", "u": "~"},
            starts={"t"},
            mu={"t": "a", "u": "a"},
        )
        assert edtd.occurring_types("t") == set()

    def test_content_over_sigma(self):
        edtd = two_root_edtd()
        sigma_content = edtd.content_over_sigma("r2")
        assert sigma_content.accepts(["b", "b"])
        assert not sigma_content.accepts(["b"])

    def test_start_symbols(self):
        assert two_root_edtd().start_symbols() == {"a"}

    def test_sizes(self):
        edtd = two_root_edtd()
        assert edtd.type_size() == 4
        assert edtd.size() > edtd.type_size()

    def test_relabel_types_preserves_language(self, ab_universe_4):
        edtd = two_root_edtd()
        relabeled = edtd.relabel_types()
        for tree in ab_universe_4:
            assert edtd.accepts(tree) == relabeled.accepts(tree), tree

    def test_enumeration_agrees_with_membership(self, ab_universe_4):
        edtd = two_root_edtd()
        enumerated = set(enumerate_trees(edtd, 4))
        expected = {t for t in ab_universe_4 if edtd.accepts(t)}
        assert enumerated == expected
