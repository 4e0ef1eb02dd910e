"""Single-type EDTDs (Definition 2.4) — the paper's abstraction of XSDs.

A single-type EDTD forbids two distinct types with the same label from
competing for the same position (the Element Declarations Consistent rule).
The payoff, implemented here, is deterministic **one-pass top-down
validation** (:meth:`SingleTypeEDTD.validate_top_down`): the type of every
node is determined by its ancestor string alone, so validation runs in a
single traversal without backtracking — contrast with the bottom-up subset
simulation that general EDTDs require (:meth:`~repro.schemas.edtd.EDTD.accepts`).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping

from repro.errors import NotSingleTypeError
from repro.schemas.edtd import EDTD
from repro.schemas.streaming import events_of_tree, validate_events
from repro.schemas.type_automaton import is_single_type
from repro.strings.dfa import DFA
from repro.strings.nfa import NFA
from repro.strings.regex import Regex
from repro.trees.tree import Tree

Symbol = Hashable
Type = Hashable


class SingleTypeEDTD(EDTD):
    """An EDTD verified to satisfy the single-type restriction.

    Construction raises :class:`NotSingleTypeError` when the input violates
    Definition 2.4, so holding a ``SingleTypeEDTD`` instance *is* the proof
    of the EDC property.
    """

    def __init__(
        self,
        alphabet: Iterable[Symbol],
        types: Iterable[Type],
        rules: Mapping[Type, DFA | NFA | Regex | str],
        starts: Iterable[Type],
        mu: Mapping[Type, Symbol],
    ) -> None:
        super().__init__(alphabet, types, rules, starts, mu)
        if not is_single_type(self):
            raise NotSingleTypeError(
                "two types with the same label compete for the same position"
            )
        self._start_by_label: dict[Symbol, Type] = {
            self.mu[t]: t for t in self.starts
        }
        # (parent type, child label) -> child type; well-defined by EDC.
        self._child_type: dict[tuple[Type, Symbol], Type] = {}
        for type_ in self.types:
            for occurring in self.occurring_types(type_):
                self._child_type[(type_, self.mu[occurring])] = occurring

    @classmethod
    def from_edtd(cls, edtd: EDTD) -> "SingleTypeEDTD":
        """Upgrade an :class:`EDTD` after checking the single-type property."""
        return cls(edtd.alphabet, edtd.types, edtd.rules, edtd.starts, edtd.mu)

    # ------------------------------------------------------------------
    # One-pass top-down validation (the EDC benefit)
    # ------------------------------------------------------------------

    def type_of(self, ancestor_string: tuple) -> Type | None:
        """The unique type of a node with the given ancestor string, or None.

        Runs the (deterministic) type automaton in O(len(ancestor_string)).
        """
        if not ancestor_string:
            return None
        current = self._start_by_label.get(ancestor_string[0])
        for label in ancestor_string[1:]:
            if current is None:
                return None
            current = self._child_type.get((current, label))
        return current

    def validate_top_down(self, tree: Tree) -> bool:
        """Deterministic one-pass top-down validation.

        Every node's type is computed from its parent's type and its label
        the moment the node is entered, and each content model runs
        incrementally: :func:`~repro.schemas.streaming.events_of_tree`
        drives the :class:`~repro.schemas.streaming.StreamingValidator`.
        Total time: O(|tree|) automaton steps.
        """
        return validate_events(self, events_of_tree(tree))

    def accepts(self, tree: Tree) -> bool:
        """Membership — overridden to use the fast top-down algorithm."""
        return self.validate_top_down(tree)

    def reduced(self) -> "SingleTypeEDTD":
        """Reduction preserves the single-type property."""
        return SingleTypeEDTD.from_edtd(super().reduced())

    def relabel_types(self, prefix: str = "t") -> "SingleTypeEDTD":
        return SingleTypeEDTD.from_edtd(super().relabel_types(prefix))

    def __repr__(self) -> str:
        return (
            f"SingleTypeEDTD(alphabet={sorted(map(str, self.alphabet))}, "
            f"types={len(self.types)}, starts={len(self.starts)})"
        )
