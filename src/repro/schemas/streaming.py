"""Streaming (SAX-style) one-pass validation against single-type EDTDs.

The paper's introduction motivates the EDC constraint with "a simple
one-pass top-down validation algorithm".  This module is that algorithm in
its natural habitat: a push-based validator consuming start/end element
events with **O(depth) memory** — no document tree is ever built.  The
type of every element is determined the moment its start tag arrives
(single-typedness), and content models are run incrementally.

    validator = StreamingValidator(schema)
    for event in events:          # ("start", label) / ("end",)
        validator.feed(event)
    validator.finish()            # raises ValidationError on bad docs

:class:`StreamingValidator` is the package's one top-down typing loop:
:meth:`SingleTypeEDTD.validate_top_down` feeds it :func:`events_of_tree`,
:func:`validate_xml_stream` feeds it the XML tokenizer
:func:`repro.trees.xml_io.iter_events`, and so does
:meth:`repro.api.CompiledSchema.validate` for single-type schemas.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING

from repro.errors import TreeSyntaxError, ValidationError
from repro.trees.tree import Tree
from repro.trees.xml_io import END, END_EVENT, START, Event, iter_events

if TYPE_CHECKING:
    from repro.schemas.st_edtd import SingleTypeEDTD


class StreamingValidator:
    """Push-based one-pass validator for a single-type EDTD.

    Reads the schema's own ``(type, label) -> type`` tables, so building
    one costs nothing per document.  Raises :class:`ValidationError`
    eagerly, at the earliest event that dooms the document;
    :meth:`finish` performs the end-of-document check.  Memory use is
    proportional to the maximal open-element depth.
    """

    def __init__(self, schema: SingleTypeEDTD) -> None:
        self._schema = schema
        # Stack frames: [type, content-DFA transitions, finals, DFA state].
        self._stack: list[list] = []
        self._done = False

    # ------------------------------------------------------------------

    def feed(self, event: Event) -> None:
        """Consume one event (``("start", label)`` or ``("end",)``)."""
        self.feed_all((event,))

    def feed_all(self, events: Iterable[Event]) -> None:
        """Consume *events* in order; the typing loop behind :meth:`feed`."""
        schema = self._schema
        start_by_label = schema._start_by_label
        child_type = schema._child_type
        rules = schema.rules
        stack = self._stack
        for event in events:  # ungoverned: one table step per event
            kind = event[0]
            if kind == START:
                label = event[1]
                if stack:
                    frame = stack[-1]
                    type_ = child_type.get((frame[0], label))
                    if type_ is None:
                        raise ValidationError(
                            f"element {label!r} not allowed under "
                            f"{schema.mu[frame[0]]!r}"
                        )
                    state = frame[1].get((frame[3], type_))
                    if state is None:
                        raise ValidationError(
                            f"element {label!r} violates the content model of "
                            f"{schema.mu[frame[0]]!r} at this position"
                        )
                    frame[3] = state
                else:
                    if self._done:
                        raise ValidationError("content after the root element closed")
                    type_ = start_by_label.get(label)
                    if type_ is None:
                        raise ValidationError(f"root element {label!r} not allowed")
                dfa = rules[type_]
                stack.append([type_, dfa.transitions, dfa.finals, dfa.initial])
            elif kind == END:
                if not stack:
                    raise ValidationError(
                        "content after the root element closed"
                        if self._done
                        else "unmatched end event"
                    )
                type_, _, finals, state = stack.pop()
                if state not in finals:
                    raise ValidationError(
                        f"element {schema.mu[type_]!r} closed with an "
                        "incomplete content model"
                    )
                self._done = not stack
            else:
                raise ValidationError(f"unknown event kind {kind!r}")

    def finish(self) -> None:
        """End-of-stream check."""
        if self._stack:
            raise ValidationError(
                f"{len(self._stack)} element(s) still open at end of stream"
            )
        if not self._done:
            raise ValidationError("empty document")

    @property
    def depth(self) -> int:
        """Number of currently open elements (the memory footprint)."""
        return len(self._stack)


def events_of_tree(tree: Tree) -> Iterator[Event]:
    """The event stream of a document tree (depth-first); iterative, so
    documents of any depth stream without recursion."""
    yield (START, tree.label)
    pending = [iter(tree.children)]
    while pending:  # ungoverned: one step per tree edge
        child = next(pending[-1], None)
        if child is None:
            pending.pop()
            yield END_EVENT
        else:
            yield (START, child.label)
            pending.append(iter(child.children))


def validate_events(schema: SingleTypeEDTD, events: Iterable[Event]) -> bool:
    """One-pass validation of an event stream; returns a boolean."""
    validator = StreamingValidator(schema)
    try:
        validator.feed_all(events)
        validator.finish()
    except ValidationError:
        return False
    return True


def validate_xml_stream(schema: SingleTypeEDTD, text: str) -> bool:
    """Validate an XML fragment without materializing the tree.

    Reads *text* through :func:`~repro.trees.xml_io.iter_events` with
    its DTD/entity/comment hardening but without the depth and node caps
    (no tree is built); malformed input is simply invalid.
    """
    try:
        return validate_events(
            schema, iter_events(text, max_depth=None, max_nodes=None)
        )
    except TreeSyntaxError:
        return False
