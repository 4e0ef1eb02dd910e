"""Serialization between :class:`Tree` and a structural XML fragment syntax.

The paper abstracts XML documents as unranked trees over element names
(attributes, text and namespaces are out of scope — the EDC constraint only
concerns element structure).  This module converts between the two views so
examples and downstream users can work with familiar markup:

    >>> from repro.trees.xml_io import to_xml, from_xml
    >>> from repro.trees.tree import parse_tree
    >>> print(to_xml(parse_tree("store(item(price))")))
    <store>
      <item>
        <price/>
      </item>
    </store>
    >>> from_xml("<a><b/><b/></a>")
    Tree('a(b, b)')

:func:`iter_events` is the one tokenizer: :func:`from_xml` builds a tree
from its start/end events, one-pass validation consumes them directly.

Only well-formed element-only fragments are supported; text nodes,
attributes, comments and processing instructions are rejected with
:class:`TreeSyntaxError` rather than silently dropped.

Hostile input hardening (this parser is exposed to untrusted documents
via ``repro validate``):

* **DTD / entity declarations are rejected outright** — ``<!DOCTYPE``,
  ``<!ENTITY`` and every other markup declaration.  Entity expansion is
  the classic billion-laughs amplification vector; since the tree model
  has no text content there is no legitimate use for entities here.
* **Depth and node-count limits** — :func:`iter_events` (and so
  :func:`from_xml`) enforces a configurable ``max_depth`` (default
  ``DEFAULT_MAX_DEPTH`` = 200) and ``max_nodes`` (default
  ``DEFAULT_MAX_NODES`` = 100000), so deeply
  nested or enormous documents fail fast with a precise message instead
  of exhausting the recursion limit or memory downstream.
* **Positions** — every :class:`TreeSyntaxError` carries 1-based
  ``line``/``column`` attributes locating the offending token.
"""

from __future__ import annotations

import re as _re
from collections.abc import Iterator

from repro import faults as _faults
from repro.errors import TreeSyntaxError
from repro.trees.tree import Tree

#: Default cap on element nesting depth for :func:`iter_events`.
DEFAULT_MAX_DEPTH = 200

#: Default cap on the total number of elements for :func:`iter_events`.
DEFAULT_MAX_NODES = 100_000

START = "start"
END = "end"
END_EVENT = (END,)  # the one ("end",) object every end tag yields
Event = tuple  # ("start", label) or ("end",)

_NAME = r"[A-Za-z_][A-Za-z0-9_.\-]*"
_TOKEN = _re.compile(
    rf"\s*(?:"
    rf"<(?P<open>{_NAME})\s*>"
    rf"|<(?P<selfclose>{_NAME})\s*/\s*>"
    rf"|</(?P<close>{_NAME})\s*>"
    rf")"
)
_SPACE = _re.compile(r"\s*")
_DECLARATION = _re.compile(r"<!(?P<keyword>[A-Za-z\[]*)")


def to_xml(tree: Tree, indent: int = 2) -> str:
    """Render *tree* as an indented XML fragment (childless nodes become
    self-closing tags)."""
    lines: list[str] = []

    def render(node: Tree, depth: int) -> None:
        pad = " " * (indent * depth)
        if not node.children:
            lines.append(f"{pad}<{node.label}/>")
            return
        lines.append(f"{pad}<{node.label}>")
        for child in node.children:
            render(child, depth + 1)
        lines.append(f"{pad}</{node.label}>")

    render(tree, 0)
    return "\n".join(lines)


def _syntax_error(message: str, text: str, pos: int) -> TreeSyntaxError:
    """A :class:`TreeSyntaxError` at the 1-based line/column of offset *pos*."""
    line = text.count("\n", 0, pos) + 1
    return TreeSyntaxError(message, line=line, column=pos - text.rfind("\n", 0, pos))


def _unsupported(text: str, pos: int, start: int) -> TreeSyntaxError:
    """The error for a non-tag token at *start* (whitespace from *pos*)."""
    declaration = _DECLARATION.match(text, start)
    if text.startswith("<!--", start):
        message = "comments are not supported (element-only fragments)"
    elif declaration is not None:
        keyword = declaration.group("keyword").rstrip("[").upper()
        what = f"<!{keyword}" if keyword else "markup declaration"
        message = (
            f"{what} is not allowed: DTD and entity declarations are "
            "rejected (entity-expansion hardening)"
        )
    elif text.startswith("<?", start):
        message = (
            "processing instructions and XML declarations are not "
            "supported (element-only fragments)"
        )
    else:
        message = f"unsupported XML content near: {text[pos:pos + 20].strip()!r}"
    return _syntax_error(message, text, start)


def iter_events(
    text: str,
    *,
    max_depth: int | None = DEFAULT_MAX_DEPTH,
    max_nodes: int | None = DEFAULT_MAX_NODES,
) -> Iterator[Event]:
    """Tokenize an element-only XML fragment into ``("start", label)`` /
    ``("end",)`` events (a self-closing tag yields both), in one pass
    linear in ``len(text)``.

    Raises :class:`TreeSyntaxError` — carrying 1-based ``line``/``column``
    attributes — on mismatched tags, content after the root, DTD/entity
    declarations (billion-laughs hardening), comments, processing
    instructions or any other non-tag content, unclosed elements, or a
    missing root; the events before the offending token have been
    yielded by then.  *max_depth* bounds element nesting and *max_nodes*
    the total element count; pass ``None`` to disable either limit
    (trusted input only).
    """
    if _faults.ACTIVE:
        # Chaos harness: simulate a failing/truncating reader.  A damaged
        # document must surface as TreeSyntaxError below, never as a
        # silently different tree — tests/faults/ sweeps this.
        text = _faults.transform("xml.ingest", text)
    # -1 disables a cap; a negative cap rejects the first element.
    depth_cap = -1 if max_depth is None else max(max_depth, 0)
    node_cap = -1 if max_nodes is None else max(max_nodes, 0)
    match_token = _TOKEN.match
    open_labels: list[str] = []
    nodes = 0
    closed = False
    pos = 0
    while True:  # ungoverned: every pass consumes one tag of the text
        match = match_token(text, pos)
        if match is None:
            start = _SPACE.match(text, pos).end()
            if start == len(text):
                break
            raise _unsupported(text, pos, start)
        pos = match.end()
        kind = match.lastgroup
        name = match[kind]
        if closed or kind == "close":
            # The tag opens with "</" (close) or "<" (open, self-closing).
            at = match.start(kind) - (2 if kind == "close" else 1)
            if closed:
                raise _syntax_error("content after the root element", text, at)
            if not open_labels:
                raise _syntax_error(f"unexpected closing tag </{name}>", text, at)
            open_name = open_labels.pop()
            if open_name != name:
                raise _syntax_error(f"mismatched tags: <{open_name}> closed by </{name}>", text, at)
            closed = not open_labels
            yield END_EVENT
            continue
        nodes += 1
        if len(open_labels) == depth_cap or nodes > node_cap >= 0:
            message = (
                f"maximum element depth exceeded ({max_depth})"
                if len(open_labels) == depth_cap
                else f"maximum node count exceeded ({max_nodes})"
            )
            raise _syntax_error(message, text, match.start(kind) - 1)
        yield (START, name)
        if kind == "open":
            open_labels.append(name)
        else:
            closed = not open_labels
            yield END_EVENT
    if open_labels:
        raise _syntax_error(f"unclosed element <{open_labels[-1]}>", text, len(text))
    if not closed:
        raise TreeSyntaxError("no root element found", line=1, column=1)


def from_xml(
    text: str,
    *,
    max_depth: int | None = DEFAULT_MAX_DEPTH,
    max_nodes: int | None = DEFAULT_MAX_NODES,
) -> Tree:
    """Parse an element-only XML fragment into a :class:`Tree`: a stack
    builder over :func:`iter_events`, raising its :class:`TreeSyntaxError`
    on the same input and honouring the same *max_depth* / *max_nodes*."""
    stack: list[tuple[str, list[Tree]]] = [("", [])]
    for event in iter_events(text, max_depth=max_depth, max_nodes=max_nodes):
        if event is END_EVENT:
            label, children = stack.pop()
            stack[-1][1].append(Tree(label, children))
        else:
            stack.append((event[1], []))
    return stack[0][1][0]
