"""The benchmark's own reading of the schema text format.

Everything here is independent of the package under test: a parser for
the text format (``type [label] -> content``), membership of a tree in
an EDTD, the single-type (EDC) test, and a seeded sampler of member
trees.  The benchmark's correctness oracles use these, never the
program's own validators, so a bug in the program cannot hide itself.

Trees are ``(label, children)`` tuples with ``children`` a tuple of trees.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

_TOKEN = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|([|,*+?()~]))")


class ModelError(ValueError):
    """Text the benchmark's parser cannot read."""


# ----------------------------------------------------------------------
# Content models: ("eps",) ("sym", t) ("seq", [..]) ("alt", [..])
# ("star", x) ("plus", x) ("opt", x)
# ----------------------------------------------------------------------

def parse_regex(text: str):
    tokens = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            if not text[pos:].strip():
                break
            raise ModelError(f"bad content model {text!r} at {pos}")
        tokens.append(match.group(1) or match.group(2))
        pos = match.end()
    index = 0

    def peek():
        return tokens[index] if index < len(tokens) else None

    def union():
        nonlocal index
        parts = [concat()]
        while peek() == "|":
            index += 1
            parts.append(concat())
        return parts[0] if len(parts) == 1 else ("alt", parts)

    def concat():
        nonlocal index
        parts = [postfix()]
        while True:
            token = peek()
            if token == ",":
                index += 1
                parts.append(postfix())
            elif token is not None and (token in "(~" or token[0].isalpha() or token[0] == "_"):
                parts.append(postfix())
            else:
                break
        return parts[0] if len(parts) == 1 else ("seq", parts)

    def postfix():
        nonlocal index
        node = atom()
        while peek() in ("*", "+", "?"):
            node = ({"*": "star", "+": "plus", "?": "opt"}[tokens[index]], node)
            index += 1
        return node

    def atom():
        nonlocal index
        token = peek()
        if token is None:
            raise ModelError(f"content model {text!r} ends early")
        index += 1
        if token == "(":
            node = union()
            if peek() != ")":
                raise ModelError(f"unbalanced parenthesis in {text!r}")
            index += 1
            return node
        if token == "~":
            return ("eps",)
        if token[0].isalpha() or token[0] == "_":
            return ("sym", token)
        raise ModelError(f"unexpected {token!r} in {text!r}")

    node = union()
    if peek() is not None:
        raise ModelError(f"trailing {peek()!r} in {text!r}")
    return node


def regex_symbols(node) -> set:
    kind = node[0]
    if kind == "sym":
        return {node[1]}
    if kind == "eps":
        return set()
    if kind in ("seq", "alt"):
        return set().union(*(regex_symbols(part) for part in node[1]))
    return regex_symbols(node[1])


def _ends(node, word, starts: set) -> set:
    """Positions reachable after matching *node* from any of *starts*,
    where ``word[i]`` is the set of types child ``i`` may take."""
    kind = node[0]
    if not starts:
        return starts
    if kind == "eps":
        return starts
    if kind == "sym":
        return {i + 1 for i in starts if i < len(word) and node[1] in word[i]}
    if kind == "seq":
        for part in node[1]:
            starts = _ends(part, word, starts)
        return starts
    if kind == "alt":
        return set().union(*(_ends(part, word, starts) for part in node[1]))
    if kind == "opt":
        return starts | _ends(node[1], word, starts)
    if kind == "plus":
        starts = _ends(node[1], word, starts)
    reached = set(starts)
    frontier = set(starts)
    while frontier:
        frontier = _ends(node[1], word, frontier) - reached
        reached |= frontier
    return reached


# ----------------------------------------------------------------------
# Schemas
# ----------------------------------------------------------------------

@dataclass
class Schema:
    starts: set
    labels: dict  # type -> label
    rules: dict  # type -> content-model AST
    alphabet: set

    def accepts(self, tree) -> bool:
        """Bottom-up membership: the set of types each node can take."""
        by_label: dict = {}
        for type_name, label in self.labels.items():
            by_label.setdefault(label, []).append(type_name)
        types_of: dict = {}
        stack = [(tree, False)]
        while stack:
            node, expanded = stack.pop()
            if not expanded:
                stack.append((node, True))
                stack.extend((child, False) for child in node[1])
                continue
            word = [types_of[id(child)] for child in node[1]]
            types_of[id(node)] = {
                type_name
                for type_name in by_label.get(node[0], ())
                if len(word) in _ends(self.rules[type_name], word, {0})
            }
        return bool(types_of[id(tree)] & self.starts)

    def is_single_type(self) -> bool:
        """EDC: no content model (nor the start set) holds two types with
        one label."""
        groups = [set(self.starts)] + [regex_symbols(r) for r in self.rules.values()]
        for group in groups:
            labels = [self.labels[t] for t in group]
            if len(labels) != len(set(labels)):
                return False
        return True


def parse_schema(text: str) -> Schema:
    starts: set = set()
    alphabet: set = set()
    labels: dict = {}
    rules: dict = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("alphabet:"):
            alphabet.update(line[len("alphabet:"):].split())
            continue
        if line.startswith("start:"):
            starts.update(line[len("start:"):].split())
            continue
        head, arrow, content = line.partition("->")
        match = re.fullmatch(r"\s*(\S+)\s*\[\s*(\S+)\s*\]\s*", head)
        if not arrow or match is None:
            raise ModelError(f"cannot read schema line {raw!r}")
        labels[match.group(1)] = match.group(2)
        rules[match.group(1)] = parse_regex(content)
    if not starts or not starts <= set(rules):
        raise ModelError("schema needs start types that have rules")
    for rule in rules.values():
        if not regex_symbols(rule) <= set(rules):
            raise ModelError("content model names a type without a rule")
    return Schema(starts, labels, rules, alphabet | set(labels.values()))


# ----------------------------------------------------------------------
# Trees
# ----------------------------------------------------------------------

def size(tree) -> int:
    count = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node[1])
    return count


def to_xml(tree, pretty: bool = False) -> str:
    parts: list = []
    stack = [(tree, 0, False)]
    while stack:
        node, depth, closing = stack.pop()
        pad = ("\n" + "  " * depth) if pretty and parts else ""
        if closing:
            parts.append(f"{pad}</{node[0]}>")
        elif not node[1]:
            parts.append(f"{pad}<{node[0]}/>")
        else:
            parts.append(f"{pad}<{node[0]}>")
            stack.append((node, depth, True))
            stack.extend((child, depth + 1, False) for child in reversed(node[1]))
    return "".join(parts)


def relabel_one(tree, rng: random.Random, label: str):
    """*tree* with one node, chosen uniformly, renamed to *label*."""
    target = rng.randrange(size(tree))
    counter = 0

    def walk(node):
        nonlocal counter
        mine = counter
        counter += 1
        children = tuple(walk(child) for child in node[1])
        return (label if mine == target else node[0], children)

    return walk(tree)


class Sampler:
    """Seeded random member trees of a schema.

    Stars repeat 0-3 times; below *max_depth* every choice takes its
    smallest option, so recursive schemas stay finite."""

    def __init__(self, schema: Schema, rng: random.Random, max_depth: int = 6):
        self.schema = schema
        self.rng = rng
        self.max_depth = max_depth
        self.min_size = self._min_sizes()

    def _min_sizes(self) -> dict:
        inf = float("inf")
        sizes = {t: inf for t in self.schema.rules}
        changed = True
        while changed:
            changed = False
            for type_name, rule in self.schema.rules.items():
                value = 1 + self._regex_min(rule, sizes)
                if value < sizes[type_name]:
                    sizes[type_name] = value
                    changed = True
        return sizes

    def _regex_min(self, node, sizes) -> float:
        kind = node[0]
        if kind in ("eps", "star", "opt"):
            return 0
        if kind == "sym":
            return sizes[node[1]]
        if kind == "seq":
            return sum(self._regex_min(part, sizes) for part in node[1])
        if kind == "alt":
            return min(self._regex_min(part, sizes) for part in node[1])
        return self._regex_min(node[1], sizes)  # plus

    def tree(self, type_name: str, depth: int = 0):
        word = self.word(self.schema.rules[type_name], depth)
        children = tuple(self.tree(child, depth + 1) for child in word)
        return (self.schema.labels[type_name], children)

    def word(self, node, depth: int) -> list:
        """A random type word of content model *node* at *depth*."""
        kind = node[0]
        rng = self.rng
        small = depth >= self.max_depth
        if kind == "eps":
            return []
        if kind == "sym":
            return [node[1]]
        if kind == "seq":
            return [t for part in node[1] for t in self.word(part, depth)]
        if kind == "alt":
            parts = node[1]
            if small:
                part = min(parts, key=lambda p: self._regex_min(p, self.min_size))
            else:
                finite = [p for p in parts if self._regex_min(p, self.min_size) < float("inf")]
                part = rng.choice(finite)
            return self.word(part, depth)
        if kind == "opt":
            return [] if small or rng.random() < 0.5 else self.word(node[1], depth)
        reps = 0 if small else rng.randint(0, 3)
        if kind == "plus":
            reps = max(reps, 1)
        return [t for _ in range(reps) for t in self.word(node[1], depth)]


def derivation_counts(schema: Schema, max_size: int) -> list:
    """``counts[s]``: typed derivations of trees with ``s`` nodes, for
    ``s <= max_size`` (ambiguous content models count a word once per
    parse, so this bounds the number of member trees from above)."""
    per_type = {t: [0] * (max_size + 1) for t in schema.rules}

    def words(node, budget):
        # words(node)[s] = parses of child-words whose subtrees total s nodes
        kind = node[0]
        if kind == "eps":
            return [1] + [0] * budget
        if kind == "sym":
            return list(per_type[node[1]][: budget + 1])
        if kind == "alt":
            parts = [words(p, budget) for p in node[1]]
            return [sum(col) for col in zip(*parts)]
        if kind == "opt":
            inner = words(node[1], budget)
            return [inner[0] + 1] + inner[1:]
        if kind == "seq":
            result = [1] + [0] * budget
            for part in node[1]:
                result = _convolve(result, words(part, budget), budget)
            return result
        inner = words(node[1], budget)
        inner[0] = 0  # repetitions of an empty parse add nothing new
        star = [1] + [0] * budget
        for s in range(1, budget + 1):
            star[s] = sum(inner[k] * star[s - k] for k in range(1, s + 1))
        return star if kind == "star" else _convolve(inner, star, budget)

    for size in range(1, max_size + 1):
        for type_name, rule in schema.rules.items():
            per_type[type_name][size] = words(rule, size - 1)[size - 1]
    return [sum(per_type[t][s] for t in schema.starts) for s in range(max_size + 1)]


def _convolve(left, right, budget):
    return [
        sum(left[k] * right[s - k] for k in range(s + 1)) for s in range(budget + 1)
    ]
