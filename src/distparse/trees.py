"""Penn-style bracketed trees: reading, writing, and preprocessing.

Trees are n-ary. Preterminals are represented directly as :class:`Leaf`
objects carrying the word and its POS tag, so ``(VB go)`` is a leaf and
``(VP (VB go))`` is an internal node with a single leaf child.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Union


class TreebankError(ValueError):
    """Malformed bracketed input. Carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset


@dataclass(slots=True)
class Leaf:
    """A preterminal: one word with its POS tag."""

    word: str
    tag: str


@dataclass(slots=True)
class NaryTree:
    """An internal node with a nonterminal label and ordered children."""

    label: str
    children: list["Tree"] = field(default_factory=list)


Tree = Union[NaryTree, Leaf]

_TOKEN = re.compile(r"[()]|[^()\s]+")


@dataclass(slots=True)
class _Token:
    """Parser-internal word token; never appears in returned trees."""

    text: str


def parse_bracketed(text: str) -> list[Tree]:
    """Parse one or more bracketed trees from ``text``.

    A node written without a label, ``( ... )``, is unwrapped to its single
    child (the usual treebank file convention for the outermost bracket).
    Raises :class:`TreebankError` with a byte offset on malformed input.
    """
    trees: list[Tree] = []
    # Stack entries: [label-or-None, start offset, children].
    stack: list[list] = []

    def close_node(offset: int) -> None:
        label, start, children = stack.pop()
        node: Tree
        if label is None:
            if len(children) != 1:
                raise TreebankError(
                    f"unlabeled node with {len(children)} children", start
                )
            node = children[0]
        elif not children:
            raise TreebankError(f"node '{label}' has no children or token", start)
        elif all(isinstance(c, _Token) for c in children):
            if len(children) > 1:
                raise TreebankError(
                    f"preterminal '{label}' with multiple tokens", start
                )
            node = Leaf(word=children[0].text, tag=label)
        elif any(isinstance(c, _Token) for c in children):
            raise TreebankError(f"node '{label}' mixes tokens and subtrees", start)
        else:
            node = NaryTree(label, children)
        if stack:
            stack[-1][2].append(node)
        else:
            trees.append(node)

    for match in _TOKEN.finditer(text):
        tok = match.group()
        offset = match.start()
        if tok == "(":
            stack.append([None, offset, []])
        elif tok == ")":
            if not stack:
                raise TreebankError("unbalanced ')'", offset)
            close_node(offset)
        else:
            if not stack:
                raise TreebankError(f"token '{tok}' outside any tree", offset)
            top = stack[-1]
            if top[0] is None and not top[2]:
                top[0] = tok
            else:
                top[2].append(_Token(tok))
    if stack:
        raise TreebankError("unbalanced '(': input ended inside a tree", len(text))
    return trees


def serialize_bracketed(tree: Tree) -> str:
    """Render a tree as a canonical single-line bracketing."""
    parts: list[str] = []
    # (node | closing-string) work stack, right-to-left
    work: list[object] = [tree]
    while work:
        item = work.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, Leaf):
            parts.append(f"({item.tag} {item.word})")
        else:
            assert isinstance(item, NaryTree)
            parts.append(f"({item.label}")
            work.append(")")
            for child in reversed(item.children):
                work.append(child)
    out: list[str] = []
    for i, piece in enumerate(parts):
        if i and piece != ")":
            out.append(" ")
        out.append(piece)
    return "".join(out)


def strip_function_tag(label: str) -> str:
    """Drop functional annotation: everything from the first ``-`` or ``=``
    not at position 0 (keeps ``-LRB-`` and friends intact)."""
    for i, ch in enumerate(label):
        if i > 0 and ch in "-=":
            return label[:i]
    return label


def preprocess(tree: Tree) -> Tree | None:
    """Strip ``-NONE-`` subtrees and functional label annotations.

    Internal nodes left childless by the removal are dropped recursively.
    Returns ``None`` if nothing survives.
    """
    if isinstance(tree, Leaf):
        return None if tree.tag == "-NONE-" else Leaf(tree.word, tree.tag)
    kept = []
    for child in tree.children:
        cleaned = preprocess(child)
        if cleaned is not None:
            kept.append(cleaned)
    if not kept:
        return None
    return NaryTree(strip_function_tag(tree.label), kept)


def leaves(tree: Tree) -> list[Leaf]:
    """All leaves in sentence order."""
    found: list[Leaf] = []
    work = [tree]
    while work:
        node = work.pop()
        if isinstance(node, Leaf):
            found.append(node)
        else:
            work.extend(reversed(node.children))
    return found


def write_treebank(trees: Iterator[Tree] | list[Tree], path) -> None:
    """Write trees one per line."""
    with open(path, "w", encoding="utf-8") as handle:
        for tree in trees:
            handle.write(serialize_bracketed(tree))
            handle.write("\n")
