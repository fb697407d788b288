"""Penn-style bracketed trees: reading, writing, and preprocessing.

Trees are n-ary. Preterminals are represented directly as :class:`Leaf`
objects carrying the word and its POS tag, so ``(VB go)`` is a leaf and
``(VP (VB go))`` is an internal node with a single leaf child.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Union


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


# a character that no word, tag or label of a bracketed tree can hold: the
# reader's tokens below are runs of any other character
BREAKS_TOKEN = re.compile(r"[\s()]")


def token_problem(token: str) -> str | None:
    """Why a bracketed tree cannot hold ``token`` as a word, tag or label
    (it is empty, or holds whitespace or a parenthesis), or ``None``."""
    if not token:
        return "is empty"
    found = BREAKS_TOKEN.search(token)
    if found is None:
        return None
    return "holds whitespace" if found.group().isspace() else "holds a parenthesis"


# the tag of an empty element (a trace or null element), which
# preprocessing strips
NONE_TAG = "-NONE-"

# a whole preterminal ``(TAG word)`` first, then single tokens; anything
# malformed falls through to the single tokens, which report it
_TOKEN = re.compile(r"\(\s*([^()\s]+)\s+([^()\s]+)\s*\)|[()]|[^()\s]+")


def parse_bracketed(text: str) -> list[Tree]:
    """Parse one or more bracketed trees from ``text``.

    A node written without a label, ``( ... )``, is unwrapped to its single
    child (the usual treebank file convention for the outermost bracket).
    Raises :class:`TreebankError` with a byte offset on malformed input.
    """
    trees: list[Tree] = []
    # open nodes: [label-or-None, start offset, children, holds a token]
    stack: list[list] = []
    for match in _TOKEN.finditer(text):
        tag, word = match.groups()
        if tag is not None:
            (stack[-1][2] if stack else trees).append(Leaf(word, tag))
            continue
        tok = match.group()
        if tok == "(":
            stack.append([None, match.start(), [], False])
        elif tok == ")":
            if not stack:
                raise TreebankError("unbalanced ')'", match.start())
            label, start, children, holds_token = stack.pop()
            node: Tree
            if label is None:
                if len(children) != 1:
                    raise TreebankError(
                        f"unlabeled node with {len(children)} children", start
                    )
                node = children[0]
            elif not children:
                raise TreebankError(f"node '{label}' has no children or token", start)
            elif holds_token:
                # a one-token preterminal never gets here: it matched whole
                if all(isinstance(c, str) for c in children):
                    raise TreebankError(
                        f"preterminal '{label}' with multiple tokens", start
                    )
                raise TreebankError(f"node '{label}' mixes tokens and subtrees", start)
            else:
                node = NaryTree(label, children)
            (stack[-1][2] if stack else trees).append(node)
        else:
            if not stack:
                raise TreebankError(f"token '{tok}' outside any tree", match.start())
            top = stack[-1]
            if top[0] is None and not top[2]:
                top[0] = tok
            else:
                top[2].append(tok)
                top[3] = True
    if stack:
        raise TreebankError("unbalanced '(': input ended inside a tree", len(text))
    return trees


def serialize_bracketed(tree: Tree) -> str:
    """Render a tree as a canonical single-line bracketing."""
    if isinstance(tree, Leaf):
        return f"({tree.tag} {tree.word})"
    parts = [f"({tree.label}"]
    # one iterator over the unvisited children of each open node
    stack = [iter(tree.children)]
    while stack:
        for child in stack[-1]:
            if isinstance(child, Leaf):
                parts.append(f" ({child.tag} {child.word})")
            else:
                parts.append(f" ({child.label}")
                stack.append(iter(child.children))
                break
        else:
            stack.pop()
            parts.append(")")
    return "".join(parts)


_BRACKET_LABEL = re.compile(r"-[^-=]+-")


def strip_function_tag(label: str) -> str:
    """Drop functional annotation: everything from the first ``-`` or ``=``
    not at position 0. A label of the form ``-X-`` with no ``-`` or ``=``
    inside (``-LRB-``, ``-NONE-``) is kept whole."""
    if "-" not in label and "=" not in label:  # most labels carry none
        return label
    if _BRACKET_LABEL.fullmatch(label):
        return label
    for i, ch in enumerate(label):
        if i > 0 and ch in "-=":
            return label[:i]
    return label


def preprocess(tree: Tree) -> Tree | None:
    """Strip ``-NONE-`` subtrees and functional label annotations.

    Internal nodes left childless by the removal are dropped in turn.
    Returns ``None`` if nothing survives. Walks with an explicit stack, so
    any depth works.
    """
    if isinstance(tree, Leaf):
        return None if tree.tag == NONE_TAG else Leaf(tree.word, tree.tag)
    cleaned: list[Tree] = []
    # open nodes: (label, unvisited children, kept children, parent's kept)
    stack = [(tree.label, iter(tree.children), [], cleaned)]
    while stack:
        label, children, kept, siblings = stack[-1]
        for child in children:
            if isinstance(child, Leaf):
                if child.tag != NONE_TAG:
                    kept.append(Leaf(child.word, child.tag))
            else:
                stack.append((child.label, iter(child.children), [], kept))
                break
        else:
            stack.pop()
            if kept:
                siblings.append(NaryTree(strip_function_tag(label), kept))
    return cleaned[0] if cleaned else None


def leaves(tree: Tree) -> list[Leaf]:
    """All leaves in sentence order."""
    if isinstance(tree, Leaf):
        return [tree]
    found: list[Leaf] = []
    stack = [iter(tree.children)]
    while stack:
        for child in stack[-1]:
            if isinstance(child, Leaf):
                found.append(child)
            else:
                stack.append(iter(child.children))
                break
        else:
            stack.pop()
    return found
