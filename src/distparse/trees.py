"""Penn-style bracketed trees: reading, writing, and preprocessing.

Trees are n-ary. Preterminals are represented directly as :class:`Leaf`
objects carrying the word and its POS tag, so ``(VB go)`` is a leaf and
``(VP (VB go))`` is an internal node with a single leaf child.

One reader loop builds the trees as written (:func:`parse_bracketed`), or
as :func:`preprocess` cleans them (:func:`read_treebank`, one copy per
tree), or only their words and tags (:func:`read_sentences`, which
``predict`` reads). A read interns every word, tag and label it returns
(``sys.intern``), and so does :func:`strip_function_tag` with a label it
cuts (``NP-SBJ`` to ``NP``): equal strings are one object however often
the text repeats them, while each leaf and node stays its own object. The
tables that map a repeated preterminal or label to its strings live only
for the read.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from sys import intern
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

# a whole preterminal ``(TAG word)`` first, then an open bracket with its
# label, then single tokens; anything malformed falls through to the later
# alternatives, which report it
_TOKEN = re.compile(r"\(\s*([^()\s]+)\s+([^()\s]+)\s*\)|\(\s*([^()\s]+)|[()]|[^()\s]+")


def parse_bracketed(text: str) -> list[Tree]:
    """Parse one or more bracketed trees from ``text``, as written.

    A node written without a label, ``( ... )``, is unwrapped to its single
    child (the usual treebank file convention for the outermost bracket).
    Raises :class:`TreebankError` with a byte offset on malformed input.
    """
    return _read(text, Leaf, NaryTree)


def read_treebank(text: str) -> list[Tree | None]:
    """``[preprocess(tree) for tree in parse_bracketed(text)]`` without the
    raw trees, ``None`` where preprocessing empties a tree. The errors are
    :func:`parse_bracketed`'s, counting children as written."""
    return _read(text, _clean_leaf, _clean_node)


def read_sentences(text: str) -> list[tuple[tuple[str, ...], tuple[str, ...]] | None]:
    """The ``(words, tags)`` of each tree :func:`read_treebank` reads, its
    non-``-NONE-`` leaves in text order, without building the trees;
    ``None`` where preprocessing empties a tree. The errors are
    :func:`read_treebank`'s."""
    words: list[str] = []
    tags: list[str] = []

    def leaf(word: str, tag: str) -> int | None:
        if tag == NONE_TAG:
            return None
        words.append(word)
        tags.append(tag)
        return len(words) - 1

    # a node, and so a tree, reads as the index of its first kept leaf, or
    # None; a kept tree's leaves end where the next kept tree's start
    starts = _read(text, leaf, lambda label, kept: kept[0] if kept else None)
    sentences: list = [None] * len(starts)
    end = len(words)
    for number in reversed(range(len(starts))):
        if (start := starts[number]) is not None:
            sentences[number] = (tuple(words[start:end]), tuple(tags[start:end]))
            end = start
    return sentences


def _read(text: str, leaf, node) -> list:
    """The trees of ``text``, built by ``leaf(word, tag)`` and ``node(label,
    children)``; either may return ``None`` to drop what it was given."""
    trees: list = []
    # open nodes: [label-or-None, start offset, children, holds a token,
    # count of children dropped]
    stack: list[list] = []
    # a preterminal's whole text maps to its (word, tag), and a label to its
    # interned string, so a repeated one costs one lookup (a sys.intern call
    # per node raised the peak memory of repeated reads in one process); the
    # tables die with the call
    pairs: dict[str, tuple[str, str]] = {}
    labels: dict[str, str] = {}
    for match in _TOKEN.finditer(text):
        if (group := match.lastindex) == 2:
            pair = pairs.get(tok := match.group())
            if pair is None:
                tag, word = match.group(1, 2)
                word, tag = intern(word), intern(tag)
                pair = pairs[tok] = (word, tag)
            item = leaf(*pair)
        elif group:
            if (label := labels.get(tok := match.group(3))) is None:
                label = labels[tok] = intern(tok)
            stack.append([label, match.start(), [], False, 0])
            continue
        elif (tok := match.group()) == "(":
            stack.append([None, match.start(), [], False, 0])
            continue
        elif tok != ")":
            if not stack:
                raise TreebankError(f"token '{tok}' outside any tree", match.start())
            top = stack[-1]
            top[2].append(tok)
            top[3] = True
            continue
        elif not stack:
            raise TreebankError("unbalanced ')'", match.start())
        else:
            label, start, children, holds_token, dropped = stack.pop()
            if label is None:
                if len(children) + dropped != 1:
                    raise TreebankError(
                        f"unlabeled node with {len(children) + dropped} children", start
                    )
                item = children[0] if children else None
            elif not children and not dropped:
                raise TreebankError(f"node '{label}' has no children or token", start)
            elif holds_token:
                # a one-token preterminal never gets here: it matched whole
                if not dropped and all(isinstance(c, str) for c in children):
                    raise TreebankError(
                        f"preterminal '{label}' with multiple tokens", start
                    )
                raise TreebankError(f"node '{label}' mixes tokens and subtrees", start)
            else:
                item = node(label, children)
        if not stack:
            trees.append(item)
        elif item is not None:
            stack[-1][2].append(item)
        else:
            stack[-1][4] += 1
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
    not at position 0, interned as the reader's labels are. A label of the
    form ``-X-`` with no ``-`` or ``=`` inside (``-LRB-``, ``-NONE-``) is
    kept whole."""
    if "-" not in label and "=" not in label:  # most labels carry none
        return label
    if _BRACKET_LABEL.fullmatch(label):
        return label
    for i, ch in enumerate(label):
        if i > 0 and ch in "-=":
            return intern(label[:i])
    return label


def _clean_leaf(word: str, tag: str) -> Leaf | None:
    """Preprocessing drops an empty element."""
    return None if tag == NONE_TAG else Leaf(word, tag)


def _clean_node(label: str, kept: list[Tree]) -> NaryTree | None:
    """Preprocessing drops a node left with no children and strips the
    function tag of the rest."""
    return NaryTree(strip_function_tag(label), kept) if kept else None


def preprocess(tree: Tree) -> Tree | None:
    """A cleaned copy of ``tree``: ``-NONE-`` leaves dropped, then every
    node left with no children, and function tags stripped from the
    labels of the rest. Returns ``None`` if nothing survives. Walks with
    an explicit stack, so any depth works. :func:`read_treebank` applies
    the same rule while it reads."""
    if isinstance(tree, Leaf):
        return _clean_leaf(tree.word, tree.tag)
    cleaned: list[Tree] = []
    clean_leaf, clean_node = _clean_leaf, _clean_node  # local: called per node
    # open nodes: (label, unvisited children, kept children, parent's kept)
    stack = [(tree.label, iter(tree.children), [], cleaned)]
    while stack:
        label, children, kept, siblings = stack[-1]
        for child in children:
            if type(child) is Leaf:
                item = clean_leaf(child.word, child.tag)
                if item is not None:
                    kept.append(item)
            else:
                stack.append((child.label, iter(child.children), [], kept))
                break
        else:
            stack.pop()
            item = clean_node(label, kept)
            if item is not None:
                siblings.append(item)
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
