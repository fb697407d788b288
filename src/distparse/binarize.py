"""Conversion between n-ary treebank trees and strictly binary trees.

Binarization is reversible: unary chains collapse into ``+``-joined atomic
labels, nodes introduced while splitting n-ary constituents are labeled
with the empty label, and a unary chain that bottoms out at a single word
is stored on that word's terminal. One walk, :func:`read_tree`, states
this rule and gives each split its score; :func:`binarize` decodes those
scores, and :func:`debinarize` is :func:`~distparse.codec.decode_tree`
of the tree's own scores, the way every tuple goes back to an n-ary tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Union

from .trees import BREAKS_TOKEN, Leaf, Tree, token_problem

EMPTY_LABEL = "∅"  # ∅, marks spans that are not real constituents
CHAIN_SEPARATOR = "+"


class LabelError(ValueError):
    """A nonterminal label that cannot be encoded reversibly."""


class StructureError(ValueError):
    """A binary tree that does not map back to an n-ary tree."""


@dataclass(slots=True)
class Terminal:
    """A word with its POS tag and the label of the unary chain directly
    above it (:data:`EMPTY_LABEL` when there is no such chain)."""

    word: str
    tag: str
    unary_label: str = EMPTY_LABEL


@dataclass(slots=True)
class Internal:
    """A binary constituent. ``label`` may be :data:`EMPTY_LABEL` or a
    collapsed chain such as ``S+VP``."""

    label: str
    left: "BinaryTree"
    right: "BinaryTree"


BinaryTree = Union[Internal, Terminal]


def check_label(label: str) -> str:
    """``label`` if binarize can encode it reversibly and a bracketed tree
    can hold it; raises :class:`LabelError` otherwise."""
    if label.isalpha():  # letters only, as most labels are: no test can fail
        return label
    if CHAIN_SEPARATOR in label:
        raise LabelError(
            f"label {label!r} contains the chain separator {CHAIN_SEPARATOR!r}"
        )
    if label == EMPTY_LABEL:
        raise LabelError(f"label {label!r} collides with the empty-label marker")
    if not label:
        raise LabelError("empty nonterminal label")
    if BREAKS_TOKEN.search(label) is not None:
        raise LabelError(f"label {label!r} {token_problem(label)}")
    return label


class TreeReading(NamedTuple):
    """What one walk of :func:`read_tree` reads of an n-ary tree."""

    words: list[str]
    tags: list[str]
    # each maximal unary chain of internal nodes as (its labels, top first;
    # start; end exclusive), in the order the chains close
    constituents: list[tuple[list[str], int, int]]
    # the labels binarization puts on the terminals (one per word) and on
    # the split points (one per split), and the scores of the splits, in
    # the order a DistanceTuple lists them
    unary_labels: list[str]
    split_labels: list[str]
    distances: list[float]


def read_tree(tree: Tree) -> TreeReading:
    """Read a tree's words, tags, constituents, labels and split scores in
    one iterative pre-order walk.

    A maximal unary chain is joined with ``+``. A node with several
    children splits after each child but the last, on a right comb: its
    first split carries the node's chain label and every later one ``∅``.
    A chain that ends on a word becomes that word's unary label. A word
    scores 0, and a split one above the taller of its left child and the
    comb to its right. Raises the :class:`LabelError` of the first label
    :func:`check_label` rejects, in pre-order, as :func:`binarize` does.
    Preterminals are not constituents; a bare-leaf tree therefore has
    none.
    """
    words: list[str] = []
    tags: list[str] = []
    unary: list[str] = []
    splits: list[str] = []
    distances: list[float] = []
    constituents: list[tuple[list[str], int, int]] = []
    # open constituents: [chain labels, start, unvisited children, label
    # of the split before the next child, indices of the splits so far]
    stack: list[list] = []
    node = tree
    while True:
        # read the unary chain down from node: it ends on a word or on a
        # node with several children
        chain = []
        while not isinstance(node, Leaf):
            chain.append(check_label(node.label))
            if len(node.children) != 1:
                children = iter(node.children)
                split = CHAIN_SEPARATOR.join(chain)
                stack.append([chain, len(words), children, split, []])
                node = next(children)
                break
            node = node.children[0]
        else:
            start = len(words)
            words.append(node.word)
            tags.append(node.tag)
            unary.append(CHAIN_SEPARATOR.join(chain) if chain else EMPTY_LABEL)
            height = 0.0
            # hand over the chain over the word, then close the finished
            # constituents up to the next unvisited child
            while True:
                if chain:
                    constituents.append((chain, start, len(words)))
                if not stack:
                    return TreeReading(
                        words, tags, constituents, unary, splits, distances
                    )
                top = stack[-1]
                node = next(top[2], None)
                if node is not None:
                    # the split's score waits for the comb to its right;
                    # until then its slot holds the height to its left
                    top[4].append(len(distances))
                    distances.append(height)
                    splits.append(top[3])
                    top[3] = EMPTY_LABEL
                    break
                stack.pop()
                chain, start, _, _, slots = top
                # right to left up the comb, from the last child's height
                for index in reversed(slots):
                    height = distances[index] = max(distances[index], height) + 1.0


def binarize(tree: Tree) -> BinaryTree:
    """Convert an n-ary tree into an equivalent strictly binary tree: the
    decode of the scores :func:`read_tree` gives it. Raises
    :class:`LabelError` for the first label, in pre-order, that cannot be
    encoded reversibly."""
    from .codec import decode, encode_tree  # codec imports this module

    return decode(encode_tree(tree))


def split_chain(label: str) -> list[str]:
    """The labels of a collapsed unary chain, top first. Raises
    :class:`LabelError` if one is not a label :func:`binarize` accepts,
    naming the whole chain if it has several parts."""
    parts = label.split(CHAIN_SEPARATOR)
    try:
        return [check_label(part) for part in parts]
    except LabelError as exc:
        if len(parts) == 1:
            raise
        raise LabelError(f"{exc} in chain {label!r}") from None


def debinarize(tree: BinaryTree) -> Tree:
    """Invert :func:`binarize`: ``decode_tree(encode(tree))``, which raises
    :class:`StructureError` if the root is empty-labeled and
    :class:`LabelError` for the first chain label binarize rejects."""
    from .codec import decode_tree, encode  # codec imports this module

    return decode_tree(encode(tree))
