"""Conversion between n-ary treebank trees and strictly binary trees.

Binarization is reversible: unary chains collapse into ``+``-joined atomic
labels, nodes introduced while splitting n-ary constituents are labeled
with the empty label, and a unary chain that bottoms out at a single word
is stored on that word's terminal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .trees import Leaf, NaryTree, Tree

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


def _check_label(label: str) -> str:
    if CHAIN_SEPARATOR in label:
        raise LabelError(
            f"label {label!r} contains the chain separator {CHAIN_SEPARATOR!r}"
        )
    if label == EMPTY_LABEL:
        raise LabelError(f"label {label!r} collides with the empty-label marker")
    if not label:
        raise LabelError("empty nonterminal label")
    return label


def _collapse_chain(node: NaryTree) -> tuple[str, NaryTree | Leaf]:
    """Walk down a maximal unary chain, returning the joined label and the
    node the chain bottoms out at (a leaf, or a node with >=2 children)."""
    labels = [_check_label(node.label)]
    current: Tree = node
    while True:
        assert isinstance(current, NaryTree)
        if len(current.children) != 1:
            return CHAIN_SEPARATOR.join(labels), current
        child = current.children[0]
        if isinstance(child, Leaf):
            return CHAIN_SEPARATOR.join(labels), child
        labels.append(_check_label(child.label))
        current = child


def binarize(tree: Tree) -> BinaryTree:
    """Convert an n-ary tree into an equivalent strictly binary tree.

    Nodes with more than two children are split after their first child,
    repeatedly; every introduced node gets the empty label and the original
    label stays on top. Built top-down, in pre-order, left to right; raises
    :class:`LabelError` for the first label that cannot be encoded
    reversibly.
    """
    holder = Internal(EMPTY_LABEL, None, None)
    # (n-ary subtree, binary parent, fills the parent's left slot)
    work: list[tuple[Tree, Internal, bool]] = [(tree, holder, True)]
    while work:
        node, parent, is_left = work.pop()
        if isinstance(node, Leaf):
            binary: BinaryTree = Terminal(node.word, node.tag)
        else:
            chain, bottom = _collapse_chain(node)
            if isinstance(bottom, Leaf):
                binary = Terminal(bottom.word, bottom.tag, chain)
            else:
                # the labeled node over a right comb of empty-labeled ones,
                # each child queued for the slot it fills
                children = bottom.children
                binary = slot = Internal(chain, None, None)
                queued = [(children[0], slot, True)]
                for child in children[1:-1]:
                    slot.right = Internal(EMPTY_LABEL, None, None)
                    slot = slot.right
                    queued.append((child, slot, True))
                queued.append((children[-1], slot, False))
                queued.reverse()  # so the first child comes off first
                work += queued
        if is_left:
            parent.left = binary
        else:
            parent.right = binary
    return holder.left


def split_chain(label: str) -> list[str]:
    """The labels of a collapsed unary chain, top first. Raises
    :class:`LabelError` if one is not a label :func:`binarize` accepts."""
    return [_check_label(part) for part in label.split(CHAIN_SEPARATOR)]


def _expand_chain(label: str, children: list[Tree]) -> NaryTree:
    labels = split_chain(label)
    node = NaryTree(labels[-1], children)
    for lab in reversed(labels[:-1]):
        node = NaryTree(lab, [node])
    return node


def debinarize(tree: BinaryTree) -> Tree:
    """Invert :func:`binarize`: splice out empty-labeled nodes and expand
    collapsed chains. Raises :class:`StructureError` if the root itself is
    empty-labeled (there is no parent to splice its children into), and
    :class:`LabelError` for a chain label that :func:`binarize` rejects."""
    if isinstance(tree, Internal) and tree.label == EMPTY_LABEL:
        raise StructureError("root carries the empty label")
    found: list[Tree] = []
    # Pre-order: each node appends itself to the child list it belongs to,
    # and an empty-labeled node lends its own list to its children, which
    # splices it out. The loop walks down each left spine while the right
    # children wait on the stack, so a left subtree is appended whole
    # before its right sibling.
    work: list[tuple[BinaryTree, list[Tree]]] = [(tree, found)]
    while work:
        node, siblings = work.pop()
        while isinstance(node, Internal):
            if node.label != EMPTY_LABEL:
                children: list[Tree] = []
                siblings.append(_expand_chain(node.label, children))
                siblings = children
            work.append((node.right, siblings))
            node = node.left
        leaf = Leaf(node.word, node.tag)
        if node.unary_label == EMPTY_LABEL:
            siblings.append(leaf)
        else:
            siblings.append(_expand_chain(node.unary_label, [leaf]))
    return found[0]
