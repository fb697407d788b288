"""Encoding parse trees as per-split score vectors and back.

A sentence of ``n`` words has ``n - 1`` split points. :func:`encode` maps a
binary tree to one real score per split point (the height of the internal
node sitting over that split, collected left to right) plus the node and
word labels; :func:`encode_tree` gives the same tuple for an n-ary tree.
:func:`decode_tree` rebuilds the n-ary tree by recursively splitting at
the highest-scoring point of each span; only the *ranking* of the scores
matters, so any vector ordering the splits the same way yields the same
tree; :func:`decode` builds the binary tree, which exists only for it and
:func:`~distparse.binarize.binarize`. ``debinarize(b)`` is
``decode_tree(encode(b))``.

Three decoder engines are provided. They return identical trees on all
inputs, ties included (the leftmost maximum wins, see :func:`root_split`):

- ``scan``: argmax by linear scan per span; quadratic on comb-shaped input.
- ``rmq``: argmax via a precomputed sparse table; O(n log n) worst case.
- ``stack``: bottom-up monotonic-stack construction; linear time.

:func:`decode_tree` runs ``stack``, the fastest; :func:`decode` takes any
engine by name, which is how they are compared.

A :class:`DistanceTuple` makes its scores floats once, when it is built,
so the engines and :func:`to_json_line` read them as they are.

Tuples and tables are immutable once built, and the left/right subranges
of a split never interact, so spans could be decoded concurrently; the
engines here are sequential.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .binarize import EMPTY_LABEL, BinaryTree, Internal, StructureError, Terminal
from .binarize import read_tree, split_chain
from .trees import BREAKS_TOKEN, Leaf, NaryTree, Tree, token_problem

@dataclass(frozen=True)
class DistanceTuple:
    """The per-sentence encoding: words, tags, and word unary labels (one
    per word) plus split scores and split labels (one per split point).
    The scores may be any real numbers, and are held as Python floats.
    Building one raises ``ValueError`` for a word or tag that a bracketed
    tree cannot hold (empty, or with whitespace or a parenthesis), and for
    a score that is not a number, is not finite (no ranking of NaN is
    meaningful) or that no float holds exactly (``2**53 + 1`` would round
    into a tie, ``10**400`` overflow). :func:`decode_tree` checks the labels."""

    words: tuple[str, ...]
    tags: tuple[str, ...]
    unary_labels: tuple[str, ...]
    distances: tuple[float, ...]
    split_labels: tuple[str, ...]

    def __post_init__(self):
        n = len(self.words)
        if n < 1:
            raise ValueError("a tuple must cover at least one word")
        if len(self.tags) != n or len(self.unary_labels) != n:
            raise ValueError(
                f"words/tags/unary_labels lengths differ: "
                f"{n}/{len(self.tags)}/{len(self.unary_labels)}"
            )
        if len(self.distances) != n - 1 or len(self.split_labels) != n - 1:
            raise ValueError(
                f"expected {n - 1} distances and split labels for {n} words, "
                f"got {len(self.distances)}/{len(self.split_labels)}"
            )
        # one search of all the words and tags; only a failure reads them again
        tokens = self.words + self.tags
        if "" in tokens or BREAKS_TOKEN.search("".join(tokens)) is not None:
            index = next(i for i, tok in enumerate(tokens) if token_problem(tok))
            field, item = divmod(index, n)
            raise ValueError(
                f"field {('words', 'tags')[field]!r} item {item} "
                f"{token_problem(tokens[index])}: {tokens[index]!r}"
            )
        # one conversion and one compare of all the distances; only a
        # failure reads them again
        given = tuple(self.distances)
        try:
            distances = tuple(map(float, given))
        except (OverflowError, TypeError, ValueError):  # checked one by one below
            distances = None
        if distances != given or not all(map(math.isfinite, distances)):
            index = next(i for i, d in enumerate(given) if _distance_problem(d))
            raise ValueError(f"distance {index} {_distance_problem(given[index])}")
        object.__setattr__(self, "distances", distances)

    def __len__(self) -> int:
        return len(self.words)


def _distance_problem(d) -> str | None:
    """Why ``d`` cannot be a split score, or None if it can."""
    if isinstance(d, str):  # float() would read it
        return f"is {d!r}, not a number"
    try:
        value = float(d)
    except OverflowError:
        return "is an integer too large for a float"
    except TypeError:
        return f"is {d!r}, not a number"
    if not math.isfinite(value):
        return f"is {value}, scores must be finite"
    return None if value == d else f"is {d!r}, no float holds it exactly"


def encode(tree: BinaryTree) -> DistanceTuple:
    """Encode a binary tree as a :class:`DistanceTuple`.

    The score at each split point is the height of the internal node over
    it: leaves have height 0, every internal node is one above its taller
    child. Within any span the maximum is then unique, so decoding is exact.
    One in-order walk collects the labels and the heights together.
    """
    words, tags, unary, distances, split_labels = [], [], [], [], []
    heights: list[float] = []  # of the finished subtrees, innermost last
    # In-order: a node comes back as its label after its left subtree and
    # reserves the next distance slot under its right subtree; the slot
    # comes back after the right subtree and takes the node's height.
    work: list = [tree]
    while work:
        item = work.pop()
        if isinstance(item, Internal):
            work += (item.right, item.label, item.left)
        elif isinstance(item, Terminal):
            words.append(item.word)
            tags.append(item.tag)
            unary.append(item.unary_label)
            heights.append(0.0)
        elif isinstance(item, str):
            split_labels.append(item)
            work.insert(-1, len(distances))
            distances.append(0.0)
        else:
            right = heights.pop()
            heights[-1] = distances[item] = max(heights[-1], right) + 1.0
    return DistanceTuple(*map(tuple, (words, tags, unary, distances, split_labels)))


def encode_tree(tree: Tree) -> DistanceTuple:
    """``encode(binarize(tree))`` of an n-ary tree, read off it by
    :func:`~distparse.binarize.read_tree` without building the binary tree;
    raises the first label error in pre-order, as ``binarize`` does."""
    reading = read_tree(tree)
    columns = reading.words, reading.tags, reading.unary_labels, reading.distances
    return DistanceTuple(*map(tuple, columns), tuple(reading.split_labels))


class SparseTable:
    """Range-argmax over a fixed score vector: O(n log n) build, O(1) query.

    Queries return the *leftmost* index of the maximum, matching the
    decoder's tie-breaking. Level ``k`` stores the argmax of every window
    of width ``2**k``; levels are kept as compact int arrays since they
    dominate the table's footprint.
    """

    def __init__(self, values: Sequence[float]):
        self._values = [float(v) for v in values]
        n = len(self._values)
        self._levels: list[array] = []
        scores = np.asarray(self._values, dtype=np.float64)
        level = np.arange(n, dtype=np.int32)
        self._levels.append(_compact(level))
        width = 1
        while 2 * width <= n:
            left = level[: n - 2 * width + 1]
            right = level[width : n - width + 1]
            level = np.where(scores[left] >= scores[right], left, right)
            self._levels.append(_compact(level))
            width *= 2

    def argmax(self, lo: int, hi: int) -> int:
        """Leftmost index of the maximum of ``values[lo:hi]``."""
        if not 0 <= lo < hi <= len(self._values):
            raise ValueError(f"empty or out-of-range query [{lo}, {hi})")
        k = (hi - lo).bit_length() - 1
        level = self._levels[k]
        a = level[lo]
        b = level[hi - (1 << k)]
        return a if self._values[a] >= self._values[b] else b


# an array typecode whose itemsize matches int32 on this platform
_INDEX_TYPECODE = next(tc for tc in ("i", "l", "q") if array(tc).itemsize == 4)


def _compact(level: np.ndarray) -> array:
    out = array(_INDEX_TYPECODE)
    out.frombytes(level.astype(np.int32).tobytes())
    return out


def _top_down(
    n_splits: int, left: list[int], right: list[int], argmax: Callable[[int, int], int]
) -> int:
    """Recursive splitting at the highest-scoring point, realized with an
    explicit span stack so comb-shaped trees cannot exhaust the call stack.

    A span of split indices ``[lo, hi)`` covers words ``lo..hi`` inclusive;
    an empty span is a single word, which its slot already holds.
    """
    root = [~0]
    pending = [(0, n_splits, root, 0)]
    while pending:
        lo, hi, slots, at = pending.pop()
        if lo < hi:
            i = slots[at] = argmax(lo, hi)
            pending += ((i + 1, hi, right, i), (lo, i, left, i))
    return root[0]


def _scan(distances: Sequence[float], left: list[int], right: list[int]) -> int:
    """Reference engine: a plain scalar argmax scan over each span.

    Deliberately unoptimized; its worst case (comb-shaped trees) is
    quadratic in the number of comparisons, which the benchmark relies on.
    """
    def argmax(lo: int, hi: int) -> int:
        best = distances[lo]
        best_index = lo
        for k in range(lo + 1, hi):
            v = distances[k]
            if v > best:
                best = v
                best_index = k
        return best_index

    return _top_down(len(distances), left, right, argmax)


def _rmq(distances: Sequence[float], left: list[int], right: list[int]) -> int:
    """Engine backed by the sparse range-argmax table."""
    return _top_down(len(distances), left, right, SparseTable(distances).argmax)


def _stack(distances: Sequence[float], left: list[int], right: list[int]) -> int:
    """Bottom-up linear-time engine.

    Split points are folded left to right with a stack holding the current
    rightmost root-path in non-increasing score order; popping only strictly
    smaller scores makes the leftmost of equal maxima the ancestor, matching
    the top-down engines.
    """
    stack: list[tuple[float, int]] = []
    for i, value in enumerate(distances):
        while stack and stack[-1][0] < value:
            left[i] = stack.pop()[1]
        if stack:
            right[stack[-1][1]] = i
        stack.append((value, i))
    return stack[0][1] if stack else ~0


_ENGINES = {"scan": _scan, "rmq": _rmq, "stack": _stack}
ENGINES = tuple(_ENGINES)


def root_split(distances: Sequence[float]) -> int:
    """The split every engine roots at, given a tuple's distances: the
    leftmost maximum, or word ``~0``."""
    return distances.index(max(distances)) if distances else ~0


def _child_indices(tup: DistanceTuple, engine: str) -> tuple[int, list, list]:
    """The form every engine decodes to: the root, and for each split ``i``
    its children ``left[i]`` and ``right[i]``, each a split index or ``~k``
    for word ``k``. A slot starts out holding the only word it can hold,
    word ``i`` or ``i + 1``; the engine fills the rest and returns the root."""
    if engine not in _ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    n = len(tup.words)  # ~i is -i - 1
    left, right = list(range(-1, -n, -1)), list(range(-2, -n - 1, -1))
    return _ENGINES[engine](tup.distances, left, right), left, right


def decode(tup: DistanceTuple, engine: str = "stack") -> BinaryTree:
    """Rebuild the binary tree whose split ranking matches ``tup``.

    Any real score vector decodes to some tree; scores need not be integers
    or distinct. Equal scores within a span split at the leftmost maximum.
    """
    root, left, right = _child_indices(tup, engine)
    nodes: list = [Internal(label, None, None) for label in tup.split_labels]
    # the words follow in reverse, so that nodes[~k] is word k
    nodes += reversed([*map(Terminal, tup.words, tup.tags, tup.unary_labels)])
    for node, left_child, right_child in zip(nodes, left, right):
        node.left = nodes[left_child]
        node.right = nodes[right_child]
    return nodes[root]


def decode_tree(tup: DistanceTuple, chains: dict[str, list[str]] | None = None) -> Tree:
    """The n-ary tree of the binary tree :func:`decode` gives, built
    without it: empty-labeled splits are spliced out and collapsed chains
    expanded, with the ``stack`` engine. Raises
    :class:`~distparse.binarize.StructureError` if the root split is
    empty-labeled (there is no parent to splice its children into), and
    :class:`~distparse.binarize.LabelError` for the first chain label, in
    pre-order, that binarize rejects.

    ``chains`` maps each chain label split so far to its labels, bottom
    first; the decodes of one command share it, so each distinct label is
    split once. A label :func:`~distparse.binarize.split_chain` rejects
    never enters it, so it raises at its own node in every tuple."""
    if chains is None:
        chains = {}
    root, left, right = _child_indices(tup, "stack")
    words, tags, unary, labels = tup.words, tup.tags, tup.unary_labels, tup.split_labels
    if root >= 0 and labels[root] == EMPTY_LABEL:
        raise StructureError("root carries the empty label")
    found: list[Tree] = []
    # Pre-order: each split appends its constituent to the child list it
    # belongs to, and an empty-labeled split lends its own list to its
    # children, which splices it out. The loop walks down each left spine
    # while the right children wait on the stack, so a left subtree is
    # appended whole before its right sibling.
    work: list[tuple[int, list[Tree]]] = [(root, found)]
    while work:
        index, siblings = work.pop()
        while index >= 0:
            if labels[index] != EMPTY_LABEL:
                children: list[Tree] = []
                siblings.append(_expand_chain(labels[index], children, chains))
                siblings = children
            work.append((right[index], siblings))
            index = left[index]
        leaf, chain = Leaf(words[~index], tags[~index]), unary[~index]
        siblings.append(
            leaf if chain == EMPTY_LABEL else _expand_chain(chain, [leaf], chains)
        )
    return found[0]


def _expand_chain(label: str, children: list[Tree], chains: dict) -> NaryTree:
    labels = chains.get(label)
    if labels is None:
        labels = chains[label] = split_chain(label)[::-1]  # bottom first
    node = children
    for lab in labels:
        node = [NaryTree(lab, node)]
    return node[0]


def binary_trees_equal(a: BinaryTree, b: BinaryTree) -> bool:
    """Structural equality without recursion (safe for very deep trees)."""
    work = [(a, b)]
    while work:
        x, y = work.pop()
        if isinstance(x, Terminal):
            if not isinstance(y, Terminal) or (x.word, x.tag, x.unary_label) != (
                y.word,
                y.tag,
                y.unary_label,
            ):
                return False
        else:
            if not isinstance(y, Internal) or x.label != y.label:
                return False
            work.append((x.left, y.left))
            work.append((x.right, y.right))
    return True


# one encoder for every line: ``json.dumps`` with an option builds a new one
# per call
_JSON_ENCODER = json.JSONEncoder(ensure_ascii=False)


def to_json_line(tup: DistanceTuple) -> str:
    """One-line JSON interchange record for a tuple."""
    return _JSON_ENCODER.encode(
        {
            "words": tup.words,
            "tags": tup.tags,
            "unary_labels": tup.unary_labels,
            "distances": tup.distances,
            "split_labels": tup.split_labels,
        }
    )


_STRING = frozenset({str})
_NUMBER = frozenset({int, float})  # not bool, which JSON keeps apart
_JSON_KIND = {
    str: "a string",
    int: "a number",
    float: "a number",
    bool: "a boolean",
    list: "a list",
    dict: "an object",
    type(None): "null",
}


def _list_field(record: dict, name: str, allowed: frozenset, kind: str) -> list:
    """``record[name]``, checked to be a list of elements of the allowed
    types (``kind`` names them for the error message)."""
    try:
        values = record[name]
    except KeyError:
        raise ValueError(f"record is missing field {name!r}")
    if type(values) is not list:
        raise ValueError(
            f"field {name!r} must be a list of {kind}, not {_JSON_KIND[type(values)]}"
        )
    if not allowed.issuperset(map(type, values)):
        index = next(i for i, v in enumerate(values) if type(v) not in allowed)
        raise ValueError(
            f"field {name!r} must be a list of {kind}, "
            f"but item {index} is {_JSON_KIND[type(values[index])]}"
        )
    return values


def from_json_line(line: str) -> DistanceTuple:
    """Parse one interchange record; raises ValueError on malformed input:
    a line that is not JSON or nests too deeply to read, a missing field,
    a field that is not a list of the right element type (numbers for
    ``distances``, strings for the rest). :class:`DistanceTuple` checks
    the words, tags and distances, and makes the distances floats."""
    try:
        record = json.loads(line)
    except RecursionError:
        raise ValueError("JSON nests too deeply to read") from None
    if not isinstance(record, dict):
        raise ValueError("record is not a JSON object")
    words = _list_field(record, "words", _STRING, "strings")
    tags = _list_field(record, "tags", _STRING, "strings")
    unary_labels = _list_field(record, "unary_labels", _STRING, "strings")
    distances = _list_field(record, "distances", _NUMBER, "numbers")
    split_labels = _list_field(record, "split_labels", _STRING, "strings")
    columns = (words, tags, unary_labels, distances, split_labels)
    return DistanceTuple(*map(tuple, columns))
