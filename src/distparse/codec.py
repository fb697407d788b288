"""Encoding binary parse trees as per-split score vectors and back.

A sentence of ``n`` words has ``n - 1`` split points. :func:`encode` maps a
binary tree to one real score per split point (the height of the internal
node sitting over that split, collected left to right) plus the node and
word labels. :func:`decode` rebuilds the tree by recursively splitting at
the highest-scoring point of each span; only the *ranking* of the scores
matters, so any vector ordering the splits the same way yields the same
tree.

Three decoder engines are provided. They return identical trees on all
inputs, ties included (ties break toward the leftmost maximum):

- ``scan``: argmax by linear scan per span; quadratic on comb-shaped input.
- ``rmq``: argmax via a precomputed sparse table; O(n log n) worst case.
- ``stack``: bottom-up monotonic-stack construction; linear time.

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

from .binarize import BinaryTree, Internal, Terminal
from .trees import BREAKS_TOKEN, token_problem

@dataclass(frozen=True)
class DistanceTuple:
    """The per-sentence encoding: words, tags, and word unary labels (one
    per word) plus split scores and split labels (one per split point).
    Split scores must be finite: no ranking of NaN is meaningful, and the
    engines would each read one differently."""

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
        if not all(map(math.isfinite, self.distances)):
            index = next(
                i for i, d in enumerate(self.distances) if not math.isfinite(d)
            )
            raise ValueError(
                f"distance {index} is {self.distances[index]}, scores must be finite"
            )

    def __len__(self) -> int:
        return len(self.words)


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
    return DistanceTuple(
        tuple(words), tuple(tags), tuple(unary), tuple(distances), tuple(split_labels)
    )


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
        if n == 0:
            return
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

    def __len__(self) -> int:
        return len(self._values)

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


def _decode_top_down(
    tup: DistanceTuple, argmax: Callable[[int, int], int]
) -> BinaryTree:
    """Recursive splitting at the highest-scoring point, realized with an
    explicit span stack so comb-shaped trees cannot exhaust the call stack.

    A span of split indices ``[lo, hi)`` covers words ``lo..hi`` inclusive;
    an empty span is a single word.
    """
    words, tags, unary = tup.words, tup.tags, tup.unary_labels
    labels = tup.split_labels
    n = len(words)
    if n == 1:
        return Terminal(words[0], tags[0], unary[0])
    holder = Internal("", None, None)
    pending = [(0, n - 1, holder, True)]
    while pending:
        lo, hi, parent, is_left = pending.pop()
        if lo == hi:
            node: BinaryTree = Terminal(words[lo], tags[lo], unary[lo])
        else:
            i = argmax(lo, hi)
            node = Internal(labels[i], None, None)
            pending.append((i + 1, hi, node, False))
            pending.append((lo, i, node, True))
        if is_left:
            parent.left = node
        else:
            parent.right = node
    return holder.left


def decode_scan(tup: DistanceTuple) -> BinaryTree:
    """Reference decoder: a plain scalar argmax scan over each span.

    Deliberately unoptimized; its worst case (comb-shaped trees) is
    quadratic in the number of comparisons, which the benchmark relies on.
    """
    values = [float(d) for d in tup.distances]

    def argmax(lo: int, hi: int) -> int:
        best = values[lo]
        best_index = lo
        for k in range(lo + 1, hi):
            v = values[k]
            if v > best:
                best = v
                best_index = k
        return best_index

    return _decode_top_down(tup, argmax)


def decode_rmq(tup: DistanceTuple) -> BinaryTree:
    """Decoder backed by the sparse range-argmax table."""
    return _decode_top_down(tup, SparseTable(tup.distances).argmax)


def decode_stack(tup: DistanceTuple) -> BinaryTree:
    """Bottom-up linear-time decoder.

    Split points are folded left to right with a stack holding the current
    rightmost root-path in non-increasing score order; popping only strictly
    smaller scores makes the leftmost of equal maxima the ancestor, matching
    the top-down engines. The node for split ``i`` sits between words ``i``
    and ``i + 1``, so any child slot left open is filled by the adjacent
    word.
    """
    words, tags, unary = tup.words, tup.tags, tup.unary_labels
    n = len(words)
    if n == 1:
        return Terminal(words[0], tags[0], unary[0])
    labels = tup.split_labels
    nodes: list[Internal] = []
    stack: list[tuple[float, Internal]] = []
    for i in range(n - 1):
        value = float(tup.distances[i])
        node = Internal(labels[i], None, None)
        last: Internal | None = None
        while stack and stack[-1][0] < value:
            last = stack.pop()[1]
        node.left = last
        if stack:
            stack[-1][1].right = node
        stack.append((value, node))
        nodes.append(node)
    for i, node in enumerate(nodes):
        if node.left is None:
            node.left = Terminal(words[i], tags[i], unary[i])
        if node.right is None:
            node.right = Terminal(words[i + 1], tags[i + 1], unary[i + 1])
    return stack[0][1]


_DECODERS = {"scan": decode_scan, "rmq": decode_rmq, "stack": decode_stack}
ENGINES = tuple(_DECODERS)


def decoder_for(engine: str) -> Callable[[DistanceTuple], BinaryTree]:
    try:
        return _DECODERS[engine]
    except KeyError:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")


def decode(tup: DistanceTuple, engine: str = "stack") -> BinaryTree:
    """Rebuild the binary tree whose split ranking matches ``tup``.

    Any real score vector decodes to some tree; scores need not be integers
    or distinct. Equal scores within a span split at the leftmost maximum.
    """
    return decoder_for(engine)(tup)


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


def to_json_line(tup: DistanceTuple) -> str:
    """One-line JSON interchange record for a tuple."""
    return json.dumps(
        {
            "words": list(tup.words),
            "tags": list(tup.tags),
            "unary_labels": list(tup.unary_labels),
            "distances": [float(d) for d in tup.distances],
            "split_labels": list(tup.split_labels),
        },
        ensure_ascii=False,
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


def _token_field(record: dict, name: str) -> list[str]:
    """``record[name]``, checked to be a list of strings that a bracketed
    tree can hold as words or tags. One search of their join finds whether
    any token holds whitespace or a parenthesis."""
    values = _list_field(record, name, _STRING, "strings")
    if "" in values or BREAKS_TOKEN.search("".join(values)) is not None:
        index = next(i for i, value in enumerate(values) if token_problem(value))
        raise ValueError(
            f"field {name!r} item {index} {token_problem(values[index])}: "
            f"{values[index]!r}"
        )
    return values


def from_json_line(line: str) -> DistanceTuple:
    """Parse one interchange record; raises ValueError on malformed input:
    a missing field, a field that is not a list of the right element type
    (numbers for ``distances``, strings for the rest), a word or tag that
    a bracketed tree cannot hold (empty, or with whitespace or a
    parenthesis), or a non-finite distance. Labels are checked where they
    are read back, by :func:`~distparse.binarize.debinarize`."""
    record = json.loads(line)
    if not isinstance(record, dict):
        raise ValueError("record is not a JSON object")
    words = _token_field(record, "words")
    tags = _token_field(record, "tags")
    unary_labels = _list_field(record, "unary_labels", _STRING, "strings")
    distances = _list_field(record, "distances", _NUMBER, "numbers")
    split_labels = _list_field(record, "split_labels", _STRING, "strings")
    try:
        distances = tuple(map(float, distances))
    except OverflowError:
        raise ValueError("field 'distances' holds an integer too large for a float")
    return DistanceTuple(
        tuple(words), tuple(tags), tuple(unary_labels), distances, tuple(split_labels)
    )
