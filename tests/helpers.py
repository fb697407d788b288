"""Shared random-structure generators for the test suite.

Everything takes an explicit ``numpy.random.Generator`` so tests stay
reproducible under fixed seeds.
"""

from __future__ import annotations

import numpy as np

from distparse.binarize import (
    CHAIN_SEPARATOR,
    EMPTY_LABEL,
    Internal,
    StructureError,
    Terminal,
)
from distparse.codec import DistanceTuple
from distparse.trees import Leaf, NaryTree, serialize_bracketed

LABELS = ("S", "NP", "VP", "PP", "ADJP", "SBAR", "X")
TAGS = ("DT", "NN", "VBZ", "JJ", "IN", "PRP")
UNARY_LABELS = (EMPTY_LABEL, "NP", "VP", "S+VP")

# malformed bracketed text -> (the TreebankError message, its offset); one
# or more cases per kind of error the reader reports
MALFORMED_TREEBANKS = {
    "(S (NN dog)))": ("unbalanced ')'", 12),
    "(S (NP (NN dog)) ))": ("unbalanced ')'", 18),
    "(NN dog))": ("unbalanced ')'", 8),
    "stray (NP (NN dog))": ("token 'stray' outside any tree", 0),
    "(NP (NN dog)) stray": ("token 'stray' outside any tree", 14),
    "((NP (NN a)) (VP (VB b)))": ("unlabeled node with 2 children", 0),
    "(S (NN dog)) ((NP (NN cat)) x)": ("unlabeled node with 2 children", 13),
    "()": ("unlabeled node with 0 children", 0),
    "(A)": ("node 'A' has no children or token", 0),
    "(NP (DT a)) (A)": ("node 'A' has no children or token", 12),
    "( word)": ("node 'word' has no children or token", 0),
    "(S (NN dog) word)": ("node 'S' mixes tokens and subtrees", 0),
    "(S word (NN dog))": ("node 'S' mixes tokens and subtrees", 0),
    "(TAG one two)": ("preterminal 'TAG' with multiple tokens", 0),
    "(NP (TAG one two))": ("preterminal 'TAG' with multiple tokens", 4),
    "(S (NP (NN dog))": ("unbalanced '(': input ended inside a tree", 16),
    "(NN dog": ("unbalanced '(': input ended inside a tree", 7),
}


def random_nary_tree(rng: np.random.Generator, n_leaves: int | None = None,
                     unary_prob: float = 0.25) -> NaryTree:
    """A random preprocessed-style n-ary tree with occasional unary chains
    and nodes of up to 4 children."""
    if n_leaves is None:
        n_leaves = int(rng.integers(1, 13))
    counter = [0]

    def leaf() -> Leaf:
        idx = counter[0]
        counter[0] += 1
        return Leaf(f"w{idx}", TAGS[rng.integers(len(TAGS))])

    def pick_label() -> str:
        return LABELS[rng.integers(len(LABELS))]

    def build(k: int, depth: int) -> NaryTree | Leaf:
        node: NaryTree | Leaf
        if k == 1:
            node = leaf()
            if rng.random() < unary_prob:
                for _ in range(int(rng.integers(1, 3))):
                    node = NaryTree(pick_label(), [node])
            return node
        parts = int(rng.integers(2, min(4, k) + 1))
        cuts = sorted(rng.choice(np.arange(1, k), size=parts - 1, replace=False))
        sizes = np.diff([0, *cuts, k])
        children = [build(int(size), depth + 1) for size in sizes]
        node = NaryTree(pick_label(), children)
        if depth > 0 and rng.random() < unary_prob:
            node = NaryTree(pick_label(), [node])
        return node

    tree = build(n_leaves, 0)
    if not isinstance(tree, NaryTree):
        tree = NaryTree(pick_label(), [tree])
    return tree


def random_binary_tree(rng: np.random.Generator, n_leaves: int) -> "Internal | Terminal":
    """A random labeled binary tree; internal labels may be the empty label
    or collapsed chains, like real binarizer output."""
    node_labels = ("S", "NP", "VP", EMPTY_LABEL, "S+VP", "X")

    def build(lo: int, hi: int):
        if hi - lo == 1:
            return Terminal(
                f"w{lo}",
                TAGS[rng.integers(len(TAGS))],
                UNARY_LABELS[rng.integers(len(UNARY_LABELS))],
            )
        split = int(rng.integers(lo + 1, hi))
        return Internal(
            node_labels[rng.integers(len(node_labels))],
            build(lo, split),
            build(split, hi),
        )

    return build(0, n_leaves)


def binary_shapes(n_leaves: int):
    """Every binary tree shape over ``n_leaves`` leaves, as nested tuples
    (None for a leaf). Catalan(n_leaves - 1) many."""
    if n_leaves == 1:
        yield None
        return
    for left_size in range(1, n_leaves):
        for left in binary_shapes(left_size):
            for right in binary_shapes(n_leaves - left_size):
                yield (left, right)


def materialize_shape(shape, label_offset: int = 0):
    """Turn a shape into a concrete labeled BinaryTree; labels cycle
    deterministically so distinct offsets give distinct labelings."""
    node_labels = ("S", "NP", "VP", EMPTY_LABEL)
    counter = [0]
    leaf_counter = [0]

    def build(node):
        if node is None:
            idx = leaf_counter[0]
            leaf_counter[0] += 1
            return Terminal(
                f"w{idx}",
                TAGS[(idx + label_offset) % len(TAGS)],
                UNARY_LABELS[(idx + label_offset) % len(UNARY_LABELS)],
            )
        left, right = node
        idx = counter[0]
        counter[0] += 1
        return Internal(
            node_labels[(idx + label_offset) % len(node_labels)],
            build(left),
            build(right),
        )

    return build(shape)


def random_tuple(rng: np.random.Generator, n_words: int) -> DistanceTuple:
    """A random decodable tuple; roughly half the score vectors are drawn
    from a small integer grid so ties are common."""
    if rng.random() < 0.5:
        distances = rng.integers(0, 4, size=n_words - 1).astype(float)
    else:
        distances = rng.uniform(-5.0, 5.0, size=n_words - 1)
    split_pool = ("S", "NP", "VP", EMPTY_LABEL)
    return DistanceTuple(
        words=tuple(f"w{i}" for i in range(n_words)),
        tags=tuple(TAGS[rng.integers(len(TAGS))] for _ in range(n_words)),
        unary_labels=tuple(
            UNARY_LABELS[rng.integers(len(UNARY_LABELS))] for _ in range(n_words)
        ),
        distances=tuple(float(d) for d in distances),
        split_labels=tuple(
            split_pool[rng.integers(len(split_pool))] for _ in range(n_words - 1)
        ),
    )


def monotone_transform(rng: np.random.Generator):
    """A random strictly increasing elementwise function."""
    kind = rng.integers(4)
    a = float(rng.uniform(0.2, 3.0))
    b = float(rng.uniform(-2.0, 2.0))
    if kind == 0:
        return lambda x: a * x + b
    if kind == 1:
        return lambda x: a * np.exp(x / 4.0) + b
    if kind == 2:
        return lambda x: a * (x + 0.4 * np.sin(x)) + b
    # cubic plus a linear term, so nearby values stay apart in floats
    return lambda x: a * x**3 + x + b


def numeric_gradient(fn, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of an array."""
    grad = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        up = fn(x)
        x[idx] = orig - eps
        down = fn(x)
        x[idx] = orig
        grad[idx] = (up - down) / (2.0 * eps)
    return grad


def rank_signature(distances) -> tuple[int, ...]:
    """Indices ordered by decreasing score, ties broken leftmost. Two score
    vectors with equal signatures decode to identical tree shapes."""
    return tuple(sorted(range(len(distances)), key=lambda i: (-distances[i], i)))


def write_treebank(trees, path) -> None:
    """Write trees one per line."""
    with open(path, "w", encoding="utf-8") as handle:
        for tree in trees:
            handle.write(serialize_bracketed(tree) + "\n")


# Reference implementations of the read-side tree walks: the post-order
# fold and the two-pass serializer that the single-pass versions replaced.
# The property tests require the library's versions to equal these.


def reference_debinarize(tree):
    if isinstance(tree, Internal) and tree.label == EMPTY_LABEL:
        raise StructureError("root carries the empty label")

    def expand_chain(label, children):
        labels = label.split(CHAIN_SEPARATOR)
        node = NaryTree(labels[-1], children)
        for lab in reversed(labels[:-1]):
            node = NaryTree(lab, [node])
        return node

    def expand_terminal(terminal):
        node = Leaf(terminal.word, terminal.tag)
        if terminal.unary_label != EMPTY_LABEL:
            for label in reversed(terminal.unary_label.split(CHAIN_SEPARATOR)):
                node = NaryTree(label, [node])
        return node

    results = []
    work = [("visit", tree)]
    while work:
        action = work.pop()
        if action[0] == "visit":
            node = action[1]
            if isinstance(node, Terminal):
                results.append([expand_terminal(node)])
            else:
                work.append(("combine", node.label))
                work.append(("visit", node.right))
                work.append(("visit", node.left))
        else:
            label = action[1]
            right = results.pop()
            left = results.pop()
            children = left + right
            if label == EMPTY_LABEL:
                results.append(children)
            else:
                results.append([expand_chain(label, children)])
    (trees,) = results
    (root,) = trees
    return root


def reference_serialize(tree) -> str:
    parts = []
    work = [tree]
    while work:
        item = work.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, Leaf):
            parts.append(f"({item.tag} {item.word})")
        else:
            parts.append(f"({item.label}")
            work.append(")")
            for child in reversed(item.children):
                work.append(child)
    out = []
    for i, piece in enumerate(parts):
        if i and piece != ")":
            out.append(" ")
        out.append(piece)
    return "".join(out)


def reference_leaves(tree) -> list:
    found = []
    work = [tree]
    while work:
        node = work.pop()
        if isinstance(node, Leaf):
            found.append(node)
        else:
            work.extend(reversed(node.children))
    return found
