"""Shared random-structure generators for the test suite.

Everything takes an explicit ``numpy.random.Generator`` so tests stay
reproducible under fixed seeds.
"""

from __future__ import annotations

import numpy as np

from collections import Counter

from distparse.binarize import (
    CHAIN_SEPARATOR,
    EMPTY_LABEL,
    Internal,
    StructureError,
    Terminal,
    _collapse_chain,
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


def left_comb(depth: int) -> NaryTree:
    """An n-ary tree whose every node has a subtree, then a leaf."""
    node: NaryTree | Leaf = Leaf("w0", "NN")
    for i in range(1, depth + 1):
        node = NaryTree("S" if i % 2 else "NP", [node, Leaf(f"w{i}", "NN")])
    return node


def right_comb(depth: int) -> NaryTree:
    """An n-ary tree whose every node has a leaf, then a subtree."""
    node: NaryTree | Leaf = Leaf(f"w{depth}", "NN")
    for i in range(depth - 1, -1, -1):
        node = NaryTree("VP" if i % 2 else "S", [Leaf(f"w{i}", "NN"), node])
    return node


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


# Reference implementations of the tree walks that single-pass versions
# replaced: the post-order folds of debinarize and binarize, the two-pass
# serializer and encoder, the span walk that left the words to a second
# walk, and the label accuracy that scoring read off encoded tuples. The
# property tests require the library's versions to equal these.


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


def reference_binarize(tree):
    results = []
    # ("visit", tree) expands a node; ("combine", label, k) folds the top k
    # results into one binary constituent.
    work = [("visit", tree)]
    while work:
        action = work.pop()
        if action[0] == "visit":
            node = action[1]
            if isinstance(node, Leaf):
                results.append(Terminal(node.word, node.tag))
                continue
            chain, bottom = _collapse_chain(node)
            if isinstance(bottom, Leaf):
                results.append(Terminal(bottom.word, bottom.tag, chain))
            else:
                work.append(("combine", chain, len(bottom.children)))
                for child in reversed(bottom.children):
                    work.append(("visit", child))
        else:
            _, label, count = action
            children = results[-count:]
            del results[-count:]
            right = children[-1]
            for child in reversed(children[1:-1]):
                right = Internal(EMPTY_LABEL, child, right)
            results.append(Internal(label, children[0], right))
    (root,) = results
    return root


def reference_encode(tree) -> DistanceTuple:
    heights = {}
    post = [tree]
    ordered = []
    while post:
        node = post.pop()
        if isinstance(node, Internal):
            ordered.append(node)
            post.append(node.left)
            post.append(node.right)
    for node in reversed(ordered):
        left_h = heights.get(id(node.left), 0)
        right_h = heights.get(id(node.right), 0)
        heights[id(node)] = max(left_h, right_h) + 1

    words, tags, unary, distances, split_labels = [], [], [], [], []
    stack = [(tree, False)]
    while stack:
        node, expanded = stack.pop()
        if isinstance(node, Terminal):
            words.append(node.word)
            tags.append(node.tag)
            unary.append(node.unary_label)
        elif expanded:
            distances.append(float(heights[id(node)]))
            split_labels.append(node.label)
        else:
            stack.append((node.right, False))
            stack.append((node, True))
            stack.append((node.left, False))
    return DistanceTuple(
        tuple(words), tuple(tags), tuple(unary), tuple(distances), tuple(split_labels)
    )


def reference_extract_spans(tree) -> Counter:
    spans = Counter()
    if isinstance(tree, Leaf):
        return spans
    position = 0
    stack = [(tree.label, 0, iter(tree.children))]
    while stack:
        label, start, children = stack[-1]
        for child in children:
            if isinstance(child, Leaf):
                position += 1
            else:
                stack.append((child.label, position, iter(child.children)))
                break
        else:
            stack.pop()
            spans[(label, start, position)] += 1
    return spans


def reference_label_accuracy(gold_tuples, pred_tuples, field: str) -> float:
    """Percentage of positions whose label matches gold, for ``field``
    ``"unary_labels"`` (one per word) or ``"split_labels"`` (one per split
    point)."""
    if len(gold_tuples) != len(pred_tuples):
        raise ValueError(
            f"got {len(gold_tuples)} gold but {len(pred_tuples)} predicted tuples"
        )
    correct = 0
    total = 0
    for index, (g, p) in enumerate(zip(gold_tuples, pred_tuples)):
        if len(g) != len(p):
            raise ValueError(f"tuple length mismatch in sentence {index}")
        gold_labels, pred_labels = getattr(g, field), getattr(p, field)
        total += len(gold_labels)
        correct += sum(1 for a, b in zip(gold_labels, pred_labels) if a == b)
    return 100.0 * correct / total if total else 0.0
