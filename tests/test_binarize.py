import time
from itertools import cycle
from pathlib import Path

import numpy as np
import pytest

from distparse.binarize import (
    EMPTY_LABEL,
    Internal,
    LabelError,
    StructureError,
    Terminal,
    binarize,
    debinarize,
)
from distparse.trees import (
    Leaf,
    NaryTree,
    leaves,
    parse_bracketed,
    preprocess,
    serialize_bracketed,
)
from helpers import (
    random_binary_tree,
    random_nary_tree,
    reference_debinarize,
    reference_leaves,
    reference_serialize,
)

SAMPLE = Path(__file__).resolve().parent.parent / "data" / "sample_treebank.mrg"


def binary_leaves(tree):
    out = []
    work = [tree]
    while work:
        node = work.pop()
        if isinstance(node, Terminal):
            out.append(node)
        else:
            work.append(node.right)
            work.append(node.left)
    return out


class TestBinarize:
    def test_unary_chain_over_word(self):
        (tree,) = parse_bracketed("(S (VP (VB go)))")
        assert binarize(tree) == Terminal("go", "VB", "S+VP")

    def test_leftmost_split_of_ternary_node(self):
        (tree,) = parse_bracketed("(NP (DT a) (JJ b) (NN c))")
        assert binarize(tree) == Internal(
            "NP",
            Terminal("a", "DT"),
            Internal(EMPTY_LABEL, Terminal("b", "JJ"), Terminal("c", "NN")),
        )

    def test_already_binary_tree_keeps_shape(self):
        (tree,) = parse_bracketed("(S (NP (DT a) (NN b)) (VP (VBZ c) (NN d)))")
        result = binarize(tree)
        assert result == Internal(
            "S",
            Internal("NP", Terminal("a", "DT"), Terminal("b", "NN")),
            Internal("VP", Terminal("c", "VBZ"), Terminal("d", "NN")),
        )
        assert all(t.unary_label == EMPTY_LABEL for t in binary_leaves(result))

    def test_chain_above_phrase_collapses_into_label(self):
        (tree,) = parse_bracketed("(S (NP (DT a) (NN b)))")
        result = binarize(tree)
        assert isinstance(result, Internal)
        assert result.label == "S+NP"
        assert debinarize(result) == tree

    def test_internal_nodes_have_exactly_two_children(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            work = [binarize(random_nary_tree(rng))]
            while work:
                node = work.pop()
                if isinstance(node, Internal):
                    assert node.left is not None and node.right is not None
                    work.extend((node.left, node.right))

    def test_leaf_order_preserved(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            tree = random_nary_tree(rng)
            words = [leaf.word for leaf in leaves(tree)]
            assert [t.word for t in binary_leaves(binarize(tree))] == words

    def test_separator_in_label_rejected(self):
        tree = NaryTree("A+B", [Leaf("x", "T"), Leaf("y", "T")])
        with pytest.raises(LabelError):
            binarize(tree)

    def test_empty_marker_as_label_rejected(self):
        tree = NaryTree(EMPTY_LABEL, [Leaf("x", "T"), Leaf("y", "T")])
        with pytest.raises(LabelError):
            binarize(tree)


class TestDebinarize:
    def test_terminal_chain_expansion(self):
        assert debinarize(Terminal("go", "VB", "S+VP")) == parse_bracketed(
            "(S (VP (VB go)))"
        )[0]

    def test_bare_terminal_becomes_leaf(self):
        assert debinarize(Terminal("dog", "NN")) == Leaf("dog", "NN")

    def test_empty_labeled_root_rejected(self):
        tree = Internal(EMPTY_LABEL, Terminal("a", "T"), Terminal("b", "T"))
        with pytest.raises(StructureError):
            debinarize(tree)

    def test_ternary_roundtrip(self):
        (tree,) = parse_bracketed("(NP (DT a) (JJ b) (NN c))")
        assert debinarize(binarize(tree)) == tree

    def test_roundtrip_random_trees(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            tree = random_nary_tree(rng)
            assert debinarize(binarize(tree)) == tree

    def test_roundtrip_sample_treebank(self):
        for tree in parse_bracketed(SAMPLE.read_text(encoding="utf-8")):
            cleaned = preprocess(tree)
            assert debinarize(binarize(cleaned)) == cleaned

    def test_debinarize_arbitrary_binary_trees_is_total(self):
        # any binary tree with a non-empty root label maps to some n-ary tree
        rng = np.random.default_rng(8)
        for _ in range(300):
            tree = random_binary_tree(rng, int(rng.integers(1, 10)))
            if isinstance(tree, Internal) and tree.label == EMPTY_LABEL:
                tree.label = "S"
            result = debinarize(tree)
            assert result is not None

    def test_flat_40k_constituent_roundtrips_in_linear_time(self):
        # one constituent with 40k children: the binary form is a 40k-deep
        # right comb of empty-labeled nodes that debinarize splices back
        tree = NaryTree("S", [Leaf(f"w{i}", "NN") for i in range(40_000)])
        start = time.perf_counter()
        restored = debinarize(binarize(tree))
        elapsed = time.perf_counter() - start
        assert restored == tree
        assert elapsed < 1.0, f"round trip took {elapsed:.2f} s"


def deep_binary_tree(depth: int) -> Internal:
    """A left comb ``depth`` nodes deep whose labels cycle through a plain
    label, the empty label and a collapsed chain, over chained terminals."""
    labels = cycle(("S", EMPTY_LABEL, "S+VP", "NP"))
    unary = cycle((EMPTY_LABEL, "NP", "S+VP"))
    node = Terminal("w0", "NN", next(unary))
    for i in range(1, depth + 1):
        node = Internal(next(labels), node, Terminal(f"w{i}", "NN", next(unary)))
    node.label = "S"
    return node


def deep_nary_tree(depth: int) -> NaryTree:
    """Alternately a unary node and a node with a leaf on each side of its
    subtree, ``depth`` levels deep."""
    node: NaryTree | Leaf = Leaf("w", "NN")
    for i in range(depth):
        if i % 2:
            node = NaryTree("NP", [Leaf(f"a{i}", "DT"), node, Leaf(f"b{i}", "NN")])
        else:
            node = NaryTree("VP", [node])
    return node


class TestReadWalksMatchReference:
    """``debinarize``, ``serialize_bracketed`` and ``leaves`` against the
    implementations they replaced, kept in ``helpers`` as references.
    Trees are compared through the reference serializer, which renders the
    whole structure and, unlike ``==``, does not recurse."""

    @staticmethod
    def binary_cases() -> list:
        rng = np.random.default_rng(606)
        cases = [Terminal("w", "NN"), Terminal("w", "NN", "S+VP")]
        for _ in range(300):
            cases.append(binarize(random_nary_tree(rng, unary_prob=0.4)))
            tree = random_binary_tree(rng, int(rng.integers(1, 30)))
            if isinstance(tree, Internal) and tree.label == EMPTY_LABEL:
                tree.label = "S"
            cases.append(tree)
        wide = NaryTree(
            "S",
            [
                NaryTree("NP", [Leaf(f"d{i}", "DT"), Leaf(f"n{i}", "NN")])
                if i % 7 == 0
                else Leaf(f"w{i}", "NN")
                for i in range(500)
            ],
        )
        cases.append(binarize(wide))
        cases.append(deep_binary_tree(5000))
        return cases

    @classmethod
    def nary_cases(cls) -> list:
        cases = [reference_debinarize(tree) for tree in cls.binary_cases()]
        cases += [Leaf("w", "NN"), NaryTree("S", [Leaf("w", "NN")])]
        cases.append(NaryTree("S", [Leaf(f"w{i}", "NN") for i in range(5000)]))
        cases.append(deep_nary_tree(5000))
        return cases

    def test_debinarize(self):
        for tree in self.binary_cases():
            assert reference_serialize(debinarize(tree)) == reference_serialize(
                reference_debinarize(tree)
            )

    def test_serialize_bracketed(self):
        for tree in self.nary_cases():
            assert serialize_bracketed(tree) == reference_serialize(tree)

    def test_leaves(self):
        for tree in self.nary_cases():
            found, expected = leaves(tree), reference_leaves(tree)
            assert len(found) == len(expected)
            assert all(a is b for a, b in zip(found, expected))
