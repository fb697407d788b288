import time
from collections import Counter
from itertools import cycle
from pathlib import Path

import numpy as np
import pytest

from distparse.binarize import (
    CHAIN_SEPARATOR,
    EMPTY_LABEL,
    Internal,
    LabelError,
    StructureError,
    Terminal,
    binarize,
    check_label,
    debinarize,
)
from distparse.codec import binary_trees_equal, encode
from distparse.scoring import read_tree
from distparse.trees import (
    Leaf,
    NaryTree,
    leaves,
    parse_bracketed,
    preprocess,
    serialize_bracketed,
    token_problem,
)
from helpers import (
    left_comb,
    random_binary_tree,
    random_nary_tree,
    reference_binarize,
    reference_debinarize,
    reference_encode,
    reference_extract_spans,
    reference_leaves,
    reference_serialize,
    right_comb,
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

    @pytest.mark.parametrize(
        "label",
        ["NP", "SBAR", "S-TPC-1", "NP=2", "PRP$", "Äσ", "X1", "",
         EMPTY_LABEL, "S+VP", "+", "S (T", "a)", "(", "NP\t", "\u3000", "NP\xa0"],
    )
    def test_check_label_follows_the_rule(self, label):
        # accepted exactly when binarize can join it into a chain and a
        # bracketed tree can hold it as a token
        good = (
            CHAIN_SEPARATOR not in label
            and label != EMPTY_LABEL
            and token_problem(label) is None
        )
        if good:
            assert check_label(label) == label
        else:
            with pytest.raises(LabelError):
                check_label(label)


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

    @pytest.mark.parametrize("label", ["S+", "+S", "S++VP", "", "S+∅"])
    def test_chain_binarize_would_reject_is_rejected(self, label):
        # as a split label and as a unary label over a word
        split = Internal(label, Terminal("a", "T"), Terminal("b", "T"))
        unary = Internal("S", Terminal("a", "T"), Terminal("b", "T", label))
        for tree in (split, unary, Terminal("a", "T", label)):
            with pytest.raises(LabelError):
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


def binary_right_comb(depth: int) -> Internal:
    labels = cycle(("S", EMPTY_LABEL, "S+VP"))
    node = Terminal(f"w{depth}", "NN", "NP")
    for i in range(depth - 1, -1, -1):
        node = Internal(next(labels), Terminal(f"w{i}", "NN"), node)
    return node


class TestEncodeWalksMatchReference:
    """``binarize``, ``encode`` and ``scoring.read_tree`` against the
    implementations they replaced, kept in ``helpers`` as references."""

    @staticmethod
    def nary_cases() -> list:
        rng = np.random.default_rng(707)
        cases = [
            Leaf("w", "NN"),
            NaryTree("S", [Leaf("w", "NN")]),
            NaryTree("S", [NaryTree("VP", [Leaf("w", "NN")])]),
        ]
        cases += [random_nary_tree(rng, unary_prob=0.4) for _ in range(300)]
        cases += [random_nary_tree(rng, int(rng.integers(13, 60))) for _ in range(50)]
        cases += [left_comb(5000), right_comb(5000), deep_nary_tree(5000)]
        cases.append(NaryTree("S", [Leaf(f"w{i}", "NN") for i in range(40_000)]))
        return cases

    @staticmethod
    def binary_cases() -> list:
        rng = np.random.default_rng(708)
        cases = [Terminal("w", "NN"), Terminal("w", "NN", "S+VP")]
        cases += [random_binary_tree(rng, int(rng.integers(1, 40))) for _ in range(300)]
        cases += [deep_binary_tree(5000), binary_right_comb(5000)]
        return cases

    def test_binarize(self):
        for tree in self.nary_cases():
            assert binary_trees_equal(binarize(tree), reference_binarize(tree))

    def test_encode(self):
        for tree in self.binary_cases():
            assert encode(tree) == reference_encode(tree)
        for tree in self.nary_cases():
            assert encode(binarize(tree)) == reference_encode(reference_binarize(tree))

    def test_read_tree(self):
        for tree in self.nary_cases():
            reading = read_tree(tree)
            tup = reference_encode(reference_binarize(tree))
            spans = reference_extract_spans(tree)
            assert reading.words == [leaf.word for leaf in reference_leaves(tree)]
            assert reading.spans == spans
            assert reading.positions == Counter((s, e) for _, s, e in spans.elements())
            assert reading.unary_labels == list(tup.unary_labels)
            assert reading.split_labels == list(tup.split_labels)

    def test_flat_40k_constituent_binarizes_and_encodes_in_linear_time(self):
        tree = NaryTree("S", [Leaf(f"w{i}", "NN") for i in range(40_000)])
        start = time.perf_counter()
        tup = encode(binarize(tree))
        elapsed = time.perf_counter() - start
        assert tup.distances == tuple(float(40_000 - i) for i in range(1, 40_000))
        assert elapsed < 1.0, f"binarize and encode took {elapsed:.2f} s"

    def test_first_label_error_is_the_references(self):
        # two bad labels per tree, at random internal nodes: binarize must
        # report the same one the reference visits first
        rng = np.random.default_rng(709)
        checked = 0
        for _ in range(300):
            tree = random_nary_tree(rng, int(rng.integers(2, 20)))
            internal = []
            work = [tree]
            while work:
                node = work.pop()
                if isinstance(node, NaryTree):
                    internal.append(node)
                    work.extend(node.children)
            if len(internal) < 2:
                continue
            first, second = rng.choice(len(internal), size=2, replace=False)
            internal[first].label = "A+1"
            internal[second].label = EMPTY_LABEL if rng.random() < 0.5 else "B+2"
            with pytest.raises(LabelError) as expected:
                reference_binarize(tree)
            with pytest.raises(LabelError) as found:
                binarize(tree)
            assert str(found.value) == str(expected.value)
            checked += 1
        assert checked > 200
