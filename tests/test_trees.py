import re

import numpy as np
import pytest

from distparse.trees import (
    Leaf,
    NaryTree,
    TreebankError,
    leaves,
    parse_bracketed,
    preprocess,
    serialize_bracketed,
    strip_function_tag,
)
from helpers import MALFORMED_TREEBANKS, random_nary_tree


class TestParse:
    def test_simple_sentence(self):
        (tree,) = parse_bracketed("(S (NP (PRP She)) (VP (VBZ runs)))")
        assert tree.label == "S"
        assert [leaf.word for leaf in leaves(tree)] == ["She", "runs"]
        assert [leaf.tag for leaf in leaves(tree)] == ["PRP", "VBZ"]

    def test_preterminals_become_leaves(self):
        (tree,) = parse_bracketed("(VP (VB go))")
        assert tree.children == [Leaf("go", "VB")]

    def test_outer_unlabeled_wrapper_is_unwrapped(self):
        (tree,) = parse_bracketed("((S (X a)))")
        assert tree.label == "S"

    def test_multiple_trees_and_blank_lines(self):
        text = "(NP (NN dog))\n\n  (NP (NN cat))\n"
        trees = parse_bracketed(text)
        assert [leaves(t)[0].word for t in trees] == ["dog", "cat"]

    def test_single_leaf_tree(self):
        (tree,) = parse_bracketed("(NN dog)")
        assert tree == Leaf("dog", "NN")

    @pytest.mark.parametrize(
        "text, message, offset",
        [pytest.param(text, *error, id=text) for text, error in MALFORMED_TREEBANKS.items()],
    )
    def test_malformed_input_raises(self, text, message, offset):
        with pytest.raises(TreebankError) as info:
            parse_bracketed(text)
        assert str(info.value) == f"{message} (at offset {offset})"
        assert info.value.offset == offset

    def test_error_carries_offset(self):
        with pytest.raises(TreebankError) as info:
            parse_bracketed("(S (NP (NN dog)) ))")
        assert info.value.offset == 18

    def test_any_spacing_and_outer_wrappers_parse_back(self):
        rng = np.random.default_rng(202)
        gaps = (" ", "  ", "\n", "\t", " \n\t")
        for _ in range(300):
            trees = [random_nary_tree(rng) for _ in range(int(rng.integers(1, 4)))]
            tokens = []
            for tree in trees:
                own = re.findall(r"[()]|[^()\s]+", serialize_bracketed(tree))
                tokens += ["(", *own, ")"] if rng.random() < 0.5 else own
            text = gaps[rng.integers(len(gaps))] if rng.random() < 0.5 else ""
            for before, token in zip([None, *tokens], tokens):
                words_touch = before not in (None, "(", ")") and token not in ("(", ")")
                if words_touch or rng.random() < 0.5:
                    text += gaps[rng.integers(len(gaps))]
                text += token
            assert parse_bracketed(text) == trees, text


class TestSerialize:
    def test_canonical_form(self):
        text = "(S (NP (PRP She)) (VP (VBZ runs)))"
        (tree,) = parse_bracketed(text)
        assert serialize_bracketed(tree) == text

    def test_single_leaf_under_root(self):
        assert serialize_bracketed(NaryTree("NP", [Leaf("dog", "NN")])) == "(NP (NN dog))"

    def test_roundtrip_random_trees(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            tree = random_nary_tree(rng)
            (back,) = parse_bracketed(serialize_bracketed(tree))
            assert back == tree


class TestPreprocess:
    def test_strips_trace_subtrees(self):
        (tree,) = parse_bracketed("(S (NP-SBJ (-NONE- *)) (VP (VB go)))")
        assert serialize_bracketed(preprocess(tree)) == "(S (VP (VB go)))"

    def test_untouched_tree_is_unchanged(self):
        (tree,) = parse_bracketed("(S (NP (PRP She)) (VP (VBZ runs)))")
        assert preprocess(tree) == tree

    def test_fully_removed_tree_becomes_none(self):
        (tree,) = parse_bracketed("(S (NP (-NONE- *)))")
        assert preprocess(tree) is None

    def test_function_tags_stripped(self):
        (tree,) = parse_bracketed("(S (NP-SBJ-1 (NN dog)) (VP-PRD=2 (VBZ runs)))")
        cleaned = preprocess(tree)
        assert [c.label for c in cleaned.children] == ["NP", "VP"]

    def test_bracket_labels_on_internal_nodes_kept(self):
        text = "(S (-LRB- (-LRB- -LRB-) (NN x)))"
        (tree,) = parse_bracketed(text)
        assert serialize_bracketed(preprocess(tree)) == text

    @pytest.mark.parametrize(
        "label, stripped",
        [
            ("-LRB-", "-LRB-"),
            ("-NONE-", "-NONE-"),
            ("NP-SBJ-1", "NP"),
            ("VP-PRD=2", "VP"),
            ("NP=3", "NP"),
            ("-LRB-1", "-LRB"),
            ("-A-B-", "-A"),
            ("--", "-"),
            ("-", "-"),
            ("NP", "NP"),
        ],
    )
    def test_strip_function_tag(self, label, stripped):
        assert strip_function_tag(label) == stripped

    def test_bracket_token_labels_kept(self):
        (tree,) = parse_bracketed("(NP (-LRB- -LRB-) (NN dog) (-RRB- -RRB-))")
        cleaned = preprocess(tree)
        assert [leaf.tag for leaf in leaves(cleaned)] == ["-LRB-", "NN", "-RRB-"]

    def test_idempotent(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            tree = random_nary_tree(rng)
            once = preprocess(tree)
            assert preprocess(once) == once

    def test_preserves_leaf_order(self):
        (tree,) = parse_bracketed(
            "(S (NP (DT the) (-NONE- *) (NN cat)) (VP (VBZ sits)))"
        )
        cleaned = preprocess(tree)
        assert [leaf.word for leaf in leaves(cleaned)] == ["the", "cat", "sits"]

    def test_deep_tree_does_not_recurse(self):
        # 5000 nested nodes, a trace at the bottom, a function tag on each
        tree = NaryTree("NP-SBJ", [Leaf("*", "-NONE-"), Leaf("w", "NN")])
        for _ in range(4999):
            tree = NaryTree("S-1", [NaryTree("NP", [Leaf("*", "-NONE-")]), tree])
        cleaned = preprocess(tree)
        depth = 0
        while isinstance(cleaned, NaryTree):
            assert cleaned.label == ("S" if depth < 4999 else "NP")
            (cleaned,) = cleaned.children
            depth += 1
        assert depth == 5000 and cleaned == Leaf("w", "NN")
