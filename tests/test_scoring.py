from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from distparse import pcfg
from distparse.binarize import EMPTY_LABEL, LabelError
from distparse.scoring import (
    EvaluationError,
    format_report,
    read_tree,
    score,
    span_counts,
)
from distparse.trees import Leaf, NaryTree, parse_bracketed, preprocess
from helpers import (
    left_comb,
    penn_style,
    random_nary_tree,
    reference_binarize,
    reference_encode,
    reference_extract_spans,
    reference_label_accuracy,
    reference_leaves,
    right_comb,
)


def trees_of(*texts):
    return [parse_bracketed(t)[0] for t in texts]


def spans_of(tree):
    return span_counts(read_tree(tree))[0]


def unary_chain(depth):
    node = Leaf("w", "NN")
    for i in range(depth):
        node = NaryTree(("S", "VP", "NP")[i % 3], [node])
    return node


def reading_cases():
    rng = np.random.default_rng(811)
    cases = [
        Leaf("w", "NN"),
        NaryTree("S", [Leaf("w", "NN")]),
        unary_chain(3),
        NaryTree("S", [unary_chain(2), Leaf("v", "VB"), unary_chain(4)]),
    ]
    cases += [random_nary_tree(rng, unary_prob=0.4) for _ in range(300)]
    cases += [random_nary_tree(rng, int(rng.integers(13, 60))) for _ in range(50)]
    cases += pcfg.generate_trees(300, seed=812)
    penn = [penn_style(tree, rng) for tree in pcfg.generate_trees(300, seed=813)]
    cases += penn + [preprocess(tree) for tree in penn]
    cases += [left_comb(1500), right_comb(1500), unary_chain(1500)]
    cases.append(NaryTree("S", [Leaf(f"w{i}", "NN") for i in range(40_000)]))
    return cases


class TestReadTree:
    def test_simple_sentence(self):
        (tree,) = trees_of("(S (NP (PRP She)) (VP (VBZ runs)))")
        assert dict(spans_of(tree)) == {
            ("S", 0, 2): 1,
            ("NP", 0, 1): 1,
            ("VP", 1, 2): 1,
        }
        assert read_tree(tree).words == ["She", "runs"]

    def test_single_preterminal_under_root(self):
        (tree,) = trees_of("(NP (NN dog))")
        assert dict(spans_of(tree)) == {("NP", 0, 1): 1}

    def test_duplicate_spans_counted(self):
        (tree,) = trees_of("(NP (NP (NN dog)))")
        assert spans_of(tree)[("NP", 0, 1)] == 2

    def test_span_count_equals_internal_node_count(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            tree = random_nary_tree(rng)
            internal = 0
            work = [tree]
            while work:
                node = work.pop()
                if hasattr(node, "children"):
                    internal += 1
                    work.extend(node.children)
            assert sum(spans_of(tree).values()) == internal

    def test_deep_tree_does_not_recurse(self):
        tree = Leaf("w0", "NN")
        for i in range(1, 5000):
            tree = NaryTree("S", [tree, Leaf(f"w{i}", "NN")])
        spans = spans_of(tree)
        assert spans == Counter({("S", 0, end): 1 for end in range(2, 5001)})

    def test_labels_follow_binarize(self):
        (tree,) = trees_of("(S (NP (DT a) (JJ b) (NN c)) (VP (VB d)) (ADVP (RB e)))")
        reading = read_tree(tree)
        assert reading.unary_labels == ["∅", "∅", "∅", "VP", "ADVP"]
        assert reading.split_labels == ["NP", "∅", "S", "∅"]

    def test_matches_encode_and_the_reference_walks(self):
        # seeded: pcfg and Penn-style trees, random trees with unary
        # chains, a bare leaf, chains from root to leaf, 1500-deep trees
        # and a flat 40k-child constituent
        for tree in reading_cases():
            reading = read_tree(tree)
            tup = reference_encode(reference_binarize(tree))
            spans = reference_extract_spans(tree)
            assert reading.words == [leaf.word for leaf in reference_leaves(tree)]
            assert reading.words == list(tup.words)
            assert reading.unary_labels == list(tup.unary_labels)
            assert reading.split_labels == list(tup.split_labels)
            assert span_counts(reading) == (
                spans,
                Counter((s, e) for _, s, e in spans.elements()),
            )

    def test_first_label_error_is_binarizes(self):
        # two bad labels per tree, at random internal nodes: read_tree
        # raises the one the reference binarize reports
        rng = np.random.default_rng(814)
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
                read_tree(tree)
            assert str(found.value) == str(expected.value)
            checked += 1
        assert checked > 200


class TestScore:
    def test_perfect_prediction(self):
        gold = trees_of("(S (NP (DT a) (NN b)) (VP (VBZ c)))")
        report = score(gold, gold)
        assert report.labeled_precision == 100.0
        assert report.labeled_recall == 100.0
        assert report.labeled_f1 == 100.0
        assert report.unlabeled_f1 == 100.0

    def test_hand_computed_fixture(self):
        gold = trees_of("(S (NP (DT a) (NN b)) (VP (VBD c) (NN d)))")
        pred = trees_of("(S (NP (DT a) (NN b)) (X (VBD c)) (Y (NN d)))")
        report = score(gold, pred)
        assert round(report.labeled_precision, 2) == 50.0
        assert round(report.labeled_recall, 2) == 66.67
        assert round(report.labeled_f1, 2) == 57.14

    def test_relabeling_changes_only_labeled_counts(self):
        gold = trees_of("(S (NP (DT a) (NN b)) (VP (VBZ c)))")
        pred = trees_of("(S (XX (DT a) (NN b)) (VP (VBZ c)))")
        report = score(gold, pred)
        assert report.counts.matched_labeled == 2
        assert report.counts.matched_unlabeled == 3
        assert report.labeled_f1 < report.unlabeled_f1

    def test_leaf_mismatch_names_sentence(self):
        gold = trees_of("(S (NN a))", "(S (NN b))")
        pred = trees_of("(S (NN a))", "(S (NN OTHER))")
        with pytest.raises(EvaluationError, match="sentence 1"):
            score(gold, pred)

    def test_length_mismatch_rejected(self):
        gold = trees_of("(S (NN a))")
        with pytest.raises(EvaluationError):
            score(gold, [])

    def test_labeled_never_exceeds_unlabeled(self):
        rng = np.random.default_rng(32)
        for _ in range(300):
            n = int(rng.integers(1, 10))
            gold = random_nary_tree(rng, n)
            pred = random_nary_tree(rng, n)
            report = score([gold], [pred])
            assert report.labeled_f1 <= report.unlabeled_f1 + 1e-12
            counts = report.counts
            assert counts.matched_labeled <= counts.matched_unlabeled
            assert counts.matched_unlabeled <= min(
                counts.gold_total, counts.pred_total
            )

    def test_order_invariant(self):
        rng = np.random.default_rng(33)
        golds, preds = [], []
        for _ in range(20):
            n = int(rng.integers(1, 8))
            golds.append(random_nary_tree(rng, n))
            preds.append(random_nary_tree(rng, n))
        whole = score(golds, preds)
        order = rng.permutation(20)
        shuffled = score([golds[i] for i in order], [preds[i] for i in order])
        assert shuffled.counts == whole.counts

    def test_zero_matches_give_zero_f1(self):
        gold = trees_of("(S (NP (NN a) (NN b)))")
        pred = trees_of("(X (Y (NN a)) (Z (NN b)))")
        report = score(gold, pred)
        assert report.labeled_f1 == 0.0
        assert 0.0 <= report.unlabeled_f1 <= 100.0

    def test_report_formatting(self):
        gold = trees_of("(S (NN a))")
        text = format_report(replace(score(gold, gold), word_label_accuracy=87.5))
        assert "labeled" in text and "unlabeled" in text
        assert "87.50%" in text


class TestLabelAccuracies:
    """``score``'s label accuracies against the parent's tuple-based
    computation, kept in ``helpers`` as the reference."""

    def tuples_of(self, *texts):
        trees = [parse_bracketed(t)[0] for t in texts]
        return [reference_encode(reference_binarize(tree)) for tree in trees]

    def test_identical_tuples(self):
        text = "(S (NP (PRP She)) (VP (VBZ runs)))"
        tuples = self.tuples_of(text)
        assert reference_label_accuracy(tuples, tuples, "unary_labels") == 100.0
        assert reference_label_accuracy(tuples, tuples, "split_labels") == 100.0
        report = score(trees_of(text), trees_of(text))
        assert report.word_label_accuracy == 100.0
        assert report.split_label_accuracy == 100.0

    def test_one_of_four_wrong(self):
        gold_text = "(S (NP (DT a) (NN b)) (VP (VBZ c) (NN d)))"
        pred_text = "(S (NP (DT a) (NN b)) (VP (VBZ c) (NP (NN d))))"
        gold, pred = self.tuples_of(gold_text), self.tuples_of(pred_text)
        assert reference_label_accuracy(gold, pred, "unary_labels") == 75.0
        report = score(trees_of(gold_text), trees_of(pred_text))
        assert report.word_label_accuracy == 75.0

    def test_invariant_to_distances(self):
        from distparse.codec import DistanceTuple

        gold = self.tuples_of("(S (NP (PRP She)) (VP (VBZ runs)))")
        moved = [
            DistanceTuple(
                t.words,
                t.tags,
                t.unary_labels,
                tuple(d * 17.0 + 3.0 for d in t.distances),
                t.split_labels,
            )
            for t in gold
        ]
        assert reference_label_accuracy(gold, moved, "unary_labels") == 100.0

    def test_alignment_errors(self):
        texts = ("(S (NP (PRP She)) (VP (VBZ runs)))",)
        tuples = self.tuples_of(*texts)
        other = self.tuples_of("(S (NN a))")
        with pytest.raises(ValueError):
            reference_label_accuracy(tuples, other, "unary_labels")
        with pytest.raises(ValueError):
            reference_label_accuracy(tuples, [], "unary_labels")
        with pytest.raises(ValueError):
            score(trees_of(*texts), trees_of("(S (NN a))"))
        with pytest.raises(ValueError):
            score(trees_of(*texts), [])

    def test_score_matches_the_reference(self):
        rng = np.random.default_rng(815)
        for _ in range(50):
            golds, preds = [], []
            for _ in range(int(rng.integers(1, 6))):
                n = int(rng.integers(1, 12))
                golds.append(random_nary_tree(rng, n, unary_prob=0.4))
                preds.append(random_nary_tree(rng, n, unary_prob=0.4))
            gold_tuples = [reference_encode(reference_binarize(tree)) for tree in golds]
            pred_tuples = [reference_encode(reference_binarize(tree)) for tree in preds]
            report = score(golds, preds)
            assert report.word_label_accuracy == reference_label_accuracy(
                gold_tuples, pred_tuples, "unary_labels"
            )
            assert report.split_label_accuracy == reference_label_accuracy(
                gold_tuples, pred_tuples, "split_labels"
            )

    def test_earlier_bad_predicted_label_wins_over_a_later_bad_gold_one(self):
        gold = trees_of("(S (NN a) (NN b))", "(∅ (NN c) (NN d))")
        pred = trees_of("(A+1 (NN a) (NN b))", "(S (NN c) (NN d))")
        with pytest.raises(LabelError, match="contains the chain separator"):
            score(gold, pred)
        # within one sentence, the gold tree's bad label comes first
        with pytest.raises(LabelError, match="collides with the empty-label marker"):
            score(gold[1:], trees_of("(A+1 (NN c) (NN d))"))

