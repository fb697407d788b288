import numpy as np
import pytest

from distparse.binarize import binarize
from distparse.codec import encode
from distparse.scoring import (
    EvalCounts,
    EvaluationError,
    extract_spans,
    format_report,
    label_accuracy,
    score,
)
from distparse.trees import parse_bracketed
from helpers import random_nary_tree


def trees_of(*texts):
    return [parse_bracketed(t)[0] for t in texts]


class TestExtractSpans:
    def test_simple_sentence(self):
        (tree,) = trees_of("(S (NP (PRP She)) (VP (VBZ runs)))")
        assert dict(extract_spans(tree)) == {
            ("S", 0, 2): 1,
            ("NP", 0, 1): 1,
            ("VP", 1, 2): 1,
        }

    def test_single_preterminal_under_root(self):
        (tree,) = trees_of("(NP (NN dog))")
        assert dict(extract_spans(tree)) == {("NP", 0, 1): 1}

    def test_duplicate_spans_counted(self):
        (tree,) = trees_of("(NP (NP (NN dog)))")
        assert extract_spans(tree)[("NP", 0, 1)] == 2

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
            assert sum(extract_spans(tree).values()) == internal


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

    def test_additive_over_shards_and_order_invariant(self):
        rng = np.random.default_rng(33)
        golds, preds = [], []
        for _ in range(20):
            n = int(rng.integers(1, 8))
            golds.append(random_nary_tree(rng, n))
            preds.append(random_nary_tree(rng, n))
        whole = score(golds, preds)
        first = score(golds[:9], preds[:9])
        second = score(golds[9:], preds[9:])
        merged = first.counts + second.counts
        assert merged == whole.counts
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
        text = format_report(score(gold, gold), word_label_acc=87.5)
        assert "labeled" in text and "unlabeled" in text
        assert "87.50%" in text


class TestLabelAccuracies:
    def tuples_of(self, *texts):
        return [encode(binarize(parse_bracketed(t)[0])) for t in texts]

    def test_identical_tuples(self):
        tuples = self.tuples_of("(S (NP (PRP She)) (VP (VBZ runs)))")
        assert label_accuracy(tuples, tuples, "unary_labels") == 100.0
        assert label_accuracy(tuples, tuples, "split_labels") == 100.0

    def test_one_of_four_wrong(self):
        gold = self.tuples_of("(S (NP (DT a) (NN b)) (VP (VBZ c) (NN d)))")
        pred = self.tuples_of("(S (NP (DT a) (NN b)) (VP (VBZ c) (NP (NN d))))")
        assert label_accuracy(gold, pred, "unary_labels") == 75.0

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
        assert label_accuracy(gold, moved, "unary_labels") == 100.0

    def test_alignment_errors(self):
        tuples = self.tuples_of("(S (NP (PRP She)) (VP (VBZ runs)))")
        other = self.tuples_of("(S (NN a))")
        with pytest.raises(ValueError):
            label_accuracy(tuples, other, "unary_labels")
        with pytest.raises(ValueError):
            label_accuracy(tuples, [], "unary_labels")


class TestEvalCounts:
    def test_addition(self):
        a = EvalCounts(1, 2, 3, 4)
        b = EvalCounts(10, 20, 30, 40)
        assert a + b == EvalCounts(11, 22, 33, 44)
