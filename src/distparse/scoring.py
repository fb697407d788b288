"""Bracket scoring: labeled and unlabeled precision/recall/F1, and the
accuracy of the word and split labels.

A simplified take on the usual bracket-matching evaluation: every internal
node (the root included, preterminals excluded) contributes one
``(label, start, end)`` span, spans are matched as multisets, and no
punctuation exclusion or label-equivalence rules are applied. The label
accuracies compare, position by position, the labels the parser predicts:
the ones binarization puts on the words and on the split points. Each tree
is read once by :func:`~distparse.binarize.read_tree`, the walk that also
encodes trees, so scoring restates none of the binarization rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import eq

from .binarize import TreeReading, read_tree
from .trees import Tree


class EvaluationError(ValueError):
    """Gold and predicted inputs that cannot be compared."""


@dataclass
class EvalCounts:
    """Per-corpus bracket and label counts, summed one sentence at a time."""

    matched_labeled: int = 0
    matched_unlabeled: int = 0
    gold_total: int = 0
    pred_total: int = 0
    matched_word_labels: int = 0
    words: int = 0
    matched_split_labels: int = 0
    splits: int = 0

    def add_pair(self, gold: TreeReading, pred: TreeReading) -> None:
        """Count one sentence whose gold and predicted words agree."""
        gold_spans, gold_positions = span_counts(gold)
        pred_spans, pred_positions = span_counts(pred)
        self.matched_labeled += _common(gold_spans, pred_spans)
        self.matched_unlabeled += _common(gold_positions, pred_positions)
        self.gold_total += sum(gold_spans.values())
        self.pred_total += sum(pred_spans.values())
        self.matched_word_labels += sum(map(eq, gold.unary_labels, pred.unary_labels))
        self.words += len(gold.unary_labels)
        self.matched_split_labels += sum(map(eq, gold.split_labels, pred.split_labels))
        self.splits += len(gold.split_labels)


def span_counts(reading: TreeReading) -> tuple[dict, dict]:
    """The multiset of the ``(label, start, end)`` spans of a tree's
    internal nodes, end exclusive, and the multiset of their ``(start,
    end)`` positions, each as counts."""
    spans: dict[tuple[str, int, int], int] = {}
    positions: dict[tuple[int, int], int] = {}
    for chain, start, end in reading.constituents:
        for label in chain:
            span = (label, start, end)
            spans[span] = spans.get(span, 0) + 1
        # only the nodes of one unary chain share a position
        positions[start, end] = len(chain)
    return spans, positions


def _common(a: dict, b: dict) -> int:
    """The size of the intersection of two multisets held as counts."""
    keys = a.keys() & b.keys()
    return sum(map(min, map(a.__getitem__, keys), map(b.__getitem__, keys)))


def _prf(matched: int, gold_total: int, pred_total: int) -> tuple[float, float, float]:
    precision = 100.0 * matched / pred_total if pred_total else 0.0
    recall = 100.0 * matched / gold_total if gold_total else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return precision, recall, f1


def _percent(matched: int, total: int) -> float:
    return 100.0 * matched / total if total else 0.0


@dataclass
class ScoreReport:
    counts: EvalCounts
    labeled_precision: float
    labeled_recall: float
    labeled_f1: float
    unlabeled_precision: float
    unlabeled_recall: float
    unlabeled_f1: float
    sentences: int
    word_label_accuracy: float
    split_label_accuracy: float

    def to_dict(self) -> dict:
        return {
            "sentences": self.sentences,
            "labeled": {
                "precision": self.labeled_precision,
                "recall": self.labeled_recall,
                "f1": self.labeled_f1,
            },
            "unlabeled": {
                "precision": self.unlabeled_precision,
                "recall": self.unlabeled_recall,
                "f1": self.unlabeled_f1,
            },
            "matched_labeled": self.counts.matched_labeled,
            "matched_unlabeled": self.counts.matched_unlabeled,
            "gold_total": self.counts.gold_total,
            "pred_total": self.counts.pred_total,
            "word_label_accuracy": self.word_label_accuracy,
            "split_label_accuracy": self.split_label_accuracy,
        }


def report_from_counts(counts: EvalCounts, sentences: int) -> ScoreReport:
    lp, lr, lf = _prf(counts.matched_labeled, counts.gold_total, counts.pred_total)
    up, ur, uf = _prf(counts.matched_unlabeled, counts.gold_total, counts.pred_total)
    word = _percent(counts.matched_word_labels, counts.words)
    split = _percent(counts.matched_split_labels, counts.splits)
    return ScoreReport(counts, lp, lr, lf, up, ur, uf, sentences, word, split)


def score(gold: list[Tree], pred: list[Tree]) -> ScoreReport:
    """Corpus-level scores, each tree read once by :func:`read_tree`.

    Both lists must hold the same number of sentences, else raises
    :class:`EvaluationError`. Otherwise raises the first fault in sentence
    order; within a sentence, the :class:`LabelError` of the first label
    binarize rejects in the gold tree, then in the predicted one, then an
    :class:`EvaluationError` if the two do not share their word sequence.
    """
    if len(gold) != len(pred):
        raise EvaluationError(
            f"got {len(gold)} gold but {len(pred)} predicted sentences"
        )
    counts = EvalCounts()
    for index, (g, p) in enumerate(zip(gold, pred)):
        gold_reading = read_tree(g)
        pred_reading = read_tree(p)
        if gold_reading.words != pred_reading.words:
            raise EvaluationError(f"leaf mismatch in sentence {index}")
        counts.add_pair(gold_reading, pred_reading)
    return report_from_counts(counts, len(gold))


def format_report(report: ScoreReport) -> str:
    """Two-row text table (labeled/unlabeled), then the word-label and
    split-label accuracies."""
    return "\n".join(
        [
            f"sentences: {report.sentences}",
            "            Prec.   Recall  F1",
            f"labeled     {report.labeled_precision:6.2f}  {report.labeled_recall:6.2f}"
            f"  {report.labeled_f1:6.2f}",
            f"unlabeled   {report.unlabeled_precision:6.2f}  {report.unlabeled_recall:6.2f}"
            f"  {report.unlabeled_f1:6.2f}",
            f"word label accuracy: {report.word_label_accuracy:.2f}%",
            f"split label accuracy: {report.split_label_accuracy:.2f}%",
        ]
    )
