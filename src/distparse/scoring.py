"""Bracket scoring: labeled and unlabeled precision/recall/F1.

A simplified take on the usual bracket-matching evaluation: every internal
node (the root included, preterminals excluded) contributes one
``(label, start, end)`` span, spans are matched as multisets, and no
punctuation exclusion or label-equivalence rules are applied.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .codec import DistanceTuple
from .trees import Leaf, Tree


class EvaluationError(ValueError):
    """Gold and predicted inputs that cannot be compared."""


@dataclass
class EvalCounts:
    """Additive per-corpus bracket counts."""

    matched_labeled: int = 0
    matched_unlabeled: int = 0
    gold_total: int = 0
    pred_total: int = 0

    def __add__(self, other: "EvalCounts") -> "EvalCounts":
        return EvalCounts(
            self.matched_labeled + other.matched_labeled,
            self.matched_unlabeled + other.matched_unlabeled,
            self.gold_total + other.gold_total,
            self.pred_total + other.pred_total,
        )


def extract_spans(tree: Tree) -> tuple[list[str], Counter]:
    """The tree's words, in order, and the multiset of its (label, start,
    end) spans, end exclusive, from one walk.

    Preterminals are not spans; a bare-leaf tree therefore has none.
    """
    if isinstance(tree, Leaf):
        return [tree.word], Counter()
    words: list[str] = []
    spans: Counter = Counter()
    # open nodes: (label, start, unvisited children)
    stack = [(tree.label, 0, iter(tree.children))]
    while stack:
        label, start, children = stack[-1]
        for child in children:
            if isinstance(child, Leaf):
                words.append(child.word)
            else:
                stack.append((child.label, len(words), iter(child.children)))
                break
        else:
            stack.pop()
            spans[(label, start, len(words))] += 1
    return words, spans


def count_pair(gold: Tree, pred: Tree, index: int = 0) -> EvalCounts:
    """Bracket counts for one sentence; leaves must match."""
    gold_words, gold_spans = extract_spans(gold)
    pred_words, pred_spans = extract_spans(pred)
    if gold_words != pred_words:
        raise EvaluationError(f"leaf mismatch in sentence {index}")
    matched_labeled = sum((gold_spans & pred_spans).values())
    gold_positions = Counter((s, e) for (_, s, e) in gold_spans.elements())
    pred_positions = Counter((s, e) for (_, s, e) in pred_spans.elements())
    matched_unlabeled = sum((gold_positions & pred_positions).values())
    return EvalCounts(
        matched_labeled=matched_labeled,
        matched_unlabeled=matched_unlabeled,
        gold_total=sum(gold_spans.values()),
        pred_total=sum(pred_spans.values()),
    )


def _prf(matched: int, gold_total: int, pred_total: int) -> tuple[float, float, float]:
    precision = 100.0 * matched / pred_total if pred_total else 0.0
    recall = 100.0 * matched / gold_total if gold_total else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return precision, recall, f1


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
        }


def report_from_counts(counts: EvalCounts, sentences: int) -> ScoreReport:
    lp, lr, lf = _prf(counts.matched_labeled, counts.gold_total, counts.pred_total)
    up, ur, uf = _prf(counts.matched_unlabeled, counts.gold_total, counts.pred_total)
    return ScoreReport(counts, lp, lr, lf, up, ur, uf, sentences)


def score(gold: list[Tree], pred: list[Tree]) -> ScoreReport:
    """Corpus-level scores. Sentence ``i`` of both lists must share its
    word sequence; raises :class:`EvaluationError` naming the sentence
    otherwise."""
    if len(gold) != len(pred):
        raise EvaluationError(
            f"got {len(gold)} gold but {len(pred)} predicted sentences"
        )
    counts = EvalCounts()
    for index, (g, p) in enumerate(zip(gold, pred)):
        counts = counts + count_pair(g, p, index)
    return report_from_counts(counts, len(gold))


def label_accuracy(
    gold_tuples: list[DistanceTuple], pred_tuples: list[DistanceTuple], field: str
) -> float:
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


def format_report(report: ScoreReport, word_label_acc: float | None = None) -> str:
    """Two-row text table (labeled/unlabeled), optionally with word-label
    accuracy appended."""
    lines = [
        f"sentences: {report.sentences}",
        "            Prec.   Recall  F1",
        f"labeled     {report.labeled_precision:6.2f}  {report.labeled_recall:6.2f}"
        f"  {report.labeled_f1:6.2f}",
        f"unlabeled   {report.unlabeled_precision:6.2f}  {report.unlabeled_recall:6.2f}"
        f"  {report.unlabeled_f1:6.2f}",
    ]
    if word_label_acc is not None:
        lines.append(f"word label accuracy: {word_label_acc:.2f}%")
    return "\n".join(lines)
