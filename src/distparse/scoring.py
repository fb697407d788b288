"""Bracket scoring: labeled and unlabeled precision/recall/F1, and the
accuracy of the word and split labels.

A simplified take on the usual bracket-matching evaluation: every internal
node (the root included, preterminals excluded) contributes one
``(label, start, end)`` span, spans are matched as multisets, and no
punctuation exclusion or label-equivalence rules are applied. The label
accuracies compare, position by position, the labels the parser predicts:
the ones :func:`~distparse.binarize.binarize` puts on the words and on the
split points.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import eq
from typing import NamedTuple

from .binarize import CHAIN_SEPARATOR, EMPTY_LABEL, LabelError, check_label
from .trees import Leaf, Tree


class EvaluationError(ValueError):
    """Gold and predicted inputs that cannot be compared."""


@dataclass
class EvalCounts:
    """Additive per-corpus bracket and label counts."""

    matched_labeled: int = 0
    matched_unlabeled: int = 0
    gold_total: int = 0
    pred_total: int = 0
    matched_word_labels: int = 0
    words: int = 0
    matched_split_labels: int = 0
    splits: int = 0

    def __add__(self, other: "EvalCounts") -> "EvalCounts":
        return EvalCounts(
            self.matched_labeled + other.matched_labeled,
            self.matched_unlabeled + other.matched_unlabeled,
            self.gold_total + other.gold_total,
            self.pred_total + other.pred_total,
            self.matched_word_labels + other.matched_word_labels,
            self.words + other.words,
            self.matched_split_labels + other.matched_split_labels,
            self.splits + other.splits,
        )

    def add_pair(self, gold: "TreeReading", pred: "TreeReading") -> None:
        """Count one sentence whose gold and predicted words agree."""
        self.matched_labeled += _common(gold.spans, pred.spans)
        self.matched_unlabeled += _common(gold.positions, pred.positions)
        self.gold_total += sum(gold.spans.values())
        self.pred_total += sum(pred.spans.values())
        self.matched_word_labels += sum(map(eq, gold.unary_labels, pred.unary_labels))
        self.words += len(gold.unary_labels)
        self.matched_split_labels += sum(map(eq, gold.split_labels, pred.split_labels))
        self.splits += len(gold.split_labels)


def _common(a: dict, b: dict) -> int:
    """The size of the intersection of two multisets held as counts."""
    keys = a.keys() & b.keys()
    return sum(map(min, map(a.__getitem__, keys), map(b.__getitem__, keys)))


class TreeReading(NamedTuple):
    """What scoring needs of one tree, read in one walk."""

    words: list[str]
    # the multiset of the (label, start, end) spans of the internal nodes,
    # end exclusive, as counts
    spans: dict[tuple[str, int, int], int]
    # the multiset of their (start, end) positions
    positions: dict[tuple[int, int], int]
    # the labels binarize puts on the terminals (one per word) and on the
    # split points (one per split), in the order encode lists them
    unary_labels: list[str]
    split_labels: list[str]
    # the first label binarize rejects, in pre-order, or None
    label_error: LabelError | None


def read_tree(tree: Tree) -> TreeReading:
    """Read a tree's words, spans, unary labels and split labels in one
    iterative pre-order walk.

    The labels are the ones ``encode(binarize(tree))`` holds: a maximal
    unary chain is joined with ``+``; the first split of a node with two or
    more children carries the node's chain label and every later split
    ``∅``; a chain that ends on a word becomes that word's unary label.
    Every label is checked as :func:`binarize` checks it, in the same
    order, but the first bad one is returned rather than raised, so a
    caller can finish the walk. Preterminals are not spans; a bare-leaf
    tree therefore has none.
    """
    words: list[str] = []
    unary: list[str] = []
    splits: list[str] = []
    spans: dict[tuple[str, int, int], int] = {}
    # one entry per unary chain: only the nodes of a chain share a position
    positions: dict[tuple[int, int], int] = {}
    error = None
    # open constituents: [chain labels, start, unvisited children, label
    # of the split before the next child]
    stack: list[list] = []
    node = tree
    while True:
        # read the unary chain down from node: it ends on a word or on a
        # node with several children
        chain = []
        while not isinstance(node, Leaf):
            label = node.label
            try:
                check_label(label)
            except LabelError as exc:
                if error is None:
                    error = exc
            chain.append(label)
            if len(node.children) != 1:
                children = iter(node.children)
                split = CHAIN_SEPARATOR.join(chain)
                stack.append([chain, len(words), children, split])
                node = next(children)
                break
            node = node.children[0]
        else:
            start = len(words)
            words.append(node.word)
            if chain:
                unary.append(CHAIN_SEPARATOR.join(chain))
                for label in chain:
                    span = (label, start, start + 1)
                    spans[span] = spans.get(span, 0) + 1
                positions[start, start + 1] = len(chain)
            else:
                unary.append(EMPTY_LABEL)
            # close the finished constituents up to the next unvisited child
            while stack:
                top = stack[-1]
                node = next(top[2], None)
                if node is not None:
                    splits.append(top[3])
                    top[3] = EMPTY_LABEL
                    break
                stack.pop()
                chain, start, _, _ = top
                end = len(words)
                for label in chain:
                    span = (label, start, end)
                    spans[span] = spans.get(span, 0) + 1
                positions[start, end] = len(chain)
            else:
                return TreeReading(words, spans, positions, unary, splits, error)


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

    Sentence ``i`` of both lists must share its word sequence; raises
    :class:`EvaluationError` naming the first sentence that does not,
    otherwise the :class:`LabelError` of the first label binarize rejects
    in the gold trees, then in the predicted ones.
    """
    if len(gold) != len(pred):
        raise EvaluationError(
            f"got {len(gold)} gold but {len(pred)} predicted sentences"
        )
    counts = EvalCounts()
    gold_error = pred_error = None
    for index, (g, p) in enumerate(zip(gold, pred)):
        gold_reading = read_tree(g)
        pred_reading = read_tree(p)
        if gold_reading.words != pred_reading.words:
            raise EvaluationError(f"leaf mismatch in sentence {index}")
        gold_error = gold_error or gold_reading.label_error
        pred_error = pred_error or pred_reading.label_error
        counts.add_pair(gold_reading, pred_reading)
    if gold_error or pred_error:
        raise gold_error or pred_error
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
