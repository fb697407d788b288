"""Training loop, vocabularies, prediction, and checkpoint IO."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from typing import Sequence

import numpy as np

from . import model
from .binarize import EMPTY_LABEL, Internal, LabelError, debinarize, split_chain
from .codec import ENGINES, DistanceTuple, decode
from .scoring import score
from .trees import Tree

UNK = "<unk>"


@dataclass(frozen=True)
class Vocabulary:
    """Token and label inventories, fixed at training time.

    Words and tags get an unknown-token fallback at index 0; labels do not
    (they are outputs, drawn only from the training set).
    """

    words: tuple[str, ...]
    tags: tuple[str, ...]
    word_labels: tuple[str, ...]
    split_labels: tuple[str, ...]

    @classmethod
    def build(cls, corpus: Sequence[DistanceTuple]) -> "Vocabulary":
        if not corpus:
            raise ValueError("cannot build a vocabulary from an empty corpus")
        words = sorted({w for tup in corpus for w in tup.words})
        tags = sorted({t for tup in corpus for t in tup.tags})
        word_labels = {u for tup in corpus for u in tup.unary_labels}
        split_labels = {c for tup in corpus for c in tup.split_labels}
        word_labels.add(EMPTY_LABEL)
        split_labels.add(EMPTY_LABEL)
        return cls(
            words=(UNK, *words),
            tags=(UNK, *tags),
            word_labels=tuple(sorted(word_labels)),
            split_labels=tuple(sorted(split_labels)),
        )

    def __post_init__(self):
        object.__setattr__(
            self, "_word_index", {w: i for i, w in enumerate(self.words)}
        )
        object.__setattr__(self, "_tag_index", {t: i for i, t in enumerate(self.tags)})
        object.__setattr__(
            self, "_word_label_index", {u: i for i, u in enumerate(self.word_labels)}
        )
        object.__setattr__(
            self,
            "_split_label_index",
            {c: i for i, c in enumerate(self.split_labels)},
        )

    def word_id(self, word: str) -> int:
        return self._word_index.get(word, 0)

    def tag_id(self, tag: str) -> int:
        return self._tag_index.get(tag, 0)

    def word_label_id(self, label: str) -> int:
        try:
            return self._word_label_index[label]
        except KeyError:
            raise ValueError(f"word label {label!r} not in the training vocabulary")

    def split_label_id(self, label: str) -> int:
        try:
            return self._split_label_index[label]
        except KeyError:
            raise ValueError(f"split label {label!r} not in the training vocabulary")


# TrainConfig's float fields -> (the rule each value must meet, its wording)
_FLOAT_RULES = {
    "learning_rate": (lambda value: value > 0, "greater than 0"),
    "beta1": (lambda value: 0 <= value < 1, "in [0, 1)"),
    "beta2": (lambda value: 0 <= value < 1, "in [0, 1)"),
    "adam_eps": (lambda value: value > 0, "greater than 0"),
    "weight_decay": (lambda value: value >= 0, "not below 0"),
}


@dataclass(frozen=True)
class TrainConfig:
    """Training settings; the fields are the keys of a ``--config`` file.
    Rejects, with ``ValueError``, fewer than one epoch, a model dimension
    below 1, a float that breaks its :data:`_FLOAT_RULES` rule or is not
    finite, and an unknown loss or decode engine."""

    epochs: int = 20
    seed: int = 0
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 1e-6
    distance_loss: str = "rank"
    embed_dim: int = 16
    hidden_dim: int = 32
    conv_channels: int = 32
    ff_hidden: int = 32
    decode_engine: str = "stack"

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        dims = (self.embed_dim, self.hidden_dim, self.conv_channels, self.ff_hidden)
        model.ModelConfig(1, 1, 1, 1, *dims).validate()
        for name, (holds, rule) in _FLOAT_RULES.items():
            value = getattr(self, name)
            if not (math.isfinite(value) and holds(value)):
                raise ValueError(f"{name} must be a finite number {rule}, got {value}")
        if self.distance_loss not in model.LOSS_KINDS:
            raise ValueError(
                f"distance_loss must be one of {model.LOSS_KINDS}, "
                f"got {self.distance_loss!r}"
            )
        if self.decode_engine not in ENGINES:
            raise ValueError(
                f"decode_engine must be one of {ENGINES}, got {self.decode_engine!r}"
            )


class NonFiniteError(ValueError):
    """A loss or a model output that is NaN or infinite."""


class Adam:
    """Adam with decoupled weight decay, over one flat parameter vector.

    Each step is a fixed sequence of whole-vector operations on the vector,
    the gradient and two moment vectors, through two scratch vectors; per
    element it computes, in this order, ``m = b1*m + (1-b1)*g``,
    ``v = b2*v + (1-b2)*g*g`` and
    ``p -= lr * (m/c1 / (sqrt(v/c2) + eps) + wd*p)``.
    """

    def __init__(
        self,
        params: np.ndarray,
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.first_moment = np.zeros_like(params)
        self.second_moment = np.zeros_like(params)
        self._scratch = (np.empty_like(params), np.empty_like(params))

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Update ``params`` in place from ``grads`` (same shape)."""
        self.step_count += 1
        correction1 = 1.0 - self.beta1**self.step_count
        correction2 = 1.0 - self.beta2**self.step_count
        m, v = self.first_moment, self.second_moment
        s, t = self._scratch
        m *= self.beta1
        np.multiply(grads, 1.0 - self.beta1, out=s)
        m += s
        v *= self.beta2
        np.multiply(grads, 1.0 - self.beta2, out=s)
        s *= grads
        v += s
        np.divide(m, correction1, out=s)
        np.divide(v, correction2, out=t)
        np.sqrt(t, out=t)
        t += self.eps
        s /= t
        np.multiply(params, self.weight_decay, out=t)
        s += t
        s *= self.learning_rate
        params -= s


@dataclass
class EpochMetrics:
    epoch: int
    distance_loss: float
    label_loss: float
    total_loss: float
    dev_labeled_f1: float
    dev_unlabeled_f1: float


@dataclass
class TrainResult:
    params: model.FlatParams
    model_config: model.ModelConfig
    vocab: Vocabulary
    history: list[EpochMetrics] = field(default_factory=list)
    best_epoch: int = 0


def _encode_example(tup: DistanceTuple, vocab: Vocabulary):
    return (
        [vocab.word_id(w) for w in tup.words],
        [vocab.tag_id(t) for t in tup.tags],
        list(tup.distances),
        [vocab.word_label_id(u) for u in tup.unary_labels],
        [vocab.split_label_id(c) for c in tup.split_labels],
    )


def train(
    train_tuples: Sequence[DistanceTuple],
    dev_tuples: Sequence[DistanceTuple],
    config: TrainConfig = TrainConfig(),
    log=None,
) -> TrainResult:
    """Train on encoded sentences; keep the epoch with the best dev labeled
    F1. Deterministic given the corpus and ``config.seed``.

    Raises :class:`NonFiniteError` as soon as a sentence's loss, or the
    parameters at the end of an epoch, are NaN or infinite, rather than
    carry on with broken weights.
    """
    if not train_tuples:
        raise ValueError("empty training corpus")
    vocab = Vocabulary.build(train_tuples)
    model_config = model.ModelConfig(
        word_vocab=len(vocab.words),
        tag_vocab=len(vocab.tags),
        word_label_vocab=len(vocab.word_labels),
        split_label_vocab=len(vocab.split_labels),
        embed_dim=config.embed_dim,
        hidden_dim=config.hidden_dim,
        conv_channels=config.conv_channels,
        ff_hidden=config.ff_hidden,
    )
    rng = np.random.default_rng(config.seed)
    params = model.init_params(model_config, rng)
    optimizer = Adam(
        params.flat,
        learning_rate=config.learning_rate,
        beta1=config.beta1,
        beta2=config.beta2,
        eps=config.adam_eps,
        weight_decay=config.weight_decay,
    )
    examples = [_encode_example(tup, vocab) for tup in train_tuples]
    gold_dev_trees = [
        debinarize(decode(tup, config.decode_engine)) for tup in dev_tuples
    ]
    dev_sentences = [(tup.words, tup.tags) for tup in dev_tuples]

    result = TrainResult(params, model_config, vocab)
    best_f1 = -1.0
    best_params = params.copy()
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(examples))
        sum_dist = 0.0
        sum_label = 0.0
        for index in order:
            word_ids, tag_ids, gold_d, gold_w, gold_s = examples[index]
            parts, grads = model.sentence_loss(
                params,
                model_config,
                word_ids,
                tag_ids,
                gold_d,
                gold_w,
                gold_s,
                config.distance_loss,
            )
            if not math.isfinite(parts["total"]):
                raise NonFiniteError(f"non-finite loss at epoch {epoch}")
            optimizer.step(params.flat, grads.flat)
            sum_dist += parts["distance"]
            sum_label += parts["label"]
        # the epoch's last step can break the weights with no loss to show it
        if not np.isfinite(params.flat).all():
            raise NonFiniteError(f"non-finite parameters at epoch {epoch}")
        labeled_f1 = unlabeled_f1 = 0.0
        if dev_tuples:
            predictions = predict_trees(
                params, model_config, vocab, dev_sentences, config.decode_engine
            )
            report = score(gold_dev_trees, predictions)
            labeled_f1 = report.labeled_f1
            unlabeled_f1 = report.unlabeled_f1
        metrics = EpochMetrics(
            epoch=epoch,
            distance_loss=sum_dist / len(examples),
            label_loss=sum_label / len(examples),
            total_loss=(sum_dist + sum_label) / len(examples),
            dev_labeled_f1=labeled_f1,
            dev_unlabeled_f1=unlabeled_f1,
        )
        result.history.append(metrics)
        if log is not None:
            log(
                f"epoch {epoch}: distance {metrics.distance_loss:.4f} "
                f"label {metrics.label_loss:.4f} "
                f"dev F1 {labeled_f1:.2f}/{unlabeled_f1:.2f} (labeled/unlabeled)"
            )
        if not dev_tuples or labeled_f1 > best_f1:
            best_f1 = labeled_f1
            best_params = params.copy()
            result.best_epoch = epoch
    result.params = best_params
    return result


# predict and dev evaluation run the model over length-sorted batches of
# this many sentences; sorting keeps the padding, and so the wasted steps,
# small
PREDICT_BATCH = 32


def predict_scores(
    params: dict[str, np.ndarray],
    model_config: model.ModelConfig,
    vocab: Vocabulary,
    sentences: Sequence[tuple[Sequence[str], Sequence[str]]],
) -> list[tuple[DistanceTuple, np.ndarray, np.ndarray]]:
    """One batched forward pass on raw ``(words, tags)`` pairs: per
    sentence, in input order, the argmax-labeled tuple plus the two label
    probability matrices.

    Raises :class:`NonFiniteError` if a sentence's scores or label
    probabilities are not all finite (parameters large enough to overflow),
    since no tree decoded from them would mean anything.
    """
    word_index, tag_index = vocab._word_index, vocab._tag_index
    results = model.forward_batch(
        params,
        model_config,
        [[word_index.get(w, 0) for w in words] for words, _ in sentences],
        [[tag_index.get(t, 0) for t in tags] for _, tags in sentences],
    )
    if not results:
        return []
    # the label probabilities of the whole batch in two checks; the batch
    # rows include padding, so only a failure is checked sentence by sentence
    batch_probs = (results[0].cache["word_probs"], results[0].cache["split_probs"])
    probs_finite = all(np.isfinite(probs).all() for probs in batch_probs)
    # the argmax labels of every padded row at once, as Python ints
    batch, steps = results[0].cache["words"].shape
    word_label_ids = batch_probs[0].argmax(axis=1).reshape(batch, steps).tolist()
    split_label_ids = batch_probs[1].argmax(axis=1).reshape(batch, steps - 1).tolist()
    word_labels = vocab.word_labels.__getitem__
    split_labels = vocab.split_labels.__getitem__
    scored = []
    for (words, tags), result, word_row, split_row in zip(
        sentences, results, word_label_ids, split_label_ids
    ):
        if not (
            probs_finite
            or np.isfinite(result.word_probs).all()
            and np.isfinite(result.split_probs).all()
        ):
            raise NonFiniteError(_non_finite_output(words))
        n = len(words)
        try:
            tup = DistanceTuple(
                words=tuple(words),
                tags=tuple(tags),
                unary_labels=tuple(map(word_labels, word_row[:n])),
                distances=tuple(result.distances.tolist()),
                split_labels=tuple(map(split_labels, split_row[: n - 1])),
            )
        except ValueError:  # the lengths agree, so a score is not finite
            raise NonFiniteError(_non_finite_output(words)) from None
        scored.append((tup, result.word_probs, result.split_probs))
    return scored


def _non_finite_output(words: Sequence[str]) -> str:
    return (
        f"non-finite model output for the {len(words)}-word sentence "
        f"starting {words[0]!r}"
    )


def predict_trees(
    params,
    model_config,
    vocab,
    sentences: Sequence[tuple[Sequence[str], Sequence[str]]],
    engine: str = "stack",
) -> list[Tree]:
    """Parse ``(words, tags)`` pairs: predict scores and labels in
    length-sorted batches of :data:`PREDICT_BATCH`, decode, and expand to
    n-ary trees, in input order.

    The empty label marks non-constituent spans and is never legal on the
    root, but an argmax can still put it there; in that case the root keeps
    its best non-empty label instead, so prediction always yields a
    well-formed tree.
    """
    order = sorted(range(len(sentences)), key=lambda index: len(sentences[index][0]))
    parsed: list = [None] * len(sentences)
    for start in range(0, len(order), PREDICT_BATCH):
        chunk = order[start : start + PREDICT_BATCH]
        scored = predict_scores(
            params, model_config, vocab, [sentences[index] for index in chunk]
        )
        for index, (tup, _, split_probs) in zip(chunk, scored):
            tree = decode(tup, engine)
            if isinstance(tree, Internal) and tree.label == EMPTY_LABEL:
                root_split = int(np.argmax(np.asarray(tup.distances)))
                tree.label = _best_non_empty(
                    split_probs[root_split], vocab.split_labels
                )
            parsed[index] = debinarize(tree)
    return parsed


def _best_non_empty(probs: np.ndarray, labels: tuple[str, ...]) -> str:
    order = np.argsort(-probs)
    for index in order:
        if labels[index] != EMPTY_LABEL:
            return labels[index]
    return "X"  # degenerate vocabulary: nothing but the empty label


CHECKPOINT_FORMAT = "distparse.checkpoint"
_DIRECTIONS = ("fwd", "bwd")


def _checkpoint_arrays(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The arrays under their checkpoint names: each direction-stacked LSTM
    array ``<lstm>_<kind>`` splits into ``<lstm>_fwd_<kind>`` and
    ``<lstm>_bwd_<kind>``. The values are views into ``params``."""
    arrays = {}
    for name, value in params.items():
        if name.startswith("lstm_"):
            prefix, _, kind = name.rpartition("_")
            for direction, half in zip(_DIRECTIONS, value):
                arrays[f"{prefix}_{direction}_{kind}"] = half
        else:
            arrays[name] = value
    return arrays


def save_checkpoint(
    path,
    result: TrainResult,
    metadata: dict | None = None,
) -> None:
    """Write a self-describing JSON checkpoint (dimensions, vocabularies,
    and every parameter array keyed by name, one per LSTM direction)."""
    arrays = _checkpoint_arrays(result.params)
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": 1,
        "model": asdict(result.model_config),
        "vocab": {
            "words": list(result.vocab.words),
            "tags": list(result.vocab.tags),
            "word_labels": list(result.vocab.word_labels),
            "split_labels": list(result.vocab.split_labels),
        },
        "params": {name: arrays[name].tolist() for name in sorted(arrays)},
        "metadata": metadata or {},
    }
    with open(path, "w", encoding="utf-8") as handle:
        # dumps runs the C encoder; dump to a file runs the Python one
        handle.write(json.dumps(payload))
        handle.write("\n")


def load_checkpoint(path) -> TrainResult:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path} is not a recognized checkpoint file")
    model_config = model.ModelConfig(**payload["model"])
    vocab = Vocabulary(
        words=tuple(payload["vocab"]["words"]),
        tags=tuple(payload["vocab"]["tags"]),
        word_labels=tuple(payload["vocab"]["word_labels"]),
        split_labels=tuple(payload["vocab"]["split_labels"]),
    )
    for name in ("word_labels", "split_labels"):
        for label in getattr(vocab, name):
            if label != EMPTY_LABEL:
                try:
                    split_chain(label)
                except LabelError as exc:
                    raise LabelError(f"vocab.{name}: {exc}") from None
    model_config.validate()
    params = model.FlatParams(model.param_shapes(model_config))
    slots = _checkpoint_arrays(params)
    if set(payload["params"]) != set(slots):
        raise ValueError("checkpoint parameter names do not match the model")
    for name in sorted(slots):
        values = np.asarray(payload["params"][name], dtype=np.float64)
        if values.shape != slots[name].shape:
            raise ValueError(
                f"parameter {name} has shape {values.shape}, "
                f"the model needs {slots[name].shape}"
            )
        if not np.isfinite(values).all():
            raise ValueError(f"parameter {name} holds non-finite values")
        slots[name][...] = values
    return TrainResult(params=params, model_config=model_config, vocab=vocab)
