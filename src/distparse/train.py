"""Training loop, vocabularies, prediction, and checkpoint IO (version 2:
JSON with the flat parameter vector as one base64 string)."""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Sequence

import numpy as np

from . import model
from .binarize import EMPTY_LABEL, LabelError, split_chain
from .codec import DistanceTuple, decode_tree, root_split
from .scoring import score
from .trees import Tree

UNK = "<unk>"


@dataclass(frozen=True)
class Vocabulary:
    """Token and label inventories, fixed at training time.

    Words and tags fall back to index 0, which a literal ``<unk>`` shares;
    labels do not (they are outputs, drawn only from the training set).
    Building one raises ``ValueError`` for a repeated entry, and
    ``LabelError`` for a non-empty label that ``split_chain`` rejects.
    """

    words: tuple[str, ...]
    tags: tuple[str, ...]
    word_labels: tuple[str, ...]
    split_labels: tuple[str, ...]

    @classmethod
    def build(cls, corpus: Sequence[DistanceTuple]) -> "Vocabulary":
        if not corpus:
            raise ValueError("cannot build a vocabulary from an empty corpus")
        words = sorted({w for tup in corpus for w in tup.words} - {UNK})
        tags = sorted({t for tup in corpus for t in tup.tags} - {UNK})
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
        for name in (f.name for f in fields(self)):
            entries = getattr(self, name)
            index = {entry: i for i, entry in enumerate(entries)}
            if len(index) < len(entries):  # the index keeps a repeat's last id
                repeated = next(e for i, e in enumerate(entries) if index[e] != i)
                raise ValueError(f"{name} repeats entry {repeated!r}")
            try:
                for label in entries if name.endswith("_labels") else ():
                    if label != EMPTY_LABEL:
                        split_chain(label)
            except LabelError as exc:
                raise LabelError(f"{name}: {exc}") from None
            object.__setattr__(self, f"_{name[:-1]}_index", index)  # _word_index, …

    def input_ids(self, words, tags) -> tuple[list[int], list[int]]:
        """A sentence's word and tag ids for the network: an unseen word or
        tag is id 0."""
        return (
            [self._word_index.get(word, 0) for word in words],
            [self._tag_index.get(tag, 0) for tag in tags],
        )


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
    """Training settings, and the one place their desk-scale defaults are
    written; the fields are the keys of a ``--config`` file. Rejects, with
    ``ValueError``, fewer than one epoch, a negative seed, a model dimension
    that ``ModelConfig`` rejects, a float that breaks its :data:`_FLOAT_RULES`
    rule or is not finite, and an unknown loss.

    ``learning_rate`` is per sentence: training steps once per batch of up
    to :data:`TRAIN_BATCH` sentences, and a step over k sentences moves by
    ``learning_rate * k`` (see :func:`train`)."""

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

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        dims = (self.embed_dim, self.hidden_dim, self.conv_channels, self.ff_hidden)
        model.ModelConfig(1, 1, 1, 1, *dims)
        for name, (holds, rule) in _FLOAT_RULES.items():
            value = getattr(self, name)
            if not (math.isfinite(value) and holds(value)):
                raise ValueError(f"{name} must be a finite number {rule}, got {value}")
        if self.distance_loss not in model.LOSS_KINDS:
            raise ValueError(
                f"distance_loss must be one of {model.LOSS_KINDS}, "
                f"got {self.distance_loss!r}"
            )


class NonFiniteError(ValueError):
    """A loss or a model output that is NaN or infinite."""


class Adam:
    """Adam with decoupled weight decay, over one flat parameter vector.

    Each step is a fixed sequence of whole-vector operations on the vector,
    the gradient and two moment vectors, through two scratch vectors; per
    element it computes, in this order, ``m = b1*m + (1-b1)*g``,
    ``v = b2*v + (1-b2)*g*g`` and
    ``p -= lr*k * (m/c1 / (sqrt(v/c2) + eps) + wd*p)``, ``k`` the number of
    sentences that ``g`` sums over (1 by default).
    """

    def __init__(
        self,
        params: np.ndarray,
        learning_rate: float,
        beta1: float,
        beta2: float,
        eps: float,
        weight_decay: float,
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

    def step(self, params: np.ndarray, grads: np.ndarray, sentences: int = 1) -> None:
        """Update ``params`` in place from ``grads`` (same shape), the
        gradient summed over ``sentences`` sentences."""
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
        s *= self.learning_rate * sentences
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
    # vocab was built from the training tuples, so it holds all their labels
    return (
        *vocab.input_ids(tup.words, tup.tags),
        list(tup.distances),
        list(map(vocab._word_label_index.__getitem__, tup.unary_labels)),
        list(map(vocab._split_label_index.__getitem__, tup.split_labels)),
    )


def train(
    train_tuples: Sequence[DistanceTuple],
    dev_tuples: Sequence[DistanceTuple],
    config: TrainConfig = TrainConfig(),
    log=None,
) -> TrainResult:
    """Train on encoded sentences; keep the epoch with the best dev labeled
    F1, or the last epoch when there are no dev tuples (their F1 fields
    then read 0). Deterministic given the corpus and ``config.seed``.

    Each epoch draws one permutation of the corpus and cuts it into
    :func:`length_batches` of :data:`TRAIN_BATCH`; each batch is one
    :func:`~distparse.model.batch_loss` (its summed loss) and one Adam step
    of ``learning_rate`` times the batch's own size, a factor measured to
    keep the per-sentence step (README, "Training"). At a batch size of 1
    the batches are the permutation itself, one sentence each.

    Raises :class:`NonFiniteError` as soon as a batch's loss, or the
    parameters at the end of an epoch, are NaN or infinite, rather than
    carry on with broken weights.
    """
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
    lengths = [len(tup.words) for tup in train_tuples]
    chains: dict = {}
    gold_dev_trees = [decode_tree(tup, chains) for tup in dev_tuples]
    dev_sentences = [(tup.words, tup.tags) for tup in dev_tuples]

    result = TrainResult(params, model_config, vocab)
    best_f1 = -1.0
    best_params = params.copy()
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(examples)).tolist()
        sum_dist = 0.0
        sum_label = 0.0
        for batch in length_batches(order, lengths, TRAIN_BATCH):
            parts, grads = model.batch_loss(
                params,
                model_config,
                [examples[index] for index in batch],
                config.distance_loss,
            )
            if not math.isfinite(parts["total"]):
                raise NonFiniteError(f"non-finite loss at epoch {epoch}")
            optimizer.step(params.flat, grads.flat, len(batch))
            sum_dist += parts["distance"]
            sum_label += parts["label"]
        # the epoch's last step can break the weights with no loss to show it
        if not np.isfinite(params.flat).all():
            raise NonFiniteError(f"non-finite parameters at epoch {epoch}")
        labeled_f1 = unlabeled_f1 = 0.0
        if dev_tuples:
            predictions = predict_trees(params, model_config, vocab, dev_sentences)
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
            dev = f" dev F1 {labeled_f1:.2f}/{unlabeled_f1:.2f} (labeled/unlabeled)"
            log(
                f"epoch {epoch}: distance {metrics.distance_loss:.4f} "
                f"label {metrics.label_loss:.4f}{dev if dev_tuples else ''}"
            )
        if not dev_tuples or labeled_f1 > best_f1:
            best_f1 = labeled_f1
            best_params = params.copy()
            result.best_epoch = epoch
    result.params = best_params
    return result


# training steps once per batch of this many sentences; predict and dev
# evaluation run the model over batches of PREDICT_BATCH; length_batches
# cuts both
TRAIN_BATCH = 4
PREDICT_BATCH = 32


def length_batches(
    order: Sequence[int], lengths: Sequence[int], size: int
) -> list[list[int]]:
    """Cut ``order``, indices into ``lengths``, into batches of ``size``
    indices of similar length, so that padding, and so wasted work, stays
    small: ``order`` stable-sorted by length, cut into runs of ``size`` (the
    last may be shorter), the runs in the order of each one's earliest
    member in ``order``. At ``size = 1`` that is ``order`` itself."""
    position = {index: place for place, index in enumerate(order)}
    by_length = sorted(order, key=lengths.__getitem__)
    batches = [
        by_length[start : start + size] for start in range(0, len(by_length), size)
    ]
    batches.sort(key=lambda batch: min(map(position.__getitem__, batch)))
    return batches


def predict_scores(
    params: dict[str, np.ndarray],
    model_config: model.ModelConfig,
    vocab: Vocabulary,
    sentences: Sequence[tuple[Sequence[str], Sequence[str]]],
) -> list[DistanceTuple]:
    """One batched forward pass on a non-empty list of raw ``(words,
    tags)`` pairs: per sentence, in input order, the tuple of its scores
    and argmax labels.

    The empty label marks non-constituent spans and is never legal on the
    root, but an argmax can still put it there; the root split
    (:func:`~distparse.codec.root_split`) then takes its most probable
    non-empty label, the leftmost of equals, so every tuple decodes to a
    well-formed tree. Raises ``ValueError`` if the model has no such label,
    and :class:`NonFiniteError` if a sentence's scores or label
    probabilities are not all finite (parameters large enough to
    overflow), since no tree decoded from them would mean anything.
    """
    ids = [vocab.input_ids(words, tags) for words, tags in sentences]
    result = model.forward_batch(
        params, model_config, [w for w, _ in ids], [t for _, t in ids]
    )
    outputs = (result.distances, result.word_probs, result.split_probs)
    # the whole batch in three checks; the batch rows include padding, so
    # only a failure is checked sentence by sentence
    finite = all(np.isfinite(output).all() for output in outputs)
    # the argmax labels of every padded row at once, as Python ints
    word_label_ids = result.word_probs.argmax(axis=2).tolist()
    split_label_ids = result.split_probs.argmax(axis=2).tolist()
    word_labels = vocab.word_labels.__getitem__
    split_labels = vocab.split_labels.__getitem__
    scored = []
    for row, (words, tags) in enumerate(sentences):
        n = len(words)
        if not finite and not all(
            np.isfinite(output[row, :length]).all()
            for output, length in zip(outputs, (n - 1, n, n - 1))
        ):
            raise NonFiniteError(f"non-finite model output for {_sentence(words)}")
        distances = result.distances[row, : n - 1].tolist()
        split_ids = split_label_ids[row][: n - 1]
        labels = list(map(split_labels, split_ids))
        root = root_split(distances)
        if root >= 0 and labels[root] == EMPTY_LABEL:
            probs = result.split_probs[row, root].copy()
            probs[split_ids[root]] = -np.inf  # mask the empty label
            labels[root] = split_labels(int(probs.argmax()))
            if labels[root] == EMPTY_LABEL:  # the only label the model has
                raise ValueError(
                    f"the model has no non-empty split label for the root "
                    f"of {_sentence(words)}"
                )
        scored.append(
            DistanceTuple(
                words=tuple(words),
                tags=tuple(tags),
                unary_labels=tuple(map(word_labels, word_label_ids[row][:n])),
                distances=tuple(distances),
                split_labels=tuple(labels),
            )
        )
    return scored


def _sentence(words: Sequence[str]) -> str:
    return f"the {len(words)}-word sentence starting {words[0]!r}"


def predict_trees(
    params,
    model_config,
    vocab,
    sentences: Sequence[tuple[Sequence[str], Sequence[str]]],
) -> list[Tree]:
    """Parse ``(words, tags)`` pairs: :func:`predict_scores` in
    :func:`length_batches` of :data:`PREDICT_BATCH`, each tuple decoded to
    an n-ary tree by :func:`~distparse.codec.decode_tree`, in input order.
    The decodes share one chain dict, so each distinct label is split
    once."""
    lengths = [len(words) for words, _ in sentences]
    parsed: list = [None] * len(sentences)
    chains: dict = {}
    for chunk in length_batches(range(len(sentences)), lengths, PREDICT_BATCH):
        scored = predict_scores(
            params, model_config, vocab, [sentences[index] for index in chunk]
        )
        for index, tup in zip(chunk, scored):
            parsed[index] = decode_tree(tup, chains)
    return parsed


CHECKPOINT_FORMAT = "distparse.checkpoint"
CHECKPOINT_VERSION = 2
_PARAM_DTYPE = np.dtype("<f8")  # the stored parameters: little-endian float64s


def checkpoint_text(result: TrainResult, metadata: dict | None = None) -> str:
    """A self-describing JSON checkpoint, one line: dimensions,
    vocabularies, and ``params``, the flat parameter vector (arrays in
    :func:`~distparse.model.param_shapes` order) as one base64 string."""
    flat = result.params.flat.astype(_PARAM_DTYPE, copy=False)
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "model": asdict(result.model_config),
        "vocab": {f.name: getattr(result.vocab, f.name) for f in fields(Vocabulary)},
        "params": base64.b64encode(flat.tobytes()).decode("ascii"),
        "metadata": metadata or {},
    }
    return json.dumps(payload) + "\n"


def load_checkpoint(path) -> TrainResult:
    """:func:`read_checkpoint` of the file at ``path``, read as UTF-8."""
    with open(path, encoding="utf-8") as handle:
        return read_checkpoint(handle.read())


def read_checkpoint(text: str) -> TrainResult:
    """Read a :func:`checkpoint_text`; any fault raises a one-line
    ``ValueError``. Only version 2 is read. All eight ``model`` fields are
    required; ``ModelConfig`` and :class:`Vocabulary` check their own
    values, their errors prefixed ``model.`` and ``vocab.``. The
    ``params`` buffer must be strict base64 of exactly the model's
    parameter count of float64s, all finite; the count is checked before
    anything is sized from ``model``, so a huge dimension is a mismatch."""
    try:
        payload = json.loads(text)
    except RecursionError:
        raise ValueError("JSON nests too deeply to read") from None
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError("not a recognized checkpoint file")
    version = payload.get("version")
    if type(version) is not int or version != CHECKPOINT_VERSION:
        found = f"version {version}" if type(version) is int else "no integer version"
        raise ValueError(
            f"only checkpoint version {CHECKPOINT_VERSION} is read, and this file "
            f"has {found}: retrain the model"
        )
    for section, kind in (("model", dict), ("vocab", dict), ("params", str)):
        if section not in payload:
            raise ValueError(f"no '{section}' section")
        if not isinstance(payload[section], kind):
            wording = "a JSON object" if kind is dict else "a base64 string"
            raise ValueError(f"{section} must be {wording}")
    model_fields = [f.name for f in fields(model.ModelConfig)]
    for name in payload["model"]:
        if name not in model_fields:
            raise ValueError(f"model.{name} is not a model field")
    for name in model_fields:
        if name not in payload["model"]:
            raise ValueError(f"model.{name} is missing")
    try:
        model_config = model.ModelConfig(**payload["model"])
    except ValueError as exc:
        raise ValueError(f"model.{exc}") from None
    names = [f.name for f in fields(Vocabulary)]
    for name in names:  # vocabulary "<x>s" is indexed by ModelConfig.<x>_vocab
        entries, dimension = payload["vocab"].get(name), f"{name[:-1]}_vocab"
        if not (isinstance(entries, list) and all(isinstance(e, str) for e in entries)):
            raise ValueError(f"vocab.{name} must be a list of strings")
        if len(entries) != getattr(model_config, dimension):
            raise ValueError(
                f"vocab.{name} has {len(entries)} entries "
                f"but model.{dimension} is {getattr(model_config, dimension)}"
            )
    try:
        vocab = Vocabulary(**{name: tuple(payload["vocab"][name]) for name in names})
    except ValueError as exc:  # LabelError included, and kept
        raise type(exc)(f"vocab.{exc}") from None
    layout = model.param_shapes(model_config)
    count = sum(math.prod(shape) for shape in layout.values())
    try:
        stored = base64.b64decode(payload["params"], validate=True)
    except ValueError:  # binascii.Error included
        raise ValueError("params is not valid base64") from None
    needed = count * _PARAM_DTYPE.itemsize
    if len(stored) != needed:
        raise ValueError(
            f"params holds {len(stored)} bytes; "
            f"the model's {count} parameters need {needed}"
        )
    values = np.frombuffer(stored, dtype=_PARAM_DTYPE)
    if not np.isfinite(values).all():
        raise ValueError("params holds non-finite values")
    params = model.FlatParams(layout)
    params.flat[...] = values
    return TrainResult(params=params, model_config=model_config, vocab=vocab)
