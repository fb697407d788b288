"""The score-prediction network and its hand-written backward pass.

Pipeline, for an n-word sentence:

1. word + tag embeddings, concatenated per position
2. word-level bidirectional LSTM -> one state per word
3. a 2-layer feed-forward head with softmax over per-word unary labels
4. a width-2 convolution over adjacent word states -> one vector per
   split point (n - 1 of them), tanh activation
5. split-level bidirectional LSTM over the split vectors
6. a 2-layer head with a single linear output unit -> the split scores
7. a 2-layer head with softmax over split labels

Everything is float64 numpy. All parameters live in one contiguous vector,
and :class:`FlatParams` maps each name to a view into it, so the optimizer
updates the whole model with a few vector operations while the forward
pass and the gradient checks address arrays by name. :func:`backward`
returns the gradients in a fresh buffer with the same layout, writing each
gradient once (only the embedding slices are zeroed, for ``np.add.at``).
Each BiLSTM's weights are stored stacked by direction, forward first:
``lstm_word_Wx`` is (2, in, 4h), ``lstm_word_Wh`` (2, h, 4h) and
``lstm_word_b`` (2, 4h), and likewise for ``lstm_split``.

There is one implementation, over a padded batch. :func:`forward_batch`
stacks B sentences, each left-aligned and padded with token id 0, into
(B, T, ·) arrays, T the longest length, and returns one
:class:`ForwardResult` of padded outputs with the lengths; the BiLSTMs
need no mask (:func:`_bilstm_forward`). A batch run with
``keep_activations`` keeps what :func:`backward` reads. :func:`batch_loss`
is one training step: the forward pass, one call of each
:mod:`~distparse.losses` function over the padded batch and the lengths,
and the backward pass; :func:`sentence_loss` is its one-sentence case, and
:func:`forward` the one-sentence batch without its batch axis. Training
and prediction run length-sorted batches (``train.length_batches``) to
keep padding small.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from . import losses


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions of the network, each an ``int`` of at least 1; building
    one with any other value raises ``ValueError`` naming the field. The
    desk-scale defaults live in ``train.TrainConfig``."""

    word_vocab: int
    tag_vocab: int
    word_label_vocab: int
    split_label_vocab: int
    embed_dim: int
    hidden_dim: int  # per LSTM direction
    conv_channels: int
    ff_hidden: int

    def __post_init__(self):
        for name in (f.name for f in fields(self)):
            value = getattr(self, name)
            if type(value) is not int:  # not bool, an int subclass
                raise ValueError(f"{name} must be an integer")
            if value < 1:
                raise ValueError(f"{name} must be positive")


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class FlatParams(dict):
    """Name -> array mapping whose arrays are views that tile one contiguous
    float64 vector, :attr:`flat`, in insertion order.

    Update the arrays in place; assigning a new array to a name would detach
    it from :attr:`flat`. A layout too large to allocate raises
    ``ValueError`` naming its parameter count.
    """

    def __init__(self, shapes: dict[str, tuple[int, ...]]):
        super().__init__()
        layout = []
        offset = 0
        for name, shape in shapes.items():
            size = math.prod(shape)
            layout.append((name, slice(offset, offset + size), shape))
            offset += size
        try:
            flat = np.zeros(offset)
        except (MemoryError, ValueError):  # numpy's ValueError: past its size limit
            raise ValueError(f"cannot allocate {offset} parameters") from None
        self._fill(tuple(layout), flat)

    def _fill(self, layout: tuple, flat: np.ndarray) -> None:
        # layout: (name, slice of the flat vector, shape) per array
        self._layout = layout
        self.flat = flat
        dict.update(
            self, {name: flat[part].reshape(shape) for name, part, shape in layout}
        )

    def _with_flat(self, flat: np.ndarray) -> "FlatParams":
        """A buffer with this layout over ``flat``, reusing the layout."""
        other = dict.__new__(FlatParams)
        other._fill(self._layout, flat)
        return other

    def empty_like(self) -> "FlatParams":
        """A buffer with the same layout and uninitialized values."""
        return self._with_flat(np.empty_like(self.flat))

    def copy(self) -> "FlatParams":
        return self._with_flat(self.flat.copy())


_HEADS = ("word_head", "dist_head", "split_head")


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter, in the order of the flat layout."""
    e, h = config.embed_dim, config.hidden_dim
    m, f = config.conv_channels, config.ff_hidden
    shapes = {
        "embed_word": (config.word_vocab, e),
        "embed_tag": (config.tag_vocab, e),
    }
    for prefix, in_dim in (("lstm_word", 2 * e), ("lstm_split", m)):
        shapes[f"{prefix}_Wx"] = (2, in_dim, 4 * h)
        shapes[f"{prefix}_Wh"] = (2, h, 4 * h)
        shapes[f"{prefix}_b"] = (2, 4 * h)
    shapes["conv_W"] = (4 * h, m)
    shapes["conv_b"] = (m,)
    out_dims = (config.word_label_vocab, 1, config.split_label_vocab)
    for head, out_dim in zip(_HEADS, out_dims):
        shapes[f"{head}_W1"] = (2 * h, f)
        shapes[f"{head}_b1"] = (f,)
        shapes[f"{head}_W2"] = (f, out_dim)
        shapes[f"{head}_b2"] = (out_dim,)
    return shapes


def init_params(config: ModelConfig, rng: np.random.Generator) -> FlatParams:
    """Fresh parameters; biases start at 0 except the LSTM forget gates, at 1.

    The draws run embeddings, then per LSTM forward Wx, forward Wh, backward
    Wx, backward Wh, then the conv and each head's W1 and W2.
    """
    h = config.hidden_dim
    params = FlatParams(param_shapes(config))
    for name in ("embed_word", "embed_tag"):
        params[name][...] = rng.uniform(-0.1, 0.1, size=params[name].shape)
    for prefix in ("lstm_word", "lstm_split"):
        for direction in range(2):
            for kind in ("Wx", "Wh"):
                weights = params[f"{prefix}_{kind}"][direction]
                weights[...] = _glorot(rng, *weights.shape)
        params[f"{prefix}_b"][:, h : 2 * h] = 1.0
    for name in ("conv_W", *(f"{head}_{w}" for head in _HEADS for w in ("W1", "W2"))):
        params[name][...] = _glorot(rng, *params[name].shape)
    return params


def _reversal(lengths: np.ndarray, steps: int) -> np.ndarray:
    """(B, steps) gather index that reverses each row within its own length
    and leaves the padded positions in place; it is its own inverse."""
    t = np.arange(steps)
    last = lengths[:, None] - 1
    return np.where(t <= last, last - t, t)


@functools.lru_cache(maxsize=None)
def _gate_scale(hidden: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-gate factor of the fused activation, 1/2 on the sigmoid gates
    i, f, o and 1 on the candidate g, and 1 minus it; read-only, built once
    per hidden size."""
    scale = np.full(4 * hidden, 0.5)
    scale[2 * hidden : 3 * hidden] = 1.0
    offset = 1.0 - scale
    scale.flags.writeable = offset.flags.writeable = False
    return scale, offset


def _activate(z: np.ndarray, scale: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """Gate pre-activations -> [sigmoid(i), sigmoid(f), tanh(g), sigmoid(o)]
    in place along the last axis: one tanh for all four gates, as
    sigmoid(x) = 0.5 * (1 + tanh(x / 2)), with :func:`_gate_scale`'s pair."""
    z *= scale
    np.tanh(z, out=z)
    z *= scale
    z += offset
    return z


def _input_gates(xs, Wx, b, batch, steps):
    """Input part of the gate pre-activations of every step, as a
    (T, 2, B, 4h) view."""
    gates = np.matmul(xs, Wx) + b[:, None, :]
    return gates.reshape(2, batch, steps, Wx.shape[2]).transpose(2, 0, 1, 3)


def _bilstm_forward(x, rev, params, prefix, keep):
    """Both directions of a BiLSTM over a padded batch ``x`` (B, T, d).

    The backward direction reads each sentence reversed within its length
    (``rev``), so in both directions padded steps follow every real step
    and the recurrence runs unmasked. The two directions are stacked on a
    leading axis and advance in one loop. Returns (B, T, 2h) and the cache
    that :func:`_bilstm_backward` reads, or None unless ``keep``: the
    states plus every step's activated gates and tanh(c). Without ``keep``
    one step's scratch stands in for those.
    """
    batch, steps, width = x.shape
    Wx, Wh = params[f"{prefix}_Wx"], params[f"{prefix}_Wh"]
    hidden = Wh.shape[1]
    rows = np.arange(batch)[:, None]
    xs = np.empty((2, batch, steps, width))
    xs[0] = x
    xs[1] = x[rows, rev]
    xs = xs.reshape(2, batch * steps, width)
    gates = _input_gates(xs, Wx, params[f"{prefix}_b"], batch, steps)
    scale, offset = _gate_scale(hidden)
    h_all = np.zeros((steps + 1, 2, batch, hidden))
    c_all = np.zeros((steps + 1, 2, batch, hidden))
    acts = np.empty((steps if keep else 1, 2, batch, 4 * hidden))
    tanh_c = np.empty((steps if keep else 1, 2, batch, hidden))
    for t in range(steps):
        act, tanh = acts[t if keep else 0], tanh_c[t if keep else 0]
        np.matmul(h_all[t], Wh, out=act)
        act += gates[t]
        _activate(act, scale, offset)
        c = c_all[t + 1]
        np.multiply(act[..., hidden : 2 * hidden], c_all[t], out=c)
        c += act[..., :hidden] * act[..., 2 * hidden : 3 * hidden]
        np.multiply(act[..., 3 * hidden :], np.tanh(c, out=tanh), out=h_all[t + 1])
    out = h_all[1:].transpose(1, 2, 0, 3)  # (2, B, T, h)
    h = np.concatenate([out[0], out[1][rows, rev]], axis=2)
    return h, (xs, rev, Wx, Wh, h_all, c_all, acts, tanh_c) if keep else None


def _bilstm_backward(d_out, cache, prefix, grads):
    """Gradients of both directions from d_out (B, T, 2h), written into
    ``grads``; returns d_x."""
    xs, rev, Wx, Wh, h_all, c_all, acts, tanh_c = cache
    steps, _, batch, hidden = tanh_c.shape
    rows = np.arange(batch)[:, None]
    # (T, 2, B, h): each direction's output gradient in its own step order
    d_h = np.empty((2, batch, steps, hidden))
    d_h[0] = d_out[..., :hidden]
    d_h[1] = d_out[..., hidden:][rows, rev]
    d_h = d_h.transpose(2, 0, 1, 3)
    # everything but dh and dc is known before the loop: gate derivatives
    # times the factor each gate's gradient takes from dc (or dh for o)
    deriv = acts * (1.0 - acts)
    g = acts[..., 2 * hidden : 3 * hidden]
    deriv[..., 2 * hidden : 3 * hidden] = 1.0 - g * g
    from_dc = deriv[..., : 3 * hidden].reshape(steps, 2, batch, 3, hidden)
    from_dc[..., 0, :] *= g
    from_dc[..., 1, :] *= c_all[:-1]
    from_dc[..., 2, :] *= acts[..., :hidden]
    from_dh = tanh_c * deriv[..., 3 * hidden :]
    dc_from_dh = acts[..., 3 * hidden :] * (1.0 - tanh_c * tanh_c)
    forget = acts[..., hidden : 2 * hidden]
    dz_all = np.empty((steps, 2, batch, 4, hidden))
    Wh_T = Wh.transpose(0, 2, 1)
    dh_next = np.zeros((2, batch, hidden))
    dc_next = np.zeros((2, batch, hidden))
    for t in reversed(range(steps)):
        dh = d_h[t] + dh_next
        dc = dh * dc_from_dh[t]
        dc += dc_next
        dz = dz_all[t]
        np.multiply(dc[:, :, None, :], from_dc[t], out=dz[:, :, :3])
        np.multiply(dh, from_dh[t], out=dz[:, :, 3])
        dh_next = np.matmul(dz.reshape(2, batch, 4 * hidden), Wh_T)
        dc_next = dc * forget[t]
    # back to (2, B*T, 4h), the row order of xs
    dz_rows = dz_all.reshape(steps, 2, batch, 4 * hidden).transpose(1, 2, 0, 3)
    dz_rows = dz_rows.reshape(2, batch * steps, 4 * hidden)
    h_prev = h_all[:-1].transpose(1, 2, 0, 3).reshape(2, batch * steps, hidden)
    np.matmul(xs.transpose(0, 2, 1), dz_rows, out=grads[f"{prefix}_Wx"])
    np.matmul(h_prev.transpose(0, 2, 1), dz_rows, out=grads[f"{prefix}_Wh"])
    dz_rows.sum(axis=1, out=grads[f"{prefix}_b"])
    d_xs = np.matmul(dz_rows, Wx.transpose(0, 2, 1)).reshape(
        2, batch, steps, xs.shape[2]
    )
    return d_xs[0] + d_xs[1][rows, rev]


def _ff_forward(x, params, prefix):
    pre = x @ params[f"{prefix}_W1"] + params[f"{prefix}_b1"]
    hidden = np.tanh(pre)
    out = hidden @ params[f"{prefix}_W2"] + params[f"{prefix}_b2"]
    return out, (x, hidden)


def _ff_backward(d_out, cache, params, prefix, grads):
    x, hidden = cache
    np.matmul(hidden.T, d_out, out=grads[f"{prefix}_W2"])
    d_out.sum(axis=0, out=grads[f"{prefix}_b2"])
    d_hidden = d_out @ params[f"{prefix}_W2"].T
    d_pre = d_hidden * (1.0 - hidden * hidden)
    np.matmul(x.T, d_pre, out=grads[f"{prefix}_W1"])
    d_pre.sum(axis=0, out=grads[f"{prefix}_b1"])
    return d_pre @ params[f"{prefix}_W1"].T


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=1, keepdims=True)


def _softmax_backward(d_probs: np.ndarray, probs: np.ndarray) -> np.ndarray:
    inner = (d_probs * probs).sum(axis=1, keepdims=True)
    return probs * (d_probs - inner)


@dataclass
class ForwardResult:
    """The outputs of a padded batch of B sentences, T words the longest
    and S = T - 1 splits; row b is valid up to ``lengths[b]`` words and
    ``lengths[b] - 1`` splits. :func:`forward`'s one-sentence view drops the
    batch axis of the three outputs."""

    distances: np.ndarray  # (B, S)
    word_probs: np.ndarray  # (B, T, word labels)
    split_probs: np.ndarray  # (B, S, split labels)
    lengths: np.ndarray  # (B,)
    cache: dict = field(repr=False, default_factory=dict)


def forward_batch(
    params: dict[str, np.ndarray],
    config: ModelConfig,
    word_ids: Sequence[Sequence[int]],
    tag_ids: Sequence[Sequence[int]],
    keep_activations: bool = False,
) -> ForwardResult:
    """Run the network once over a non-empty batch of sentences of
    ``n >= 1`` words, padded to the longest one. The cache holds what
    :func:`backward` reads only if ``keep_activations``.
    """
    if len(word_ids) != len(tag_ids):
        raise ValueError(
            f"{len(word_ids)} word sequences but {len(tag_ids)} tag sequences"
        )
    lengths = np.array([len(words) for words in word_ids], dtype=np.int64)
    if lengths.size == 0:
        raise ValueError("cannot run the network on an empty batch")
    for words, tags in zip(word_ids, tag_ids):
        if len(words) == 0:
            raise ValueError("cannot run the network on an empty sentence")
        if len(tags) != len(words):
            raise ValueError(f"{len(words)} words but {len(tags)} tags")
    batch, steps = lengths.size, int(lengths.max())
    words = np.zeros((batch, steps), dtype=np.int64)
    tags = np.zeros((batch, steps), dtype=np.int64)
    for row, (sentence_words, sentence_tags) in enumerate(zip(word_ids, tag_ids)):
        words[row, : len(sentence_words)] = sentence_words
        tags[row, : len(sentence_tags)] = sentence_tags
    if (
        words.min() < 0
        or tags.min() < 0
        or words.max() >= config.word_vocab
        or tags.max() >= config.tag_vocab
    ):
        raise ValueError("token id outside the configured vocabulary")

    hidden2 = 2 * config.hidden_dim
    splits = steps - 1
    x = np.concatenate(
        [params["embed_word"][words], params["embed_tag"][tags]], axis=2
    )
    h_word, word_cache = _bilstm_forward(
        x, _reversal(lengths, steps), params, "lstm_word", keep_activations
    )
    word_logits, word_head_cache = _ff_forward(
        h_word.reshape(batch * steps, hidden2), params, "word_head"
    )
    word_probs = _softmax(word_logits)

    # one vector per split point from each adjacent pair of word states
    pairs = np.concatenate([h_word[:, :-1], h_word[:, 1:]], axis=2)
    pairs = pairs.reshape(batch * splits, 2 * hidden2)
    g_split = np.tanh(pairs @ params["conv_W"] + params["conv_b"])
    h_split, split_cache = _bilstm_forward(
        g_split.reshape(batch, splits, config.conv_channels),
        _reversal(lengths - 1, splits),
        params,
        "lstm_split",
        keep_activations,
    )
    h_split = h_split.reshape(batch * splits, hidden2)
    dist_out, dist_head_cache = _ff_forward(h_split, params, "dist_head")
    split_logits, split_head_cache = _ff_forward(h_split, params, "split_head")
    split_probs = _softmax(split_logits)

    # flat (sentence, position) rows, as the heads saw them
    cache = {
        "words": words,
        "tags": tags,
        "word_cache": word_cache,
        "word_head_cache": word_head_cache,
        "pairs": pairs,
        "g_split": g_split,
        "split_cache": split_cache,
        "dist_head_cache": dist_head_cache,
        "split_head_cache": split_head_cache,
    }
    # explicit widths: a batch of 1-word sentences has no split column
    return ForwardResult(
        dist_out.reshape(batch, splits),
        word_probs.reshape(batch, steps, config.word_label_vocab),
        split_probs.reshape(batch, splits, config.split_label_vocab),
        lengths,
        cache,
    )


def forward(
    params: dict[str, np.ndarray],
    config: ModelConfig,
    word_ids: Sequence[int],
    tag_ids: Sequence[int],
) -> ForwardResult:
    """Run the full pipeline on one sentence of ``n >= 1`` words: the
    one-sentence batch of :func:`forward_batch` without its batch axis,
    distances (n-1,), word_probs (n, ·) and split_probs (n-1, ·), keeping
    what :func:`backward` reads."""
    result = forward_batch(params, config, [word_ids], [tag_ids], True)
    return ForwardResult(
        result.distances[0],
        result.word_probs[0],
        result.split_probs[0],
        result.lengths,
        result.cache,
    )


def backward(
    params: FlatParams,
    config: ModelConfig,
    result: ForwardResult,
    d_distances: np.ndarray,
    d_word_probs: np.ndarray,
    d_split_probs: np.ndarray,
) -> FlatParams:
    """Gradients of a scalar loss given its gradients at the three outputs
    of a batch that :func:`forward_batch` ran with ``keep_activations``
    (or :func:`forward` ran), in a fresh buffer with the layout of
    ``params``.

    The output gradients are float arrays shaped like the result's outputs,
    padded (B, S), (B, T, ·) and (B, S, ·) or, for :func:`forward`, without
    the batch axis; they must be 0 at padded positions. Probability
    gradients are chained through the softmax here.
    """
    cache = result.cache
    if cache["word_cache"] is None:
        raise ValueError("backward needs a result kept with keep_activations")
    batch, steps = cache["words"].shape
    grads = params.empty_like()
    hidden2 = 2 * config.hidden_dim
    # explicit widths: a batch of 1-word sentences has no split column
    splits = steps - 1
    split_rows, word_rows = batch * splits, batch * steps

    d_split_logits = _softmax_backward(
        d_split_probs.reshape(split_rows, config.split_label_vocab),
        result.split_probs.reshape(split_rows, config.split_label_vocab),
    )
    d_h_split = _ff_backward(
        d_split_logits, cache["split_head_cache"], params, "split_head", grads
    )
    d_dist_out = d_distances.reshape(split_rows, 1)
    d_h_split += _ff_backward(
        d_dist_out, cache["dist_head_cache"], params, "dist_head", grads
    )
    d_g_split = _bilstm_backward(
        d_h_split.reshape(batch, splits, hidden2),
        cache["split_cache"],
        "lstm_split",
        grads,
    ).reshape(split_rows, config.conv_channels)
    g_split = cache["g_split"]
    d_conv_pre = d_g_split * (1.0 - g_split * g_split)
    pairs = cache["pairs"]
    np.matmul(pairs.T, d_conv_pre, out=grads["conv_W"])
    d_conv_pre.sum(axis=0, out=grads["conv_b"])
    d_pairs = (d_conv_pre @ params["conv_W"].T).reshape(batch, splits, 2 * hidden2)

    d_h_word = np.zeros((batch, steps, hidden2))
    d_h_word[:, :-1] += d_pairs[..., :hidden2]
    d_h_word[:, 1:] += d_pairs[..., hidden2:]
    d_word_logits = _softmax_backward(
        d_word_probs.reshape(word_rows, config.word_label_vocab),
        result.word_probs.reshape(word_rows, config.word_label_vocab),
    )
    d_h_word += _ff_backward(
        d_word_logits, cache["word_head_cache"], params, "word_head", grads
    ).reshape(batch, steps, hidden2)
    d_x = _bilstm_backward(d_h_word, cache["word_cache"], "lstm_word", grads)

    e = config.embed_dim
    for name, ids, d_embed in (
        ("embed_word", cache["words"], d_x[..., :e]),
        ("embed_tag", cache["tags"], d_x[..., e:]),
    ):
        grads[name].fill(0.0)
        np.add.at(grads[name], ids.ravel(), d_embed.reshape(word_rows, e))
    return grads


LOSS_KINDS = ("rank", "mse")


def _padded_loss(loss, golds, out: np.ndarray, lengths: np.ndarray):
    """``loss`` on ``out`` and its gold rows, zero-padded alike; a gold row of
    the wrong length goes to the unbatched ``loss``, whose check raises."""
    sizes, wanted = [len(gold) for gold in golds], lengths.tolist()
    if sizes != wanted:
        row = next(b for b, size in enumerate(sizes) if size != wanted[b])
        loss(golds[row], out[row, : wanted[row]])
    padded = [[*gold, *[0] * (out.shape[1] - size)] for gold, size in zip(golds, sizes)]
    return loss(np.array(padded), out, lengths)


def batch_loss(
    params: FlatParams,
    config: ModelConfig,
    examples: Sequence[tuple],
    distance_loss: str = "rank",
) -> tuple[dict[str, float], FlatParams]:
    """Summed loss (distance + label terms) of a non-empty batch and its
    parameter gradients, from one forward and one backward pass.

    Each example is ``(word_ids, tag_ids, gold_distances, gold_word_labels,
    gold_split_labels)``. Each :mod:`~distparse.losses` function runs once
    on the padded outputs, the gold values padded alike, and its gradient,
    0 at padded positions, goes to :func:`backward` as it is.
    """
    if distance_loss not in LOSS_KINDS:
        raise ValueError(f"unknown distance loss {distance_loss!r}")
    words, tags, gold_d, gold_w, gold_s = zip(*examples) if examples else [()] * 5
    result = forward_batch(params, config, words, tags, keep_activations=True)
    n = result.lengths
    loss_fn = losses.rank_loss if distance_loss == "rank" else losses.mse_loss
    dist, d_dist = _padded_loss(loss_fn, gold_d, result.distances, n - 1)
    word, d_word = _padded_loss(losses.label_loss, gold_w, result.word_probs, n)
    split, d_split = _padded_loss(losses.label_loss, gold_s, result.split_probs, n - 1)
    grads = backward(params, config, result, d_dist, d_word, d_split)
    # cumsum adds the rows in order, as a running total over them would
    sums = np.array([dist, word + split, dist + word + split]).cumsum(axis=1)[:, -1]
    return dict(zip(("distance", "label", "total"), sums.tolist())), grads


def sentence_loss(
    params: FlatParams,
    config: ModelConfig,
    word_ids: Sequence[int],
    tag_ids: Sequence[int],
    gold_distances: Sequence[float],
    gold_word_labels: Sequence[int],
    gold_split_labels: Sequence[int],
    distance_loss: str = "rank",
) -> tuple[dict[str, float], FlatParams]:
    """Total loss (distance + label terms) and its parameter gradients for
    one sentence: the one-sentence :func:`batch_loss`."""
    example = (word_ids, tag_ids, gold_distances, gold_word_labels, gold_split_labels)
    return batch_loss(params, config, [example], distance_loss)
