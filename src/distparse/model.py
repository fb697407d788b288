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

Everything is float64 numpy; parameters live in a flat name->array dict so
the optimizer and the gradient checks can treat them uniformly.

There is one implementation, over a padded batch. :func:`forward_batch`
stacks B sentences into (B, T, ·) arrays, T the longest length, each
sentence left-aligned and padded with token id 0. The backward direction of
each BiLSTM reads every sentence reversed within its own length (a gather
with a per-length reversal index), so in both directions the padded steps
come after all real steps: the recurrences need no mask, and the padded
outputs are sliced away. Both directions advance in one loop, stacked on a
leading axis, and each step computes the whole 4h gate vector with one
tanh, using sigmoid(x) = 0.5 * (1 + tanh(x / 2)). The conv and the three
heads run on the whole batch. :func:`forward` and :func:`sentence_loss`
are the one-sentence batch, and :func:`backward` reads the cache that
batch leaves. Prediction (``train.predict_trees``) runs length-sorted
batches of 32 so that little padding is computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import losses


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions of the network. Defaults are desk-scale."""

    word_vocab: int
    tag_vocab: int
    word_label_vocab: int
    split_label_vocab: int
    embed_dim: int = 16
    hidden_dim: int = 32  # per LSTM direction
    conv_channels: int = 32
    ff_hidden: int = 32

    def validate(self) -> None:
        for name in (
            "word_vocab",
            "tag_vocab",
            "word_label_vocab",
            "split_label_vocab",
            "embed_dim",
            "hidden_dim",
            "conv_channels",
            "ff_hidden",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_params(config: ModelConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Fresh parameter dict. LSTM forget-gate biases start at 1."""
    config.validate()
    e, h = config.embed_dim, config.hidden_dim
    m, f = config.conv_channels, config.ff_hidden
    params: dict[str, np.ndarray] = {
        "embed_word": rng.uniform(-0.1, 0.1, size=(config.word_vocab, e)),
        "embed_tag": rng.uniform(-0.1, 0.1, size=(config.tag_vocab, e)),
    }
    for prefix, in_dim in (("lstm_word", 2 * e), ("lstm_split", m)):
        for direction in ("fwd", "bwd"):
            bias = np.zeros(4 * h)
            bias[h : 2 * h] = 1.0
            params[f"{prefix}_{direction}_Wx"] = _glorot(rng, in_dim, 4 * h)
            params[f"{prefix}_{direction}_Wh"] = _glorot(rng, h, 4 * h)
            params[f"{prefix}_{direction}_b"] = bias
    params["conv_W"] = _glorot(rng, 4 * h, m)
    params["conv_b"] = np.zeros(m)
    for head, out_dim in (
        ("word_head", config.word_label_vocab),
        ("dist_head", 1),
        ("split_head", config.split_label_vocab),
    ):
        params[f"{head}_W1"] = _glorot(rng, 2 * h, f)
        params[f"{head}_b1"] = np.zeros(f)
        params[f"{head}_W2"] = _glorot(rng, f, out_dim)
        params[f"{head}_b2"] = np.zeros(out_dim)
    return params


def zero_grads(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(value) for name, value in params.items()}


def _reversal(lengths: np.ndarray, steps: int) -> np.ndarray:
    """(B, steps) gather index that reverses each row within its own length
    and leaves the padded positions in place; it is its own inverse."""
    t = np.arange(steps)
    last = lengths[:, None] - 1
    return np.where(t <= last, last - t, t)


def _gate_scale(hidden: int) -> np.ndarray:
    """Per-gate factor of the fused activation: 1/2 on the sigmoid gates
    i, f, o and 1 on the candidate g."""
    scale = np.full(4 * hidden, 0.5)
    scale[2 * hidden : 3 * hidden] = 1.0
    return scale


def _activate(z: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Gate pre-activations -> [sigmoid(i), sigmoid(f), tanh(g), sigmoid(o)]
    in place along the last axis: one tanh for all four gates, as
    sigmoid(x) = 0.5 * (1 + tanh(x / 2))."""
    z *= scale
    np.tanh(z, out=z)
    z *= scale
    z += 1.0 - scale
    return z


def _input_gates(xs, Wx, b, batch, steps):
    """Input part of the gate pre-activations of every step, as a
    (T, 2, B, 4h) view."""
    gates = np.matmul(xs, Wx) + b[:, None, :]
    return gates.reshape(2, batch, steps, Wx.shape[2]).transpose(2, 0, 1, 3)


def _bilstm_forward(x, rev, params, prefix):
    """Both directions of a BiLSTM over a padded batch ``x`` (B, T, d).

    The backward direction reads each sentence reversed within its length
    (``rev``), so in both directions padded steps follow every real step
    and the recurrence runs unmasked. The two directions are stacked on a
    leading axis and advance in one loop. Returns (B, T, 2h) and the cache,
    which keeps the states and not the gates: the backward pass recomputes
    those in a few whole-sequence operations, and a batch's cache stays
    small.
    """
    batch, steps, width = x.shape
    Wx = np.stack([params[f"{prefix}_fwd_Wx"], params[f"{prefix}_bwd_Wx"]])
    Wh = np.stack([params[f"{prefix}_fwd_Wh"], params[f"{prefix}_bwd_Wh"]])
    b = np.stack([params[f"{prefix}_fwd_b"], params[f"{prefix}_bwd_b"]])
    hidden = Wh.shape[1]
    rows = np.arange(batch)[:, None]
    xs = np.stack([x, x[rows, rev]]).reshape(2, batch * steps, width)
    gates = _input_gates(xs, Wx, b, batch, steps)
    scale = _gate_scale(hidden)
    h_all = np.zeros((steps + 1, 2, batch, hidden))
    c_all = np.zeros((steps + 1, 2, batch, hidden))
    for t in range(steps):
        z = np.matmul(h_all[t], Wh)
        z += gates[t]
        act = _activate(z, scale)
        c = c_all[t + 1]
        np.multiply(act[..., hidden : 2 * hidden], c_all[t], out=c)
        c += act[..., :hidden] * act[..., 2 * hidden : 3 * hidden]
        np.multiply(act[..., 3 * hidden :], np.tanh(c), out=h_all[t + 1])
    out = h_all[1:].transpose(1, 2, 0, 3)  # (2, B, T, h)
    h = np.concatenate([out[0], out[1][rows, rev]], axis=2)
    return h, (xs, rev, Wx, Wh, b, h_all, c_all)


def _bilstm_backward(d_out, cache, prefix, grads):
    """Gradients of both directions from d_out (B, T, 2h); returns d_x."""
    xs, rev, Wx, Wh, b, h_all, c_all = cache
    steps, _, batch, hidden = h_all[1:].shape
    rows = np.arange(batch)[:, None]
    # (T, 2, B, h): each direction's output gradient in its own step order
    d_h = np.stack([d_out[..., :hidden], d_out[..., hidden:][rows, rev]]).transpose(
        2, 0, 1, 3
    )
    z = np.matmul(h_all[:-1], Wh)
    z += _input_gates(xs, Wx, b, batch, steps)
    acts = _activate(z, _gate_scale(hidden))
    tanh_c = np.tanh(c_all[1:])
    # everything but dh and dc is known before the loop: gate derivatives
    # times the factor each gate's gradient takes from dc (or dh for o)
    deriv = acts * (1.0 - acts)
    g = acts[..., 2 * hidden : 3 * hidden]
    deriv[..., 2 * hidden : 3 * hidden] = 1.0 - g * g
    from_dc = np.stack(
        [g, c_all[:-1], acts[..., :hidden]], axis=3
    ) * deriv[..., : 3 * hidden].reshape(steps, 2, batch, 3, hidden)
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
    g_Wx = np.matmul(xs.transpose(0, 2, 1), dz_rows)
    g_Wh = np.matmul(h_prev.transpose(0, 2, 1), dz_rows)
    g_b = dz_rows.sum(axis=1)
    for k, direction in enumerate(("fwd", "bwd")):
        grads[f"{prefix}_{direction}_Wx"] += g_Wx[k]
        grads[f"{prefix}_{direction}_Wh"] += g_Wh[k]
        grads[f"{prefix}_{direction}_b"] += g_b[k]
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
    grads[f"{prefix}_W2"] += hidden.T @ d_out
    grads[f"{prefix}_b2"] += d_out.sum(axis=0)
    d_hidden = d_out @ params[f"{prefix}_W2"].T
    d_pre = d_hidden * (1.0 - hidden * hidden)
    grads[f"{prefix}_W1"] += x.T @ d_pre
    grads[f"{prefix}_b1"] += d_pre.sum(axis=0)
    return d_pre @ params[f"{prefix}_W1"].T


def _softmax(logits: np.ndarray) -> np.ndarray:
    if logits.shape[0] == 0:
        return logits.copy()
    shifted = logits - logits.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=1, keepdims=True)


def _softmax_backward(d_probs: np.ndarray, probs: np.ndarray) -> np.ndarray:
    inner = (d_probs * probs).sum(axis=1, keepdims=True)
    return probs * (d_probs - inner)


@dataclass
class ForwardResult:
    distances: np.ndarray  # (n-1,)
    word_probs: np.ndarray  # (n, word labels)
    split_probs: np.ndarray  # (n-1, split labels)
    cache: dict = field(repr=False, default_factory=dict)


def forward_batch(
    params: dict[str, np.ndarray],
    config: ModelConfig,
    word_ids: Sequence[Sequence[int]],
    tag_ids: Sequence[Sequence[int]],
) -> list[ForwardResult]:
    """Run the network once over a batch of sentences of ``n >= 1`` words.

    The batch is padded to its longest sentence; one result per sentence
    comes back, in input order, sliced to the sentence's own length. All
    results share the batch cache.
    """
    if len(word_ids) != len(tag_ids):
        raise ValueError(
            f"{len(word_ids)} word sequences but {len(tag_ids)} tag sequences"
        )
    lengths = np.array([len(words) for words in word_ids], dtype=np.int64)
    if lengths.size == 0:
        return []
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
        x, _reversal(lengths, steps), params, "lstm_word"
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
        "word_probs": word_probs,
        "pairs": pairs,
        "g_split": g_split,
        "split_cache": split_cache,
        "dist_head_cache": dist_head_cache,
        "split_head_cache": split_head_cache,
        "split_probs": split_probs,
    }
    distances = dist_out.reshape(batch, splits)
    word_probs = word_probs.reshape(batch, steps, -1)
    split_probs = split_probs.reshape(batch, splits, config.split_label_vocab)
    return [
        ForwardResult(
            distances[row, : n - 1],
            word_probs[row, :n],
            split_probs[row, : n - 1],
            cache,
        )
        for row, n in enumerate(lengths.tolist())
    ]


def forward(
    params: dict[str, np.ndarray],
    config: ModelConfig,
    word_ids: Sequence[int],
    tag_ids: Sequence[int],
) -> ForwardResult:
    """Run the full pipeline on one sentence of ``n >= 1`` words: the
    one-sentence batch of :func:`forward_batch`."""
    return forward_batch(params, config, [word_ids], [tag_ids])[0]


def backward(
    params: dict[str, np.ndarray],
    config: ModelConfig,
    result: ForwardResult,
    d_distances: np.ndarray,
    d_word_probs: np.ndarray,
    d_split_probs: np.ndarray,
) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss given its gradients at the three outputs
    of a one-sentence forward.

    Probability gradients are chained through the softmax here.
    """
    cache = result.cache
    batch, steps = cache["words"].shape
    if batch != 1:
        raise ValueError("backward needs the result of a one-sentence forward")
    grads = zero_grads(params)
    hidden2 = 2 * config.hidden_dim
    splits = steps - 1

    d_split_logits = _softmax_backward(
        np.asarray(d_split_probs, dtype=np.float64), cache["split_probs"]
    )
    d_h_split = _ff_backward(
        d_split_logits, cache["split_head_cache"], params, "split_head", grads
    )
    d_dist_out = np.asarray(d_distances, dtype=np.float64).reshape(-1, 1)
    d_h_split += _ff_backward(
        d_dist_out, cache["dist_head_cache"], params, "dist_head", grads
    )
    d_g_split = _bilstm_backward(
        d_h_split.reshape(batch, splits, hidden2),
        cache["split_cache"],
        "lstm_split",
        grads,
    ).reshape(batch * splits, config.conv_channels)
    g_split = cache["g_split"]
    d_conv_pre = d_g_split * (1.0 - g_split * g_split)
    pairs = cache["pairs"]
    grads["conv_W"] += pairs.T @ d_conv_pre
    grads["conv_b"] += d_conv_pre.sum(axis=0)
    d_pairs = (d_conv_pre @ params["conv_W"].T).reshape(batch, splits, 2 * hidden2)

    d_h_word = np.zeros((batch, steps, hidden2))
    d_h_word[:, :-1] += d_pairs[..., :hidden2]
    d_h_word[:, 1:] += d_pairs[..., hidden2:]
    d_word_logits = _softmax_backward(
        np.asarray(d_word_probs, dtype=np.float64), cache["word_probs"]
    )
    d_h_word += _ff_backward(
        d_word_logits, cache["word_head_cache"], params, "word_head", grads
    ).reshape(batch, steps, hidden2)
    d_x = _bilstm_backward(d_h_word, cache["word_cache"], "lstm_word", grads)

    e = config.embed_dim
    np.add.at(grads["embed_word"], cache["words"].ravel(), d_x[..., :e].reshape(-1, e))
    np.add.at(grads["embed_tag"], cache["tags"].ravel(), d_x[..., e:].reshape(-1, e))
    return grads


LOSS_KINDS = ("rank", "mse")


def sentence_loss(
    params: dict[str, np.ndarray],
    config: ModelConfig,
    word_ids: Sequence[int],
    tag_ids: Sequence[int],
    gold_distances: Sequence[float],
    gold_word_labels: Sequence[int],
    gold_split_labels: Sequence[int],
    distance_loss: str = "rank",
) -> tuple[dict[str, float], dict[str, np.ndarray]]:
    """Total loss (distance + label terms) and its parameter gradients for
    one sentence."""
    if distance_loss not in LOSS_KINDS:
        raise ValueError(f"unknown distance loss {distance_loss!r}")
    result = forward(params, config, word_ids, tag_ids)
    loss_fn = losses.rank_loss if distance_loss == "rank" else losses.mse_loss
    dist_value, d_distances = loss_fn(gold_distances, result.distances)
    word_value, d_word_probs = losses.label_loss(gold_word_labels, result.word_probs)
    split_value, d_split_probs = losses.label_loss(
        gold_split_labels, result.split_probs
    )
    grads = backward(
        params, config, result, d_distances, d_word_probs, d_split_probs
    )
    parts = {
        "distance": dist_value,
        "label": word_value + split_value,
        "total": dist_value + word_value + split_value,
    }
    return parts, grads
