"""Training losses with analytic gradients, over a padded batch.

Each function takes B rows padded to one width and ``lengths``, each row's
count of real positions, and returns the B row values and the gradient
with respect to the prediction, 0 at the padded positions, whose values
count for nothing. Without ``lengths`` it takes one unpadded row as its
one-row batch and returns a float and an unbatched gradient. A row's terms
are added left to right, so a batch row has the bits of its own unbatched
call. The tests check every gradient against central finite differences.
"""

from __future__ import annotations

import numpy as np


def _one_row(loss, *args):
    values, grad = loss(*(arg[None] for arg in args), [len(args[-1])])
    return float(values[0]), grad[0]


def _real(lengths, width: int) -> np.ndarray:
    return np.arange(width) < np.asarray(lengths)[:, None]


def _row_sums(rows: np.ndarray, terms: np.ndarray, batch: int) -> np.ndarray:
    """Each row's terms added in order (``np.sum`` regroups them), as floats."""
    return np.bincount(rows, terms, batch).astype(np.float64, copy=False)


def _scores(d_true, d_pred, lengths) -> tuple[np.ndarray, np.ndarray]:
    true = np.asarray(d_true, dtype=np.float64)
    pred = np.asarray(d_pred, dtype=np.float64)
    if true.shape != pred.shape or true.ndim != (1 if lengths is None else 2):
        raise ValueError(f"shape mismatch: {true.shape} vs {pred.shape}")
    return true, pred


def rank_loss(d_true, d_pred, lengths=None):
    """Pairwise margin loss on the ordering of predicted scores.

    For every index pair i < j with differing ground-truth values, the
    prediction must separate them in the same direction by a margin of at
    least 1: the pair contributes max(0, 1 - s * (p_i - p_j)) where s is
    the sign of (t_i - t_j). Tied ground-truth pairs are skipped: they have
    no preferred direction, only a constant offset no gradient can reduce.
    The subgradient at the hinge kink is taken as 0. A NaN or infinite
    prediction makes its row's value NaN.
    """
    true, pred = _scores(d_true, d_pred, lengths)
    if lengths is None:
        return _one_row(rank_loss, true, pred)
    real = _real(lengths, pred.shape[1])
    finite = np.isfinite(pred)
    pred = np.where(real & finite, pred, 0.0)
    sign = np.sign(true[:, :, None] - true[:, None, :])
    margin = 1.0 - sign * (pred[:, :, None] - pred[:, None, :])
    i = np.arange(pred.shape[1])
    # pairs i < j with j, and so i, before the row's length
    active = (i[:, None] < i) & real[:, None, :] & (sign != 0) & (margin > 0.0)
    values = _row_sums(active.nonzero()[0], margin[active], len(pred))
    values[(real & ~finite).any(axis=1)] = np.nan
    coeff = np.where(active, sign, 0.0)
    return values, (coeff.transpose(0, 2, 1) - coeff).sum(axis=2)


def mse_loss(d_true, d_pred, lengths=None):
    """Sum of squared errors against the exact score values."""
    true, pred = _scores(d_true, d_pred, lengths)
    if lengths is None:
        return _one_row(mse_loss, true, pred)
    rows, cols = _real(lengths, pred.shape[1]).nonzero()
    diff = np.zeros(pred.shape)
    diff[rows, cols] = pred[rows, cols] - true[rows, cols]
    return _row_sums(rows, diff[rows, cols] ** 2, len(pred)), 2.0 * diff


def label_loss(true_ids, distributions, lengths=None):
    """Summed negative log-likelihood over label positions.

    ``distributions`` has one row per position, (n, vocab) or (B, T, vocab),
    and each real row must be a probability distribution (sums to 1 within
    1e-6). The gradient is with respect to the probabilities themselves;
    chaining it through a softmax is the caller's job.
    """
    probs = np.asarray(distributions, dtype=np.float64)
    ids = np.asarray(true_ids, dtype=np.int64)
    if ids.ndim != (1 if lengths is None else 2) or probs.shape[:-1] != ids.shape:
        shape = ", ".join(map(str, ids.shape))
        raise ValueError(f"expected ({shape}, vocab) distributions, got {probs.shape}")
    if lengths is None:
        return _one_row(label_loss, ids, probs)
    rows, cols = _real(lengths, ids.shape[1]).nonzero()
    real_ids = ids[rows, cols]
    if ((real_ids < 0) | (real_ids >= probs.shape[2])).any():
        raise ValueError("true label outside the distribution's vocabulary")
    if (np.abs(probs[rows, cols].sum(axis=1) - 1.0) > 1e-6).any():
        raise ValueError("rows of `distributions` must each sum to 1")
    picked = probs[rows, cols, real_ids]
    grad = np.zeros(probs.shape)
    grad[rows, cols, real_ids] = -1.0 / picked
    return _row_sums(rows, -np.log(picked), len(ids)), grad
