"""Training losses with analytic gradients.

All three return ``(value, gradient)`` where the gradient is taken with
respect to the prediction argument. Gradients are plain numpy arrays and
are verified against central finite differences in the test suite.
"""

from __future__ import annotations

import numpy as np


def rank_loss(d_true, d_pred) -> tuple[float, np.ndarray]:
    """Pairwise margin loss on the ordering of predicted scores.

    For every index pair i < j with differing ground-truth values, the
    prediction must separate them in the same direction by a margin of at
    least 1: the pair contributes max(0, 1 - s * (p_i - p_j)) where s is
    the sign of (t_i - t_j). Tied ground-truth pairs are skipped: they have
    no preferred direction, only a constant offset no gradient can reduce.
    The subgradient at the hinge kink is taken as 0.
    """
    true = np.asarray(d_true, dtype=np.float64)
    pred = np.asarray(d_pred, dtype=np.float64)
    if true.shape != pred.shape or true.ndim != 1:
        raise ValueError(f"shape mismatch: {true.shape} vs {pred.shape}")
    m = len(pred)
    if m < 2:
        return 0.0, np.zeros_like(pred)
    sign = np.sign(true[:, None] - true[None, :])
    margin = 1.0 - sign * (pred[:, None] - pred[None, :])
    index = np.arange(m)
    upper = (index[:, None] < index) & (sign != 0)
    active = upper & (margin > 0.0)
    value = float(margin[active].sum())
    coeff = np.where(active, -sign, 0.0)
    grad = coeff.sum(axis=1) - coeff.sum(axis=0)
    return value, grad


def mse_loss(d_true, d_pred) -> tuple[float, np.ndarray]:
    """Sum of squared errors against the exact score values."""
    true = np.asarray(d_true, dtype=np.float64)
    pred = np.asarray(d_pred, dtype=np.float64)
    if true.shape != pred.shape or true.ndim != 1:
        raise ValueError(f"shape mismatch: {true.shape} vs {pred.shape}")
    diff = pred - true
    return float(np.dot(diff, diff)), 2.0 * diff


def label_loss(true_ids, distributions) -> tuple[float, np.ndarray]:
    """Summed negative log-likelihood over label positions.

    ``distributions`` has one row per position; each row must be a
    probability distribution (sums to 1 within 1e-6). The gradient is with
    respect to the probabilities themselves; chaining it through a softmax
    is the caller's job.
    """
    probs = np.asarray(distributions, dtype=np.float64)
    ids = np.asarray(true_ids, dtype=np.int64)
    if probs.ndim != 2 or len(ids) != probs.shape[0]:
        raise ValueError(
            f"expected ({len(ids)}, vocab) distributions, got {probs.shape}"
        )
    if len(ids) == 0:
        return 0.0, np.zeros_like(probs)
    if ids.min() < 0 or ids.max() >= probs.shape[1]:
        raise ValueError("true label outside the distribution's vocabulary")
    sums = probs.sum(axis=1)
    if (np.abs(sums - 1.0) > 1e-6).any():
        raise ValueError("rows of `distributions` must each sum to 1")
    rows = np.arange(len(ids))
    picked = probs[rows, ids]
    value = float(-np.log(picked).sum())
    grad = np.zeros_like(probs)
    grad[rows, ids] = -1.0 / picked
    return value, grad
