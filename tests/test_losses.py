import math
import warnings

import numpy as np
import pytest

from distparse.losses import label_loss, mse_loss, rank_loss
from helpers import numeric_gradient


class TestRankLoss:
    def test_satisfied_margin_gives_zero(self):
        value, grad = rank_loss([2.0, 1.0], [3.0, 0.5])
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_hand_derived_fixture(self):
        value, grad = rank_loss([2.0, 1.0], [0.5, 0.7])
        assert abs(value - 1.2) < 1e-12
        np.testing.assert_allclose(grad, [-1.0, 1.0])

    def test_tied_truth_pairs_are_skipped(self):
        value, grad = rank_loss([1.0, 1.0], [0.3, -5.0])
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            m = int(rng.integers(2, 12))
            true = rng.integers(1, 6, m).astype(float)
            pred = rng.normal(size=m)
            v1, _ = rank_loss(true, pred)
            v2, _ = rank_loss(true, pred + 37.5)
            assert abs(v1 - v2) < 1e-9

    def test_zero_iff_all_ordered_pairs_separated_by_margin(self):
        true = [3.0, 2.0, 1.0]
        assert rank_loss(true, [2.0, 1.0, 0.0])[0] == 0.0  # margins exactly 1
        assert rank_loss(true, [2.0, 1.5, 0.0])[0] > 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(22)
        checked = 0
        while checked < 100:
            m = int(rng.integers(2, 10))
            true = rng.integers(1, 8, m).astype(float)
            pred = rng.normal(scale=2.0, size=m)
            # stay away from hinge kinks so the loss is smooth locally
            diff = pred[:, None] - pred[None, :]
            sign = np.sign(true[:, None] - true[None, :])
            margins = 1.0 - sign * diff
            if np.any((sign != 0) & (np.abs(margins) < 1e-3)):
                continue
            _, grad = rank_loss(true, pred)
            numeric = numeric_gradient(lambda p: rank_loss(true, p)[0], pred)
            np.testing.assert_allclose(grad, numeric, rtol=1e-5, atol=1e-8)
            checked += 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rank_loss([1.0], [1.0, 2.0])


class TestMseLoss:
    def test_identity_gives_zero(self):
        value, grad = mse_loss([2.0, 1.0], [2.0, 1.0])
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_hand_derived_fixture(self):
        value, grad = mse_loss([2.0, 1.0], [0.0, 0.0])
        assert abs(value - 5.0) < 1e-12
        np.testing.assert_allclose(grad, [-4.0, -2.0])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            m = int(rng.integers(1, 10))
            true = rng.normal(size=m)
            pred = rng.normal(size=m)
            _, grad = mse_loss(true, pred)
            numeric = numeric_gradient(lambda p: mse_loss(true, p)[0], pred)
            denom = np.maximum(np.abs(grad) + np.abs(numeric), 1e-6)
            assert np.max(np.abs(grad - numeric) / denom) < 1e-6

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mse_loss([1.0, 2.0], [1.0])


def _softmax(z):
    ex = np.exp(z - z.max(axis=-1, keepdims=True))
    return ex / ex.sum(axis=-1, keepdims=True)


class TestLabelLoss:
    def test_uniform_distribution(self):
        value, _ = label_loss([1], np.full((1, 4), 0.25))
        assert abs(value - np.log(4.0)) < 1e-12

    def test_certain_distribution(self):
        probs = np.zeros((1, 3))
        probs[0, 2] = 1.0
        value, _ = label_loss([2], probs)
        assert value == 0.0

    def test_sums_over_positions(self):
        probs = np.full((3, 2), 0.5)
        value, _ = label_loss([0, 1, 0], probs)
        assert abs(value - 3 * np.log(2.0)) < 1e-12

    def test_empty_positions_gives_zero(self):
        value, grad = label_loss([], np.zeros((0, 5)))
        assert value == 0.0
        assert grad.shape == (0, 5)

    def test_label_outside_vocabulary_rejected(self):
        with pytest.raises(ValueError):
            label_loss([3], np.full((1, 3), 1 / 3))

    def test_unnormalized_rows_rejected(self):
        with pytest.raises(ValueError):
            label_loss([0], np.array([[0.5, 0.6]]))

    def test_gradient_through_softmax_matches_finite_differences(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            k, vocab = int(rng.integers(1, 6)), int(rng.integers(2, 7))
            ids = rng.integers(0, vocab, size=k)
            logits = rng.normal(size=(k, vocab))

            def through_softmax(z):
                return label_loss(ids, _softmax(z))[0]

            probs = _softmax(logits)
            _, d_probs = label_loss(ids, probs)
            inner = (d_probs * probs).sum(axis=1, keepdims=True)
            analytic = probs * (d_probs - inner)
            numeric = numeric_gradient(through_softmax, logits)
            denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-6)
            assert np.max(np.abs(analytic - numeric) / denom) < 1e-5


def _without_warnings(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return call()


class TestNonFinitePredictions:
    @pytest.mark.parametrize(
        "true, pred",
        [
            ([2.0, 1.0, 0.0], [np.nan, 1.0, 0.0]),
            ([2.0, 1.0], [np.inf, 0.0]),
            ([2.0, 1.0], [0.0, -np.inf]),
            ([2.0, 1.0, 0.0], [np.inf, -np.inf, 0.0]),
            ([1.0], [np.nan]),  # one split: no pair at all
            ([1.0, 1.0], [0.0, np.inf]),  # tied: no pair is scored
        ],
    )
    def test_rank_value_is_nan(self, true, pred):
        value, grad = _without_warnings(lambda: rank_loss(true, pred))
        assert math.isnan(value)
        assert grad.shape == (len(pred),)

    def test_batched_rank_marks_only_the_rows_with_a_bad_real_prediction(self):
        true = np.array([[3.0, 1.0, 2.0], [2.0, 1.0, 0.0], [2.0, 1.0, 0.0]])
        pred = np.array([[0.5, 0.1, -2.0], [0.0, np.inf, 0.0], [0.3, 0.2, np.nan]])
        lengths = [3, 2, 2]  # row 2's NaN sits in padding
        values, _ = _without_warnings(
            lambda: rank_loss(true, pred, lengths)
        )
        assert math.isnan(values[1])
        for row in (0, 2):
            n = lengths[row]
            assert values[row] == rank_loss(true[row, :n], pred[row, :n])[0]

    def test_mse_and_label_values_stay_non_finite(self):
        assert math.isnan(mse_loss([1.0, 2.0], [np.nan, 2.0])[0])
        assert math.isinf(mse_loss([1.0, 2.0], [np.inf, 2.0])[0])
        values, _ = mse_loss([[1.0, 2.0]] * 2, [[0.0, np.nan]] * 2, [2, 1])
        assert math.isnan(values[0]) and values[1] == 1.0
        probs = np.array([[[np.nan, np.nan]], [[0.5, 0.5]]])
        values, _ = label_loss([[0], [1]], probs, [1, 1])
        assert math.isnan(values[0]) and values[1] == np.log(2.0)


def _padded(rows, width, fill, dtype=np.float64):
    out = np.full((len(rows), width) + np.shape(rows[0])[1:], fill, dtype=dtype)
    for row, values in enumerate(rows):
        out[row, : len(values)] = values
    return out


def _assert_zero_padding(grad, lengths):
    for row, n in enumerate(lengths):
        pad = grad[row, n:]
        assert np.all(pad == 0.0) and not np.signbit(pad).any()


# row lengths of padded batches: 0 is a 1-word sentence's distances, and a
# batch of only those has no split column at all; rows of 9 or more terms
# are where numpy's pairwise sum would group them by the padded width
LENGTHS = [[4, 0, 6, 1, 3], [0, 0, 0], [5], [2, 7, 7, 1], [1, 1], [17, 3, 12, 0]]


class TestPaddedBatch:
    @pytest.mark.parametrize("lengths", LENGTHS)
    @pytest.mark.parametrize("loss", [rank_loss, mse_loss])
    def test_distance_rows_are_their_unbatched_calls_bit_for_bit(self, loss, lengths):
        rng = np.random.default_rng(100 + sum(lengths))
        width = max(lengths)
        for _ in range(20):
            # few distinct gold values, so that ties are common
            trues = [rng.integers(1, 4, n).astype(float) for n in lengths]
            preds = [rng.normal(scale=2.0, size=n) for n in lengths]
            want = [loss(t, p) for t, p in zip(trues, preds)]
            for fill in (0.0, np.nan, 1e300, -1e300):
                true, pred = _padded(trues, width, fill), _padded(preds, width, fill)
                values, grad = _without_warnings(
                    lambda: loss(true, pred, lengths)
                )
                assert values.shape == (len(lengths),) and values.dtype == np.float64
                assert grad.shape == (len(lengths), width)
                for row, (value, row_grad) in enumerate(want):
                    assert values[row] == value
                    assert np.array_equal(grad[row, : lengths[row]], row_grad)
                _assert_zero_padding(grad, lengths)

    @pytest.mark.parametrize("lengths", LENGTHS)
    def test_label_rows_are_their_unbatched_calls_bit_for_bit(self, lengths):
        rng = np.random.default_rng(200 + sum(lengths))
        width, vocab = max(lengths), 5
        for _ in range(20):
            ids = [rng.integers(0, vocab, n) for n in lengths]
            probs = [_softmax(rng.normal(size=(n, vocab))) for n in lengths]
            want = [label_loss(i, p) for i, p in zip(ids, probs)]
            for fill, bad_id in ((0.0, 0), (np.nan, -3), (1e300, vocab + 2)):
                padded_ids = _padded(ids, width, bad_id, dtype=np.int64)
                padded_probs = _padded(probs, width, fill)
                values, grad = _without_warnings(
                    lambda: label_loss(padded_ids, padded_probs, lengths)
                )
                assert values.shape == (len(lengths),) and values.dtype == np.float64
                assert grad.shape == (len(lengths), width, vocab)
                for row, (value, row_grad) in enumerate(want):
                    assert values[row] == value
                    assert np.array_equal(grad[row, : lengths[row]], row_grad)
                _assert_zero_padding(grad, lengths)

    def test_checks_read_only_the_real_rows(self):
        probs = np.full((2, 3, 2), 0.5)
        probs[0, 2] = [0.9, 0.9]  # padding: never summed
        ids = np.array([[0, 1, 7], [1, -1, -1]])
        values, _ = label_loss(ids, probs, [2, 1])
        assert values.tolist() == [2 * np.log(2.0), np.log(2.0)]
        ids[1, 0] = 2
        with pytest.raises(ValueError, match="outside the distribution's vocabulary"):
            label_loss(ids, probs, [2, 1])
        ids[1, 0] = 0
        probs[1, 0] = [0.5, 0.6]
        with pytest.raises(ValueError, match="must each sum to 1"):
            label_loss(ids, probs, [2, 1])

    def test_mismatched_batch_shapes_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            rank_loss(np.zeros((2, 3)), np.zeros((2, 4)), [3, 3])
        with pytest.raises(ValueError, match="shape mismatch"):
            mse_loss(np.zeros(3), np.zeros(3), [3])
        with pytest.raises(ValueError, match=r"expected \(2, 3, vocab\)"):
            label_loss(np.zeros((2, 3), dtype=int), np.zeros((2, 4, 5)), [3, 3])


def _random_lengths(rng):
    # at least one real position: the numeric gradient needs a non-empty array
    lengths = [0]
    while max(lengths) == 0:
        lengths = rng.integers(0, 7, size=int(rng.integers(1, 5))).tolist()
    return lengths


class TestPaddedBatchFiniteDifferences:
    """The gradient of the summed row values, padding included: a padded
    slot is never read, so its numeric derivative is 0 as well."""

    def test_rank_loss(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 40:
            lengths = _random_lengths(rng)
            width = max(lengths)
            true = rng.integers(1, 8, (len(lengths), width)).astype(float)
            pred = rng.normal(scale=2.0, size=true.shape)
            sign = np.sign(true[:, :, None] - true[:, None, :])
            margins = 1.0 - sign * (pred[:, :, None] - pred[:, None, :])
            if np.any((sign != 0) & (np.abs(margins) < 1e-3)):
                continue  # away from the hinge kinks
            _, grad = rank_loss(true, pred, lengths)
            numeric = numeric_gradient(
                lambda p: rank_loss(true, p, lengths)[0].sum(), pred
            )
            np.testing.assert_allclose(grad, numeric, rtol=1e-5, atol=1e-8)
            checked += 1

    def test_mse_loss(self):
        rng = np.random.default_rng(32)
        for _ in range(40):
            lengths = _random_lengths(rng)
            true = rng.normal(size=(len(lengths), max(lengths)))
            pred = rng.normal(size=true.shape)
            _, grad = mse_loss(true, pred, lengths)
            numeric = numeric_gradient(
                lambda p: mse_loss(true, p, lengths)[0].sum(), pred
            )
            np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-8)

    def test_label_loss_through_softmax(self):
        rng = np.random.default_rng(33)
        for _ in range(40):
            lengths = _random_lengths(rng)
            vocab = int(rng.integers(2, 7))
            ids = rng.integers(0, vocab, (len(lengths), max(lengths)))
            logits = rng.normal(size=ids.shape + (vocab,))

            def through_softmax(z):
                return label_loss(ids, _softmax(z), lengths)[0].sum()

            probs = _softmax(logits)
            _, d_probs = label_loss(ids, probs, lengths)
            inner = (d_probs * probs).sum(axis=-1, keepdims=True)
            analytic = probs * (d_probs - inner)
            numeric = numeric_gradient(through_softmax, logits)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8)
