from dataclasses import replace

import numpy as np
import pytest

from distparse import codec, losses, model

from helpers import param_layout, reference_bilstm_backward


def tiny_config():
    return model.ModelConfig(
        word_vocab=9,
        tag_vocab=6,
        word_label_vocab=4,
        split_label_vocab=5,
        embed_dim=3,
        hidden_dim=4,
        conv_channels=4,
        ff_hidden=4,
    )


def random_example(rng, config, n):
    word_ids = rng.integers(0, config.word_vocab, n).tolist()
    tag_ids = rng.integers(0, config.tag_vocab, n).tolist()
    gold_d = (rng.permutation(n - 1) + 1).astype(float).tolist()
    gold_w = rng.integers(0, config.word_label_vocab, n).tolist()
    gold_s = rng.integers(0, config.split_label_vocab, n - 1).tolist()
    return word_ids, tag_ids, gold_d, gold_w, gold_s


class TestShapes:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9])
    def test_output_counts(self, n):
        config = tiny_config()
        params = model.init_params(config, np.random.default_rng(0))
        result = model.forward(params, config, list(range(n)) if n <= 9 else [0] * n,
                               [0] * n)
        assert result.distances.shape == (n - 1,)
        assert result.word_probs.shape == (n, config.word_label_vocab)
        assert result.split_probs.shape == (n - 1, config.split_label_vocab)
        np.testing.assert_allclose(result.word_probs.sum(axis=1), 1.0)
        if n > 1:
            np.testing.assert_allclose(result.split_probs.sum(axis=1), 1.0)

    def test_empty_sentence_rejected(self):
        config = tiny_config()
        params = model.init_params(config, np.random.default_rng(0))
        with pytest.raises(ValueError):
            model.forward(params, config, [], [])

    def test_out_of_vocabulary_ids_rejected(self):
        config = tiny_config()
        params = model.init_params(config, np.random.default_rng(0))
        with pytest.raises(ValueError):
            model.forward(params, config, [config.word_vocab], [0])
        with pytest.raises(ValueError):
            model.forward(params, config, [0], [-1])

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ValueError):
            model.ModelConfig(0, 1, 1, 1, 1, 1, 1, 1)

    @pytest.mark.parametrize(
        "bad, message",
        [(0, "must be positive"), (-1, "must be positive"),
         (True, "must be an integer"), (16.0, "must be an integer")],
    )
    @pytest.mark.parametrize("field", ["word_vocab", "embed_dim", "ff_hidden"])
    def test_config_names_the_field_it_rejects(self, field, bad, message):
        with pytest.raises(ValueError, match=f"^{field} {message}$"):
            replace(tiny_config(), **{field: bad})


class TestBatch:
    def test_mixed_lengths_match_per_sentence_forward(self):
        config = tiny_config()
        rng = np.random.default_rng(3)
        params = model.init_params(config, rng)
        lengths = rng.permutation(np.arange(1, 21))
        word_ids = [rng.integers(0, config.word_vocab, n).tolist() for n in lengths]
        tag_ids = [rng.integers(0, config.tag_vocab, n).tolist() for n in lengths]
        batched = model.forward_batch(params, config, word_ids, tag_ids)
        batch, steps = len(lengths), int(lengths.max())
        assert batched.lengths.tolist() == lengths.tolist()
        assert batched.distances.shape == (batch, steps - 1)
        assert batched.word_probs.shape == (batch, steps, config.word_label_vocab)
        assert batched.split_probs.shape == (batch, steps - 1, config.split_label_vocab)
        for row, (words, tags) in enumerate(zip(word_ids, tag_ids)):
            n = len(words)
            want = model.forward(params, config, words, tags)
            got = {
                "distances": batched.distances[row, : n - 1],
                "word_probs": batched.word_probs[row, :n],
                "split_probs": batched.split_probs[row, : n - 1],
            }
            for name, a in got.items():
                b = getattr(want, name)
                assert a.shape == b.shape
                np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12)
            tuples = [
                codec.DistanceTuple(
                    words=tuple(f"w{i}" for i in range(n)),
                    tags=("T",) * n,
                    unary_labels=tuple(str(i) for i in word_probs.argmax(axis=1)),
                    distances=tuple(distances.tolist()),
                    split_labels=tuple(str(i) for i in split_probs.argmax(axis=1)),
                )
                for distances, word_probs, split_probs in (
                    (got["distances"], got["word_probs"], got["split_probs"]),
                    (want.distances, want.word_probs, want.split_probs),
                )
            ]
            for engine in codec.ENGINES:
                assert codec.binary_trees_equal(
                    codec.decode(tuples[0], engine), codec.decode(tuples[1], engine)
                )

    def test_batch_of_single_words_runs(self):
        # no split column at all: the split arrays are (B, 0, ·)
        config = tiny_config()
        params = model.init_params(config, np.random.default_rng(0))
        result = model.forward_batch(params, config, [[1], [2], [3]], [[0], [1], [2]])
        assert result.distances.shape == (3, 0)
        assert result.word_probs.shape == (3, 1, config.word_label_vocab)
        assert result.split_probs.shape == (3, 0, config.split_label_vocab)
        assert result.lengths.tolist() == [1, 1, 1]
        np.testing.assert_allclose(result.word_probs.sum(axis=2), 1.0)

    @pytest.mark.parametrize(
        "word_ids, tag_ids, message",
        [
            ([[1, 2], [3]], [[0, 1]], "2 word sequences but 1 tag sequences"),
            ([[1, 2], [3]], [[0, 1], [2, 0]], "1 words but 2 tags"),
        ],
    )
    def test_words_and_tags_that_do_not_pair_up_rejected(
        self, word_ids, tag_ids, message
    ):
        config = tiny_config()
        params = model.init_params(config, np.random.default_rng(0))
        with pytest.raises(ValueError, match=f"^{message}$"):
            model.forward_batch(params, config, word_ids, tag_ids)

    def test_empty_batch_rejected(self):
        config = tiny_config()
        params = model.init_params(config, np.random.default_rng(0))
        with pytest.raises(ValueError, match="empty batch"):
            model.forward_batch(params, config, [], [])

    def test_backward_needs_kept_activations(self):
        config = tiny_config()
        params = model.init_params(config, np.random.default_rng(0))
        # batches of two and of one sentence that kept no activations for
        # the backward pass
        for word_ids, tag_ids in (([[1, 2], [3]], [[0, 1], [2]]), ([[1, 2]], [[0, 1]])):
            result = model.forward_batch(params, config, word_ids, tag_ids)
            with pytest.raises(ValueError, match="kept with keep_activations"):
                model.backward(
                    params, config, result, np.zeros_like(result.distances),
                    np.zeros_like(result.word_probs),
                    np.zeros_like(result.split_probs),
                )


def summed_sentence_losses(params, config, examples, kind):
    parts = {"distance": 0.0, "label": 0.0, "total": 0.0}
    grads = np.zeros_like(params.flat)
    for example in examples:
        one, one_grads = model.sentence_loss(params, config, *example, kind)
        for key in parts:
            parts[key] += one[key]
        grads += one_grads.flat
    return parts, grads


class TestBatchLoss:
    @pytest.mark.parametrize("kind", model.LOSS_KINDS)
    @pytest.mark.parametrize(
        "lengths",
        [
            [1, 5, 3, 1, 8, 2],  # 1-word sentences among longer ones
            [9, 2, 11, 1, 6, 3, 10, 1, 4, 7, 1, 5],
            [7, 1],
            [4, 4, 4],
            [1, 1, 1, 1],  # no split column at all
            [1],
        ],
    )
    def test_gradients_are_the_sum_of_the_sentence_gradients(self, lengths, kind):
        config = tiny_config()
        rng = np.random.default_rng(sum(lengths) + len(lengths))
        for _ in range(3):
            params = model.init_params(config, rng)
            shuffled = rng.permutation(lengths)
            examples = [random_example(rng, config, n) for n in shuffled]
            parts, grads = model.batch_loss(params, config, examples, kind)
            want_parts, want = summed_sentence_losses(params, config, examples, kind)
            assert param_layout(grads) == param_layout(params)
            np.testing.assert_allclose(grads.flat, want, rtol=0.0, atol=1e-12)
            for key in parts:
                assert parts[key] == pytest.approx(want_parts[key], rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 6])
    @pytest.mark.parametrize("kind", model.LOSS_KINDS)
    def test_one_sentence_is_forward_losses_and_backward_bit_for_bit(self, n, kind):
        # the one-sentence batch writes its loss gradients into padded
        # arrays; that must give the bits of the unpadded composition
        config = tiny_config()
        rng = np.random.default_rng(300 + n)
        params = model.init_params(config, rng)
        example = random_example(rng, config, n)
        parts, grads = model.batch_loss(params, config, [example], kind)
        one_parts, one = model.sentence_loss(params, config, *example, kind)
        result = model.forward(params, config, example[0], example[1])
        loss_fn = losses.rank_loss if kind == "rank" else losses.mse_loss
        dist, d_dist = loss_fn(example[2], result.distances)
        word, d_word = losses.label_loss(example[3], result.word_probs)
        split, d_split = losses.label_loss(example[4], result.split_probs)
        want = model.backward(params, config, result, d_dist, d_word, d_split)
        want_parts = {
            "distance": dist, "label": word + split, "total": dist + word + split
        }
        assert parts == one_parts == want_parts
        assert np.array_equal(grads.flat, one.flat)
        assert np.array_equal(grads.flat, want.flat)

    def test_unknown_loss_kind_and_empty_batch_rejected(self):
        config = tiny_config()
        params = model.init_params(config, np.random.default_rng(0))
        with pytest.raises(ValueError, match="unknown distance loss"):
            model.batch_loss(params, config, [([0], [0], [], [0], [])], "huber")
        with pytest.raises(ValueError, match="empty batch"):
            model.batch_loss(params, config, [], "rank")

    # (field of the example, how to break it, the message): in tiny_config
    # the 5-word sentence has 4 splits, 4 word labels and 5 split labels
    EXPECTED = r"^expected \({}, vocab\) distributions, got \({}\)$"
    OUTSIDE = "^true label outside the distribution's vocabulary$"
    MALFORMED = [
        (2, lambda gold: gold + [1.0], r"^shape mismatch: \(5,\) vs \(4,\)$"),
        (2, lambda gold: gold[:-1], r"^shape mismatch: \(3,\) vs \(4,\)$"),
        (3, lambda gold: gold + [0], EXPECTED.format(6, "5, 4")),
        (3, lambda gold: gold[:-1], EXPECTED.format(4, "5, 4")),
        (4, lambda gold: gold + [0], EXPECTED.format(5, "4, 5")),
        (4, lambda gold: [], EXPECTED.format(0, "4, 5")),
        (3, lambda gold: [4] + gold[1:], OUTSIDE),
        (3, lambda gold: gold[:-1] + [-1], OUTSIDE),
        (4, lambda gold: gold[:2] + [5] + gold[3:], OUTSIDE),
    ]

    @pytest.mark.parametrize("place", [0, 1, 2])
    @pytest.mark.parametrize("field, edit, message", MALFORMED)
    @pytest.mark.parametrize("kind", model.LOSS_KINDS)
    def test_malformed_example_raises_its_unbatched_message(
        self, kind, field, edit, message, place
    ):
        config = tiny_config()
        rng = np.random.default_rng(40 + place)
        params = model.init_params(config, rng)
        examples = [random_example(rng, config, n) for n in (3, 7)]
        bad = list(random_example(rng, config, 5))
        bad[field] = edit(bad[field])
        examples.insert(place, tuple(bad))
        with pytest.raises(ValueError, match=message):
            model.batch_loss(params, config, examples, kind)


class TestFlatLayout:
    def test_views_tile_the_flat_vector(self):
        config = tiny_config()
        rng = np.random.default_rng(5)
        params = model.init_params(config, rng)
        _, grads = model.sentence_loss(params, config, *random_example(rng, config, 4))
        for buffer in (params, grads):
            assert buffer.flat.dtype == np.float64 and buffer.flat.ndim == 1
            assert buffer.flat.flags.c_contiguous
            offset = 0
            for name, value in buffer.items():
                assert np.shares_memory(value, buffer.flat), name
                assert value.flags.c_contiguous, name
                start = (
                    value.__array_interface__["data"][0]
                    - buffer.flat.__array_interface__["data"][0]
                ) // buffer.flat.itemsize
                assert start == offset, name
                offset += value.size
            assert offset == buffer.flat.size
        assert param_layout(grads) == param_layout(params)

    def test_lstm_weights_are_stacked_by_direction(self):
        config = tiny_config()
        params = model.init_params(config, np.random.default_rng(0))
        e, h, m = config.embed_dim, config.hidden_dim, config.conv_channels
        for prefix, in_dim in (("lstm_word", 2 * e), ("lstm_split", m)):
            assert params[f"{prefix}_Wx"].shape == (2, in_dim, 4 * h)
            assert params[f"{prefix}_Wh"].shape == (2, h, 4 * h)
            assert params[f"{prefix}_b"].shape == (2, 4 * h)
            # forget-gate biases start at 1, the rest at 0
            expected = np.zeros((2, 4 * h))
            expected[:, h : 2 * h] = 1.0
            np.testing.assert_array_equal(params[f"{prefix}_b"], expected)
        assert not any("fwd" in name or "bwd" in name for name in params)

    def test_writes_through_views_reach_the_flat_vector(self):
        config = tiny_config()
        params = model.init_params(config, np.random.default_rng(0))
        params["conv_b"][2] = 7.5
        assert (params.flat == 7.5).sum() == 1
        copy = params.copy()
        copy["conv_b"][2] = 0.0
        assert params["conv_b"][2] == 7.5
        assert not np.shares_memory(copy.flat, params.flat)

    def test_backward_returns_a_fresh_buffer_each_call(self):
        config = tiny_config()
        rng = np.random.default_rng(6)
        params = model.init_params(config, rng)
        example = random_example(rng, config, 3)
        _, first = model.sentence_loss(params, config, *example)
        kept = first.flat.copy()
        _, second = model.sentence_loss(params, config, *example)
        assert not np.shares_memory(first.flat, second.flat)
        np.testing.assert_array_equal(first.flat, kept)
        np.testing.assert_array_equal(second.flat, kept)


class TestDeterminism:
    def test_init_and_forward_reproducible(self):
        config = tiny_config()
        p1 = model.init_params(config, np.random.default_rng(7))
        p2 = model.init_params(config, np.random.default_rng(7))
        for name in p1:
            np.testing.assert_array_equal(p1[name], p2[name])
        r1 = model.forward(p1, config, [1, 2, 3], [0, 1, 2])
        r2 = model.forward(p2, config, [1, 2, 3], [0, 1, 2])
        np.testing.assert_array_equal(r1.distances, r2.distances)


def total_loss(params, config, example, kind="rank"):
    parts, _ = model.sentence_loss(params, config, *example, kind)
    return parts["total"]


class TestGradients:
    def test_full_network_matches_finite_differences(self):
        # every parameter coordinate, three-word input, rank + label loss
        config = tiny_config()
        rng = np.random.default_rng(42)
        params = model.init_params(config, rng)
        example = random_example(rng, config, 3)
        _, grads = model.sentence_loss(params, config, *example, "rank")
        eps = 1e-5
        numeric_all = []
        analytic_all = []
        for name, arr in params.items():
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + eps
                up = total_loss(params, config, example)
                arr[idx] = orig - eps
                down = total_loss(params, config, example)
                arr[idx] = orig
                numeric = (up - down) / (2 * eps)
                analytic = grads[name][idx]
                numeric_all.append(numeric)
                analytic_all.append(analytic)
                if abs(numeric) + abs(analytic) > 1e-4:
                    rel = abs(numeric - analytic) / (abs(numeric) + abs(analytic))
                    assert rel < 1e-4, (name, idx, numeric, analytic)
        numeric_all = np.array(numeric_all)
        analytic_all = np.array(analytic_all)
        norm_rel = np.linalg.norm(numeric_all - analytic_all) / (
            np.linalg.norm(numeric_all) + np.linalg.norm(analytic_all)
        )
        assert norm_rel < 1e-6

    def test_mse_path_matches_finite_differences(self):
        config = tiny_config()
        rng = np.random.default_rng(43)
        params = model.init_params(config, rng)
        example = random_example(rng, config, 4)
        _, grads = model.sentence_loss(params, config, *example, "mse")
        eps = 1e-5
        rng2 = np.random.default_rng(44)
        names = sorted(params)
        for _ in range(60):
            name = names[rng2.integers(len(names))]
            arr = params[name]
            idx = tuple(rng2.integers(s) for s in arr.shape)
            orig = arr[idx]
            arr[idx] = orig + eps
            up = total_loss(params, config, example, "mse")
            arr[idx] = orig - eps
            down = total_loss(params, config, example, "mse")
            arr[idx] = orig
            numeric = (up - down) / (2 * eps)
            analytic = grads[name][idx]
            if abs(numeric) + abs(analytic) > 1e-4:
                rel = abs(numeric - analytic) / (abs(numeric) + abs(analytic))
                assert rel < 1e-4, (name, idx)

    def test_repeated_word_and_tag_ids_match_finite_differences(self):
        # a word id and a tag id occur twice, so their embedding rows sum
        # two positions' gradients through np.add.at
        config = tiny_config()
        rng = np.random.default_rng(46)
        params = model.init_params(config, rng)
        example = ([3, 5, 3, 1], [2, 2, 0, 4], [3.0, 1.0, 2.0], [0, 1, 2, 3], [1, 4, 0])
        _, grads = model.sentence_loss(params, config, *example, "rank")
        eps = 1e-5
        checked = 0
        for name, rows in (("embed_word", [1, 3, 5]), ("embed_tag", [0, 2, 4])):
            untouched = np.setdiff1d(np.arange(params[name].shape[0]), rows)
            np.testing.assert_array_equal(grads[name][untouched], 0.0)
            arr = params[name]
            for row in rows:
                for col in range(config.embed_dim):
                    orig = arr[row, col]
                    arr[row, col] = orig + eps
                    up = total_loss(params, config, example)
                    arr[row, col] = orig - eps
                    down = total_loss(params, config, example)
                    arr[row, col] = orig
                    numeric = (up - down) / (2 * eps)
                    analytic = grads[name][row, col]
                    assert abs(numeric - analytic) <= 1e-4 * (
                        abs(numeric) + abs(analytic)
                    ) + 1e-9, (name, row, col, numeric, analytic)
                    checked += 1
        assert checked == 6 * config.embed_dim

    @pytest.mark.parametrize("n", [1, 2, 7, 12])
    def test_kept_activations_give_the_recomputing_backward_bit_for_bit(
        self, n, monkeypatch
    ):
        # the forward keeps every step's gates and tanh(c) for the backward;
        # recomputing them from the states, as the reference does, must give
        # the same bits in every gradient
        config = tiny_config()
        rng = np.random.default_rng(100 + n)
        params = model.init_params(config, rng)
        example = random_example(rng, config, n)
        if n > 2:  # repeated ids sum embedding gradients through np.add.at
            example[0][-1], example[1][-1] = example[0][0], example[1][0]
        parts, grads = model.sentence_loss(params, config, *example)
        monkeypatch.setattr(
            model,
            "_bilstm_backward",
            lambda d_out, cache, prefix, grads: reference_bilstm_backward(
                d_out, cache, params[f"{prefix}_b"], prefix, grads
            ),
        )
        want_parts, want = model.sentence_loss(params, config, *example)
        assert parts == want_parts
        assert np.array_equal(grads.flat, want.flat)

    def test_single_word_sentence_backward_runs(self):
        config = tiny_config()
        rng = np.random.default_rng(45)
        params = model.init_params(config, rng)
        parts, grads = model.sentence_loss(
            params, config, [1], [2], [], [0], [], "rank"
        )
        assert parts["distance"] == 0.0
        assert set(grads) == set(params)

    def test_unknown_loss_kind_rejected(self):
        config = tiny_config()
        params = model.init_params(config, np.random.default_rng(0))
        with pytest.raises(ValueError):
            model.sentence_loss(params, config, [0], [0], [], [0], [], "huber")
