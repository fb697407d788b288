import base64
import json
import math

import numpy as np
import pytest

from distparse import model, pcfg, train as training
from distparse.binarize import EMPTY_LABEL, LabelError, binarize, debinarize
from distparse.codec import decode, encode
from distparse.scoring import score
from distparse.train import (
    Adam,
    NonFiniteError,
    TrainConfig,
    Vocabulary,
    length_batches,
    load_checkpoint,
    predict_scores,
    predict_trees,
    save_checkpoint,
    train,
)
from distparse.trees import Leaf, NaryTree, leaves

from helpers import param_layout


def words_of(tree):
    return [leaf.word for leaf in leaves(tree)]


def small_corpus(n_train=200, n_dev=40, seed=500):
    trees = pcfg.generate_trees(n_train + n_dev, seed=seed)
    tuples = [encode(binarize(t)) for t in trees]
    return tuples[:n_train], tuples[n_train:]


def small_config(**overrides):
    defaults = dict(
        epochs=5,
        seed=0,
        embed_dim=8,
        hidden_dim=12,
        conv_channels=12,
        ff_hidden=12,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestVocabulary:
    def test_build_is_deterministic_and_covers_labels(self):
        train_tuples, _ = small_corpus(50, 0)
        vocab = Vocabulary.build(train_tuples)
        assert vocab.words[0] == "<unk>"
        assert vocab.tags[0] == "<unk>"
        assert EMPTY_LABEL in vocab.word_labels
        assert EMPTY_LABEL in vocab.split_labels
        assert vocab == Vocabulary.build(list(train_tuples))

    def test_unknown_words_map_to_unk(self):
        train_tuples, _ = small_corpus(30, 0)
        vocab = Vocabulary.build(train_tuples)
        assert vocab.word_id("zzz-never-seen") == 0
        assert vocab.tag_id("ZZZ") == 0

    def test_unknown_labels_are_errors(self):
        train_tuples, _ = small_corpus(30, 0)
        vocab = Vocabulary.build(train_tuples)
        with pytest.raises(ValueError):
            vocab.word_label_id("NEVER")
        with pytest.raises(ValueError):
            vocab.split_label_id("NEVER")

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary.build([])

    def test_build_sorts_each_inventory_and_indexes_it_in_order(self):
        train_tuples, _ = small_corpus(50, 0)
        vocab = Vocabulary.build(train_tuples)

        def inventory(column):
            return sorted({item for tup in train_tuples for item in column(tup)})

        assert vocab.words == ("<unk>", *inventory(lambda tup: tup.words))
        assert vocab.tags == ("<unk>", *inventory(lambda tup: tup.tags))
        assert vocab.word_labels == tuple(
            sorted({EMPTY_LABEL, *inventory(lambda tup: tup.unary_labels)})
        )
        assert vocab.split_labels == tuple(
            sorted({EMPTY_LABEL, *inventory(lambda tup: tup.split_labels)})
        )
        assert [vocab.word_id(w) for w in vocab.words] == list(range(len(vocab.words)))
        assert [vocab.tag_id(t) for t in vocab.tags] == list(range(len(vocab.tags)))
        for position, label in enumerate(vocab.word_labels):
            assert vocab.word_label_id(label) == position
        for position, label in enumerate(vocab.split_labels):
            assert vocab.split_label_id(label) == position

    @staticmethod
    def _inventories(field, *extra):
        """Four small inventories, ``extra`` appended to ``field``'s."""
        inventories = dict(
            words=("<unk>", "cat"), tags=("<unk>", "NN"),
            word_labels=(EMPTY_LABEL, "NP"), split_labels=(EMPTY_LABEL, "S"),
        )
        inventories[field] += extra
        return inventories

    @pytest.mark.parametrize("field", ["words", "tags", "word_labels", "split_labels"])
    def test_repeated_entry_rejected(self, field):
        with pytest.raises(ValueError, match=f"^{field} repeats entry 'dog'$"):
            Vocabulary(**self._inventories(field, "dog", "VP", "dog"))

    @pytest.mark.parametrize("field", ["word_labels", "split_labels"])
    def test_label_decoding_would_reject_is_refused(self, field):
        with pytest.raises(LabelError, match=f"^{field}: empty nonterminal label"):
            Vocabulary(**self._inventories(field, "S+"))


def reference_adam(params, grads_per_step, lr, b1, b2, eps, wd):
    """Adam as a loop over named arrays, one temporary per operation."""
    first = {k: np.zeros_like(v) for k, v in params.items()}
    second = {k: np.zeros_like(v) for k, v in params.items()}
    for step, grads in enumerate(grads_per_step, start=1):
        correction1 = 1.0 - b1**step
        correction2 = 1.0 - b2**step
        for name in params:
            g = grads[name]
            m = first[name]
            v = second[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / correction1
            v_hat = v / correction2
            params[name] -= lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * params[name])


class TestAdam:
    def test_moves_toward_minimum(self):
        w = np.array([5.0, -3.0])
        opt = Adam(
            w, learning_rate=0.1, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0
        )
        for _ in range(500):
            opt.step(w, 2.0 * w)
        np.testing.assert_allclose(w, 0.0, atol=1e-3)

    def test_weight_decay_shrinks_unused_parameters(self):
        w = np.array([1.0])
        opt = Adam(
            w, learning_rate=0.01, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.1
        )
        for _ in range(100):
            opt.step(w, np.zeros(1))
        assert abs(w[0]) < 1.0

    def test_step_counter(self):
        w = np.zeros(2)
        opt = Adam(
            w, learning_rate=1e-3, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0
        )
        opt.step(w, np.ones(2))
        opt.step(w, np.ones(2))
        assert opt.step_count == 2

    def test_flat_step_is_bitwise_the_per_array_loop(self):
        config = model.ModelConfig(
            word_vocab=40, tag_vocab=12, word_label_vocab=9, split_label_vocab=11,
            embed_dim=16, hidden_dim=32, conv_channels=32, ff_hidden=32,
        )
        rng = np.random.default_rng(11)
        params = model.init_params(config, rng)
        reference = {name: value.copy() for name, value in params.items()}
        grads_per_step = []
        for _ in range(50):
            grads = params.empty_like()
            scale = rng.choice([1e-6, 1.0, 1e3])
            grads.flat[...] = rng.normal(scale=scale, size=grads.flat.size)
            grads.flat[rng.integers(grads.flat.size, size=100)] = 0.0
            grads_per_step.append(grads)
        lr, b1, b2, eps, wd = 3e-3, 0.9, 0.999, 1e-8, 1e-2
        opt = Adam(
            params.flat, learning_rate=lr, beta1=b1, beta2=b2, eps=eps, weight_decay=wd
        )
        for grads in grads_per_step:
            opt.step(params.flat, grads.flat)
        reference_adam(reference, grads_per_step, lr, b1, b2, eps, wd)
        for name in params:
            np.testing.assert_array_equal(params[name], reference[name])


class TestTraining:
    def test_beats_untrained_baseline_within_five_epochs(self):
        train_tuples, dev_tuples = small_corpus()
        config = small_config()
        result = train(train_tuples, dev_tuples, config)

        vocab = Vocabulary.build(train_tuples)
        untrained = model.init_params(result.model_config, np.random.default_rng(0))
        gold = [debinarize(decode(t)) for t in dev_tuples]
        baseline_pred = [
            predict_trees(untrained, result.model_config, vocab, [(t.words, t.tags)])[0]
            for t in dev_tuples
        ]
        baseline = score(gold, baseline_pred).unlabeled_f1
        best = max(h.dev_unlabeled_f1 for h in result.history)
        assert best > baseline

    def test_same_seed_runs_are_bitwise_identical(self):
        train_tuples, dev_tuples = small_corpus(80, 10)
        config = small_config(epochs=2)
        r1 = train(train_tuples, dev_tuples, config)
        r2 = train(train_tuples, dev_tuples, config)
        assert [h.total_loss for h in r1.history] == [h.total_loss for h in r2.history]
        for name in r1.params:
            np.testing.assert_array_equal(r1.params[name], r2.params[name])

    def test_returns_best_dev_epoch(self):
        train_tuples, dev_tuples = small_corpus(80, 10)
        result = train(train_tuples, dev_tuples, small_config(epochs=3))
        best = max(h.dev_labeled_f1 for h in result.history)
        assert result.history[result.best_epoch - 1].dev_labeled_f1 == best

    def test_empty_corpus_rejected(self):
        message = "^cannot build a vocabulary from an empty corpus$"
        with pytest.raises(ValueError, match=message):
            train([], [], small_config())

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_step_that_breaks_the_weights_after_the_last_loss_is_refused(self):
        # one batch in the epoch, so its loss is checked before the step
        # overflows and no later loss shows it: the parameter check must
        train_tuples, _ = small_corpus(training.TRAIN_BATCH, 0)
        config = small_config(epochs=1, learning_rate=1e308)
        with pytest.raises(NonFiniteError, match="^non-finite parameters at epoch 1$"):
            train(train_tuples, [], config)

    @pytest.mark.parametrize(
        "bad",
        [
            {"epochs": 0},
            {"epochs": -1},
            {"distance_loss": "hinge"},
        ],
    )
    def test_config_rejects_values_training_cannot_use(self, bad):
        (field,) = bad
        with pytest.raises(ValueError, match=field):
            small_config(**bad)

    def test_batches_of_one_are_the_per_sentence_adam_loop(self, monkeypatch):
        # the loop training ran before it took batches, written out: one
        # permutation per epoch, one sentence_loss and one Adam step per
        # sentence
        train_tuples, _ = small_corpus(40, 0)
        config = small_config(epochs=2)
        monkeypatch.setattr(training, "TRAIN_BATCH", 1)
        result = train(train_tuples, [], config)
        vocab = Vocabulary.build(train_tuples)
        rng = np.random.default_rng(config.seed)
        params = model.init_params(result.model_config, rng)
        opt = Adam(
            params.flat, config.learning_rate, config.beta1, config.beta2,
            config.adam_eps, config.weight_decay,
        )
        examples = [
            (
                [vocab.word_id(w) for w in tup.words],
                [vocab.tag_id(t) for t in tup.tags],
                list(tup.distances),
                [vocab.word_label_id(u) for u in tup.unary_labels],
                [vocab.split_label_id(c) for c in tup.split_labels],
            )
            for tup in train_tuples
        ]
        for epoch in result.history:
            total = 0.0
            for index in rng.permutation(len(examples)):
                parts, grads = model.sentence_loss(
                    params, result.model_config, *examples[index], config.distance_loss
                )
                opt.step(params.flat, grads.flat)
                total += parts["distance"]
            assert epoch.distance_loss == total / len(examples)
        assert np.array_equal(result.params.flat, params.flat)

    @pytest.mark.parametrize("batch_size", [3, 10**12])
    def test_batches_step_once_each_with_the_scaled_rate(self, batch_size, monkeypatch):
        train_tuples, _ = small_corpus(10, 0)
        steps = []
        original = Adam.step

        def record(self, params, grads, sentences=1):
            steps.append(sentences)
            original(self, params, grads, sentences)

        monkeypatch.setattr(Adam, "step", record)
        monkeypatch.setattr(training, "TRAIN_BATCH", batch_size)
        result = train(train_tuples, [], small_config(epochs=2))
        per_epoch = [1, 3, 3, 3] if batch_size == 3 else [10]  # one batch for all
        assert sorted(steps[: len(per_epoch)]) == sorted(steps[len(per_epoch) :])
        assert sorted(steps[: len(per_epoch)]) == per_epoch
        assert np.isfinite(result.params.flat).all()

    def test_adam_step_over_k_sentences_moves_k_times_as_far_at_first(self):
        # the first Adam step is lr * sign(g) per element (eps aside), so a
        # step counted as k sentences moves k times as far
        moves = []
        for sentences in (1, 4):
            w = np.array([1.0, -2.0])
            opt = Adam(
                w, learning_rate=1e-3, beta1=0.9, beta2=0.999, eps=1e-12,
                weight_decay=0.0,
            )
            opt.step(w, np.array([0.5, -3.0]), sentences)
            moves.append(w - np.array([1.0, -2.0]))
        np.testing.assert_allclose(moves[0], [-1e-3, 1e-3], rtol=1e-9)
        np.testing.assert_allclose(moves[1], 4 * moves[0], rtol=1e-9)


class TestLengthBatches:
    def test_size_one_is_the_order_itself(self):
        order = [4, 0, 3, 1, 2]
        lengths = [5, 1, 9, 1, 3]
        assert length_batches(order, lengths, 1) == [[i] for i in order]

    def test_stable_length_sort_cut_and_ordered_by_earliest_member(self):
        order = [4, 0, 3, 1, 2, 5]
        lengths = [5, 1, 9, 1, 3, 5]
        # by length, stably: 3, 1 (length 1), 4 (3), 0, 5 (5), 2 (9)
        assert length_batches(order, lengths, 2) == [[4, 0], [3, 1], [5, 2]]
        assert length_batches(order, lengths, 4) == [[3, 1, 4, 0], [5, 2]]
        assert length_batches(order, lengths, 100) == [[3, 1, 4, 0, 5, 2]]

    def test_every_index_once_and_batches_of_the_size(self):
        rng = np.random.default_rng(8)
        lengths = rng.integers(1, 30, size=103).tolist()
        order = rng.permutation(103).tolist()
        batches = length_batches(order, lengths, 8)
        assert sorted(i for batch in batches for i in batch) == list(range(103))
        assert sorted(map(len, batches)) == [7] + [8] * 12
        # each batch is a run of the stable length sort
        by_length = sorted(order, key=lengths.__getitem__)
        assert sorted(batches, key=lambda b: by_length.index(b[0])) == [
            by_length[start : start + 8] for start in range(0, 103, 8)
        ]

    def test_empty_order_gives_no_batches(self):
        assert length_batches([], [], 4) == []


class TestPrediction:
    def test_output_leaves_match_input(self):
        train_tuples, dev_tuples = small_corpus(60, 5)
        result = train(train_tuples, [], small_config(epochs=1))
        for tup in dev_tuples:
            tree = predict_trees(
                result.params, result.model_config, result.vocab, [(tup.words, tup.tags)]
            )[0]
            assert tuple(words_of(tree)) == tup.words

    def test_untrained_parameters_still_yield_wellformed_trees(self):
        train_tuples, dev_tuples = small_corpus(30, 10)
        vocab = Vocabulary.build(train_tuples)
        config = model.ModelConfig(
            word_vocab=len(vocab.words),
            tag_vocab=len(vocab.tags),
            word_label_vocab=len(vocab.word_labels),
            split_label_vocab=len(vocab.split_labels),
            embed_dim=8,
            hidden_dim=8,
            conv_channels=8,
            ff_hidden=8,
        )
        for seed in range(5):
            params = model.init_params(config, np.random.default_rng(seed))
            for tup in dev_tuples:
                tree = predict_trees(params, config, vocab, [(tup.words, tup.tags)])[0]
                assert isinstance(tree, (NaryTree, Leaf))
                assert tuple(words_of(tree)) == tup.words

    def test_empty_root_label_is_replaced(self):
        # a large bias makes the empty label every split's argmax, so the
        # root must be repaired; the rest of the split head still ranks the
        # other labels differently at each split
        train_tuples, _ = small_corpus(30, 0)
        vocab = Vocabulary.build(train_tuples)
        config = model.ModelConfig(
            word_vocab=len(vocab.words),
            tag_vocab=len(vocab.tags),
            word_label_vocab=len(vocab.word_labels),
            split_label_vocab=len(vocab.split_labels),
            embed_dim=4,
            hidden_dim=4,
            conv_channels=4,
            ff_hidden=4,
        )
        params = model.init_params(config, np.random.default_rng(0))
        empty_index = vocab.split_labels.index(EMPTY_LABEL)
        params["split_head_b2"][empty_index] = 10.0  # force the empty label
        sentences = [(t.words, t.tags) for t in train_tuples if len(t.words) >= 3]
        expected = []
        root_differs = 0
        for words, tags in sentences:
            single = model.forward(
                params, config, [vocab.word_id(w) for w in words],
                [vocab.tag_id(t) for t in tags],
            )
            assert (single.split_probs.argmax(axis=1) == empty_index).all()
            non_empty = np.array(single.split_probs)
            non_empty[:, empty_index] = -np.inf
            best = [vocab.split_labels[i] for i in non_empty.argmax(axis=1)]
            root = int(np.argmax(single.distances))  # the first maximum
            expected.append(best[root])
            root_differs += any(label != best[root] for label in best)
        assert root_differs  # the label read at another split would differ
        # predict_scores repairs the root alone
        for tup, label in zip(predict_scores(params, config, vocab, sentences), expected):
            labels = list(tup.split_labels)
            assert labels.pop(int(np.argmax(tup.distances))) == label
            assert set(labels) == {EMPTY_LABEL}
        for tree, label in zip(predict_trees(params, config, vocab, sentences), expected):
            chain = [tree.label]
            while len(tree.children) == 1:
                tree = tree.children[0]
                chain.append(tree.label)
            assert "+".join(chain) == label

    def test_predict_trees_keeps_input_order(self):
        train_tuples, dev_tuples = small_corpus(60, 40)
        result = train(train_tuples, [], small_config(epochs=1))
        # more than one batch, with lengths out of order
        sentences = [(t.words, t.tags) for t in dev_tuples] * 2
        predicted = predict_trees(
            result.params, result.model_config, result.vocab, sentences
        )
        assert [tuple(words_of(tree)) for tree in predicted] == [
            words for words, _ in sentences
        ]

    def test_predict_trees_matches_predict_tree(self):
        train_tuples, dev_tuples = small_corpus(60, 40)
        result = train(train_tuples, [], small_config(epochs=1))
        batched = predict_trees(
            result.params,
            result.model_config,
            result.vocab,
            [(t.words, t.tags) for t in dev_tuples],
        )
        single = [
            predict_trees(
                result.params, result.model_config, result.vocab, [(t.words, t.tags)]
            )[0]
            for t in dev_tuples
        ]
        assert batched == single

    def test_no_sentences_give_no_trees(self):
        train_tuples, _ = small_corpus(30, 0)
        result = train(train_tuples, [], small_config(epochs=1))
        assert predict_trees(result.params, result.model_config, result.vocab, []) == []

    def test_single_word_prediction(self):
        train_tuples, _ = small_corpus(60, 0)
        result = train(train_tuples, [], small_config(epochs=1))
        tree = predict_trees(
            result.params, result.model_config, result.vocab, [(("run",), ("VB",))]
        )[0]
        assert tuple(words_of(tree)) == ("run",)

    def test_single_word_chain_label_expands_to_nested_tree(self):
        # force the word-label head to pick the collapsed S+VP chain
        train_tuples, _ = small_corpus(30, 0)
        vocab = Vocabulary.build(train_tuples)
        assert "S+VP" in vocab.word_labels
        config = model.ModelConfig(
            word_vocab=len(vocab.words),
            tag_vocab=len(vocab.tags),
            word_label_vocab=len(vocab.word_labels),
            split_label_vocab=len(vocab.split_labels),
            embed_dim=4,
            hidden_dim=4,
            conv_channels=4,
            ff_hidden=4,
        )
        params = model.init_params(config, np.random.default_rng(0))
        params["word_head_W2"][:] = 0.0
        params["word_head_b2"][:] = 0.0
        params["word_head_b2"][vocab.word_labels.index("S+VP")] = 10.0
        tree = predict_trees(params, config, vocab, [(("run",), ("VB",))])[0]
        assert tree == NaryTree("S", [NaryTree("VP", [Leaf("run", "VB")])])


class TestBatchLabels:
    """``predict_scores`` reads the labels of a whole padded batch with one
    argmax per head; each sentence's labels must equal the argmax of its own
    one-sentence :func:`model.forward`."""

    def trained(self):
        train_tuples, dev_tuples = small_corpus(60, 20)
        return train(train_tuples, [], small_config(epochs=1)), dev_tuples

    def assert_labels_match_forward(self, params, result, sentences):
        vocab = result.vocab
        scored = predict_scores(params, result.model_config, vocab, sentences)
        assert len(scored) == len(sentences)
        for (words, tags), tup in zip(sentences, scored):
            single = model.forward(
                params,
                result.model_config,
                [vocab.word_id(w) for w in words],
                [vocab.tag_id(t) for t in tags],
            )
            assert tup.unary_labels == tuple(
                vocab.word_labels[i] for i in single.word_probs.argmax(axis=1)
            )
            split_probs = np.array(single.split_probs)
            if len(words) > 1:  # an empty root label takes the best other one
                root = int(np.argmax(tup.distances))
                if vocab.split_labels[split_probs[root].argmax()] == EMPTY_LABEL:
                    split_probs[root, split_probs[root].argmax()] = -np.inf
            assert tup.split_labels == tuple(
                vocab.split_labels[i] for i in split_probs.argmax(axis=1)
            )
        return scored

    def test_ragged_batch(self):
        result, dev_tuples = self.trained()
        # unsorted lengths, 1-word sentences among them
        sentences = [(t.words, t.tags) for t in dev_tuples]
        sentences += [(t.words[:1], t.tags[:1]) for t in dev_tuples[:5]]
        sentences = sentences[::3] + sentences[1::3] + sentences[2::3]
        assert len({len(words) for words, _ in sentences}) > 3
        # random weights, so that the labels vary from position to position
        params = model.init_params(result.model_config, np.random.default_rng(3))
        scored = self.assert_labels_match_forward(params, result, sentences)
        assert len({label for tup in scored for label in tup.split_labels}) > 1
        assert len({label for tup in scored for label in tup.unary_labels}) > 1

    def test_batch_of_one_word_sentences(self):
        # no split column at all in the padded batch
        result, dev_tuples = self.trained()
        sentences = [(t.words[:1], t.tags[:1]) for t in dev_tuples]
        scored = self.assert_labels_match_forward(result.params, result, sentences)
        assert all(tup.split_labels == () for tup in scored)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nan_only_in_padding(self):
        result, dev_tuples = self.trained()
        params = result.params.copy()
        # id 0, the unknown word, pads every batch: a NaN embedding makes the
        # padded rows NaN while sentences without unknown words stay finite
        params["embed_word"][0] = np.nan
        sentences = [
            (t.words, t.tags)
            for t in dev_tuples
            if all(result.vocab.word_id(word) for word in t.words)
        ]
        assert len({len(words) for words, _ in sentences}) > 1
        self.assert_labels_match_forward(params, result, sentences)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestNonFiniteOutput:
    def trained(self):
        train_tuples, dev_tuples = small_corpus(60, 20)
        return train(train_tuples, [], small_config(epochs=1)), dev_tuples

    def test_overflowing_label_head_is_refused(self):
        result, dev_tuples = self.trained()
        params = result.params.copy()
        # saturated hidden units times 1e308 weights: the word logits overflow
        # while the split scores stay finite
        params["word_head_W1"][...] = 0.0
        params["word_head_b1"][...] = 1e3
        params["word_head_W2"][...] = 1e308
        sentences = [(t.words, t.tags) for t in dev_tuples]
        for call in (
            lambda: predict_trees(params, result.model_config, result.vocab, sentences),
            lambda: predict_trees(params, result.model_config, result.vocab, [sentences[0]]),
        ):
            with pytest.raises(NonFiniteError, match="non-finite model output"):
                call()

    def test_non_finite_padding_alone_is_not_an_error(self):
        result, dev_tuples = self.trained()
        params = result.params.copy()
        # id 0, the unknown word, pads every batch: a NaN embedding makes the
        # padded positions NaN, and sentences without unknown words finite
        params["embed_word"][0] = np.nan
        sentences = [
            (t.words, t.tags)
            for t in dev_tuples
            if all(result.vocab.word_id(word) for word in t.words)
        ]
        assert len({len(words) for words, _ in sentences}) > 1
        batched = predict_trees(params, result.model_config, result.vocab, sentences)
        single = [
            predict_trees(params, result.model_config, result.vocab, [(words, tags)])[0]
            for words, tags in sentences
        ]
        assert batched == single


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        train_tuples, dev_tuples = small_corpus(60, 10)
        result = train(train_tuples, dev_tuples, small_config(epochs=1))
        path = tmp_path / "model.json"
        save_checkpoint(path, result, metadata={"note": "test"})
        loaded = load_checkpoint(path)
        assert loaded.vocab == result.vocab
        assert loaded.model_config == result.model_config
        for name in result.params:
            np.testing.assert_array_equal(loaded.params[name], result.params[name])
        tup = dev_tuples[0]
        sentence = [(tup.words, tup.tags)]
        a = predict_trees(result.params, result.model_config, result.vocab, sentence)[0]
        b = predict_trees(loaded.params, loaded.model_config, loaded.vocab, sentence)[0]
        assert a == b

    def test_stores_the_flat_buffer_in_layout_order(self, tmp_path):
        train_tuples, dev_tuples = small_corpus(60, 10)
        result = train(train_tuples, dev_tuples, small_config(epochs=1))
        path = tmp_path / "model.json"
        save_checkpoint(path, result)
        payload = json.loads(path.read_text())
        assert payload["version"] == 2
        stored = np.frombuffer(base64.b64decode(payload["params"], validate=True), "<f8")
        np.testing.assert_array_equal(stored, result.params.flat)
        # the arrays tile the buffer in param_shapes order
        offset = 0
        for name, shape in model.param_shapes(result.model_config).items():
            size = math.prod(shape)
            np.testing.assert_array_equal(
                stored[offset : offset + size].reshape(shape), result.params[name]
            )
            offset += size
        assert offset == stored.size
        loaded = load_checkpoint(path)
        assert param_layout(loaded.params) == param_layout(result.params)
        np.testing.assert_array_equal(loaded.params.flat, result.params.flat)
        for value in loaded.params.values():
            assert np.shares_memory(value, loaded.params.flat)
        again = tmp_path / "again.json"
        save_checkpoint(again, loaded)
        assert again.read_bytes() == path.read_bytes()

    def test_rejects_non_checkpoint_files(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(ValueError):
            load_checkpoint(path)
