import json

import numpy as np
import pytest

from distparse import model, pcfg
from distparse.binarize import EMPTY_LABEL, binarize, debinarize
from distparse.codec import decode, encode
from distparse.scoring import score
from distparse.train import (
    Adam,
    NonFiniteError,
    TrainConfig,
    Vocabulary,
    load_checkpoint,
    predict_scores,
    predict_tree,
    predict_trees,
    save_checkpoint,
    train,
)
from distparse.trees import Leaf, NaryTree, leaves


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
        opt = Adam(w, learning_rate=0.1)
        for _ in range(500):
            opt.step(w, 2.0 * w)
        np.testing.assert_allclose(w, 0.0, atol=1e-3)

    def test_weight_decay_shrinks_unused_parameters(self):
        w = np.array([1.0])
        opt = Adam(w, learning_rate=0.01, weight_decay=0.1)
        for _ in range(100):
            opt.step(w, np.zeros(1))
        assert abs(w[0]) < 1.0

    def test_step_counter(self):
        w = np.zeros(2)
        opt = Adam(w)
        opt.step(w, np.ones(2))
        opt.step(w, np.ones(2))
        assert opt.step_count == 2

    def test_flat_step_is_bitwise_the_per_array_loop(self):
        config = model.ModelConfig(
            word_vocab=40, tag_vocab=12, word_label_vocab=9, split_label_vocab=11
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
            predict_tree(untrained, result.model_config, vocab, t.words, t.tags)
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
        with pytest.raises(ValueError):
            train([], [], small_config())

    @pytest.mark.parametrize(
        "bad",
        [
            {"epochs": 0},
            {"epochs": -1},
            {"distance_loss": "hinge"},
            {"decode_engine": "warp"},
        ],
    )
    def test_config_rejects_values_training_cannot_use(self, bad):
        (field,) = bad
        with pytest.raises(ValueError, match=field):
            small_config(**bad)


class TestPrediction:
    def test_output_leaves_match_input(self):
        train_tuples, dev_tuples = small_corpus(60, 5)
        result = train(train_tuples, [], small_config(epochs=1))
        for tup in dev_tuples:
            tree = predict_tree(
                result.params, result.model_config, result.vocab, tup.words, tup.tags
            )
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
                tree = predict_tree(params, config, vocab, tup.words, tup.tags)
                assert isinstance(tree, (NaryTree, Leaf))
                assert tuple(words_of(tree)) == tup.words

    def test_empty_root_label_is_replaced(self):
        # zeroed output heads make every label distribution uniform, so the
        # argmax falls on the alphabetically first label; order the vocab so
        # that is the empty label and the guard must fire
        train_tuples, _ = small_corpus(30, 0)
        vocab = Vocabulary.build(train_tuples)
        assert vocab.split_labels[0] < "∅"  # sanity: sorted ascii first
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
        params["split_head_W2"][:] = 0.0
        params["split_head_b2"][:] = 0.0
        empty_index = vocab.split_labels.index(EMPTY_LABEL)
        params["split_head_b2"][empty_index] = 10.0  # force the empty label
        tup = train_tuples[0]
        if len(tup.words) < 2:
            tup = next(t for t in train_tuples if len(t.words) >= 2)
        tree = predict_tree(params, config, vocab, tup.words, tup.tags)
        assert isinstance(tree, (NaryTree, Leaf))
        [(predicted, _, _)] = predict_scores(
            params, config, vocab, [(tup.words, tup.tags)]
        )
        assert all(label == EMPTY_LABEL for label in predicted.split_labels)

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
        for engine in ("stack", "rmq", "scan"):
            batched = predict_trees(
                result.params,
                result.model_config,
                result.vocab,
                [(t.words, t.tags) for t in dev_tuples],
                engine,
            )
            single = [
                predict_tree(
                    result.params, result.model_config, result.vocab,
                    t.words, t.tags, engine,
                )
                for t in dev_tuples
            ]
            assert batched == single

    def test_single_word_prediction(self):
        train_tuples, _ = small_corpus(60, 0)
        result = train(train_tuples, [], small_config(epochs=1))
        tree = predict_tree(
            result.params, result.model_config, result.vocab, ("run",), ("VB",)
        )
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
        tree = predict_tree(params, config, vocab, ("run",), ("VB",))
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
        for (words, tags), (tup, _, _) in zip(sentences, scored):
            single = model.forward(
                params,
                result.model_config,
                [vocab.word_id(w) for w in words],
                [vocab.tag_id(t) for t in tags],
            )
            assert tup.unary_labels == tuple(
                vocab.word_labels[i] for i in single.word_probs.argmax(axis=1)
            )
            assert tup.split_labels == tuple(
                vocab.split_labels[i] for i in single.split_probs.argmax(axis=1)
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
        assert len({label for tup, _, _ in scored for label in tup.split_labels}) > 1
        assert len({label for tup, _, _ in scored for label in tup.unary_labels}) > 1

    def test_batch_of_one_word_sentences(self):
        # no split column at all in the padded batch
        result, dev_tuples = self.trained()
        sentences = [(t.words[:1], t.tags[:1]) for t in dev_tuples]
        scored = self.assert_labels_match_forward(result.params, result, sentences)
        assert all(tup.split_labels == () for tup, _, _ in scored)

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
            lambda: predict_tree(params, result.model_config, result.vocab, *sentences[0]),
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
            predict_tree(params, result.model_config, result.vocab, words, tags)
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
        a = predict_tree(result.params, result.model_config, result.vocab, tup.words, tup.tags)
        b = predict_tree(loaded.params, loaded.model_config, loaded.vocab, tup.words, tup.tags)
        assert a == b

    def test_keeps_per_direction_names_and_packs_the_flat_layout(self, tmp_path):
        train_tuples, dev_tuples = small_corpus(60, 10)
        result = train(train_tuples, dev_tuples, small_config(epochs=1))
        path = tmp_path / "model.json"
        save_checkpoint(path, result)
        stored = json.loads(path.read_text())["params"]
        assert len(stored) == 28
        assert list(stored) == sorted(stored)
        for prefix in ("lstm_word", "lstm_split"):
            for k, direction in enumerate(("fwd", "bwd")):
                for kind in ("Wx", "Wh", "b"):
                    np.testing.assert_array_equal(
                        stored[f"{prefix}_{direction}_{kind}"],
                        result.params[f"{prefix}_{kind}"][k],
                    )
            assert f"{prefix}_Wx" not in stored
        loaded = load_checkpoint(path)
        assert loaded.params.shapes() == result.params.shapes()
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
