import numpy as np
import pytest

from distparse import model, pcfg
from distparse.binarize import EMPTY_LABEL, binarize, debinarize
from distparse.codec import decode, encode
from distparse.scoring import score, words_of
from distparse.train import (
    Adam,
    TrainConfig,
    Vocabulary,
    load_checkpoint,
    predict_scores,
    predict_tree,
    predict_trees,
    save_checkpoint,
    train,
)
from distparse.trees import Leaf, NaryTree


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


class TestAdam:
    def test_moves_toward_minimum(self):
        params = {"w": np.array([5.0, -3.0])}
        opt = Adam(params, learning_rate=0.1)
        for _ in range(500):
            grads = {"w": 2.0 * params["w"]}
            opt.step(params, grads)
        np.testing.assert_allclose(params["w"], 0.0, atol=1e-3)

    def test_weight_decay_shrinks_unused_parameters(self):
        params = {"w": np.array([1.0])}
        opt = Adam(params, learning_rate=0.01, weight_decay=0.1)
        for _ in range(100):
            opt.step(params, {"w": np.zeros(1)})
        assert abs(params["w"][0]) < 1.0

    def test_step_counter(self):
        params = {"w": np.zeros(2)}
        opt = Adam(params)
        opt.step(params, {"w": np.ones(2)})
        opt.step(params, {"w": np.ones(2)})
        assert opt.step_count == 2


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

    def test_rejects_non_checkpoint_files(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(ValueError):
            load_checkpoint(path)
