from distparse import pcfg
from distparse.binarize import binarize, debinarize
from distparse.codec import decode, encode
from distparse.trees import leaves, serialize_bracketed


class TestGenerator:
    def test_deterministic_per_seed(self):
        a = pcfg.generate_trees(50, seed=3)
        b = pcfg.generate_trees(50, seed=3)
        assert [serialize_bracketed(t) for t in a] == [
            serialize_bracketed(t) for t in b
        ]
        c = pcfg.generate_trees(50, seed=4)
        assert [serialize_bracketed(t) for t in a] != [
            serialize_bracketed(t) for t in c
        ]

    def test_respects_max_length(self):
        for tree in pcfg.generate_trees(300, seed=5, max_length=20):
            assert 1 <= len(leaves(tree)) <= 20

    def test_vocabulary_scale(self):
        assert 80 <= sum(len(words) for words in pcfg.WORDS.values()) <= 120

    def test_trees_roundtrip_through_the_pipeline(self):
        for tree in pcfg.generate_trees(500, seed=6):
            assert debinarize(decode(encode(binarize(tree)))) == tree

    def test_exercises_label_machinery(self):
        tuples = [encode(binarize(t)) for t in pcfg.generate_trees(400, seed=7)]
        unary = {u for t in tuples for u in t.unary_labels}
        split = {c for t in tuples for c in t.split_labels}
        assert {"NP", "VP", "S+VP"} <= unary  # pronouns, intransitives, imperatives
        assert "∅" in split  # flat nodes split implicitly
        assert {"S", "NP", "VP", "PP"} <= split
