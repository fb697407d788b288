"""Deterministic synthetic treebank generator.

A small probabilistic grammar over an English-like vocabulary. The grammar
is unambiguous given the tag sequence (prepositional phrases only ever
attach to the verb phrase, coordination appears at most once, at the top),
so a sequence model can in principle recover every tree exactly; it also
exercises the full label machinery: unary chains over words (pronoun
subjects, intransitive verbs), a chain over a multi-word constituent
(imperatives), and 3-ary nodes that binarization must split.
"""

from __future__ import annotations

import numpy as np

from .trees import Leaf, NaryTree, leaves

WORDS = {
    "DT": ["the", "a", "every", "some", "no"],
    "NN": [
        "cat", "dog", "bird", "house", "tree", "car", "book", "fish",
        "garden", "door", "river", "apple", "song", "road", "cloud",
        "stone", "chair", "window", "letter", "boat", "lamp", "bridge",
        "field", "hat", "clock", "coin", "bell", "wall", "ship", "star",
    ],
    "NNP": ["Alice", "Bob", "Carol", "David", "Emma", "Frank", "Grace", "Henry"],
    "PRP": ["she", "he", "it", "they"],
    "JJ": [
        "big", "small", "red", "old", "young", "happy", "quiet", "bright",
        "heavy", "strange", "green", "tall", "soft", "warm",
    ],
    "VBZ": [
        "sees", "likes", "finds", "follows", "paints", "watches", "holds",
        "carries", "moves", "opens", "closes", "hears", "keeps", "sells",
    ],
    "VB": ["see", "like", "find", "follow", "paint", "watch", "hold", "open"],
    "MD": ["can", "will", "must", "may"],
    "IN": ["in", "on", "near", "under", "behind", "beside"],
    "CC": ["and", "or", "but"],
}


def vocabulary_size() -> int:
    return sum(len(words) for words in WORDS.values())


def _leaf(rng: np.random.Generator, tag: str) -> Leaf:
    words = WORDS[tag]
    return Leaf(words[rng.integers(len(words))], tag)


def _noun_phrase(rng) -> NaryTree:
    roll = rng.random()
    if roll < 0.40:
        children = [_leaf(rng, "DT"), _leaf(rng, "NN")]
    elif roll < 0.65:
        children = [_leaf(rng, "DT"), _leaf(rng, "JJ"), _leaf(rng, "NN")]
    elif roll < 0.85:
        children = [_leaf(rng, "PRP")]
    else:
        children = [_leaf(rng, "NNP")]
    return NaryTree("NP", children)


def _prep_phrase(rng) -> NaryTree:
    return NaryTree("PP", [_leaf(rng, "IN"), _noun_phrase(rng)])


def _verb_phrase(rng) -> NaryTree:
    roll = rng.random()
    if roll < 0.15:
        children = [_leaf(rng, "VBZ")]
    elif roll < 0.60:
        children = [_leaf(rng, "VBZ"), _noun_phrase(rng)]
    elif roll < 0.85:
        children = [_leaf(rng, "VBZ"), _noun_phrase(rng), _prep_phrase(rng)]
    else:
        children = [_leaf(rng, "MD"), _leaf(rng, "VB"), _noun_phrase(rng)]
    return NaryTree("VP", children)


def _imperative_vp(rng) -> NaryTree:
    if rng.random() < 0.35:
        children = [_leaf(rng, "VB")]
    else:
        children = [_leaf(rng, "VB"), _noun_phrase(rng)]
    return NaryTree("VP", children)


def _clause(rng) -> NaryTree:
    if rng.random() < 0.80:
        return NaryTree("S", [_noun_phrase(rng), _verb_phrase(rng)])
    return NaryTree("S", [_imperative_vp(rng)])


def _sentence(rng) -> NaryTree:
    if rng.random() < 0.15:
        return NaryTree("S", [_clause(rng), _leaf(rng, "CC"), _clause(rng)])
    return _clause(rng)


def generate_trees(count: int, seed: int = 0, max_length: int = 20) -> list[NaryTree]:
    """``count`` trees, each at most ``max_length`` words, deterministic
    for a given seed (overlong samples are rejected and redrawn)."""
    rng = np.random.default_rng(seed)
    trees = []
    while len(trees) < count:
        tree = _sentence(rng)
        if len(leaves(tree)) <= max_length:
            trees.append(tree)
    return trees
