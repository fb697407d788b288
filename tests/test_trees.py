import re
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from distparse.trees import (
    Leaf,
    NaryTree,
    TreebankError,
    leaves,
    parse_bracketed,
    preprocess,
    read_sentences,
    read_treebank,
    serialize_bracketed,
    strip_function_tag,
)
from helpers import (
    MALFORMED_TREEBANKS,
    penn_style,
    random_nary_tree,
    reference_parse_bracketed,
)

SAMPLE = Path(__file__).resolve().parent.parent / "data" / "sample_treebank.mrg"


class TestParse:
    def test_simple_sentence(self):
        (tree,) = parse_bracketed("(S (NP (PRP She)) (VP (VBZ runs)))")
        assert tree.label == "S"
        assert [leaf.word for leaf in leaves(tree)] == ["She", "runs"]
        assert [leaf.tag for leaf in leaves(tree)] == ["PRP", "VBZ"]

    def test_preterminals_become_leaves(self):
        (tree,) = parse_bracketed("(VP (VB go))")
        assert tree.children == [Leaf("go", "VB")]

    def test_outer_unlabeled_wrapper_is_unwrapped(self):
        (tree,) = parse_bracketed("((S (X a)))")
        assert tree.label == "S"

    def test_multiple_trees_and_blank_lines(self):
        text = "(NP (NN dog))\n\n  (NP (NN cat))\n"
        trees = parse_bracketed(text)
        assert [leaves(t)[0].word for t in trees] == ["dog", "cat"]

    def test_single_leaf_tree(self):
        (tree,) = parse_bracketed("(NN dog)")
        assert tree == Leaf("dog", "NN")

    @pytest.mark.parametrize(
        "text, message, offset",
        [pytest.param(text, *error, id=text) for text, error in MALFORMED_TREEBANKS.items()],
    )
    def test_malformed_input_raises(self, text, message, offset):
        with pytest.raises(TreebankError) as info:
            parse_bracketed(text)
        assert str(info.value) == f"{message} (at offset {offset})"
        assert info.value.offset == offset

    def test_error_carries_offset(self):
        with pytest.raises(TreebankError) as info:
            parse_bracketed("(S (NP (NN dog)) ))")
        assert info.value.offset == 18

    def test_any_spacing_and_outer_wrappers_parse_back(self):
        rng = np.random.default_rng(202)
        gaps = (" ", "  ", "\n", "\t", " \n\t")
        for _ in range(300):
            trees = [random_nary_tree(rng) for _ in range(int(rng.integers(1, 4)))]
            tokens = []
            for tree in trees:
                own = re.findall(r"[()]|[^()\s]+", serialize_bracketed(tree))
                tokens += ["(", *own, ")"] if rng.random() < 0.5 else own
            text = gaps[rng.integers(len(gaps))] if rng.random() < 0.5 else ""
            for before, token in zip([None, *tokens], tokens):
                words_touch = before not in (None, "(", ")") and token not in ("(", ")")
                if words_touch or rng.random() < 0.5:
                    text += gaps[rng.integers(len(gaps))]
                text += token
            assert parse_bracketed(text) == trees, text


class TestSerialize:
    def test_canonical_form(self):
        text = "(S (NP (PRP She)) (VP (VBZ runs)))"
        (tree,) = parse_bracketed(text)
        assert serialize_bracketed(tree) == text

    def test_single_leaf_under_root(self):
        assert serialize_bracketed(NaryTree("NP", [Leaf("dog", "NN")])) == "(NP (NN dog))"

    def test_roundtrip_random_trees(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            tree = random_nary_tree(rng)
            (back,) = parse_bracketed(serialize_bracketed(tree))
            assert back == tree


class TestPreprocess:
    def test_strips_trace_subtrees(self):
        (tree,) = parse_bracketed("(S (NP-SBJ (-NONE- *)) (VP (VB go)))")
        assert serialize_bracketed(preprocess(tree)) == "(S (VP (VB go)))"

    def test_untouched_tree_is_unchanged(self):
        (tree,) = parse_bracketed("(S (NP (PRP She)) (VP (VBZ runs)))")
        assert preprocess(tree) == tree

    def test_fully_removed_tree_becomes_none(self):
        (tree,) = parse_bracketed("(S (NP (-NONE- *)))")
        assert preprocess(tree) is None

    def test_function_tags_stripped(self):
        (tree,) = parse_bracketed("(S (NP-SBJ-1 (NN dog)) (VP-PRD=2 (VBZ runs)))")
        cleaned = preprocess(tree)
        assert [c.label for c in cleaned.children] == ["NP", "VP"]

    def test_bracket_labels_on_internal_nodes_kept(self):
        text = "(S (-LRB- (-LRB- -LRB-) (NN x)))"
        (tree,) = parse_bracketed(text)
        assert serialize_bracketed(preprocess(tree)) == text

    @pytest.mark.parametrize(
        "label, stripped",
        [
            ("-LRB-", "-LRB-"),
            ("-NONE-", "-NONE-"),
            ("NP-SBJ-1", "NP"),
            ("VP-PRD=2", "VP"),
            ("NP=3", "NP"),
            ("-LRB-1", "-LRB"),
            ("-A-B-", "-A"),
            ("--", "-"),
            ("-", "-"),
            ("NP", "NP"),
        ],
    )
    def test_strip_function_tag(self, label, stripped):
        assert strip_function_tag(label) == stripped

    def test_bracket_token_labels_kept(self):
        (tree,) = parse_bracketed("(NP (-LRB- -LRB-) (NN dog) (-RRB- -RRB-))")
        cleaned = preprocess(tree)
        assert [leaf.tag for leaf in leaves(cleaned)] == ["-LRB-", "NN", "-RRB-"]

    def test_idempotent(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            tree = random_nary_tree(rng)
            once = preprocess(tree)
            assert preprocess(once) == once

    def test_preserves_leaf_order(self):
        (tree,) = parse_bracketed(
            "(S (NP (DT the) (-NONE- *) (NN cat)) (VP (VBZ sits)))"
        )
        cleaned = preprocess(tree)
        assert [leaf.word for leaf in leaves(cleaned)] == ["the", "cat", "sits"]

    def test_deep_tree_does_not_recurse(self):
        # 5000 nested nodes, a trace at the bottom, a function tag on each
        tree = NaryTree("NP-SBJ", [Leaf("*", "-NONE-"), Leaf("w", "NN")])
        for _ in range(4999):
            tree = NaryTree("S-1", [NaryTree("NP", [Leaf("*", "-NONE-")]), tree])
        cleaned = preprocess(tree)
        depth = 0
        while isinstance(cleaned, NaryTree):
            assert cleaned.label == ("S" if depth < 4999 else "NP")
            (cleaned,) = cleaned.children
            depth += 1
        assert depth == 5000 and cleaned == Leaf("w", "NN")


def outcome(read, text):
    """What a reader makes of ``text``: each tree serialized (``None`` for
    one preprocessing empties), or the error's message and offset."""
    try:
        found = read(text)
    except TreebankError as exc:
        return "error", str(exc), exc.offset
    return [None if tree is None else serialize_bracketed(tree) for tree in found]


def parse_then_preprocess(text):
    return [preprocess(tree) for tree in parse_bracketed(text)]


def internal_nodes(tree):
    found = []
    work = [tree]
    while work:
        node = work.pop()
        if isinstance(node, NaryTree):
            found.append(node)
            work.extend(node.children)
    return found


def traces_only(rng):
    """A subtree that preprocessing removes whole."""
    trace = Leaf(("*", "*T*-1", "0", "*U*")[rng.integers(4)], "-NONE-")
    if rng.random() < 0.3:
        return trace
    node = NaryTree("NP", [trace])
    if rng.random() < 0.4:
        node = NaryTree("S", [node, NaryTree("VP", [Leaf("*?*", "-NONE-")])])
    return node


def mutated_tree(rng):
    """A random tree with what Penn files carry: function tags, ``-NONE-``
    leaves and trace-only subtrees, and ``-LRB-``-style labels and tags."""
    tree = random_nary_tree(rng, int(rng.integers(1, 9)), unary_prob=0.4)
    if rng.random() < 0.5:
        penn_style(tree, rng)
    nodes = internal_nodes(tree)
    for _ in range(int(rng.integers(0, 4))):
        host = nodes[rng.integers(len(nodes))]
        at = int(rng.integers(len(host.children) + 1))
        host.children.insert(at, traces_only(rng))
    for node in nodes:
        roll = rng.random()
        if roll < 0.15:
            node.label += ("-SBJ", "=2", "-TMP=1", "-1")[rng.integers(4)]
        elif roll < 0.2:
            node.label = ("-LRB-", "-NONE-", "-X-", "-A-1")[rng.integers(4)]
    for leaf in leaves(tree):
        if rng.random() < 0.05:
            leaf.tag = ("-LRB-", "-RRB-", "-NONE-")[rng.integers(3)]
    if rng.random() < 0.1:
        tree = traces_only(rng)
    return tree


def mutated_text(rng):
    """One or two mutated trees as bracketed text, some in outer ``( … )``
    wrappers, some with a stray ``(``, ``)`` or token added or a token
    dropped."""
    tokens = []
    for _ in range(int(rng.integers(1, 3))):
        own = re.findall(r"[()]|[^()\s]+", serialize_bracketed(mutated_tree(rng)))
        for _ in range(int(rng.integers(0, 3)) if rng.random() < 0.4 else 0):
            own = ["(", *own, ")"]
        tokens += own
    if rng.random() < 0.1:
        tokens = ["(", *tokens, ")"]
    if rng.random() < 0.3:
        at = int(rng.integers(len(tokens) + 1))
        tokens.insert(at, ("(", ")", "stray", "-NONE-")[rng.integers(4)])
    if rng.random() < 0.1:
        del tokens[rng.integers(len(tokens))]
    return " ".join(tokens)


class TestReadTreebank:
    """``read_treebank`` builds the preprocessed trees in one pass: it must
    give what ``preprocess`` gives of each tree ``parse_bracketed`` reads,
    and fail as ``parse_bracketed`` fails."""

    def test_sample_treebank(self):
        text = SAMPLE.read_text(encoding="utf-8")
        assert outcome(read_treebank, text) == outcome(parse_then_preprocess, text)
        assert read_treebank(text) == parse_then_preprocess(text)

    @pytest.mark.parametrize(
        "text, message, offset",
        [pytest.param(text, *error, id=text) for text, error in MALFORMED_TREEBANKS.items()],
    )
    def test_malformed_input_raises_as_parse_bracketed(self, text, message, offset):
        assert outcome(read_treebank, text) == (
            "error",
            f"{message} (at offset {offset})",
            offset,
        )

    def test_seeded_mutations_match_parse_then_preprocess(self):
        rng = np.random.default_rng(1010)
        errors = emptied = 0
        for _ in range(2000):
            text = mutated_text(rng)
            got = outcome(read_treebank, text)
            assert got == outcome(parse_then_preprocess, text), text
            errors += got[0] == "error"
            emptied += got[0] != "error" and None in got
        # the mutations reach every path: errors, emptied trees, clean ones
        assert 300 < errors < 2000 and emptied > 100

    def test_children_dropped_by_preprocessing_still_count(self):
        text = "( (NP (-NONE- *)) (VP (VB go)) )"
        with pytest.raises(TreebankError) as info:
            read_treebank(text)
        assert str(info.value) == "unlabeled node with 2 children (at offset 0)"
        assert info.value.offset == 0

    def test_wrapped_tree_of_traces_only_is_skipped(self):
        assert read_treebank("( (NP (-NONE- *)) )\n(S (NN a))") == [
            None,
            NaryTree("S", [Leaf("a", "NN")]),
        ]

    def test_tokens_beside_dropped_children_keep_their_errors(self):
        # a token after a dropped subtree is a child, not the wrapper's label
        with pytest.raises(TreebankError, match="unlabeled node with 2 children"):
            read_treebank("( (-NONE- *) word)")
        with pytest.raises(TreebankError, match="node 'S' mixes tokens and subtrees"):
            read_treebank("(S (-NONE- *) a b)")


# texts where one word, tag or label is written more than one way: spacing
# inside a preterminal, a word under two tags, a label spelled like a word
# or a tag
SPELLINGS = {
    "spacing": "(NP (DT the) ( DT  the ) (DT\tthe\t) (\nDT\nthe\n) (NN dog))",
    "two tags": "(S (NP (DT that)) (SBAR (IN that) (S (VP (VB go)))))",
    "label as word": "(NP (NN NP) (NP (NNS NN)) (NN dog))\n(S (NN S))",
}


def strings_by_value(trees):
    """The ids of every word, tag and label object in ``trees`` (kept
    alive by them), grouped by ``(kind, value)``."""
    found = defaultdict(set)
    for tree in trees:
        for leaf in leaves(tree):
            found["word", leaf.word].add(id(leaf.word))
            found["tag", leaf.tag].add(id(leaf.tag))
        for node in internal_nodes(tree):
            found["label", node.label].add(id(node.label))
    return found


class TestSharedStrings:
    """One read keeps one string per distinct token; the trees it builds
    stay separate objects."""

    @pytest.mark.parametrize(
        "text",
        [pytest.param(SAMPLE.read_text(encoding="utf-8"), id="sample"), *SPELLINGS.values()],
    )
    def test_parse_bracketed_equals_reference(self, text):
        assert parse_bracketed(text) == reference_parse_bracketed(text)

    def test_seeded_mutations_that_parse_equal_reference(self):
        rng = np.random.default_rng(1010)
        clean = 0
        for _ in range(2000):
            text = mutated_text(rng)
            try:
                got = parse_bracketed(text)
            except TreebankError:
                with pytest.raises(ValueError):
                    reference_parse_bracketed(text)
                continue
            assert got == reference_parse_bracketed(text), text
            clean += 1
        assert clean > 300

    def test_equal_tokens_are_one_object(self):
        text = "\n".join([SAMPLE.read_text(encoding="utf-8"), *SPELLINGS.values()])
        trees = parse_bracketed(text)
        shared = strings_by_value(trees)
        assert [key for key, ids in shared.items() if len(ids) > 1] == []
        # one string for a word and a label spelled alike
        assert shared["word", "NP"] == shared["label", "NP"]
        # preprocessing cuts function tags into new labels; words and tags
        # stay shared
        cleaned = strings_by_value(read_treebank(text))
        assert [
            key for key, ids in cleaned.items() if key[0] != "label" and len(ids) > 1
        ] == []

    def test_changing_one_tree_leaves_equal_ones_alone(self):
        first, second = parse_bracketed("(NP (DT the) (DT the))\n(NP (DT the) (NN dog))")
        first.label = "X"
        first.children[0].word = "a"
        assert first == NaryTree("X", [Leaf("a", "DT"), Leaf("the", "DT")])
        assert second == NaryTree("NP", [Leaf("the", "DT"), Leaf("dog", "NN")])


def sentence_outcome(read, text):
    """What ``read`` gives of ``text``, or the error's message and offset."""
    try:
        return read(text)
    except TreebankError as exc:
        return "error", str(exc), exc.offset


def read_treebank_sentences(text):
    """The ``(words, tags)`` of each tree ``read_treebank`` reads, ``None``
    for one preprocessing empties."""
    return [
        None
        if tree is None
        else (
            tuple(leaf.word for leaf in leaves(tree)),
            tuple(leaf.tag for leaf in leaves(tree)),
        )
        for tree in read_treebank(text)
    ]


def right_comb_text(depth):
    """A right comb ``depth`` nodes deep: each node holds a word, a subtree
    preprocessing drops and the next node, with a function tag on some."""
    nodes = [f"(S-{i % 3} (NN w{i}) (NP (-NONE- *)) " for i in range(depth)]
    return "".join(nodes) + "(NN last)" + ")" * depth


def wide_text(width):
    """One node with ``width`` words and a trace after every tenth."""
    items = [f"(NN w{i})" + (" (-NONE- *T*)" if i % 10 == 0 else "") for i in range(width)]
    return "( (S " + " ".join(items) + ") )"


# every text TestReadTreebank reads, trees that are one leaf, and the texts
# of the shared-string tests
READ_TREEBANK_TEXTS = [
    pytest.param(SAMPLE.read_text(encoding="utf-8"), id="sample"),
    pytest.param("( (NP (-NONE- *)) )\n(S (NN a))", id="wrapped-traces-only"),
    pytest.param(
        "(-NONE- *)\n(NN a)\n(S (NP (-NONE- *)) (VP (VB go) (-NONE- *)))",
        id="leaf-trees-and-traces",
    ),
    pytest.param("( (NP (-NONE- *)) (VP (VB go)) )", id="dropped-child-counts"),
    pytest.param("( (-NONE- *) word)", id="token-after-dropped-child"),
    pytest.param("(S (-NONE- *) a b)", id="tokens-beside-dropped-child"),
    *(pytest.param(text, id=name) for name, text in SPELLINGS.items()),
]


class TestReadSentences:
    """``read_sentences`` reads each tree's words and tags without building
    it: they must be the leaves of the tree ``read_treebank`` builds, and
    it must fail as ``read_treebank`` fails."""

    @pytest.mark.parametrize("text", READ_TREEBANK_TEXTS)
    def test_equals_the_leaves_of_read_treebank(self, text):
        assert sentence_outcome(read_sentences, text) == sentence_outcome(
            read_treebank_sentences, text
        )

    @pytest.mark.parametrize(
        "text, message, offset",
        [pytest.param(text, *error, id=text) for text, error in MALFORMED_TREEBANKS.items()],
    )
    def test_malformed_input_raises_as_read_treebank(self, text, message, offset):
        expected = ("error", f"{message} (at offset {offset})", offset)
        assert sentence_outcome(read_sentences, text) == expected
        assert sentence_outcome(read_treebank, text) == expected

    def test_seeded_mutations_match_read_treebank(self):
        rng = np.random.default_rng(1010)
        errors = emptied = 0
        for _ in range(2000):
            text = mutated_text(rng)
            got = sentence_outcome(read_sentences, text)
            assert got == sentence_outcome(read_treebank_sentences, text), text
            errors += got[0] == "error"
            emptied += got[0] != "error" and None in got
        assert 300 < errors < 2000 and emptied > 100

    def test_emptied_trees_are_none_and_their_neighbours_keep_their_words(self):
        text = "(S (NN a) (NN b))\n(NP (-NONE- *))\n( (-NONE- *T*) )\n(S (-NONE- *) (NN c))"
        assert read_sentences(text) == [
            (("a", "b"), ("NN", "NN")),
            None,
            None,
            (("c",), ("NN",)),
        ]

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param(right_comb_text(5000), id="5000-deep-right-comb"),
            pytest.param(wide_text(40_000), id="40k-wide"),
        ],
    )
    def test_deep_and_wide_trees_read_in_linear_time(self, text):
        expected = read_treebank_sentences(text)
        assert read_sentences(text) == expected
        # a reader that joined each node's child lists would copy each leaf
        # once per node above it: over twice read_treebank's time on the
        # comb, and far more on the wide tree. The minimum of interleaved
        # runs shrugs off a busy host
        sentences, trees = [], []
        for _ in range(5):
            for read, times in ((read_sentences, sentences), (read_treebank, trees)):
                start = time.perf_counter()
                read(text)
                times.append(time.perf_counter() - start)
        assert min(sentences) < 1.0, f"read_sentences took {min(sentences):.2f} s"
        assert min(sentences) < 1.5 * min(trees), (min(sentences), min(trees))
