import json
import re

import numpy as np
import pytest

from distparse.binarize import EMPTY_LABEL, Internal, LabelError, Terminal
from distparse.codec import (
    ENGINES,
    DistanceTuple,
    SparseTable,
    binary_trees_equal,
    decode,
    decode_tree,
    encode,
    from_json_line,
    root_split,
    to_json_line,
)
from helpers import (
    binary_shapes,
    materialize_shape,
    monotone_transform,
    random_binary_tree,
    random_tuple,
    rank_signature,
    reference_debinarize,
    reference_serialize,
)


def right_branching_three():
    return Internal(
        "S",
        Terminal("w0", "T0", "NP"),
        Internal("X", Terminal("w1", "T1"), Terminal("w2", "T2")),
    )


class TestEncode:
    def test_three_leaf_right_branching_heights(self):
        tup = encode(right_branching_three())
        assert tup.distances == (2.0, 1.0)
        assert tup.split_labels == ("S", "X")
        assert tup.words == ("w0", "w1", "w2")
        assert tup.tags == ("T0", "T1", "T2")
        assert tup.unary_labels == ("NP", EMPTY_LABEL, EMPTY_LABEL)

    def test_single_terminal(self):
        tup = encode(Terminal("dog", "NN", "NP"))
        assert tup.distances == ()
        assert tup.split_labels == ()
        assert tup.words == ("dog",)
        assert tup.unary_labels == ("NP",)

    def test_right_comb_four_leaves(self):
        comb = Internal(
            "A",
            Terminal("w0", "T"),
            Internal(
                "B",
                Terminal("w1", "T"),
                Internal("C", Terminal("w2", "T"), Terminal("w3", "T")),
            ),
        )
        assert encode(comb).distances == (3.0, 2.0, 1.0)

    def test_heights_are_positive_integers_below_n(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            tree = random_binary_tree(rng, int(rng.integers(2, 16)))
            tup = encode(tree)
            n = len(tup.words)
            for d in tup.distances:
                assert d == int(d) and 1 <= d < n

    def test_max_in_every_span_is_unique(self):
        # the root of any span is strictly taller than everything inside it
        rng = np.random.default_rng(12)
        for _ in range(100):
            tup = encode(random_binary_tree(rng, int(rng.integers(2, 16))))
            spans = [(0, len(tup.distances))]
            d = tup.distances
            while spans:
                lo, hi = spans.pop()
                if hi - lo < 1:
                    continue
                best = max(d[lo:hi])
                assert list(d[lo:hi]).count(best) == 1
                split = lo + list(d[lo:hi]).index(best)
                spans.append((lo, split))
                spans.append((split + 1, hi))


class TestDecode:
    def test_five_word_tuple_with_empty_label_span(self):
        # the leading gap carries the top score, so word 0 splits off first
        # with the sentence label; the rest splits before its last word
        # under the empty label.
        tup = DistanceTuple(
            words=("w0", "w1", "w2", "w3", "w4"),
            tags=("PRP", "T", "T", "T", "T"),
            unary_labels=("NP", *(EMPTY_LABEL,) * 4),
            distances=(4.0, 1.0, 2.0, 3.0),
            split_labels=("S", EMPTY_LABEL, "VP", EMPTY_LABEL),
        )
        expected = Internal(
            "S",
            Terminal("w0", "PRP", "NP"),
            Internal(
                EMPTY_LABEL,
                Internal(
                    "VP",
                    Internal(
                        EMPTY_LABEL,
                        Terminal("w1", "T"),
                        Terminal("w2", "T"),
                    ),
                    Terminal("w3", "T"),
                ),
                Terminal("w4", "T"),
            ),
        )
        for engine in ENGINES:
            assert decode(tup, engine) == expected

    def test_strictly_decreasing_scores_give_right_comb(self):
        tup = DistanceTuple(
            words=("w0", "w1", "w2", "w3"),
            tags=("T",) * 4,
            unary_labels=(EMPTY_LABEL,) * 4,
            distances=(3.0, 2.0, 1.0),
            split_labels=("X", "X", "X"),
        )
        tree = decode(tup)
        assert tree == Internal(
            "X",
            Terminal("w0", "T"),
            Internal(
                "X",
                Terminal("w1", "T"),
                Internal("X", Terminal("w2", "T"), Terminal("w3", "T")),
            ),
        )

    def test_valley_scores_give_balanced_tree(self):
        tup = DistanceTuple(
            words=("w0", "w1", "w2", "w3"),
            tags=("T",) * 4,
            unary_labels=(EMPTY_LABEL,) * 4,
            distances=(1.0, 2.0, 1.0),
            split_labels=("L", "S", "R"),
        )
        tree = decode(tup, "stack")
        assert tree == Internal(
            "S",
            Internal("L", Terminal("w0", "T"), Terminal("w1", "T")),
            Internal("R", Terminal("w2", "T"), Terminal("w3", "T")),
        )

    def test_empty_distances_decode_to_single_terminal(self):
        tup = DistanceTuple(("w",), ("T",), ("NP",), (), ())
        for engine in ENGINES:
            assert decode(tup, engine) == Terminal("w", "T", "NP")

    def test_ties_split_leftmost(self):
        tup = DistanceTuple(
            words=("a", "b", "c"),
            tags=("T",) * 3,
            unary_labels=(EMPTY_LABEL,) * 3,
            distances=(5.0, 5.0),
            split_labels=("X", "Y"),
        )
        expected = Internal(
            "X", Terminal("a", "T"), Internal("Y", Terminal("b", "T"), Terminal("c", "T"))
        )
        for engine in ENGINES:
            assert decode(tup, engine) == expected

    def test_every_engine_roots_at_root_split(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            tup = random_tuple(rng, int(rng.integers(1, 60)))
            root = root_split(tup.distances)
            for engine in ENGINES:
                tree = decode(tup, engine)
                if root == ~0:
                    assert isinstance(tree, Terminal)
                else:
                    assert len(encode(tree.left).words) == root + 1

    def test_unknown_engine_rejected(self):
        tup = DistanceTuple(("w",), ("T",), ("X",), (), ())
        with pytest.raises(ValueError):
            decode(tup, "quantum")

    def test_exhaustive_bijection_up_to_six_leaves(self):
        shapes = 0
        for n in range(2, 7):
            for shape in binary_shapes(n):
                shapes += 1
                for offset in (0, 1, 2):
                    tree = materialize_shape(shape, offset)
                    assert decode(encode(tree)) == tree
        assert shapes == 1 + 2 + 5 + 14 + 42

    def test_engines_agree_on_random_tuples(self):
        rng = np.random.default_rng(13)
        for _ in range(2000):
            tup = random_tuple(rng, int(rng.integers(1, 60)))
            scan = decode(tup, "scan")
            assert binary_trees_equal(scan, decode(tup, "rmq"))
            assert binary_trees_equal(scan, decode(tup, "stack"))

    def test_engines_agree_or_all_raise_on_any_scores(self):
        # score vectors with ties, NaN and infinities: every engine returns
        # the same tree, or every engine refuses the scores
        rng = np.random.default_rng(17)
        pool = (0.0, 1.0, 1.0, 2.0, -1.0, float("nan"), float("inf"), float("-inf"))
        refused = 0
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            distances = tuple(pool[i] for i in rng.integers(len(pool), size=n - 1))
            outcomes = []
            for engine in ENGINES:
                try:
                    tup = DistanceTuple(
                        tuple(f"w{i}" for i in range(n)),
                        ("T",) * n,
                        ("X",) * n,
                        distances,
                        tuple(f"L{i}" for i in range(n - 1)),
                    )
                    outcomes.append(decode(tup, engine))
                except ValueError:
                    outcomes.append(None)
            if outcomes[0] is None:
                assert outcomes == [None] * len(ENGINES), distances
                assert not all(np.isfinite(distances))
                refused += 1
            else:
                assert all(np.isfinite(distances))
                for tree in outcomes[1:]:
                    assert tree is not None and binary_trees_equal(outcomes[0], tree)
        assert 0 < refused < 1000

    def test_rank_invariance_under_monotone_transforms(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            base = rng.permutation(np.arange(n - 1)) * 0.5 + rng.uniform(
                -0.1, 0.1, n - 1
            )
            tup = random_tuple(rng, n)
            tup = DistanceTuple(
                tup.words,
                tup.tags,
                tup.unary_labels,
                tuple(float(x) for x in base),
                tup.split_labels,
            )
            reference = decode(tup)
            transform = monotone_transform(rng)
            mapped = DistanceTuple(
                tup.words,
                tup.tags,
                tup.unary_labels,
                tuple(float(x) for x in transform(base)),
                tup.split_labels,
            )
            assert binary_trees_equal(decode(mapped), reference)

    def test_decode_deep_comb_does_not_recurse(self):
        n = 30_000
        tup = DistanceTuple(
            words=tuple(f"w{i}" for i in range(n)),
            tags=("T",) * n,
            unary_labels=(EMPTY_LABEL,) * n,
            distances=tuple(float(i) for i in range(n - 1)),
            split_labels=("X",) * (n - 1),
        )
        for engine in ("rmq", "stack"):
            tree = decode(tup, engine)
            assert isinstance(tree, Internal)


def outcome(build):
    """The serialized tree ``build()`` returns, or the class and message of
    the error it raises."""
    try:
        return reference_serialize(build())
    except ValueError as exc:
        return type(exc), str(exc)


class TestDecodeTree:
    def test_matches_the_reference_debinarize_of_the_binary_tree(self):
        rng = np.random.default_rng(21)
        raised = 0
        chains = {}  # shared by every tuple, as the commands share one
        for _ in range(300):
            tup = random_tuple(rng, int(rng.integers(1, 61)))
            for engine in ENGINES:
                expected = outcome(lambda: reference_debinarize(decode(tup, engine)))
                assert outcome(lambda: decode_tree(tup)) == expected
                assert outcome(lambda: decode_tree(tup, chains)) == expected
                raised += isinstance(expected, tuple)
        assert 0 < raised < 300 * len(ENGINES)

    def test_a_shared_chain_dict_keeps_every_label_error(self):
        # the bad chain sits under a good split in one tuple and is the
        # root split of the other
        under = DistanceTuple(("a", "b"), ("T", "T"), ("NP+", EMPTY_LABEL), (1.0,), ("S+VP",))
        root = DistanceTuple(("c", "d"), ("T", "T"), (EMPTY_LABEL,) * 2, (1.0,), ("NP+",))
        message = "empty nonterminal label in chain 'NP+'"
        chains = {}
        for tup in (under, root, under):
            assert outcome(lambda: decode_tree(tup)) == (LabelError, message)
            assert outcome(lambda: decode_tree(tup, chains)) == (LabelError, message)
        assert list(chains) == ["S+VP"]  # only the labels split_chain accepts

    @pytest.mark.parametrize("engine", ["rmq", "stack"])
    @pytest.mark.parametrize("rising", [True, False])
    def test_deep_comb_does_not_recurse(self, engine, rising):
        n = 5000
        tup = DistanceTuple(
            words=tuple(f"w{i}" for i in range(n)),
            tags=("T",) * n,
            unary_labels=("NP",) * n,
            distances=tuple(float(i if rising else -i) for i in range(n - 1)),
            split_labels=("X",) * (n - 1),
        )
        expected = reference_serialize(reference_debinarize(decode(tup, engine)))
        assert reference_serialize(decode_tree(tup)) == expected


class TestRankSignature:
    def test_examples(self):
        assert rank_signature([2, 1]) == (0, 1)
        assert rank_signature([1, 1]) == (0, 1)
        assert rank_signature([0.3, 9.0, 0.5]) == (1, 2, 0)
        assert rank_signature([]) == ()

    def test_equal_signatures_decode_to_equal_shapes(self):
        # rebuild a tie-free score vector from the signature alone: same
        # signature, different values, identical tree
        rng = np.random.default_rng(15)
        for _ in range(200):
            tup = random_tuple(rng, int(rng.integers(2, 20)))
            signature = rank_signature(tup.distances)
            rebuilt = [0.0] * len(tup.distances)
            for position, index in enumerate(signature):
                rebuilt[index] = float(len(signature) - position)
            other = DistanceTuple(
                tup.words,
                tup.tags,
                tup.unary_labels,
                tuple(rebuilt),
                tup.split_labels,
            )
            assert rank_signature(other.distances) == signature
            assert binary_trees_equal(decode(other), decode(tup))


class TestBinaryTreesEqual:
    def test_internal_labels_that_differ_deep_in_the_tree(self):
        other = Internal(
            "S",
            Terminal("w0", "T0", "NP"),
            Internal("VP", Terminal("w1", "T1"), Terminal("w2", "T2")),
        )
        assert not binary_trees_equal(right_branching_three(), other)
        assert not binary_trees_equal(other, right_branching_three())

    def test_terminal_against_internal_and_differing_leaves(self):
        tree = right_branching_three()
        leaf = Terminal("w0", "T0", "NP")
        assert not binary_trees_equal(tree, leaf)
        assert not binary_trees_equal(leaf, tree)
        assert not binary_trees_equal(leaf, Terminal("w0", "T0"))


class TestSparseTable:
    def test_examples(self):
        table = SparseTable([2.0, 1.0, 3.0])
        assert table.argmax(0, 3) == 2
        assert table.argmax(0, 2) == 0
        table = SparseTable([5.0, 5.0])
        assert table.argmax(0, 2) == 0

    def test_empty_or_invalid_range_rejected(self):
        table = SparseTable([1.0, 2.0])
        for lo, hi in ((0, 0), (1, 1), (2, 1), (-1, 1), (0, 3)):
            with pytest.raises(ValueError):
                table.argmax(lo, hi)

    def test_table_over_no_values_rejects_every_query(self):
        table = SparseTable([])
        for lo, hi in ((0, 0), (0, 1), (-1, 0)):
            with pytest.raises(ValueError, match="empty or out-of-range query"):
                table.argmax(lo, hi)

    def test_agrees_with_linear_scan(self):
        rng = np.random.default_rng(16)
        values = rng.integers(0, 50, size=800).astype(float)
        table = SparseTable(values)
        for _ in range(10_000):
            lo = int(rng.integers(0, len(values)))
            hi = int(rng.integers(lo + 1, len(values) + 1))
            window = list(values[lo:hi])
            expected = lo + window.index(max(window))
            assert table.argmax(lo, hi) == expected


class TestJsonl:
    def test_roundtrip(self):
        tup = encode(right_branching_three())
        assert from_json_line(to_json_line(tup)) == tup

    def test_field_names(self):
        record = json.loads(to_json_line(encode(right_branching_three())))
        assert set(record) == {
            "words",
            "tags",
            "unary_labels",
            "distances",
            "split_labels",
        }

    @pytest.mark.parametrize(
        "line",
        [
            "[1, 2]",
            '{"words": ["a"]}',
            '{"words": ["a"], "tags": ["T"], "unary_labels": ["X"],'
            ' "distances": [1.0], "split_labels": []}',
            "not json",
        ],
    )
    def test_malformed_lines_rejected(self, line):
        with pytest.raises(ValueError):
            from_json_line(line)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("words", "ab", "field 'words' must be a list of strings, not a string"),
            ("words", [1, "b"], "item 0 is a number"),
            ("tags", ["T", None], "item 1 is null"),
            ("split_labels", [["S"]], "item 0 is a list"),
            ("distances", [True], "field 'distances' must be a list of numbers"),
            ("distances", ["1.0"], "item 0 is a string"),
            ("distances", [float("nan")], "distance 0 is nan"),
            ("distances", [float("-inf")], "distance 0 is -inf"),
            ("distances", [10**400], "distance 0 is an integer too large for a float"),
            ("distances", [2**53 + 1], "distance 0 is 9007199254740993, no float holds"
             " it exactly"),
        ],
    )
    def test_mistyped_fields_rejected(self, field, value, message):
        record = json.loads(to_json_line(encode(right_branching_three())))
        if field == "distances":
            record[field] = value + [1.0] if isinstance(value, list) else value
        else:
            record[field] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            from_json_line(json.dumps(record))

    def test_lengths_are_checked_before_tokens(self):
        record = json.loads(to_json_line(encode(right_branching_three())))
        record["words"][0] = "a b"
        record["tags"].append("T")
        with pytest.raises(ValueError, match="lengths differ"):
            from_json_line(json.dumps(record))

    def test_integer_distances_accepted(self):
        record = json.loads(to_json_line(encode(right_branching_three())))
        record["distances"] = [2, 1]
        assert from_json_line(json.dumps(record)).distances == (2.0, 1.0)


class TestDistanceTupleValidation:
    def test_zero_words_rejected(self):
        with pytest.raises(ValueError):
            DistanceTuple((), (), (), (), ())

    def test_wrong_distance_count_rejected(self):
        with pytest.raises(ValueError):
            DistanceTuple(("a", "b"), ("T", "T"), ("X", "X"), (1.0, 2.0), ("S",))

    def test_wrong_tag_count_rejected(self):
        with pytest.raises(ValueError):
            DistanceTuple(("a", "b"), ("T",), ("X", "X"), (1.0,), ("S",))

    @pytest.mark.parametrize(
        "distances", [(2, 1, 2), (np.float64(2.0), 1.0, np.float64(2.0))]
    )
    def test_distances_are_held_as_python_floats(self, distances):
        tup = DistanceTuple(("a",) * 4, ("T",) * 4, ("X",) * 4, distances, ("S",) * 3)
        assert tup.distances == (2.0, 1.0, 2.0)
        assert all(type(d) is float for d in tup.distances)
        trees = [decode(tup, engine) for engine in ENGINES]
        assert all(binary_trees_equal(trees[0], tree) for tree in trees[1:])
        assert to_json_line(tup) == to_json_line(
            DistanceTuple(("a",) * 4, ("T",) * 4, ("X",) * 4, (2.0, 1.0, 2.0), ("S",) * 3)
        )

    @pytest.mark.parametrize(
        "bad, message",
        [
            (10**400, "distance 1 is an integer too large for a float"),
            (2**53 + 1, "distance 1 is 9007199254740993, no float holds it exactly"),
            ("1.5", "distance 1 is '1.5', not a number"),
            ("x", "distance 1 is 'x', not a number"),
            (None, "distance 1 is None, not a number"),
        ],
    )
    def test_distance_that_is_not_a_float_rejected(self, bad, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            DistanceTuple(("a", "b", "c"), ("T",) * 3, ("X",) * 3, (2**53, bad), ("S",) * 2)

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf"), np.float64("nan")]
    )
    def test_non_finite_distance_rejected(self, bad):
        with pytest.raises(ValueError, match="distance 1 is -?(nan|inf), scores must"):
            DistanceTuple(("a", "b", "c"), ("T",) * 3, ("X",) * 3, (1.0, bad), ("S",) * 2)

    @pytest.mark.parametrize(
        "words, tags, message",
        [
            (("a", ""), ("T", "T"), "field 'words' item 1 is empty: ''"),
            (("a", "b"), ("T", "X Y"), "field 'tags' item 1 holds whitespace: 'X Y'"),
            (("(a", "b"), ("T", "T"), "field 'words' item 0 holds a parenthesis: '(a'"),
        ],
        ids=["empty-word", "tag-with-space", "word-with-parenthesis"],
    )
    def test_token_a_bracketed_tree_cannot_hold_rejected(self, words, tags, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            DistanceTuple(words, tags, ("X", "X"), (1.0,), ("S",))
