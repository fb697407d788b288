import base64
import csv
import gc
import json
import re
import shlex
import warnings
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from distparse import bench, cli, codec, pcfg, train as training
from distparse.cli import main
from distparse.train import EpochMetrics, TrainConfig
from distparse.trees import (
    leaves,
    parse_bracketed,
    preprocess,
    serialize_bracketed,
)
from helpers import (
    MALFORMED_TREEBANKS,
    reference_debinarize,
    reference_serialize,
    write_treebank,
)

SAMPLE = Path(__file__).resolve().parent.parent / "data" / "sample_treebank.mrg"
README = Path(__file__).resolve().parent.parent / "README.md"
# the encode output of SAMPLE, committed so that any change to it shows
SAMPLE_JSONL = Path(__file__).resolve().parent / "data" / "sample_treebank.jsonl"
# more outputs on SAMPLE, committed for the same reason: `score --json` of
# it against its decode, `roundtrip`, `predict` with the small_checkpoint
# model below, and `score --json` of it against that prediction
GOLDEN = {
    name: Path(__file__).resolve().parent / "data" / f"sample_treebank.{name}"
    for name in ("score.json", "roundtrip.txt", "predict.mrg", "predict.score.json")
}
# the third tree holds a label encode rejects; the second, of traces only,
# is dropped by preprocessing but still counts as a tree read
BAD_LABEL_TREEBANK = "(S (NN a))\n(S (NP (-NONE- *)))\n(S+ (NN b) (NN c))\n"
BAD_LABEL_MESSAGE = "tree 3: label 'S+' contains the chain separator '+'"
# a model small enough to train on anything in a test
SMALL_MODEL = "embed_dim = 4\nhidden_dim = 4\nconv_channels = 4\nff_hidden = 4\n"


@pytest.fixture
def mini_treebank(tmp_path):
    path = tmp_path / "mini.mrg"
    write_treebank(pcfg.generate_trees(40, seed=900), path)
    return path


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    folder = tmp_path_factory.mktemp("small_model")
    corpus, config, ckpt = folder / "train.mrg", folder / "small.cfg", folder / "m.json"
    write_treebank(pcfg.generate_trees(20, seed=901), corpus)
    config.write_text(SMALL_MODEL)
    argv = ["train", "--train", str(corpus), "--config", str(config)]
    # one sentence per step, so the committed predict outputs pin the
    # trajectory of batches of one
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(training, "TRAIN_BATCH", 1)
        assert main(argv + ["--epochs", "1", "--out", str(ckpt)]) == 0
    return ckpt


def canonical(path):
    trees = parse_bracketed(Path(path).read_text(encoding="utf-8"))
    out = []
    for tree in trees:
        cleaned = preprocess(tree)
        if cleaned is not None:
            out.append(serialize_bracketed(cleaned) + "\n")
    return "".join(out)


class TestEncodeDecode:
    def test_roundtrip_is_byte_identical(self, tmp_path):
        jsonl = tmp_path / "sample.jsonl"
        out = tmp_path / "sample.out.mrg"
        assert main(["encode", str(SAMPLE), "--out", str(jsonl)]) == 0
        assert main(["decode", str(jsonl), "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == canonical(SAMPLE)

    def test_decode_file_holds_every_engines_trees(self, tmp_path, mini_treebank):
        jsonl = tmp_path / "mini.jsonl"
        out = tmp_path / "mini.out.mrg"
        assert main(["encode", str(mini_treebank), "--out", str(jsonl)]) == 0
        assert main(["decode", str(jsonl), "--out", str(out)]) == 0
        tuples = [codec.from_json_line(line) for line in jsonl.read_text().splitlines()]
        for engine in codec.ENGINES:
            trees = [reference_debinarize(codec.decode(tup, engine)) for tup in tuples]
            expected = "".join(reference_serialize(tree) + "\n" for tree in trees)
            assert out.read_text() == expected, engine

    def test_sample_treebank_encodes_to_the_committed_jsonl(self, tmp_path):
        jsonl = tmp_path / "sample.jsonl"
        assert main(["encode", str(SAMPLE), "--out", str(jsonl)]) == 0
        assert jsonl.read_bytes() == SAMPLE_JSONL.read_bytes()

    def test_label_encode_rejects_names_the_file_and_tree(self, tmp_path, capsys):
        src = tmp_path / "labels.mrg"
        src.write_text(BAD_LABEL_TREEBANK)
        out = tmp_path / "labels.jsonl"
        assert main(["encode", str(src), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: encode: {src}: {BAD_LABEL_MESSAGE}\n"
        assert not out.exists()

    def test_jsonl_shape(self, tmp_path):
        jsonl = tmp_path / "sample.jsonl"
        main(["encode", str(SAMPLE), "--out", str(jsonl)])
        lines = jsonl.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 25
        for line in lines:
            record = json.loads(line)
            assert len(record["distances"]) == len(record["words"]) - 1

    def test_empty_input_gives_empty_output(self, tmp_path):
        src = tmp_path / "empty.mrg"
        src.write_text("")
        jsonl = tmp_path / "empty.jsonl"
        out = tmp_path / "empty.out.mrg"
        assert main(["encode", str(src), "--out", str(jsonl)]) == 0
        assert jsonl.read_text() == ""
        assert main(["decode", str(jsonl), "--out", str(out)]) == 0
        assert out.read_text() == ""

    def test_right_branching_three_word_heights(self, tmp_path):
        src = tmp_path / "three.mrg"
        src.write_text("(S (T0 w0) (X (T1 w1) (T2 w2)))\n")
        jsonl = tmp_path / "three.jsonl"
        assert main(["encode", str(src), "--out", str(jsonl)]) == 0
        record = json.loads(jsonl.read_text())
        assert record["distances"] == [2.0, 1.0]

    def test_trees_emptied_by_preprocessing_are_skipped(self, tmp_path, capsys):
        src = tmp_path / "traces.mrg"
        src.write_text(
            "(S (NP (-NONE- *)))\n(S (NN dog))\n"
            "(S (NP-SBJ (NN cat)) (VP (VBZ sees) (NP (-NONE- *T*))))\n"
        )
        jsonl = tmp_path / "traces.jsonl"
        assert main(["encode", str(src), "--out", str(jsonl)]) == 0
        assert len(jsonl.read_text().splitlines()) == 2
        assert "1 trees empty after preprocessing" in capsys.readouterr().err
        sidecar = json.loads((tmp_path / "traces.jsonl.run.json").read_text())
        assert sidecar["skipped_empty"] == 1

        assert main(["roundtrip", str(src)]) == 0
        assert "roundtrip: 2 trees, 0 mismatches" in capsys.readouterr().out

        decoded = tmp_path / "traces.out.mrg"
        assert main(["decode", str(jsonl), "--out", str(decoded)]) == 0
        report = tmp_path / "report.json"
        assert main(["score", str(src), str(decoded), "--json", "--out", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert payload["sentences"] == 2
        assert payload["labeled"]["f1"] == payload["unlabeled"]["f1"] == 100.0

        config = tmp_path / "small.cfg"
        config.write_text(SMALL_MODEL)
        ckpt = tmp_path / "model.json"
        argv = ["train", "--train", str(src), "--epochs", "1", "--config", str(config)]
        assert main(argv + ["--out", str(ckpt)]) == 0
        metadata = json.loads(ckpt.read_text())["metadata"]
        assert metadata["skipped_empty"] == {"train": 1, "dev": 0}
        pred = tmp_path / "pred.mrg"
        capsys.readouterr()
        assert main(["predict", str(src), "--model", str(ckpt), "--out", str(pred)]) == 0
        assert capsys.readouterr().err == "warning: 1 trees empty after preprocessing\n"
        sidecar = json.loads((tmp_path / "pred.mrg.run.json").read_text())
        assert (sidecar["trees"], sidecar["skipped_empty"]) == (2, 1)
        predicted = parse_bracketed(pred.read_text())
        assert [[leaf.word for leaf in leaves(t)] for t in predicted] == [
            ["dog"],
            ["cat", "sees"],
        ]

    def test_wrapped_tree_of_traces_only_is_skipped_not_an_error(
        self, tmp_path, capsys
    ):
        src = tmp_path / "wrapped.mrg"
        src.write_text("( (NP (-NONE- *)) )\n( (S (NN dog)) )\n")
        jsonl = tmp_path / "wrapped.jsonl"
        assert main(["encode", str(src), "--out", str(jsonl)]) == 0
        assert len(jsonl.read_text().splitlines()) == 1
        assert capsys.readouterr().err == "warning: 1 trees empty after preprocessing\n"
        sidecar = json.loads((tmp_path / "wrapped.jsonl.run.json").read_text())
        assert sidecar["skipped_empty"] == 1

    def test_sample_treebank_score_of_its_decode_is_the_committed_json(self, tmp_path):
        jsonl, decoded = tmp_path / "sample.jsonl", tmp_path / "sample.out.mrg"
        report = tmp_path / "score.json"
        assert main(["encode", str(SAMPLE), "--out", str(jsonl)]) == 0
        assert main(["decode", str(jsonl), "--out", str(decoded)]) == 0
        argv = ["score", str(SAMPLE), str(decoded), "--json", "--out", str(report)]
        assert main(argv) == 0
        assert report.read_bytes() == GOLDEN["score.json"].read_bytes()

    def test_sidecar_metadata_written(self, tmp_path):
        jsonl = tmp_path / "sample.jsonl"
        main(["encode", str(SAMPLE), "--out", str(jsonl)])
        sidecar = json.loads((tmp_path / "sample.jsonl.run.json").read_text())
        assert sidecar["command"] == "encode"
        assert sidecar["trees"] == 25
        assert "version" in sidecar

    @pytest.mark.parametrize("command", ["encode", "predict", "score"])
    @pytest.mark.parametrize(
        "text, message, offset",
        [pytest.param(text, *error, id=text) for text, error in MALFORMED_TREEBANKS.items()],
    )
    def test_malformed_treebank_fails_cleanly(
        self, tmp_path, capsys, small_checkpoint, command, text, message, offset
    ):
        bad = tmp_path / "bad.mrg"
        bad.write_text(text)
        out = tmp_path / "out"
        argv = {
            "encode": ["encode", str(bad)],
            "predict": ["predict", str(bad), "--model", str(small_checkpoint)],
            "score": ["score", str(SAMPLE), str(bad)],
        }[command]
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: parse: {bad}: {message} (at offset {offset})\n"
        assert not out.exists()

    def test_decode_skips_blank_and_whitespace_only_lines(self, tmp_path, capsys):
        lines = SAMPLE_JSONL.read_text(encoding="utf-8").splitlines()
        spaced = tmp_path / "spaced.jsonl"
        spaced.write_text("\n" + "\n  \t\n".join(lines) + "\n \n", encoding="utf-8")
        out, expected = tmp_path / "spaced.mrg", tmp_path / "plain.mrg"
        assert main(["decode", str(spaced), "--out", str(out)]) == 0
        assert main(["decode", str(SAMPLE_JSONL), "--out", str(expected)]) == 0
        assert out.read_bytes() == expected.read_bytes()
        # skipped lines still count in the line number of an error
        spaced.write_text(f"\n   \n{lines[0]}\n\t\nnot json\n", encoding="utf-8")
        assert main(["decode", str(spaced)]) == 1
        assert capsys.readouterr().err.startswith(f"error: decode: {spaced}: line 5: ")

    def test_malformed_jsonl_names_line(self, tmp_path, capsys):
        jsonl = tmp_path / "bad.jsonl"
        jsonl.write_text('{"words": ["a"]}\n')
        assert main(["decode", str(jsonl)]) == 1
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("words", "ab"),  # a string, not a list of strings
            ("words", [1, "b"]),  # a number among the words
            ("distances", [True]),  # a boolean is not a number
            ("distances", float("nan")),  # not a list
        ],
    )
    def test_mistyped_jsonl_field_fails_cleanly(self, tmp_path, capsys, field, value):
        record = {
            "words": ["a", "b"],
            "tags": ["DT", "NN"],
            "unary_labels": ["∅", "∅"],
            "distances": [1.0],
            "split_labels": ["NP"],
        }
        record[field] = value
        good = dict(record, **{field: [1.0] if field == "distances" else ["a", "b"]})
        jsonl = tmp_path / "typed.jsonl"
        jsonl.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n")
        out = tmp_path / "typed.mrg"
        assert main(["decode", str(jsonl), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: decode: {jsonl}: line 2: field '{field}'")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_non_finite_jsonl_distance_fails_cleanly(self, tmp_path, capsys):
        jsonl = tmp_path / "nan.jsonl"
        jsonl.write_text(
            '{"words": ["a", "b", "c"], "tags": ["X", "X", "X"], '
            '"unary_labels": ["∅", "∅", "∅"], "distances": [1, NaN], '
            '"split_labels": ["S", "NP"]}\n'
        )
        assert main(["decode", str(jsonl)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: decode:") and "line 1" in err
        assert err.count("\n") == 1

    def test_jsonl_distance_no_float_holds_fails_cleanly(self, tmp_path, capsys):
        # rounded to floats, the two scores would tie and decode as the
        # reversed pair's tree
        jsonl = tmp_path / "wide.jsonl"
        jsonl.write_text(
            '{"words": ["a", "b", "c"], "tags": ["X", "X", "X"], '
            '"unary_labels": ["∅", "∅", "∅"], '
            '"distances": [9007199254740992, 9007199254740993], '
            '"split_labels": ["S", "NP"]}\n'
        )
        out = tmp_path / "wide.mrg"
        assert main(["decode", str(jsonl), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: decode: {jsonl}: line 1: "
            "distance 1 is 9007199254740993, no float holds it exactly\n"
        )
        assert not out.exists()

    def test_deeply_nested_jsonl_fails_cleanly(self, tmp_path, capsys):
        jsonl = tmp_path / "deep.jsonl"
        jsonl.write_text(SAMPLE_JSONL.read_text() + "[" * 1000 + "]" * 1000 + "\n")
        out = tmp_path / "deep.mrg"
        assert main(["decode", str(jsonl), "--out", str(out)]) == 1
        lines = len(SAMPLE_JSONL.read_text().splitlines()) + 1
        assert capsys.readouterr().err == (
            f"error: decode: {jsonl}: line {lines}: JSON nests too deeply to read\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "split_label, unary_label, message",
        [
            pytest.param(
                "S+", "∅", "empty nonterminal label in chain 'S+'", id="split-S+"
            ),
            pytest.param(
                "S", "NP+", "empty nonterminal label in chain 'NP+'", id="unary-NP+"
            ),
            pytest.param("∅", "∅", "root carries the empty label", id="empty-root"),
            pytest.param("", "∅", "empty nonterminal label", id="split-empty-string"),
            pytest.param(
                "S (T", "∅", "label 'S (T' holds whitespace", id="split-S-paren-T"
            ),
        ],
    )
    def test_label_encode_could_not_write_names_the_line(
        self, tmp_path, capsys, split_label, unary_label, message
    ):
        def record(split, unary):
            return json.dumps(
                {
                    "words": ["a", "b"],
                    "tags": ["X", "Y"],
                    "unary_labels": ["∅", unary],
                    "distances": [1.0],
                    "split_labels": [split],
                },
                ensure_ascii=False,
            )

        jsonl = tmp_path / "labels.jsonl"
        jsonl.write_text(record("S", "∅") + "\n" + record(split_label, unary_label) + "\n")
        out = tmp_path / "labels.mrg"
        assert main(["decode", str(jsonl), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: decode: {jsonl}: line 2: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, token, message",
        [
            pytest.param("words", "a b", "item 0 holds whitespace: 'a b'", id="word-a-b"),
            pytest.param(
                "words", "a)", "item 0 holds a parenthesis: 'a)'", id="word-a-paren"
            ),
            pytest.param("words", "", "item 0 is empty: ''", id="word-empty"),
            pytest.param("tags", "X Z", "item 0 holds whitespace: 'X Z'", id="tag-X-Z"),
        ],
    )
    def test_token_a_bracketed_tree_cannot_hold_names_the_line(
        self, tmp_path, capsys, field, token, message
    ):
        record = {
            "words": ["a", "b"],
            "tags": ["X", "Y"],
            "unary_labels": ["∅", "∅"],
            "distances": [1.0],
            "split_labels": ["S"],
        }
        jsonl = tmp_path / "tokens.jsonl"
        bad = dict(record, **{field: [token, "b"]})
        jsonl.write_text(json.dumps(record) + "\n" + json.dumps(bad) + "\n")
        out = tmp_path / "tokens.mrg"
        assert main(["decode", str(jsonl), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: decode: {jsonl}: line 2: field '{field}' {message}\n"
        assert not out.exists()

    def test_missing_file_fails_cleanly(self, capsys):
        assert main(["encode", "/nonexistent/path.mrg"]) == 1
        assert capsys.readouterr().err.startswith("error: io:")

    @pytest.mark.parametrize(
        "command", ["encode", "decode", "predict", "predict --model", "score", "train"]
    )
    def test_invalid_utf8_names_the_path_and_offset(
        self, tmp_path, capsys, small_checkpoint, command
    ):
        bad = tmp_path / "bad.txt"
        prefix = SAMPLE.read_bytes()
        bad.write_bytes(prefix + b"(NN caf\xff)\n")
        out = tmp_path / "out"
        argv = {
            "encode": ["encode", str(bad)],
            "decode": ["decode", str(bad)],
            "predict": ["predict", str(bad), "--model", str(small_checkpoint)],
            "predict --model": ["predict", str(SAMPLE), "--model", str(bad)],
            "score": ["score", str(SAMPLE), str(bad)],
            "train": ["train", "--train", str(SAMPLE), "--config", str(bad)],
        }[command]
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        offset = len(prefix) + len(b"(NN caf")
        assert err == f"error: io: cannot read {bad}: invalid UTF-8 at byte {offset}\n"
        assert not out.exists()


class TestDeepTree:
    def test_every_command_handles_a_1500_word_left_branching_tree(
        self, tmp_path, capsys
    ):
        text = "(NN w0)"
        for i in range(1, 1500):
            text = f"(S {text} (NN w{i}))"
        src = tmp_path / "deep.mrg"
        src.write_text(text + "\n")
        config = tmp_path / "small.cfg"
        config.write_text(SMALL_MODEL)
        jsonl, decoded = tmp_path / "deep.jsonl", tmp_path / "deep.out.mrg"
        report, ckpt = tmp_path / "report.json", tmp_path / "model.json"
        pred = tmp_path / "pred.mrg"
        commands = [
            ["encode", str(src), "--out", str(jsonl)],
            ["decode", str(jsonl), "--out", str(decoded)],
            ["roundtrip", str(src)],
            ["score", str(src), str(src), "--json", "--out", str(report)],
            ["train", "--train", str(src), "--dev", str(src), "--epochs", "1",
             "--loss", "mse", "--config", str(config), "--out", str(ckpt)],
            ["predict", str(src), "--model", str(ckpt), "--out", str(pred)],
        ]
        for argv in commands:
            assert main(argv) == 0, argv
            captured = capsys.readouterr()
            assert "Traceback" not in captured.err, argv
            if argv[0] == "roundtrip":
                assert "1 trees, 0 mismatches" in captured.out
        assert decoded.read_text() == text + "\n"
        assert json.loads(report.read_text())["labeled"]["f1"] == 100.0
        (tree,) = parse_bracketed(pred.read_text())
        assert [leaf.word for leaf in leaves(tree)] == [f"w{i}" for i in range(1500)]


class TestRoundtripCommand:
    def test_sample_treebank_has_no_mismatches(self, capsys):
        assert main(["roundtrip", str(SAMPLE)]) == 0
        assert "25 trees, 0 mismatches" in capsys.readouterr().out

    def test_sample_treebank_output_is_the_committed_text(self, capsys):
        assert main(["roundtrip", str(SAMPLE)]) == 0
        assert capsys.readouterr().out == GOLDEN["roundtrip.txt"].read_text()

    def test_label_encode_rejects_names_the_file_and_tree(self, tmp_path, capsys):
        src = tmp_path / "labels.mrg"
        src.write_text(BAD_LABEL_TREEBANK)
        assert main(["roundtrip", str(src)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: roundtrip: {src}: {BAD_LABEL_MESSAGE}\n"
        assert captured.out == ""
        assert sorted(path.name for path in tmp_path.iterdir()) == ["labels.mrg"]

    def test_single_word_corpus(self, tmp_path, capsys):
        path = tmp_path / "one.mrg"
        path.write_text("(INTJ (UH Yes))\n")
        assert main(["roundtrip", str(path)]) == 0
        assert "1 trees, 0 mismatches" in capsys.readouterr().out

    def test_exhaustive_small_tree_corpus(self, tmp_path, capsys):
        # every binary shape over 2-6 leaves, expanded to its n-ary tree
        from distparse.binarize import EMPTY_LABEL, Internal, debinarize
        from helpers import binary_shapes, materialize_shape

        trees = []
        for n in range(2, 7):
            for shape in binary_shapes(n):
                tree = materialize_shape(shape)
                if isinstance(tree, Internal) and tree.label == EMPTY_LABEL:
                    tree.label = "S"
                trees.append(debinarize(tree))
        path = tmp_path / "exhaustive.mrg"
        write_treebank(trees, path)
        assert main(["roundtrip", str(path)]) == 0
        assert f"{len(trees)} trees, 0 mismatches" in capsys.readouterr().out


class TestTrainPredictScore:
    def test_sample_treebank_prediction_and_its_score_are_the_committed_files(
        self, tmp_path, small_checkpoint
    ):
        pred, report = tmp_path / "pred.mrg", tmp_path / "score.json"
        argv = ["predict", str(SAMPLE), "--model", str(small_checkpoint)]
        assert main(argv + ["--out", str(pred)]) == 0
        assert pred.read_bytes() == GOLDEN["predict.mrg"].read_bytes()
        argv = ["score", str(SAMPLE), str(pred), "--json", "--out", str(report)]
        assert main(argv) == 0
        assert report.read_bytes() == GOLDEN["predict.score.json"].read_bytes()

    def test_model_trained_in_default_batches_parses_every_sentence(self, tmp_path):
        config, ckpt, pred = tmp_path / "small.cfg", tmp_path / "m.json", tmp_path / "p"
        config.write_text(SMALL_MODEL)
        assert training.TRAIN_BATCH > 1
        argv = ["train", "--train", str(SAMPLE), "--config", str(config)]
        assert main(argv + ["--epochs", "2", "--out", str(ckpt)]) == 0
        argv = ["predict", str(SAMPLE), "--model", str(ckpt), "--out", str(pred)]
        assert main(argv) == 0
        predicted = parse_bracketed(pred.read_text())
        gold = [preprocess(tree) for tree in parse_bracketed(SAMPLE.read_text())]
        gold = [tree for tree in gold if tree is not None]
        assert len(predicted) == len(gold)
        for got, want in zip(predicted, gold):
            assert [(l.word, l.tag) for l in leaves(got)] == [
                (l.word, l.tag) for l in leaves(want)
            ]

    def test_full_pipeline(self, tmp_path, mini_treebank, capsys):
        ckpt = tmp_path / "model.json"
        metrics = tmp_path / "metrics.jsonl"
        code = main(
            [
                "train",
                "--train", str(mini_treebank),
                "--dev", str(mini_treebank),
                "--epochs", "3",
                "--seed", "11",
                "--out", str(ckpt),
                "--metrics", str(metrics),
            ]
        )
        assert code == 0
        assert ckpt.exists()
        lines = metrics.read_text().splitlines()
        assert len(lines) == 4  # run header + 3 epochs
        run_meta = json.loads(lines[0])["run"]
        assert run_meta["train_config"]["seed"] == 11

        pred = tmp_path / "pred.mrg"
        assert main(
            ["predict", str(mini_treebank), "--model", str(ckpt), "--out", str(pred)]
        ) == 0
        assert len(pred.read_text().splitlines()) == 40

        capsys.readouterr()
        assert main(["score", str(mini_treebank), str(pred)]) == 0
        out = capsys.readouterr().out
        assert "labeled" in out and "word label accuracy" in out

        report = tmp_path / "report.json"
        assert main(
            ["score", str(mini_treebank), str(pred), "--json", "--out", str(report)]
        ) == 0
        payload = json.loads(report.read_text())
        assert 0.0 <= payload["labeled"]["f1"] <= 100.0
        assert payload["labeled"]["f1"] <= payload["unlabeled"]["f1"] + 1e-9

    @pytest.mark.parametrize("bad_file", ["train", "dev"])
    def test_label_encode_rejects_names_the_file_and_tree(
        self, tmp_path, mini_treebank, capsys, bad_file
    ):
        bad = tmp_path / "labels.mrg"
        bad.write_text(BAD_LABEL_TREEBANK)
        files = {"train": mini_treebank, "dev": mini_treebank, bad_file: bad}
        ckpt, metrics = tmp_path / "model.json", tmp_path / "metrics.jsonl"
        argv = ["train", "--train", str(files["train"]), "--dev", str(files["dev"])]
        argv += ["--epochs", "1", "--out", str(ckpt), "--metrics", str(metrics)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: train: {bad}: {BAD_LABEL_MESSAGE}\n"
        assert not ckpt.exists() and not metrics.exists()

    @pytest.mark.parametrize("bad_file", ["train", "dev"])
    @pytest.mark.parametrize("text", ["", "( (NP (-NONE- *)) )\n"], ids=["empty", "traces"])
    def test_file_with_no_usable_trees_fails(
        self, tmp_path, mini_treebank, capsys, bad_file, text
    ):
        bad = tmp_path / "none.mrg"
        bad.write_text(text)
        files = {"train": mini_treebank, "dev": mini_treebank, bad_file: bad}
        ckpt, metrics = tmp_path / "model.json", tmp_path / "metrics.jsonl"
        argv = ["train", "--train", str(files["train"]), "--dev", str(files["dev"])]
        argv += ["--epochs", "1", "--out", str(ckpt), "--metrics", str(metrics)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: train: no usable trees in {bad}\n"
        assert not ckpt.exists() and not metrics.exists()

    @pytest.mark.parametrize("where", ["missing folder", "folder"])
    def test_checkpoint_that_cannot_be_written_is_one_io_line(
        self, tmp_path, capsys, where
    ):
        config = tmp_path / "small.cfg"
        config.write_text(SMALL_MODEL)
        out = tmp_path / "missing" / "m.json" if where == "missing folder" else tmp_path
        reason = "No such file or directory" if where == "missing folder" else "Is a directory"
        argv = ["train", "--train", str(SAMPLE), "--config", str(config)]
        assert main(argv + ["--epochs", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()[-1]
        assert err == f"error: io: cannot write {out}: {reason}"

    @pytest.mark.parametrize("output", ["--out", "--metrics"])
    def test_unwritable_output_fails_before_training(
        self, tmp_path, capsys, output
    ):
        config = tmp_path / "small.cfg"
        config.write_text(SMALL_MODEL)
        paths = {"--out": tmp_path / "m.json", "--metrics": tmp_path / "metrics.jsonl"}
        paths[output] = tmp_path / "missing" / paths[output].name
        argv = ["train", "--train", str(SAMPLE), "--dev", str(SAMPLE)]
        argv += ["--config", str(config), "--epochs", "1"]
        argv += [part for pair in paths.items() for part in map(str, pair)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: io: cannot write {paths[output]}: No such file or directory\n"
        )
        assert not any(path.exists() for path in paths.values())

    def test_failed_run_keeps_a_checkpoint_it_did_not_write(self, tmp_path, capsys):
        config = tmp_path / "diverge.cfg"
        config.write_text(SMALL_MODEL + "learning_rate = 1e30\n")
        ckpt = tmp_path / "m.json"
        ckpt.write_text("earlier\n")
        argv = ["train", "--train", str(SAMPLE), "--config", str(config)]
        argv += ["--epochs", "1", "--out", str(ckpt), "--metrics", str(tmp_path / "x")]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: train: non-finite")
        assert ckpt.read_text() == "earlier\n"
        assert not (tmp_path / "x").exists()

    def test_metrics_that_cannot_be_written_leave_no_checkpoint(
        self, tmp_path, capsys
    ):
        config = tmp_path / "small.cfg"
        config.write_text(SMALL_MODEL)
        ckpt, metrics = tmp_path / "m.json", tmp_path / "missing" / "metrics.jsonl"
        argv = ["train", "--train", str(SAMPLE), "--config", str(config), "--epochs", "1"]
        assert main(argv + ["--out", str(ckpt), "--metrics", str(metrics)]) == 1
        err = capsys.readouterr().err.splitlines()[-1]
        assert err == f"error: io: cannot write {metrics}: No such file or directory"
        assert not ckpt.exists()

    @pytest.mark.parametrize("existing", [False, True], ids=["new other", "old other"])
    @pytest.mark.parametrize("output", ["--out", "--metrics"])
    def test_output_that_turns_unwritable_during_training_is_one_io_line(
        self, tmp_path, monkeypatch, capsys, output, existing
    ):
        config = tmp_path / "small.cfg"
        config.write_text(SMALL_MODEL)
        paths = {"--out": tmp_path / "m.json", "--metrics": tmp_path / "metrics.jsonl"}
        (other,) = [path for flag, path in paths.items() if flag != output]
        if existing:
            other.write_bytes(b"earlier\n")
        train = training.train

        def train_then_take_the_path(*args, **kwargs):
            result = train(*args, **kwargs)
            paths[output].mkdir()  # free when it was checked, a folder now
            return result

        monkeypatch.setattr(training, "train", train_then_take_the_path)
        argv = ["train", "--train", str(SAMPLE), "--config", str(config), "--epochs", "1"]
        argv += [part for pair in paths.items() for part in map(str, pair)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert errors == [f"error: io: cannot write {paths[output]}: Is a directory"]
        assert captured.err.endswith(errors[0] + "\n")
        # both paths are checked again before either is written, so the
        # other one is neither written nor, when it existed, changed
        kept = [other] if existing else []
        assert sorted(tmp_path.iterdir()) == sorted([config, paths[output], *kept])
        if existing:
            assert other.read_bytes() == b"earlier\n"

    @pytest.mark.parametrize("spelling", ["same", "dotted"])
    def test_out_and_metrics_naming_one_file_fail_before_any_reading(
        self, tmp_path, capsys, spelling
    ):
        ckpt = tmp_path / "m.json"
        metrics = ckpt if spelling == "same" else tmp_path / "sub" / ".." / "m.json"
        # a missing treebank: the paths are compared before it is read
        argv = ["train", "--train", str(tmp_path / "missing.mrg")]
        assert main(argv + ["--out", str(ckpt), "--metrics", str(metrics)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: train: --out and --metrics name the same file {ckpt}\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("dev", [False, True], ids=["no dev", "dev"])
    def test_dev_scores_are_reported_only_with_a_dev_set(self, tmp_path, capsys, dev):
        config = tmp_path / "small.cfg"
        config.write_text(SMALL_MODEL)
        ckpt = tmp_path / "m.json"
        argv = ["train", "--train", str(SAMPLE), "--config", str(config)]
        argv += ["--dev", str(SAMPLE)] if dev else []
        assert main(argv + ["--epochs", "2", "--out", str(ckpt)]) == 0
        captured = capsys.readouterr()
        epoch = r"epoch \d: distance \d+\.\d{4} label \d+\.\d{4}"
        if dev:
            epoch += r" dev F1 \d+\.\d\d/\d+\.\d\d \(labeled/unlabeled\)"
            assert re.fullmatch(
                r"best epoch \d: dev labeled F1 \d+\.\d\d, unlabeled \d+\.\d\d\n",
                captured.out,
            )
        else:
            assert captured.out == "kept the last epoch, 2 (no dev set)\n"
            assert json.loads(ckpt.read_text())["metadata"]["best_epoch"] == 2
        assert re.fullmatch(f"({epoch}\n){{2}}", captured.err)

    def test_same_seed_gives_identical_metrics(self, tmp_path, mini_treebank):
        ckpt = tmp_path / "model.json"
        metrics = tmp_path / "metrics.jsonl"
        argv = [
            "train",
            "--train", str(mini_treebank),
            "--epochs", "2",
            "--seed", "5",
            "--out", str(ckpt),
            "--metrics", str(metrics),
        ]
        logs = []
        checkpoints = []
        for _ in range(2):
            assert main(argv) == 0
            logs.append(metrics.read_bytes())
            checkpoints.append(ckpt.read_bytes())
        assert logs[0] == logs[1]
        assert checkpoints[0] == checkpoints[1]

    def test_config_file_with_flag_overrides(self, tmp_path, mini_treebank):
        config = tmp_path / "train.cfg"
        config.write_text(
            "epochs = 1\nseed = 9\nhidden_dim = 8  # keep it fast\n"
            "embed_dim = 8\nconv_channels = 8\nff_hidden = 8\n"
        )
        ckpt = tmp_path / "model.json"
        assert main(
            [
                "train",
                "--train", str(mini_treebank),
                "--config", str(config),
                "--epochs", "2",
                "--out", str(ckpt),
            ]
        ) == 0
        payload = json.loads(ckpt.read_text())
        assert payload["metadata"]["train_config"]["epochs"] == 2  # flag wins
        assert payload["metadata"]["train_config"]["seed"] == 9
        assert payload["model"]["hidden_dim"] == 8

    def test_config_file_comments_and_blank_lines_are_skipped(self, tmp_path, capsys):
        config = tmp_path / "commented.cfg"
        config.write_text(
            "# a small model\n\n   \nembed_dim = 4  # and the rest:\n\t\n"
            + SMALL_MODEL.split("\n", 1)[1]
            + "  # seed = not a number\n"
        )
        ckpt = tmp_path / "model.json"
        argv = ["train", "--train", str(SAMPLE), "--config", str(config)]
        assert main(argv + ["--epochs", "1", "--out", str(ckpt)]) == 0
        dims = ("embed_dim", "hidden_dim", "conv_channels", "ff_hidden")
        saved = json.loads(ckpt.read_text())
        assert [saved["model"][dim] for dim in dims] == [4, 4, 4, 4]
        assert saved["metadata"]["train_config"]["seed"] == TrainConfig().seed
        assert "error" not in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["learnign_rate", "decode_engine"])
    def test_unknown_config_key_rejected(self, tmp_path, mini_treebank, capsys, key):
        config = tmp_path / "bad.cfg"
        config.write_text(f"{key} = 0.1\n")
        ckpt = tmp_path / "m.json"
        assert main(
            [
                "train",
                "--train", str(mini_treebank),
                "--config", str(config),
                "--out", str(ckpt),
            ]
        ) == 1
        assert capsys.readouterr().err == f"error: config: unknown keys: {key}\n"
        assert not ckpt.exists()

    def test_many_unknown_config_keys_are_named_in_part(self, tmp_path, mini_treebank, capsys):
        # 100 keys of 93 characters, each within the 100-character rule
        keys = [f"{i:03d}" + "k" * 90 for i in range(100)]
        config = tmp_path / "bad.cfg"
        config.write_text("".join(f"{key} = 1\n" for key in reversed(keys)))
        argv = ["train", "--train", str(mini_treebank), "--config", str(config)]
        assert main(argv + ["--out", str(tmp_path / "m.json")]) == 1
        assert capsys.readouterr().err == (
            f"error: config: unknown keys: {keys[0]}, {keys[1]}, {keys[2]} and 97 more\n"
        )

    @pytest.mark.parametrize(
        "lines, flags",
        [
            ("epochs = 0\n", []),
            ("epochs = -2\n", []),
            ("", ["--epochs", "0"]),
            ("distance_loss = foo\n", []),
            ("seed = -3\n", []),
            ("", ["--seed", "-1"]),
        ],
    )
    def test_invalid_config_value_rejected(
        self, tmp_path, mini_treebank, capsys, lines, flags
    ):
        config = tmp_path / "bad.cfg"
        config.write_text(lines)
        ckpt = tmp_path / "m.json"
        argv = ["train", "--train", str(mini_treebank), "--config", str(config)]
        assert main(argv + flags + ["--out", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config: ") and err.count("\n") == 1
        assert not ckpt.exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            pytest.param(f"{name} = {value}\n", message, id=name)
            for name, value, message in [
                ("embed_dim", "0", "embed_dim must be positive"),
                ("hidden_dim", "0", "hidden_dim must be positive"),
                ("conv_channels", "-1", "conv_channels must be positive"),
                ("ff_hidden", "0", "ff_hidden must be positive"),
                ("learning_rate", "-1", "learning_rate must be a finite number"
                 " greater than 0, got -1.0"),
                ("adam_eps", "0", "adam_eps must be a finite number greater than 0,"
                 " got 0.0"),
                ("beta1", "2", "beta1 must be a finite number in [0, 1), got 2.0"),
                ("beta2", "1", "beta2 must be a finite number in [0, 1), got 1.0"),
                ("weight_decay", "-5", "weight_decay must be a finite number"
                 " not below 0, got -5.0"),
            ]
        ]
        + [
            pytest.param(f"{name} = {value}\n", f"{name} must be a finite number",
                         id=f"{name}-{value}")
            for name, value in [
                ("learning_rate", "nan"),
                ("beta1", "-inf"),
                ("adam_eps", "inf"),
                ("weight_decay", "nan"),
            ]
        ]
        + [
            pytest.param(f"{name} = {value}\n",
                         f"{name} must be of type {kind}, got {value!r}\n",
                         id=f"{name}-{value}")
            for name, value, kind in [
                ("epochs", "x", "int"),
                ("seed", "1.5", "int"),
                ("learning_rate", "fast", "float"),
            ]
        ]
        + [
            # past Python's int digit limit: the line quotes only the start
            pytest.param(f"seed = {'1' * 5000}\n", "seed is too long to be a value: "
                         "5000 characters, starting '11111111111111111111'\n",
                         id="seed-5000-digits"),
            # a value that converts, and a key, are held to the same rule
            pytest.param(f"distance_loss = {'x' * 5000}\n",
                         "distance_loss is too long to be a value: "
                         "5000 characters, starting 'xxxxxxxxxxxxxxxxxxxx'\n",
                         id="distance_loss-5000-characters"),
            pytest.param(f"{'k' * 5000} = 1\n", "a key is too long: "
                         "5000 characters, starting 'kkkkkkkkkkkkkkkkkkkk'\n",
                         id="key-5000-characters"),
            pytest.param("epochs = 1\n# again\nepochs = 2\n",
                         "<path>: line 3: epochs is set twice\n", id="epochs-twice"),
        ],
    )
    def test_config_value_is_a_config_error_before_any_treebank_is_read(
        self, tmp_path, capsys, line, message
    ):
        config = tmp_path / "bad.cfg"
        config.write_text(line)
        ckpt = tmp_path / "m.json"
        missing = tmp_path / "missing.mrg"
        argv = ["train", "--train", str(missing), "--config", str(config)]
        assert main(argv + ["--out", str(ckpt)]) == 1
        err = capsys.readouterr().err
        message = message.replace("<path>", str(config))
        assert err.startswith(f"error: config: {message}") and err.count("\n") == 1
        assert len(err.encode()) < 200
        assert not ckpt.exists()

    # only sizes that fail at once: one that does allocate would make the
    # model write gigabytes of initial weights
    @pytest.mark.parametrize(
        "name", ["embed_dim", "hidden_dim", "conv_channels", "ff_hidden"]
    )
    def test_model_too_large_to_allocate_fails_cleanly(
        self, tmp_path, mini_treebank, capsys, name
    ):
        config = tmp_path / "huge.cfg"
        config.write_text(f"{name} = {10**11}\n")
        ckpt = tmp_path / "m.json"
        argv = ["train", "--train", str(mini_treebank), "--config", str(config)]
        assert main(argv + ["--out", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: train: cannot allocate \d+ parameters\n", err)
        assert not ckpt.exists()

    def test_config_file_may_set_every_train_config_field(
        self, tmp_path, mini_treebank
    ):
        config = tmp_path / "all.cfg"
        config.write_text(
            "".join(f"{key} = {value}\n" for key, value in asdict(TrainConfig()).items())
        )
        ckpt = tmp_path / "model.json"
        flags = ["--epochs", "1", "--seed", "3", "--loss", "mse"]
        argv = ["train", "--train", str(mini_treebank), "--config", str(config)]
        assert main(argv + flags + ["--out", str(ckpt)]) == 0
        recorded = json.loads(ckpt.read_text())["metadata"]["train_config"]
        expected = replace(TrainConfig(), epochs=1, seed=3, distance_loss="mse")
        assert recorded == asdict(expected)

    def test_metrics_lines_hold_the_epoch_metrics_fields(self, tmp_path, mini_treebank):
        config = tmp_path / "small.cfg"
        config.write_text(SMALL_MODEL)
        metrics = tmp_path / "metrics.jsonl"
        argv = ["train", "--train", str(mini_treebank), "--dev", str(mini_treebank)]
        argv += ["--epochs", "2", "--config", str(config)]
        argv += ["--out", str(tmp_path / "m.json"), "--metrics", str(metrics)]
        assert main(argv) == 0
        header, *epochs = metrics.read_text().splitlines()
        assert list(json.loads(header)) == ["run"]
        assert len(epochs) == 2
        names = [field.name for field in fields(EpochMetrics)]
        for number, line in enumerate(epochs, start=1):
            record = json.loads(line)
            assert list(record) == names
            assert record["epoch"] == number

    def test_score_leaf_mismatch_fails(self, tmp_path, capsys):
        a = tmp_path / "a.mrg"
        b = tmp_path / "b.mrg"
        a.write_text("(S (NN dog))\n")
        b.write_text("(S (NN cat))\n")
        assert main(["score", str(a), str(b)]) == 1
        assert "sentence 0" in capsys.readouterr().err

    def test_score_error_precedence(self, tmp_path, capsys):
        # after the sentence counts, the first fault in sentence order
        # wins; within a sentence, a bad gold label, then a bad predicted
        # label, then a leaf mismatch
        gold = tmp_path / "gold.mrg"
        pred = tmp_path / "pred.mrg"
        gold.write_text("(S+X (NN a) (NN b))\n(S (NN c))\n")
        pred.write_text("(S (∅ (NN a)) (NN b))\n(S (NN OTHER))\n")
        assert main(["score", str(gold), str(pred)]) == 1
        assert capsys.readouterr().err == (
            "error: score: label 'S+X' contains the chain separator '+'\n"
        )

        gold.write_text("(S (NN a) (NN b))\n(S (NN c))\n")
        assert main(["score", str(gold), str(pred), "--json"]) == 1
        assert capsys.readouterr().err == (
            "error: score: label '∅' collides with the empty-label marker\n"
        )

        pred.write_text("(S (NN a) (NN b))\n(S (NN OTHER))\n")
        assert main(["score", str(gold), str(pred)]) == 1
        assert capsys.readouterr().err == "error: score: leaf mismatch in sentence 1\n"

        gold.write_text("(S (NN a) (NN b))\n(∅ (NN c) (NN d))\n")
        pred.write_text("(A+1 (NN a) (NN b))\n(S (NN c) (NN d))\n")
        assert main(["score", str(gold), str(pred)]) == 1
        assert capsys.readouterr().err == (
            "error: score: label 'A+1' contains the chain separator '+'\n"
        )

    @pytest.mark.parametrize("payload", ["{}", "[]", '"x"', "3", "null"])
    def test_bad_checkpoint_fails_cleanly(
        self, tmp_path, mini_treebank, capsys, payload
    ):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(payload)
        self._assert_checkpoint_error(
            capsys, mini_treebank, bogus, tmp_path, "not a recognized checkpoint file"
        )

    @pytest.mark.parametrize("kind", ["missing", "folder"])
    def test_model_that_cannot_be_read_is_an_io_error(
        self, tmp_path, mini_treebank, capsys, kind
    ):
        ckpt = tmp_path / "m.json"
        if kind == "folder":
            ckpt.mkdir()
        out = tmp_path / "pred.mrg"
        argv = ["predict", str(mini_treebank), "--model", str(ckpt), "--out", str(out)]
        assert main(argv) == 1
        reason = {"missing": "No such file or directory", "folder": "Is a directory"}
        err = capsys.readouterr().err
        assert err == f"error: io: cannot read {ckpt}: {reason[kind]}\n"
        assert not out.exists()

    def _assert_checkpoint_error(self, capsys, mini_treebank, ckpt, tmp_path, message=None):
        capsys.readouterr()
        out = tmp_path / "pred.mrg"
        assert main(
            ["predict", str(mini_treebank), "--model", str(ckpt), "--out", str(out)]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint:")
        assert err.count("\n") == 1 and "Traceback" not in err
        if message is not None:
            assert err == f"error: checkpoint: {ckpt}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda p: p.update(vocab="x"), "vocab must be a JSON object"),
            (lambda p: p.update(model=[]), "model must be a JSON object"),
            (lambda p: p.update(params=3), "params must be a base64 string"),
            (lambda p: p.pop("model"), "no 'model' section"),
            (lambda p: p["model"].update(word_vocab="x"), "model.word_vocab must be an integer"),
            (lambda p: p["model"].update(extra=1), "model.extra is not a model field"),
            (lambda p: p.update(params="*" + p["params"][1:]), "params is not valid base64"),
            (lambda p: p["model"].update(embed_dim=-1), "model.embed_dim must be positive"),
            (lambda p: p["model"].update(hidden_dim=True), "model.hidden_dim must be an integer"),
            (lambda p: p["model"].pop("ff_hidden"), "model.ff_hidden is missing"),
            # a huge dimension is a length mismatch, found before anything is
            # allocated from it (the small model holds 1235 parameters)
            (
                lambda p: p["model"].update(ff_hidden=10**12),
                "params holds 9880 bytes; "
                "the model's 38000000001083 parameters need 304000000008664",
            ),
            (
                lambda p: p["model"].update(hidden_dim=10**9),
                "params holds 9880 bytes; the model's 16000000152000000371 "
                "parameters need 128000001216000002968",
            ),
            (
                lambda p: p.pop("version"),
                "only checkpoint version 2 is read, and this file has no integer "
                "version: retrain the model",
            ),
            (
                lambda p: p.update(version="2"),
                "only checkpoint version 2 is read, and this file has no integer "
                "version: retrain the model",
            ),
        ],
        ids=[
            "vocab", "model", "params", "no-model", "word_vocab", "extra", "non-base64",
            "embed_dim", "hidden_dim", "no-ff_hidden", "huge-ff_hidden", "huge-hidden_dim",
            "no-version", "string-version",
        ],
    )
    def test_checkpoint_section_of_the_wrong_kind_is_named(
        self, tmp_path, mini_treebank, capsys, small_checkpoint, damage, message
    ):
        payload = json.loads(small_checkpoint.read_text())
        damage(payload)
        ckpt = tmp_path / "model.json"
        ckpt.write_text(json.dumps(payload))
        self._assert_checkpoint_error(capsys, mini_treebank, ckpt, tmp_path, message)

    @pytest.mark.parametrize("section", ["metadata", "params"])
    def test_deeply_nested_checkpoint_fails_cleanly(
        self, tmp_path, mini_treebank, capsys, small_checkpoint, section
    ):
        payload = json.loads(small_checkpoint.read_text())
        if section == "params":  # one string: the whole buffer goes
            payload[section] = DEEP
        else:
            payload[section]["deep"] = DEEP
        ckpt = tmp_path / "model.json"
        ckpt.write_text(dumps_edited(payload))
        self._assert_checkpoint_error(
            capsys, mini_treebank, ckpt, tmp_path, "JSON nests too deeply to read"
        )

    def _edited_checkpoint(self, tmp_path, small_checkpoint, edit):
        """A copy of the small checkpoint with ``edit(payload)`` applied."""
        payload = json.loads(small_checkpoint.read_text())
        edit(payload)
        ckpt = tmp_path / "model.json"
        ckpt.write_text(json.dumps(payload))
        return ckpt

    @staticmethod
    def _with_buffer(payload, edit):
        """``payload`` with its params buffer replaced by ``edit`` of it."""
        stored = base64.b64decode(payload["params"])
        payload["params"] = base64.b64encode(edit(stored)).decode("ascii")

    @pytest.mark.parametrize(
        "edit, size",
        [
            (lambda stored: stored[: len(stored) // 2], 4940),  # a cut buffer
            (lambda stored: stored[:-1], 9879),  # a part of a float cut off
            (lambda stored: stored + bytes(8), 9888),  # one float too many
        ],
        ids=["cut-in-half", "cut-byte", "extra-float"],
    )
    def test_params_buffer_of_the_wrong_length_fails_cleanly(
        self, tmp_path, mini_treebank, capsys, small_checkpoint, edit, size
    ):
        ckpt = self._edited_checkpoint(
            tmp_path, small_checkpoint, lambda p: self._with_buffer(p, edit)
        )
        message = f"params holds {size} bytes; the model's 1235 parameters need 9880"
        self._assert_checkpoint_error(capsys, mini_treebank, ckpt, tmp_path, message)

    def test_truncated_params_string_fails_cleanly(
        self, tmp_path, mini_treebank, capsys, small_checkpoint
    ):
        # a cut that leaves a part of a base64 quad is not base64
        def cut(payload):
            payload["params"] = payload["params"][:-3]

        ckpt = self._edited_checkpoint(tmp_path, small_checkpoint, cut)
        self._assert_checkpoint_error(
            capsys, mini_treebank, ckpt, tmp_path, "params is not valid base64"
        )

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_checkpoint_fails_cleanly(
        self, tmp_path, mini_treebank, capsys, small_checkpoint, value
    ):
        def poison(stored):
            values = np.frombuffer(stored, "<f8").copy()
            values[len(values) // 2] = value
            return values.tobytes()

        ckpt = self._edited_checkpoint(
            tmp_path, small_checkpoint, lambda p: self._with_buffer(p, poison)
        )
        self._assert_checkpoint_error(
            capsys, mini_treebank, ckpt, tmp_path, "params holds non-finite values"
        )

    def test_version_1_checkpoint_is_not_read(
        self, tmp_path, mini_treebank, capsys, small_checkpoint
    ):
        ckpt = self._edited_checkpoint(
            tmp_path, small_checkpoint, lambda p: p.update(version=1)
        )
        message = (
            "only checkpoint version 2 is read, and this file has version 1: "
            "retrain the model"
        )
        self._assert_checkpoint_error(capsys, mini_treebank, ckpt, tmp_path, message)

    @pytest.mark.parametrize("field", ["word_labels", "split_labels"])
    def test_checkpoint_label_decode_would_reject_fails_cleanly(
        self, tmp_path, mini_treebank, capsys, small_checkpoint, field
    ):
        payload = json.loads(small_checkpoint.read_text())
        payload["vocab"][field][-1] = "NP+"
        ckpt = tmp_path / "model.json"
        ckpt.write_text(json.dumps(payload))
        out = tmp_path / "pred.mrg"
        argv = ["predict", str(mini_treebank), "--model", str(ckpt), "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: checkpoint: {ckpt}: vocab.{field}: "
            "empty nonterminal label in chain 'NP+'\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, dimension",
        [
            ("words", "word_vocab"),
            ("tags", "tag_vocab"),
            ("word_labels", "word_label_vocab"),
            ("split_labels", "split_label_vocab"),
        ],
    )
    @pytest.mark.parametrize("change", ["drop", "extra", "not a string", "not a list"])
    def test_checkpoint_vocabulary_disagreeing_with_the_model_fails_cleanly(
        self, tmp_path, mini_treebank, capsys, small_checkpoint, field, dimension, change
    ):
        payload = json.loads(small_checkpoint.read_text())
        entries = payload["vocab"][field]
        size = payload["model"][dimension]
        assert len(entries) == size
        if change == "drop":
            del entries[-1]
            message = (
                f"vocab.{field} has {size - 1} entries but model.{dimension} is {size}"
            )
        elif change == "extra":
            entries.append("EXTRA")
            message = (
                f"vocab.{field} has {size + 1} entries but model.{dimension} is {size}"
            )
        else:
            if change == "not a string":
                entries[-1] = 7
            else:
                payload["vocab"][field] = "".join(entries)
            message = f"vocab.{field} must be a list of strings"
        ckpt = tmp_path / "model.json"
        ckpt.write_text(json.dumps(payload))
        out = tmp_path / "pred.mrg"
        argv = ["predict", str(mini_treebank), "--model", str(ckpt), "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: checkpoint: {ckpt}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("field", ["words", "tags", "word_labels", "split_labels"])
    def test_checkpoint_vocabulary_repeating_an_entry_fails_cleanly(
        self, tmp_path, mini_treebank, capsys, small_checkpoint, field
    ):
        # a repeated entry leaves the earlier id unreachable: its word would
        # read as <unk>, its label print under the repeated name
        payload = json.loads(small_checkpoint.read_text())
        entries = payload["vocab"][field]
        entries[-2] = entries[-1]
        ckpt = tmp_path / "model.json"
        ckpt.write_text(json.dumps(payload))
        out = tmp_path / "pred.mrg"
        argv = ["predict", str(mini_treebank), "--model", str(ckpt), "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: checkpoint: {ckpt}: vocab.{field} repeats entry {entries[-1]!r}\n"
        )
        assert "Traceback" not in err
        assert not out.exists()

    def test_corpus_holding_the_unknown_token_trains_and_predicts(
        self, tmp_path, capsys
    ):
        # a literal <unk> word or tag shares id 0 with unseen ones, so the
        # vocabulary train writes never repeats an entry
        corpus, config = tmp_path / "unk.mrg", tmp_path / "small.cfg"
        write_treebank(pcfg.generate_trees(10, seed=902), corpus)
        with open(corpus, "a", encoding="utf-8") as handle:
            handle.write("(S (NP (NN <unk>) (NN dog)) (VP (<unk> ran)))\n")
        config.write_text(SMALL_MODEL)
        ckpt, out = tmp_path / "m.json", tmp_path / "pred.mrg"
        argv = ["train", "--train", str(corpus), "--config", str(config)]
        assert main(argv + ["--epochs", "1", "--out", str(ckpt)]) == 0
        vocab = json.loads(ckpt.read_text())["vocab"]
        assert vocab["words"].count("<unk>") == vocab["tags"].count("<unk>") == 1
        argv = ["predict", str(corpus), "--model", str(ckpt), "--out", str(out)]
        assert main(argv) == 0
        assert "error:" not in capsys.readouterr().err
        assert len(out.read_text().splitlines()) == 11

    def test_root_the_model_has_no_label_for_fails_predict_cleanly(
        self, tmp_path, capsys
    ):
        # 1-word training trees leave the empty label as the only split
        # label, so no multi-word sentence can have a labeled root
        corpus, sentence = tmp_path / "words.mrg", tmp_path / "two.mrg"
        corpus.write_text("(S (NN cat))\n(S (NN dog))\n", encoding="utf-8")
        sentence.write_text("(S (NN cat) (NN dog))\n", encoding="utf-8")
        ckpt, out = tmp_path / "m.json", tmp_path / "pred.mrg"
        argv = ["train", "--train", str(corpus), "--epochs", "1", "--out", str(ckpt)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["predict", str(sentence), "--model", str(ckpt), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == (
            "error: predict: the model has no non-empty split label for the root "
            "of the 2-word sentence starting 'cat'\n"
        )
        assert not out.exists()

    def test_dev_root_the_model_has_no_label_for_fails_train_cleanly(
        self, tmp_path, capsys
    ):
        corpus, dev = tmp_path / "words.mrg", tmp_path / "two.mrg"
        corpus.write_text("(S (NN cat))\n(S (NN dog))\n", encoding="utf-8")
        dev.write_text("(S (NN cat) (NN dog))\n", encoding="utf-8")
        ckpt = tmp_path / "m.json"
        argv = ["train", "--train", str(corpus), "--dev", str(dev), "--epochs", "1"]
        assert main(argv + ["--out", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == (
            "error: train: the model has no non-empty split label for the root "
            "of the 2-word sentence starting 'cat'"
        )
        assert err.count("error:") == 1 and "Traceback" not in err
        assert not ckpt.exists()

    def test_diverging_training_stops_cleanly(self, tmp_path, mini_treebank, capsys):
        config = tmp_path / "diverge.cfg"
        config.write_text("learning_rate = 1e30\n")
        ckpt = tmp_path / "model.json"
        metrics = tmp_path / "metrics.jsonl"
        argv = [
            "train",
            "--train", str(mini_treebank),
            "--config", str(config),
            "--epochs", "2",
            "--out", str(ckpt),
            "--metrics", str(metrics),
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 1
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        last = err.splitlines()[-1]
        assert last.startswith("error: train: non-finite loss at epoch ")
        assert last.rpartition(" ")[2] in ("1", "2")
        assert "Traceback" not in err
        assert not ckpt.exists() and not metrics.exists()

    def test_overflowing_model_output_fails_cleanly(
        self, tmp_path, mini_treebank, capsys, small_checkpoint
    ):
        result = training.load_checkpoint(small_checkpoint)
        # every hidden unit saturates at 1 and the score head sums 1e308s
        result.params["dist_head_W1"][...] = 0.0
        result.params["dist_head_b1"][...] = 1e3
        result.params["dist_head_W2"][...] = 1e308
        ckpt = tmp_path / "model.json"
        ckpt.write_text(training.checkpoint_text(result))
        capsys.readouterr()
        out = tmp_path / "pred.mrg"
        argv = ["predict", str(mini_treebank), "--model", str(ckpt), "--out", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 1
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("error: predict: non-finite model output")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()


def writing_argv(command: str, checkpoint) -> list[str]:
    """``command`` on the committed sample files, with no ``--out``."""
    return {
        "encode": ["encode", str(SAMPLE)],
        "decode": ["decode", str(SAMPLE_JSONL)],
        "predict": ["predict", str(SAMPLE), "--model", str(checkpoint)],
        "score": ["score", str(SAMPLE), str(SAMPLE)],
        "score --json": ["score", str(SAMPLE), str(SAMPLE), "--json"],
        "bench": ["bench", "--sizes", "8", "--reps", "1"],
    }[command]


class TestOutputFiles:
    @pytest.mark.parametrize("existing", [False, True], ids=["new out", "old out"])
    @pytest.mark.parametrize("command", ["encode", "decode", "predict"])
    def test_sidecar_that_cannot_be_written_leaves_the_output_alone(
        self, tmp_path, capsys, small_checkpoint, command, existing
    ):
        out = tmp_path / "x"
        (tmp_path / "x.run.json").mkdir()
        if existing:
            out.write_bytes(b"earlier\n")
        assert main(writing_argv(command, small_checkpoint) + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: io: cannot write {out}.run.json: Is a directory\n"
        if existing:
            assert out.read_bytes() == b"earlier\n"
        else:
            assert not out.exists()
        assert list((tmp_path / "x.run.json").iterdir()) == []

    @pytest.mark.parametrize(
        "command", ["encode", "decode", "predict", "score", "score --json", "bench"]
    )
    def test_output_that_is_a_folder_is_one_io_line(
        self, tmp_path, capsys, small_checkpoint, command
    ):
        out = tmp_path / "out"
        out.mkdir()
        assert main(writing_argv(command, small_checkpoint) + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: io: cannot write {out}: Is a directory\n"
        assert list(tmp_path.iterdir()) == [out]  # no sidecar either

    @pytest.mark.parametrize("command", ["encode", "decode", "predict"])
    def test_without_out_nothing_is_checked_or_written_beside_stdout(
        self, tmp_path, monkeypatch, capsys, small_checkpoint, command
    ):
        argv = writing_argv(command, small_checkpoint)
        assert main(argv + ["--out", str(tmp_path / "x")]) == 0
        expected = (tmp_path / "x").read_text(encoding="utf-8")
        capsys.readouterr()
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)

        def refuse(path):
            raise AssertionError(f"checked {path}")

        monkeypatch.setattr(cli, "_check_writable", refuse)
        assert main(argv) == 0
        assert capsys.readouterr() == (expected, "")
        assert list(work.iterdir()) == []


class TestBench:
    def test_csv_output_and_agreement(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert main(
            [
                "bench",
                "--sizes", "200,400",
                "--reps", "3",
                "--shape", "left-chain",
                "--out", str(out),
            ]
        ) == 0
        lines = out.read_text().splitlines()
        header_index = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_index] == (
            "engine,shape,size,repetitions,median_seconds,min_seconds"
        )
        data = [l for l in lines[header_index + 1 :] if l]
        assert len(data) == 6  # 2 sizes x 3 engines
        err = capsys.readouterr().err
        assert "doubling ratios" in err

    def test_unknown_engine_rejected(self, capsys):
        assert main(["bench", "--engines", "warp", "--sizes", "10"]) == 1
        assert "unknown engine" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--engines", "", "--engines names no engine"),
            ("--engines", ",", "--engines names no engine"),
            ("--sizes", ",", "--sizes names no size"),
        ],
    )
    def test_empty_list_rejected(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "bench.csv"
        argv = ["bench", "--sizes", "8", "--reps", "1", flag, value, "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: bench: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--sizes", "8,x", "--sizes item 'x' is not an integer"),
            ("--sizes", "8,1.5", "--sizes item '1.5' is not an integer"),
            # past Python's int digit limit, and any item too long to be
            # one: the line quotes only the start
            ("--sizes", "8," + "1" * 5000, "--sizes item is too long to be a size: "
             "5000 characters, starting '11111111111111111111'"),
            ("--engines", "x" * 3000, "--engines item is too long to be an engine: "
             "3000 characters, starting 'xxxxxxxxxxxxxxxxxxxx'"),
        ],
        ids=["size-x", "size-1.5", "size-5000-digits", "engine-3000-characters"],
    )
    def test_bad_item_is_named_after_its_flag(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "bench.csv"
        argv = ["bench", "--sizes", "8", "--reps", "1", flag, value, "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: bench: {message}\n"
        assert not out.exists()

    def test_engines_that_disagree_fail_as_a_bench_error(self, monkeypatch, capsys):
        decode = codec.decode

        def rmq_reads_the_scores_reversed(tup, engine):
            if engine == "rmq":
                tup = replace(tup, distances=tup.distances[::-1])
            return decode(tup, engine)

        monkeypatch.setattr(codec, "decode", rmq_reads_the_scores_reversed)
        with pytest.raises(ValueError, match="engine rmq disagrees with stack at size 8"):
            bench.run([8], ["stack", "rmq"], "left-chain", repetitions=1)
        assert main(["bench", "--sizes", "8", "--engines", "stack,rmq", "--reps", "1"]) == 1
        assert capsys.readouterr().err == (
            "error: bench: engine rmq disagrees with stack at size 8\n"
        )

    @pytest.mark.parametrize(
        "sizes, engines, message",
        [
            ("8,16", "rmq,rmq", "benchmark engines name 'rmq' more than once"),
            ("8,16,8", "stack", "benchmark sizes name 8 more than once"),
            ("8,08", "stack", "benchmark sizes name 8 more than once"),
        ],
        ids=["engine", "size", "size-spelled-twice"],
    )
    def test_repeated_engine_or_size_rejected(
        self, tmp_path, capsys, sizes, engines, message
    ):
        # a repeat would write its row twice, each copy pooling both timings
        out = tmp_path / "bench.csv"
        argv = ["bench", "--sizes", sizes, "--engines", engines, "--reps", "2"]
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: bench: {message}\n"
        assert not out.exists()

    def test_too_small_size_rejected(self, capsys):
        assert main(["bench", "--sizes", "1"]) == 1

    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_fewer_than_one_repetition_rejected(self, capsys, reps):
        assert main(["bench", "--sizes", "10", "--reps", reps]) == 1
        assert capsys.readouterr().err == "error: bench: --reps must be at least 1\n"

    @pytest.mark.parametrize("shape", ["random", "left-chain", "right-chain"])
    def test_negative_seed_rejected(self, tmp_path, capsys, shape):
        out = tmp_path / "bench.csv"
        argv = ["bench", "--sizes", "10", "--shape", shape, "--seed", "-3"]
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: bench: seed must be a non-negative integer, got -3\n"
        )
        assert not out.exists()


class TestCollector:
    """``main`` pauses the cyclic collector for the command and leaves it
    as the caller had it."""

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        was_enabled = gc.isenabled()
        yield
        if was_enabled:
            gc.enable()
        else:
            gc.disable()

    def test_paused_during_a_command_and_enabled_after(self, monkeypatch):
        seen = []

        def command(args):
            seen.append(gc.isenabled())
            return 0

        monkeypatch.setattr(cli, "cmd_encode", command)
        gc.enable()
        assert main(["encode", str(SAMPLE)]) == 0
        assert seen == [False] and gc.isenabled()

    def test_enabled_after_an_error_exit(self, capsys):
        gc.enable()
        assert main(["encode", "/nonexistent/path.mrg"]) == 1
        assert capsys.readouterr().err.startswith("error: io:")
        assert gc.isenabled()

    def test_enabled_after_an_escaping_exception(self, monkeypatch):
        def command(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_encode", command)
        gc.enable()
        with pytest.raises(RuntimeError, match="boom"):
            main(["encode", str(SAMPLE)])
        assert gc.isenabled()

    def test_stays_disabled_when_the_caller_disabled_it(self, tmp_path):
        gc.disable()
        assert main(["encode", str(SAMPLE), "--out", str(tmp_path / "s.jsonl")]) == 0
        assert not gc.isenabled()


class TestArgumentErrors:
    """Arguments the parser rejects end like every other failure: exit 1,
    one ``error: usage:`` line, no output file."""

    def test_unknown_flag_rejected(self, capsys):
        assert main(["encode", "x.mrg", "--frobnicate"]) == 1
        assert capsys.readouterr().err == (
            "error: usage: unrecognized arguments: --frobnicate\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["encode", "in.mrg", "--frobnicate"],
            ["decode", "in.jsonl", "--frobnicate"],
            ["roundtrip", "in.mrg", "--out", "x"],
            ["train", "--train", "in.mrg", "--frobnicate"],
            ["predict", "in.mrg", "--model", "m.json", "--frobnicate"],
            ["score", "gold.mrg", "pred.mrg", "--frobnicate"],
            ["bench", "--frobnicate"],
            ["bench", "--reps", "x"],
            ["train", "--train", "in.mrg", "--epochs", "1.5"],
            # only bench chooses among the decoder engines
            ["decode", "in.jsonl", "--engine", "rmq"],
            ["roundtrip", "in.mrg", "--engine", "rmq"],
            ["train", "--train", "in.mrg", "--engine", "rmq"],
            ["predict", "in.mrg", "--model", "m.json", "--engine", "rmq"],
            ["train", "--train", "in.mrg", "--loss", "l1"],
            ["bench", "--shape", "square"],
            ["encode"],
            ["score", "gold.mrg"],
            ["train"],
            ["predict", "in.mrg"],
            [],
            ["frobnicate"],
            # an overlong argument is quoted only at the start
            pytest.param(["train", "--loss", "x" * 3000], id="train --loss 3000x"),
            pytest.param(["train", "--epochs", "1" * 5000], id="train --epochs 5000x1"),
            pytest.param(["frobnicate" * 500], id="5000-character command"),
        ],
        ids=" ".join,
    )
    def test_rejected_arguments_are_one_usage_line(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        if argv and argv[0] in ("encode", "decode", "train", "predict", "score", "bench"):
            argv = argv + ["--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: usage: ")
        assert len(captured.err.encode()) < 250
        assert list(tmp_path.iterdir()) == []

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0

    @pytest.mark.parametrize("argv", [["--help"], ["bench", "--help"]], ids=" ".join)
    def test_help_flag(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: distparse")


# every kind a failing command may name: its own name, or another layer's
ERROR_KINDS = (
    "io", "parse", "encode", "decode", "roundtrip", "config", "train",
    "checkpoint", "predict", "score", "bench", "usage",
)
# a value that stands for JSON nested 1000 lists deep, written in after
# `json.dumps`, which cannot write it
DEEP = "\x00deep\x00"
JSON_VALUES = (
    0, -1, 1.5, 10**9, 10**30, 10**400, float("nan"), float("inf"), float("-inf"),
    "", "x", "a b", "(", "∅", "S+", None, True, False, [], {}, [1], ["a"], {"a": 1},
    DEEP,
)
# config values; every dimension that parses is tiny or too large to
# allocate (10**11 and up), never one that trains for long
CONFIG_VALUES = (
    "0", "-1", "1", "2", "0.5", "1e-3", "1e30", "nan", "inf", "-inf", "x", "",
    "true", "[4]", "4 4", "mse", "rmq", "100000000000", "4000000000000", "1" + "0" * 30,
)


def edit_bytes(rng, data: bytes) -> bytes:
    """``data`` with one to three seeded text edits: a byte dropped, a
    parenthesis, space, newline or non-UTF-8 byte put in, a cut, two spans
    swapped, or a line dropped or repeated."""
    for _ in range(int(rng.choice([1, 1, 1, 2, 3]))):
        at = int(rng.integers(len(data) + 1))
        kind = int(rng.integers(7))
        if kind == 0:
            data = data[:at] + data[at + 1 :]
        elif kind == 1:
            extra = (b"(", b")", b" ", b"\n", b"()", b"( )")[rng.integers(6)]
            data = data[:at] + extra + data[at:]
        elif kind == 2:
            data = data[:at] + (b"\xff", b"\xc3", b"\x00")[rng.integers(3)] + data[at:]
        elif kind == 3:
            data = data[:at]
        elif kind == 4:
            a, b, c = sorted(int(x) for x in rng.integers(len(data) + 1, size=3))
            data = data[:a] + data[b:c] + data[a:b] + data[c:]
        else:
            lines = data.splitlines(keepends=True) or [b""]
            at = int(rng.integers(len(lines)))
            lines[at : at + 1] = [] if kind == 5 else [lines[at]] * 2
            data = b"".join(lines)
    return data


def edit_json(rng, value):
    """A copy of ``value`` with one seeded edit somewhere inside it: a value
    replaced from :data:`JSON_VALUES`, or an entry dropped or added."""
    if not isinstance(value, (dict, list)) or not value or rng.random() < 0.15:
        return JSON_VALUES[rng.integers(len(JSON_VALUES))]
    copy = dict(value) if isinstance(value, dict) else list(value)
    keys = list(copy) if isinstance(copy, dict) else range(len(copy))
    key = keys[rng.integers(len(keys))]
    roll = rng.random()
    if roll < 0.1:
        del copy[key]
    elif roll < 0.15:
        if isinstance(copy, dict):
            copy["extra"] = 1
        else:
            copy.append(copy[key])
    else:
        copy[key] = edit_json(rng, copy[key])
    return copy


def dumps_edited(value) -> str:
    return json.dumps(value, ensure_ascii=False).replace(
        json.dumps(DEEP), "[" * 1000 + "]" * 1000
    )


def assert_trees_read_back(text: str) -> None:
    """Each line of ``text`` is one tree that re-parses, and encoding that
    tree gives a tuple that decodes to it again."""
    lines = text.splitlines()
    trees = parse_bracketed(text)
    assert len(trees) == len(lines)
    for line, tree in zip(lines, trees):
        assert serialize_bracketed(tree) == line
        assert serialize_bracketed(codec.decode_tree(codec.encode_tree(tree))) == line


class TestInputContract:
    """Seeded edits of every command's inputs, run in-process: the sample
    treebank through `encode`, `roundtrip`, `score`, `predict` and `train`;
    the sample JSONL through `decode`; a trained checkpoint through
    `predict`; `--config` files through `train`; and `bench`'s flags. Each
    run exits 0 with output that reads back, or exits 1 with one
    ``error: <kind>:`` line and no output file."""

    def run(self, capsys, argv, out, label):
        """``main(argv)``'s exit code, checked against the contract; ``out``
        is the output path, which a failing run must not leave."""
        for stale in (out, Path(f"{out}.run.json")):
            stale.unlink(missing_ok=True)
        code = main(argv)
        err = capsys.readouterr().err
        where = f"{argv[0]} on {label}"
        assert code in (0, 1), where
        assert "Traceback" not in err, where
        if code == 1:
            assert err.count("\n") == 1 and err.startswith("error: "), (where, err)
            kind = err[len("error: ") :].split(":", 1)[0]
            assert kind in ERROR_KINDS, (where, err)
            assert not out.exists(), where
        return code

    def test_seeded_edits_keep_every_command_to_its_contract(
        self, tmp_path, capsys, small_checkpoint
    ):
        rng = np.random.default_rng(1717)
        out = tmp_path / "out"
        edited = tmp_path / "edited"
        small = tmp_path / "small.cfg"
        small.write_text(SMALL_MODEL)
        exits = {}

        def count(source, code):
            exits.setdefault(source, [0, 0])[code] += 1

        treebank = SAMPLE.read_bytes()
        for case in range(100):
            text = edit_bytes(rng, treebank)
            edited.write_bytes(text)
            label = f"treebank edit {case}: {text!r}"
            to_out = ["--out", str(out)]
            commands = [
                ["encode", str(edited), *to_out],
                ["roundtrip", str(edited)],  # exits 1 on a mismatch, with no error line
                ["score", str(SAMPLE if case % 2 else edited), str(edited), "--json",
                 *to_out],
                ["predict", str(edited), "--model", str(small_checkpoint), *to_out],
            ]
            if case % 10 == 0:
                commands.append(
                    ["train", "--train", str(edited), "--dev", str(edited),
                     "--config", str(small), "--epochs", "1", *to_out]
                )
            for argv in commands:
                code = self.run(capsys, argv, out, label)
                count(f"treebank {argv[0]}", code)
                if code == 0 and argv[0] in ("encode", "predict"):
                    written = out.read_text()
                    sidecar = json.loads(Path(f"{out}.run.json").read_text())
                    assert written.count("\n") == sidecar["trees"], label
                    if argv[0] == "encode":
                        written = "".join(
                            serialize_bracketed(codec.decode_tree(tup)) + "\n"
                            for tup in map(codec.from_json_line, written.splitlines())
                        )
                    assert_trees_read_back(written)
                elif code == 0 and argv[0] == "score":
                    json.loads(out.read_text())
                elif code == 0 and argv[0] == "train":
                    training.load_checkpoint(out)

        jsonl = SAMPLE_JSONL.read_bytes()
        records = [json.loads(line) for line in jsonl.decode().splitlines()]
        for case in range(200):
            if case % 2:
                text = edit_bytes(rng, jsonl)
            else:
                at = int(rng.integers(len(records)))
                lines = [json.dumps(r, ensure_ascii=False) for r in records]
                lines[at] = dumps_edited(edit_json(rng, records[at]))
                text = "".join(line + "\n" for line in lines).encode()
            edited.write_bytes(text)
            argv = ["decode", str(edited), "--out", str(out)]
            code = self.run(capsys, argv, out, f"JSONL edit {case}: {text!r}")
            count("jsonl decode", code)
            if code == 0:
                records_read = [l for l in text.decode().splitlines() if l.strip()]
                assert out.read_text().count("\n") == len(records_read)
                assert_trees_read_back(out.read_text())

        checkpoint = json.loads(small_checkpoint.read_text())
        for case in range(100):
            text = dumps_edited(edit_json(rng, checkpoint))
            edited.write_text(text)
            argv = ["predict", str(SAMPLE), "--model", str(edited), "--out", str(out)]
            code = self.run(capsys, argv, out, f"checkpoint edit {case}")
            count("checkpoint predict", code)
            if code == 0:
                assert_trees_read_back(out.read_text())

        keys = [field.name for field in fields(TrainConfig)] + ["unknown", "= 4"]
        for case in range(30):
            key = keys[rng.integers(len(keys))]
            value = CONFIG_VALUES[rng.integers(len(CONFIG_VALUES))]
            config = SMALL_MODEL + (f"{key} = {value}\n" if case % 5 else f"{key}\n")
            edited.write_text(config)
            argv = ["train", "--train", str(SAMPLE), "--config", str(edited),
                    "--epochs", "1", "--out", str(out)]
            code = self.run(capsys, argv, out, f"config {config!r}")
            count("config train", code)
            if code == 0:
                training.load_checkpoint(out)

        bench_values = {
            "--sizes": ("2", "0", "-4", "x", "", ",", "1e3", "2,,4", " 8 "),
            "--engines": ("scan", "", "warp", " stack ", ",", "rmq,rmq"),
            "--reps": ("1", "0", "-1"),
        }
        for case in range(12):
            flags = {"--sizes": "8,16", "--engines": "scan,rmq,stack", "--reps": "2"}
            flag = list(bench_values)[case % 3]
            flags[flag] = bench_values[flag][rng.integers(len(bench_values[flag]))]
            argv = ["bench", *(part for pair in flags.items() for part in pair),
                    "--shape", bench.SHAPES[case % len(bench.SHAPES)], "--out", str(out)]
            code = self.run(capsys, argv, out, " ".join(argv[1:-2]))
            count("bench", code)
            if code == 0:
                rows = list(csv.reader(out.read_text().splitlines()))
                assert [r for r in rows if r and not r[0].startswith("#")], argv

        # the edits reach both outcomes of every command
        assert all(ok and failed for ok, failed in exits.values()), sorted(exits.items())


def readme_commands() -> list[list[str]]:
    """The arguments of every ``distparse …`` line in README.md's ``sh``
    blocks, with ``\\`` continuations joined and ``# …`` comments dropped."""
    text = README.read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["distparse"]:
                commands.append(words[1:])
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    names = {"encode", "decode", "roundtrip", "train", "predict", "score", "bench"}
    assert {argv[0] for argv in commands} == names  # every command has an example
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)  # a rejected argument raises CliError
