import gc
import json
import warnings
from dataclasses import asdict, fields, replace
from pathlib import Path

import pytest

from distparse import cli, pcfg
from distparse.cli import main
from distparse.train import EpochMetrics, TrainConfig
from distparse.trees import (
    leaves,
    parse_bracketed,
    preprocess,
    serialize_bracketed,
)
from helpers import MALFORMED_TREEBANKS, write_treebank

SAMPLE = Path(__file__).resolve().parent.parent / "data" / "sample_treebank.mrg"
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

    def test_engines_produce_identical_files(self, tmp_path, mini_treebank):
        jsonl = tmp_path / "mini.jsonl"
        assert main(["encode", str(mini_treebank), "--out", str(jsonl)]) == 0
        outputs = []
        for engine in ("scan", "rmq", "stack"):
            out = tmp_path / f"out.{engine}.mrg"
            assert main(["decode", str(jsonl), "--engine", engine, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

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
        assert main(["predict", str(src), "--model", str(ckpt), "--out", str(pred)]) == 0
        predicted = parse_bracketed(pred.read_text())
        assert [[leaf.word for leaf in leaves(t)] for t in predicted] == [
            ["dog"],
            ["cat", "sees"],
        ]

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

    @pytest.mark.parametrize("command", ["encode", "decode", "predict", "score", "train"])
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

    def test_unknown_config_key_rejected(self, tmp_path, mini_treebank, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("learnign_rate = 0.1\n")
        assert main(
            [
                "train",
                "--train", str(mini_treebank),
                "--config", str(config),
                "--out", str(tmp_path / "m.json"),
            ]
        ) == 1
        assert "unknown keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "lines, flags",
        [
            ("epochs = 0\n", []),
            ("epochs = -2\n", []),
            ("", ["--epochs", "0"]),
            ("distance_loss = foo\n", []),
            ("decode_engine = foo\n", []),
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
        assert err.startswith(f"error: config: {message}") and err.count("\n") == 1
        assert not ckpt.exists()

    def test_config_file_may_set_every_train_config_field(
        self, tmp_path, mini_treebank
    ):
        config = tmp_path / "all.cfg"
        config.write_text(
            "".join(f"{key} = {value}\n" for key, value in asdict(TrainConfig()).items())
        )
        ckpt = tmp_path / "model.json"
        flags = ["--epochs", "1", "--seed", "3", "--loss", "mse", "--engine", "rmq"]
        argv = ["train", "--train", str(mini_treebank), "--config", str(config)]
        assert main(argv + flags + ["--out", str(ckpt)]) == 0
        recorded = json.loads(ckpt.read_text())["metadata"]["train_config"]
        expected = replace(
            TrainConfig(), epochs=1, seed=3, distance_loss="mse", decode_engine="rmq"
        )
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
        # a leaf mismatch in any sentence wins over a label binarize
        # rejects; a bad gold label wins over a bad predicted one
        gold = tmp_path / "gold.mrg"
        pred = tmp_path / "pred.mrg"
        gold.write_text("(S+X (NN a) (NN b))\n(S (NN c))\n")
        pred.write_text("(S (∅ (NN a)) (NN b))\n(S (NN OTHER))\n")
        assert main(["score", str(gold), str(pred)]) == 1
        assert capsys.readouterr().err == "error: score: leaf mismatch in sentence 1\n"

        pred.write_text("(S (∅ (NN a)) (NN b))\n(S (NN c))\n")
        assert main(["score", str(gold), str(pred)]) == 1
        assert capsys.readouterr().err == (
            "error: score: label 'S+X' contains the chain separator '+'\n"
        )

        gold.write_text("(S (NN a) (NN b))\n(S (NN c))\n")
        assert main(["score", str(gold), str(pred), "--json"]) == 1
        assert capsys.readouterr().err == (
            "error: score: label '∅' collides with the empty-label marker\n"
        )

    def test_bad_checkpoint_fails_cleanly(self, tmp_path, mini_treebank, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}")
        assert main(
            ["predict", str(mini_treebank), "--model", str(bogus)]
        ) == 1
        assert capsys.readouterr().err.startswith("error: checkpoint:")

    def _broken_checkpoint(self, tmp_path, mini_treebank, damage):
        ckpt = tmp_path / "model.json"
        assert main(
            ["train", "--train", str(mini_treebank), "--epochs", "1", "--out", str(ckpt)]
        ) == 0
        payload = json.loads(ckpt.read_text())
        damage(payload["params"])
        ckpt.write_text(json.dumps(payload))
        return ckpt

    def _assert_checkpoint_error(self, capsys, mini_treebank, ckpt, tmp_path):
        capsys.readouterr()
        out = tmp_path / "pred.mrg"
        assert main(
            ["predict", str(mini_treebank), "--model", str(ckpt), "--out", str(out)]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint:")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_truncated_embedding_checkpoint_fails_cleanly(
        self, tmp_path, mini_treebank, capsys
    ):
        def cut(params):
            params["embed_word"] = params["embed_word"][:3]

        ckpt = self._broken_checkpoint(tmp_path, mini_treebank, cut)
        self._assert_checkpoint_error(capsys, mini_treebank, ckpt, tmp_path)

    def test_non_finite_checkpoint_fails_cleanly(self, tmp_path, mini_treebank, capsys):
        def poison(params):
            params["lstm_word_fwd_Wh"][0][0] = float("nan")

        ckpt = self._broken_checkpoint(tmp_path, mini_treebank, poison)
        self._assert_checkpoint_error(capsys, mini_treebank, ckpt, tmp_path)


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

    def test_overflowing_model_output_fails_cleanly(self, tmp_path, mini_treebank, capsys):
        def overflow(params):
            # every hidden unit saturates at 1 and the score head sums 1e308s
            params["dist_head_W1"] = [[0.0] * len(row) for row in params["dist_head_W1"]]
            params["dist_head_b1"] = [1e3] * len(params["dist_head_b1"])
            params["dist_head_W2"] = [[1e308] for _ in params["dist_head_W2"]]

        ckpt = self._broken_checkpoint(tmp_path, mini_treebank, overflow)
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

    def test_too_small_size_rejected(self, capsys):
        assert main(["bench", "--sizes", "1"]) == 1

    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_fewer_than_one_repetition_rejected(self, capsys, reps):
        assert main(["bench", "--sizes", "10", "--reps", reps]) == 1
        assert capsys.readouterr().err == "error: bench: --reps must be at least 1\n"


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
    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as info:
            main(["encode", "x.mrg", "--frobnicate"])
        assert info.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
