"""The benchmark's workloads: generated inputs, timed CLI commands, checks.

Every input is generated from the workload seed by ``pcfg.generate_trees``
and written with ``trees.serialize_bracketed``; the program only ever
receives those files. The timed path is ``cli.main`` alone, run in this
process as a closed loop: each command starts when the previous one has
returned. Checks read the outputs afterwards, outside the timed window, and
count failed sentences instead of stopping the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from distparse import cli, codec, pcfg, trees
from distparse import train as training

# pcfg.generate_trees(2200, seed=12345) is the criterion-7 corpus; its
# first 2000 trees train and the last 200 are the dev set.
CORPUS_SIZE = 2200
TRAIN_SIZE = 2000
# One epoch per train command keeps a command near 10 s on a 2-core box;
# the rest of TrainConfig stays at its defaults (rank loss, stack engine).
EPOCHS = 1
# The parse checkpoint is trained in set-up, which runs three times a run.
CHECKPOINT_SIZE = 1000
TREEBANK_SIZE = 10_000
# share of treebank trees given function tags and an empty element
PENN_SHARE = 0.3
EMPTY_ELEMENTS = ("*", "*T*-1", "0", "*U*")
WARMUP_SIZE = 50


@dataclass
class Check:
    """What one timed pass got right: failed sentences, output quality."""

    failed: int
    quality: dict[str, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One ``distparse`` command in this process: exit code and everything
    it printed."""
    output = io.StringIO()
    with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash fails the command's sentences; the run goes on
            code = -1
            traceback.print_exc()
    return code, output.getvalue()


def _write_trees(path: Path, items, wrap: bool = False) -> Path:
    lines = (trees.serialize_bracketed(tree) for tree in items)
    if wrap:  # the outer unlabeled bracket of Penn treebank files
        lines = (f"( {line} )" for line in lines)
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def _words(tree) -> tuple[str, ...]:
    return tuple(leaf.word for leaf in trees.leaves(tree))


def _quality(score_json: Path) -> dict[str, float]:
    report = json.loads(score_json.read_text())
    return {
        "labeled_f1": report["labeled"]["f1"],
        "unlabeled_f1": report["unlabeled"]["f1"],
    }


def _must_succeed(argv: list[str]) -> None:
    code, output = run_cli(argv)
    if code != 0:
        raise RuntimeError(f"set-up command {argv[0]} exited {code}: {output.strip()}")


class Workload:
    """Set-up writes the inputs; ``commands`` is one timed pass over them."""

    name = ""

    def __init__(self, work: Path):
        self.work = work
        self.inputs: list[Path] = []
        self.commands: list[list[str]] = []
        self.sentences = 0
        self.words = 0

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def check(self, codes: list[int]) -> Check:
        raise NotImplementedError

    def run_pass(self, tracer=None) -> tuple[list[int], list[str]]:
        """Run the commands once: exit codes, and what each command
        printed. With a tracer, each command is a span and the calls into
        the package are traced."""
        codes = []
        outputs = []
        for argv in self.commands:
            if tracer is None:
                code, output = run_cli(argv)
            else:
                with tracer.installed(), tracer.command(self.sentences):
                    code, output = run_cli(argv)
            codes.append(code)
            outputs.append(output)
        return codes, outputs

    def input_hashes(self) -> dict[str, str]:
        return {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in self.inputs
        }

    def _path(self, name: str) -> str:
        return str(self.work / name)


class TrainWorkload(Workload):
    """``distparse train`` on the criterion-7 2000/200 split: the model's
    forward and backward passes, the losses and Adam do nearly all the work."""

    name = "train"

    def setup(self, seed: int) -> None:
        corpus = pcfg.generate_trees(CORPUS_SIZE, seed=seed)
        train_file = _write_trees(self.work / "train.mrg", corpus[:TRAIN_SIZE])
        dev_file = _write_trees(self.work / "dev.mrg", corpus[TRAIN_SIZE:])
        self.inputs = [train_file, dev_file]
        self.sentences = TRAIN_SIZE * EPOCHS
        self.words = EPOCHS * sum(len(_words(t)) for t in corpus[:TRAIN_SIZE])
        self.commands = [[
            "train", "--train", str(train_file), "--dev", str(dev_file),
            "--out", self._path("model.json"),
            "--metrics", self._path("metrics.jsonl"),
            "--epochs", str(EPOCHS),
        ]]
        warm_train = _write_trees(self.work / "warm-train.mrg", corpus[:WARMUP_SIZE])
        warm_dev = _write_trees(self.work / "warm-dev.mrg", corpus[-WARMUP_SIZE:])
        _must_succeed([
            "train", "--train", str(warm_train), "--dev", str(warm_dev),
            "--out", self._path("warm-model.json"), "--epochs", "1",
        ])

    def check(self, codes: list[int]) -> Check:
        """Every epoch's loss is finite and the checkpoint loads."""
        if codes != [0]:
            return Check(self.sentences, errors=[f"train exited {codes[0]}"])
        errors = []
        lines = Path(self._path("metrics.jsonl")).read_text().splitlines()
        run = json.loads(lines[0])["run"]
        epochs = [json.loads(line) for line in lines[1:]]
        if len(epochs) != EPOCHS:
            errors.append(f"{len(epochs)} epochs logged, expected {EPOCHS}")
        for epoch in epochs:
            losses = (epoch["distance_loss"], epoch["label_loss"], epoch["total_loss"])
            if not all(math.isfinite(value) for value in losses):
                errors.append(f"non-finite loss in epoch {epoch['epoch']}")
        try:
            training.load_checkpoint(self._path("model.json"))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            errors.append(f"checkpoint does not load: {exc}")
        if errors:
            return Check(self.sentences, errors=errors)
        best = epochs[run["best_epoch"] - 1]
        quality = {
            "labeled_f1": best["dev_labeled_f1"],
            "unlabeled_f1": best["dev_unlabeled_f1"],
        }
        return Check(0, quality)


class ParseWorkload(Workload):
    """``distparse predict`` over the criterion-7 corpus with a checkpoint
    set-up trains: the forward-only read side of the model."""

    name = "parse"

    def setup(self, seed: int) -> None:
        corpus = pcfg.generate_trees(CORPUS_SIZE, seed=seed)
        corpus_file = _write_trees(self.work / "corpus.mrg", corpus)
        fit_file = _write_trees(self.work / "fit.mrg", corpus[:CHECKPOINT_SIZE])
        dev_file = _write_trees(self.work / "dev.mrg", corpus[TRAIN_SIZE:])
        model_file = self.work / "model.json"
        _must_succeed([
            "train", "--train", str(fit_file), "--dev", str(dev_file),
            "--out", str(model_file), "--epochs", str(EPOCHS),
        ])
        self.inputs = [corpus_file, fit_file, dev_file, model_file]
        self.gold_words = [_words(t) for t in corpus]
        self.sentences = len(corpus)
        self.words = sum(len(words) for words in self.gold_words)
        self.commands = [[
            "predict", str(corpus_file), "--model", str(model_file),
            "--out", self._path("predicted.mrg"),
        ]]
        self._scored: tuple[str, dict[str, float]] | None = None
        warm_file = _write_trees(self.work / "warm.mrg", corpus[:WARMUP_SIZE])
        _must_succeed([
            "predict", str(warm_file), "--model", str(model_file),
            "--out", self._path("warm-predicted.mrg"),
        ])

    def check(self, codes: list[int]) -> Check:
        """One tree per input sentence, its leaves the input words; F1 of
        the predictions against gold."""
        if codes != [0]:
            return Check(self.sentences, errors=[f"predict exited {codes[0]}"])
        text = Path(self._path("predicted.mrg")).read_text(encoding="utf-8")
        try:
            predicted = trees.parse_bracketed(text)
        except trees.TreebankError as exc:
            return Check(self.sentences, errors=[f"unreadable prediction: {exc}"])
        failed = abs(len(predicted) - len(self.gold_words)) + sum(
            _words(tree) != words for tree, words in zip(predicted, self.gold_words)
        )
        if failed:
            return Check(failed, errors=[f"{failed} predictions with wrong leaves"])
        if self._scored is None or self._scored[0] != text:
            score_json = Path(self._path("score.json"))
            code, output = run_cli([
                "score", self.commands[0][1], self._path("predicted.mrg"),
                "--json", "--out", str(score_json),
            ])
            if code != 0:
                return Check(self.sentences, errors=[f"score failed: {output.strip()}"])
            self._scored = (text, _quality(score_json))
        return Check(0, self._scored[1])


def penn_style(tree, rng: np.random.Generator) -> None:
    """Give a tree, in place, what Penn files carry and preprocessing
    strips: function tags on the subject NP and on PPs, and an NP that holds
    only an empty element (a ``-NONE-`` leaf) inside a VP."""
    verb_phrases = []
    work = [tree]
    while work:
        node = work.pop()
        if isinstance(node, trees.Leaf):
            continue
        first = node.children[0]
        if node.label == "S" and isinstance(first, trees.NaryTree) and first.label == "NP":
            first.label = "NP-SBJ"
        elif node.label == "PP":
            node.label = "PP-LOC"
        elif node.label == "VP":
            verb_phrases.append(node)
        work.extend(node.children)
    host = verb_phrases[rng.integers(len(verb_phrases))] if verb_phrases else tree
    leaf = trees.Leaf(EMPTY_ELEMENTS[rng.integers(len(EMPTY_ELEMENTS))], "-NONE-")
    host.children.insert(int(rng.integers(len(host.children) + 1)), trees.NaryTree("NP", [leaf]))


class TreebankWorkload(Workload):
    """``distparse encode``, ``decode`` and ``score`` on a Penn-style file:
    no model, so tree handling, the codec and scoring do all the work."""

    name = "treebank"

    def setup(self, seed: int) -> None:
        corpus = pcfg.generate_trees(TREEBANK_SIZE, seed=seed)
        self.sentences = len(corpus)
        self.words = sum(len(_words(t)) for t in corpus)
        rng = np.random.default_rng([seed, 1])
        for tree in corpus:
            if rng.random() < PENN_SHARE:
                penn_style(tree, rng)
        gold_file = _write_trees(self.work / "gold.mrg", corpus, wrap=True)
        self.expected = "".join(
            trees.serialize_bracketed(trees.preprocess(tree)) + "\n" for tree in corpus
        )
        self.inputs = [gold_file]
        self.commands = self._commands("gold.mrg", "tuples.jsonl", "decoded.mrg", "score.json")
        warm_file = _write_trees(self.work / "warm.mrg", corpus[:WARMUP_SIZE], wrap=True)
        for argv in self._commands(warm_file.name, "warm.jsonl", "warm-decoded.mrg", "warm-score.json"):
            _must_succeed(argv)

    def _commands(self, gold: str, tuples: str, decoded: str, score: str) -> list[list[str]]:
        gold, tuples, decoded, score = map(self._path, (gold, tuples, decoded, score))
        return [
            ["encode", gold, "--out", tuples],
            ["decode", tuples, "--out", decoded],
            ["score", gold, decoded, "--json", "--out", score],
        ]

    def check(self, codes: list[int]) -> Check:
        """The decoded file is byte-identical to the preprocessed gold, and
        F1 is 100."""
        if any(codes):
            return Check(self.sentences, errors=[f"exit codes {codes}"])
        got = Path(self._path("decoded.mrg")).read_text(encoding="utf-8").splitlines()
        want = self.expected.splitlines()
        failed = abs(len(got) - len(want)) + sum(a != b for a, b in zip(got, want))
        quality = _quality(Path(self._path("score.json")))
        errors = [f"{failed} decoded trees differ from gold"] if failed else []
        if quality != {"labeled_f1": 100.0, "unlabeled_f1": 100.0}:
            errors.append(f"F1 is not 100: {quality}")
            failed = self.sentences
        return Check(failed, quality, errors)

    def engine_sweep(self, tracer) -> tuple[int, int]:
        """Decode every tuple with each engine under the tracer; return the
        tuples tried and the ones on which the engines disagree."""
        lines = Path(self._path("tuples.jsonl")).read_text(encoding="utf-8").splitlines()
        tuples = [codec.from_json_line(line) for line in lines]
        tracer.restart_sentences()
        with tracer.installed():
            decoded = [[codec.decode(tup, engine) for engine in codec.ENGINES] for tup in tuples]
        disagree = sum(
            not all(codec.binary_trees_equal(found[0], other) for other in found[1:])
            for found in decoded
        )
        return len(tuples), disagree


WORKLOADS = {w.name: w for w in (TrainWorkload, ParseWorkload, TreebankWorkload)}
