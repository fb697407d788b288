"""Command-line interface.

Subcommands: encode, decode, roundtrip, train, predict, score, bench.
Every command is deterministic given its flags and seed. Run metadata
(command, version, flags, seed) is embedded in outputs that have room for
it (checkpoints, metrics logs, CSV comments). encode, decode and predict
keep their lines format-clean: one writer puts the metadata and counts in
a ``.run.json`` sidecar beside ``--out``. A failed command leaves no file.

Exit codes: 0 on success, 1 on failure with a one-line
``error: <kind>: <message>`` on stderr, the kind naming the failing command
or the layer that failed: ``io``, ``parse`` (a treebank file), ``config``,
``checkpoint`` or ``usage`` (arguments the parser rejects).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from . import __version__, bench, codec, model, scoring, train as training
from .binarize import LabelError
from .codec import encode_tree
from .trees import TreebankError, read_sentences, read_treebank, serialize_bracketed


class CliError(Exception):
    """Failure of a layer other than the command itself, named by ``kind``;
    :func:`main` names a command's own ``ValueError`` after the command."""

    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise CliError("io", f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise CliError("io", f"cannot read {path}: invalid UTF-8 at byte {exc.start}")


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise CliError("io", f"cannot write {path}: {exc.strerror}")


def _check_writable(path: str) -> None:
    """Fail now, not after the work that would fill it, if ``path`` cannot
    be written; an existing file is left as it is, a new one removed."""
    existed = os.path.exists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise CliError("io", f"cannot write {path}: {exc.strerror}")
    if not existed:
        os.remove(path)


def _run_metadata(args: argparse.Namespace) -> dict:
    skip = {"func", "out", "command"}
    flags = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in skip and value is not None
    }
    return {"command": args.command, "version": __version__, "flags": flags}


def _write_output(args, text: str, **counts) -> None:
    """``text`` to ``--out``, or stdout without it; beside a file, a
    ``.run.json`` sidecar of the run metadata then ``counts``, checked before
    either is written. A ``skipped_empty`` count is also a stderr warning."""
    if args.out is None:
        sys.stdout.write(text)
    else:
        sidecar = args.out + ".run.json"
        _check_writable(sidecar)
        _write_text(args.out, text)
        metadata = {**_run_metadata(args), **counts}
        _write_text(sidecar, json.dumps(metadata, indent=2) + "\n")
    if skipped := counts.get("skipped_empty"):
        print(f"warning: {skipped} trees empty after preprocessing", file=sys.stderr)


def _load_sentences(path: str, then=None, read=read_treebank) -> tuple[list, int]:
    """treebank file -> (what ``read`` gives of each tree, by default the
    tree preprocessed by :func:`~distparse.trees.read_treebank`, or
    ``then`` of that; count of trees preprocessing emptied, which ``read``
    gives as ``None`` and are dropped). A label ``then`` rejects fails as
    ``<path>: tree N: …``, counting every tree read from 1."""
    try:
        trees = read(_read_text(path))
    except TreebankError as exc:
        raise CliError("parse", f"{path}: {exc}")
    kept = []
    for number, tree in enumerate(trees, start=1):
        if tree is not None:
            try:
                kept.append(tree if then is None else then(tree))
            except LabelError as exc:
                raise ValueError(f"{path}: tree {number}: {exc}")
    return kept, len(trees) - len(kept)


def cmd_encode(args) -> int:
    tuples, skipped = _load_sentences(args.input, encode_tree)
    lines = "".join(codec.to_json_line(tup) + "\n" for tup in tuples)
    _write_output(args, lines, trees=len(tuples), skipped_empty=skipped)
    return 0


def cmd_decode(args) -> int:
    lines = []
    for number, line in enumerate(_read_text(args.input).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            tup = codec.from_json_line(line)
            tree = codec.decode_tree(tup)
        except ValueError as exc:
            raise ValueError(f"{args.input}: line {number}: {exc}")
        lines.append(serialize_bracketed(tree) + "\n")
    _write_output(args, "".join(lines))
    return 0


def cmd_roundtrip(args) -> int:
    pairs, _ = _load_sentences(args.input, lambda tree: (tree, encode_tree(tree)))
    mismatches = []
    for index, (tree, tup) in enumerate(pairs):
        reference = serialize_bracketed(tree)
        restored = serialize_bracketed(codec.decode_tree(tup))
        if restored != reference:
            mismatches.append((index, reference, restored))
    print(f"roundtrip: {len(pairs)} trees, {len(mismatches)} mismatches")
    for index, reference, restored in mismatches:
        print(f"sentence {index}:\n  gold: {reference}\n  got:  {restored}")
    return 1 if mismatches else 0


def _parse_config_file(path: str) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment."""
    values = {}
    for number, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError("config", f"{path}: line {number}: expected key = value")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


# config file key -> the type its value is parsed as
_CONFIG_FIELDS = {
    field.name: type(field.default) for field in fields(training.TrainConfig)
}


def _train_config(args) -> training.TrainConfig:
    """The config file's values, then the flags' on top of them."""
    raw = _parse_config_file(args.config) if args.config else {}
    unknown = set(raw) - set(_CONFIG_FIELDS)
    if unknown:
        raise CliError("config", f"unknown keys: {', '.join(sorted(unknown))}")
    flags = {
        "epochs": args.epochs,
        "seed": args.seed,
        "distance_loss": args.loss,
    }
    try:
        values = {key: _CONFIG_FIELDS[key](value) for key, value in raw.items()}
        values.update((key, value) for key, value in flags.items() if value is not None)
        return training.TrainConfig(**values)
    except ValueError as exc:
        raise CliError("config", str(exc))


def cmd_train(args) -> int:
    if args.metrics and os.path.realpath(args.metrics) == os.path.realpath(args.out):
        raise ValueError(f"--out and --metrics name the same file {args.out}")
    config = _train_config(args)
    train_tuples, skipped_train = _load_sentences(args.train, encode_tree)
    dev_tuples, skipped_dev = (
        _load_sentences(args.dev, encode_tree) if args.dev else ([], 0)
    )
    if not train_tuples:
        raise ValueError(f"no usable trees in {args.train}")
    if args.dev and not dev_tuples:
        raise ValueError(f"no usable trees in {args.dev}")

    def log(message: str) -> None:
        print(message, file=sys.stderr)

    for path in (args.out, args.metrics):
        if path:
            _check_writable(path)
    result = training.train(train_tuples, dev_tuples, config, log=log)
    metadata = _run_metadata(args)
    metadata["train_config"] = asdict(config)
    metadata["skipped_empty"] = {"train": skipped_train, "dev": skipped_dev}
    metadata["best_epoch"] = result.best_epoch
    try:
        training.save_checkpoint(args.out, result, metadata=metadata)
    except OSError as exc:
        raise CliError("io", f"cannot write {args.out}: {exc.strerror}")
    if args.metrics:
        metrics_lines = [json.dumps({"run": metadata})]
        metrics_lines += [json.dumps(asdict(epoch)) for epoch in result.history]
        try:
            _write_text(args.metrics, "".join(line + "\n" for line in metrics_lines))
        except CliError:
            os.remove(args.out)  # a failed run leaves no checkpoint behind
            raise
    if dev_tuples:
        best = result.history[result.best_epoch - 1]
        print(
            f"best epoch {result.best_epoch}: dev labeled F1 "
            f"{best.dev_labeled_f1:.2f}, unlabeled {best.dev_unlabeled_f1:.2f}"
        )
    else:
        print(f"kept the last epoch, {result.best_epoch} (no dev set)")
    return 0


def cmd_predict(args) -> int:
    try:
        result = training.load_checkpoint(args.model)
    except (OSError, ValueError) as exc:
        raise CliError("checkpoint", f"{args.model}: {exc}")
    sentences, skipped = _load_sentences(args.input, read=read_sentences)
    predicted = training.predict_trees(
        result.params, result.model_config, result.vocab, sentences
    )
    lines = [serialize_bracketed(tree) + "\n" for tree in predicted]
    _write_output(args, "".join(lines), trees=len(sentences), skipped_empty=skipped)
    return 0


def cmd_score(args) -> int:
    gold_trees, _ = _load_sentences(args.gold)
    pred_trees, _ = _load_sentences(args.pred)
    report = scoring.score(gold_trees, pred_trees)
    if args.json:
        _write_text(args.out, json.dumps(report.to_dict(), indent=2) + "\n")
    else:
        _write_text(args.out, scoring.format_report(report) + "\n")
    return 0


def cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s]
    engines = [e.strip() for e in args.engines.split(",") if e.strip()]
    if not sizes:
        raise ValueError("--sizes names no size")
    if not engines:
        raise ValueError("--engines names no engine")
    if args.reps < 1:
        raise ValueError("--reps must be at least 1")
    seed = args.seed if args.seed is not None else 0
    rows = bench.run(
        sizes, engines, args.shape, repetitions=args.reps, seed=seed, interleave=True
    )
    metadata = _run_metadata(args)
    metadata["seed"] = seed
    _write_text(args.out, bench.to_csv(rows, metadata=metadata))
    for engine in engines:
        ratios = bench.doubling_ratios(rows, engine)
        if ratios:
            pretty = ", ".join(f"{size}->{ratio:.2f}" for size, ratio in ratios)
            print(f"{engine}: doubling ratios {pretty}", file=sys.stderr)
    return 0


class _Parser(argparse.ArgumentParser):
    """Rejected arguments end in one ``error: usage:`` line and exit 1, like
    every other failure; the subcommand parsers are of this class too."""

    def error(self, message: str):
        raise CliError("usage", message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="distparse",
        description="Constituency parsing via per-split scores.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="treebank file -> score tuples (JSONL)")
    p.add_argument("input")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="score tuples (JSONL) -> treebank file")
    p.add_argument("input")
    p.add_argument("--out")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser(
        "roundtrip", help="verify encode->decode reproduces a treebank file"
    )
    p.add_argument("input")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("train", help="train a score model on treebank files")
    p.add_argument("--train", required=True, help="training treebank file")
    p.add_argument("--dev", help="development treebank file")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--metrics", help="per-epoch metrics JSONL path")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--loss", choices=model.LOSS_KINDS)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="parse sentences from a treebank file")
    p.add_argument("input", help="treebank file supplying words and tags")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--out")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("score", help="bracket scores for predicted trees")
    p.add_argument("gold")
    p.add_argument("pred")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("bench", help="time the decoder engines")
    p.add_argument("--sizes", default="1000,2000,4000")
    p.add_argument("--engines", default=",".join(codec.ENGINES))
    p.add_argument("--shape", choices=bench.SHAPES, default="left-chain")
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    gc_was_enabled = gc.isenabled()
    # distparse builds no reference cycles, so rescanning its many tree
    # objects only costs time; reference counting still frees them
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        # overflow ends in NonFiniteError; numpy's warnings would repeat it
        with np.errstate(all="ignore"):
            return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # the command's own failure, named after it
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 1
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
