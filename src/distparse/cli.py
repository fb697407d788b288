"""Command-line interface.

Subcommands: encode, decode, roundtrip, train, predict, score, bench.
Every command is deterministic given its flags and seed. Run metadata
(command, version, flags, seed) is embedded in outputs that have room for
it (checkpoints, metrics logs, CSV comments) and written to a ``.run.json``
sidecar next to line-oriented outputs, which stay format-clean.

Exit codes: 0 on success, 1 on failure with a one-line
``error: <kind>: <message>`` on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import sys
import warnings
from dataclasses import asdict, fields

from . import __version__, bench, codec, model, scoring, train as training
from .binarize import binarize, debinarize
from .trees import (
    NONE_TAG,
    Tree,
    TreebankError,
    leaves,
    parse_bracketed,
    preprocess,
    serialize_bracketed,
)


class CliError(Exception):
    """Failure with a user-facing one-line message."""

    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind


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


def _run_metadata(args: argparse.Namespace, command: str) -> dict:
    skip = {"func", "out", "command"}
    flags = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in skip and value is not None and not callable(value)
    }
    return {"command": command, "version": __version__, "flags": flags}


def _write_sidecar(out: str | None, metadata: dict) -> None:
    if out is None:
        return
    _write_text(out + ".run.json", json.dumps(metadata, indent=2) + "\n")


def _load_sentences(path: str, then=preprocess) -> tuple[list, int]:
    """treebank file -> (``then(tree)`` of each tree read, count of trees
    dropped because ``then`` gave ``None``). The default keeps each tree
    cleaned by :func:`preprocess`, which empties a tree of only ``-NONE-``
    leaves. ``then`` runs on each tree as it is kept: cleaning the whole
    file first made ``encode`` about 6% slower on 10k trees."""
    try:
        trees = parse_bracketed(_read_text(path))
    except TreebankError as exc:
        raise CliError("parse", f"{path}: {exc}")
    kept = [item for item in map(then, trees) if item is not None]
    return kept, len(trees) - len(kept)


def _encode(tree: Tree) -> codec.DistanceTuple | None:
    """The tuple of the preprocessed tree, or ``None`` if nothing is left."""
    cleaned = preprocess(tree)
    return None if cleaned is None else codec.encode(binarize(cleaned))


def _words_and_tags(tree: Tree) -> tuple[tuple[str, ...], tuple[str, ...]] | None:
    """The words and tags of the preprocessed tree, read off the raw one:
    its leaves less the ``-NONE-`` ones, which :func:`preprocess` drops
    with any node they leave empty. ``None`` if no leaf is left."""
    found = [leaf for leaf in leaves(tree) if leaf.tag != NONE_TAG]
    if not found:
        return None
    return tuple([leaf.word for leaf in found]), tuple([leaf.tag for leaf in found])


def cmd_encode(args) -> int:
    tuples, skipped = _load_sentences(args.input, _encode)
    lines = "".join(codec.to_json_line(tup) + "\n" for tup in tuples)
    _write_text(args.out, lines)
    metadata = _run_metadata(args, "encode")
    metadata["trees"] = len(tuples)
    metadata["skipped_empty"] = skipped
    _write_sidecar(args.out, metadata)
    if skipped:
        print(f"warning: {skipped} trees empty after preprocessing", file=sys.stderr)
    return 0


def cmd_decode(args) -> int:
    lines = []
    for number, line in enumerate(_read_text(args.input).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            tup = codec.from_json_line(line)
            tree = debinarize(codec.decode(tup, args.engine))
        except (ValueError, TypeError) as exc:
            raise CliError("decode", f"{args.input}: line {number}: {exc}")
        lines.append(serialize_bracketed(tree) + "\n")
    _write_text(args.out, "".join(lines))
    _write_sidecar(args.out, _run_metadata(args, "decode"))
    return 0


def cmd_roundtrip(args) -> int:
    trees, _ = _load_sentences(args.input)
    mismatches = []
    for index, tree in enumerate(trees):
        reference = serialize_bracketed(tree)
        tup = codec.encode(binarize(tree))
        restored = serialize_bracketed(debinarize(codec.decode(tup, args.engine)))
        if restored != reference:
            mismatches.append((index, reference, restored))
    print(f"roundtrip: {len(trees)} trees, {len(mismatches)} mismatches")
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
        "decode_engine": args.engine,
    }
    try:
        values = {key: _CONFIG_FIELDS[key](value) for key, value in raw.items()}
        values.update((key, value) for key, value in flags.items() if value is not None)
        return training.TrainConfig(**values)
    except ValueError as exc:
        raise CliError("config", str(exc))


@contextlib.contextmanager
def _numeric_warnings_off():
    """Silences numpy's overflow warnings: training and prediction check
    their numbers and stop with one ``NonFiniteError`` line instead."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


def cmd_train(args) -> int:
    config = _train_config(args)
    train_tuples, skipped_train = _load_sentences(args.train, _encode)
    dev_tuples, skipped_dev = (
        _load_sentences(args.dev, _encode) if args.dev else ([], 0)
    )
    if not train_tuples:
        raise CliError("train", f"no usable trees in {args.train}")

    def log(message: str) -> None:
        print(message, file=sys.stderr)

    try:
        with _numeric_warnings_off():
            result = training.train(train_tuples, dev_tuples, config, log=log)
    except training.NonFiniteError as exc:
        raise CliError("train", str(exc))
    metadata = _run_metadata(args, "train")
    metadata["train_config"] = asdict(config)
    metadata["skipped_empty"] = {"train": skipped_train, "dev": skipped_dev}
    metadata["best_epoch"] = result.best_epoch
    training.save_checkpoint(args.out, result, metadata=metadata)
    if args.metrics:
        metrics_lines = [json.dumps({"run": metadata})]
        metrics_lines += [json.dumps(asdict(epoch)) for epoch in result.history]
        _write_text(args.metrics, "".join(line + "\n" for line in metrics_lines))
    best = result.history[result.best_epoch - 1] if result.history else None
    if best is not None:
        print(
            f"best epoch {result.best_epoch}: dev labeled F1 "
            f"{best.dev_labeled_f1:.2f}, unlabeled {best.dev_unlabeled_f1:.2f}"
        )
    return 0


def cmd_predict(args) -> int:
    try:
        result = training.load_checkpoint(args.model)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CliError("checkpoint", f"{args.model}: {exc}")
    sentences, _ = _load_sentences(args.input, _words_and_tags)
    try:
        with _numeric_warnings_off():
            predicted = training.predict_trees(
                result.params,
                result.model_config,
                result.vocab,
                sentences,
                engine=args.engine,
            )
    except training.NonFiniteError as exc:
        raise CliError("predict", str(exc))
    lines = [serialize_bracketed(tree) + "\n" for tree in predicted]
    _write_text(args.out, "".join(lines))
    _write_sidecar(args.out, _run_metadata(args, "predict"))
    return 0


def cmd_score(args) -> int:
    gold_trees, _ = _load_sentences(args.gold)
    pred_trees, _ = _load_sentences(args.pred)
    try:
        report = scoring.score(gold_trees, pred_trees)
    except ValueError as exc:
        raise CliError("score", str(exc))
    if args.json:
        _write_text(args.out, json.dumps(report.to_dict(), indent=2) + "\n")
    else:
        _write_text(args.out, scoring.format_report(report) + "\n")
    return 0


def cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
        engines = [e.strip() for e in args.engines.split(",") if e.strip()]
    except ValueError as exc:
        raise CliError("bench", str(exc))
    for engine in engines:
        if engine not in codec.ENGINES:
            raise CliError("bench", f"unknown engine {engine!r}")
    if args.reps < 1:
        raise CliError("bench", "--reps must be at least 1")
    seed = args.seed if args.seed is not None else 0
    try:
        rows = bench.run(
            sizes,
            engines,
            args.shape,
            repetitions=args.reps,
            seed=seed,
            interleave=True,
        )
    except (ValueError, AssertionError) as exc:
        raise CliError("bench", str(exc))
    metadata = _run_metadata(args, "bench")
    metadata["seed"] = seed
    _write_text(args.out, bench.to_csv(rows, metadata=metadata))
    for engine in engines:
        ratios = bench.doubling_ratios(rows, engine)
        if ratios:
            pretty = ", ".join(f"{size}->{ratio:.2f}" for size, ratio in ratios)
            print(f"{engine}: doubling ratios {pretty}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--engine", choices=codec.ENGINES, default="stack")
    p.add_argument("--out")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser(
        "roundtrip", help="verify encode->decode reproduces a treebank file"
    )
    p.add_argument("input")
    p.add_argument("--engine", choices=codec.ENGINES, default="stack")
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
    p.add_argument("--engine", choices=codec.ENGINES)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="parse sentences from a treebank file")
    p.add_argument("input", help="treebank file supplying words and tags")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--engine", choices=codec.ENGINES, default="stack")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    gc_was_enabled = gc.isenabled()
    # distparse builds no reference cycles, so rescanning its many tree
    # objects only costs time; reference counting still frees them
    gc.disable()
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TreebankError, ValueError) as exc:
        print(f"error: invalid-input: {exc}", file=sys.stderr)
        return 1
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
