"""Spans around the calls into each distparse module, for the traced run.

The tracer replaces public functions of the package with timing wrappers
for the length of a ``with tracer.installed():`` block, wherever a module
of the package holds a reference to them (``from x import y`` bindings
included), so the CLI runs unchanged while every call into a layer opens a
span. Spans are kept in memory and written once, by :meth:`Tracer.write`.

A span is ``[name, start_ns, end_ns, parent, sentence, items]``:

- ``parent`` is the index of the enclosing span, -1 at the top;
- ``sentence`` is the ordinal of the sentence in the order the enclosing
  command handles it, for functions that take one sentence (nested
  sentence-level spans inherit it); ``None`` for file-level functions;
- ``items`` is the number of sentences the call handled.

Self time is a span's duration minus the time its direct children cover.
A recursive call of the function already open (``trees.preprocess`` walks
its tree by recursion) stays inside the outer span instead of opening one.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

CLI = "cli.main"

# The layers are the package's modules; shares are reported per layer.
LAYERS = ("trees", "binarize", "codec", "model", "losses", "train", "scoring", "cli")


def _decode_name(args, kwargs) -> str:
    engine = args[1] if len(args) > 1 else kwargs.get("engine", "stack")
    return f"codec.decode.{engine}"


def _train_items(args, kwargs, result) -> int:
    config = args[2] if len(args) > 2 else kwargs["config"]
    return len(args[0]) * config.epochs


# (module, attribute, per-sentence?, span name, items of a file-level call)
TARGETS = (
    ("trees", "parse_bracketed", False, None, lambda a, k, r: len(r)),
    ("trees", "preprocess", True, None, None),
    ("trees", "serialize_bracketed", True, None, None),
    ("binarize", "binarize", True, None, None),
    ("binarize", "debinarize", True, None, None),
    ("codec", "encode", True, None, None),
    ("codec", "decode", True, _decode_name, None),
    ("codec", "to_json_line", True, None, None),
    ("codec", "from_json_line", True, None, None),
    ("model", "forward", True, None, None),
    ("model", "backward", True, None, None),
    ("model", "sentence_loss", True, None, None),
    ("losses", "rank_loss", True, None, None),
    ("losses", "label_loss", True, None, None),
    ("train", "train", False, None, _train_items),
    ("train", "Adam.step", True, None, None),
    ("train", "predict_tree", True, None, None),
    ("train", "save_checkpoint", False, None, lambda a, k, r: 1),
    ("train", "load_checkpoint", False, None, lambda a, k, r: 1),
    ("scoring", "score", False, None, lambda a, k, r: len(a[0])),
)

ENGINES = ("stack", "rmq", "scan")
# checkpoint IO is reported per call, in ms; everything else per sentence, in µs
PER_CALL_MS = ("train.save_checkpoint", "train.load_checkpoint")


def span_names() -> list[str]:
    names = []
    for module, attribute, _, _, _ in TARGETS:
        if attribute == "decode":
            names.extend(f"codec.decode.{engine}" for engine in ENGINES)
        else:
            names.append(f"{module}.{attribute}")
    names.append(CLI)
    return names


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._ordinals: dict[str, int] = {}

    def _begin(self, name: str, per_sentence: bool) -> list:
        spans, open_ = self.spans, self._open
        parent = open_[-1] if open_ else -1
        sentence = None
        if per_sentence:
            sentence = spans[parent][4] if parent >= 0 else None
            if sentence is None:
                sentence = self._ordinals.get(name, 0)
                self._ordinals[name] = sentence + 1
        span = [name, time.perf_counter_ns(), 0, parent, sentence, 1]
        open_.append(len(spans))
        spans.append(span)
        return span

    def _end(self, span: list) -> None:
        span[2] = time.perf_counter_ns()
        self._open.pop()

    def restart_sentences(self) -> None:
        """Number the sentences of the next pass from 0 again."""
        self._ordinals.clear()

    @contextmanager
    def command(self, sentences: int):
        """The span of one CLI command; sentence ordinals restart in it."""
        self.restart_sentences()
        span = self._begin(CLI, per_sentence=False)
        span[5] = sentences
        try:
            yield
        finally:
            self._end(span)

    def _wrap(self, fn, name, per_sentence, name_of, items_of):
        tracer = self
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name_of(args, kwargs) if name_of else name
            if open_ and spans[open_[-1]][0] == span_name:
                return fn(*args, **kwargs)
            span = tracer._begin(span_name, per_sentence)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(span)
            if items_of is not None:
                span[5] = items_of(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Route every reference the package holds to a traced function
        through its wrapper; restore the originals on exit."""
        modules = [
            module
            for key, module in sorted(sys.modules.items())
            if key == "distparse" or key.startswith("distparse.")
        ]
        patched = []
        for module_name, attribute, per_sentence, name_of, items_of in TARGETS:
            name = f"{module_name}.{attribute}"
            owner = sys.modules[f"distparse.{module_name}"]
            owners = modules
            if "." in attribute:
                class_name, attribute = attribute.split(".")
                owner = vars(owner).get(class_name)
                owners = [owner]
            original = vars(owner).get(attribute) if owner is not None else None
            if original is None:  # gone from the package: its metrics read 0
                continue
            wrapper = self._wrap(original, name, per_sentence, name_of, items_of)
            for holder in owners:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        patched.append((holder, key, original))
        try:
            yield self
        finally:
            for holder, key, original in reversed(patched):
                setattr(holder, key, original)

    def self_times(self) -> list[int]:
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        return [
            (end - start) - child
            for (_, start, end, _, _, _), child in zip(self.spans, child_ns)
        ]

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Self time per sentence and call count of every traced function,
        and each layer's share of the time inside CLI commands."""
        self_ns = self.self_times()
        totals: dict[str, list[int]] = {name: [0, 0, 0] for name in span_names()}
        roots: list[int] = []
        layer_ns = dict.fromkeys(LAYERS, 0)
        command_ns = 0
        for index, (name, start, end, parent, _, items) in enumerate(self.spans):
            root = index if parent < 0 else roots[parent]
            roots.append(root)
            entry = totals[name]
            entry[0] += self_ns[index]
            entry[1] += 1
            entry[2] += items
            if self.spans[root][0] == CLI:
                layer_ns[name.split(".")[0]] += self_ns[index]
                if index == root:
                    command_ns += end - start
        metrics: dict[str, tuple[float, str]] = {}
        for name, (ns, calls, items) in totals.items():
            if name in PER_CALL_MS:
                metrics[f"{name}.ms"] = (ns / 1e6 / calls if calls else 0.0, "ms")
            else:
                metrics[f"{name}.us"] = (ns / 1e3 / items if items else 0.0, "us")
            metrics[f"{name}.calls"] = (calls, "count")
        for layer, ns in layer_ns.items():
            metrics[f"{layer}.share"] = (ns / command_ns if command_ns else 0.0, "ratio")
        return metrics

    def write(self, path: Path) -> None:
        """All spans, once, with times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0
        payload = {
            "fields": ["name", "start_ns", "end_ns", "parent", "sentence", "items"],
            "spans": [
                [name, start - origin, end - origin, parent, sentence, items]
                for name, start, end, parent, sentence, items in self.spans
            ],
        }
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
