"""Timing harness for the decoder engines.

Builds worst-case and random score vectors, times each engine on full
decodes, and reports medians plus per-doubling growth ratios. Absolute
times are hardware-bound; the interesting output is how time scales when
the input doubles.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass

import numpy as np

from . import codec
from .binarize import EMPTY_LABEL

SHAPES = ("random", "left-chain", "right-chain")


def make_distances(shape: str, size: int, seed: int = 0) -> list[float]:
    """Score vector for ``size`` words.

    ``left-chain`` (strictly increasing) and ``right-chain`` (strictly
    decreasing) force maximally unbalanced trees, the worst case for the
    scanning decoder.
    """
    count = size - 1
    if shape == "left-chain":
        return [float(i + 1) for i in range(count)]
    if shape == "right-chain":
        return [float(count - i) for i in range(count)]
    if shape == "random":
        rng = np.random.default_rng(seed)
        return rng.uniform(0.0, 1.0, count).tolist()
    raise ValueError(f"unknown shape {shape!r}; choose from {SHAPES}")


def make_tuple(distances: list[float]) -> codec.DistanceTuple:
    """Wrap raw scores in a decodable tuple with placeholder labels."""
    n = len(distances) + 1
    return codec.DistanceTuple(
        words=tuple(f"w{i}" for i in range(n)),
        tags=("X",) * n,
        unary_labels=(EMPTY_LABEL,) * n,
        distances=tuple(distances),
        split_labels=("X",) * (n - 1),
    )


@dataclass(frozen=True)
class BenchRow:
    engine: str
    shape: str
    size: int
    repetitions: int
    median_seconds: float
    min_seconds: float


def run(
    sizes: list[int],
    engines: list[str],
    shape: str,
    repetitions: int = 20,
    seed: int = 0,
    check_agreement: bool = True,
    interleave: bool = False,
    warmup: bool = True,
) -> list[BenchRow]:
    """Time every (size, engine) pair on the given shape; a negative seed,
    or a size or engine named twice (pooling two pairs' timings), raises
    ``ValueError``.

    With ``check_agreement`` the engines' trees are verified identical on
    each input before timing. ``interleave`` cycles through all pairs on
    every repetition instead of timing each pair in a block, so a transient
    load spike inflates all pairs roughly equally instead of poisoning one
    measurement; growth-ratio checks should also prefer ``min_seconds``,
    which contention can never deflate. ``warmup`` runs one untimed decode
    per pair first.
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    for size in sizes:
        if size < 2:
            raise ValueError("benchmark sizes must be >= 2")
    for kind, values in (("sizes", sizes), ("engines", engines)):
        for at, value in enumerate(values):
            if value in values[:at]:
                raise ValueError(f"benchmark {kind} name {value!r} more than once")
    tuples = {size: make_tuple(make_distances(shape, size, seed)) for size in sizes}
    if check_agreement:
        for size, tup in tuples.items():
            reference = codec.decode(tup, "stack")
            for engine in engines:
                if engine == "stack":
                    continue
                if not codec.binary_trees_equal(reference, codec.decode(tup, engine)):
                    raise ValueError(
                        f"engine {engine} disagrees with stack at size {size}"
                    )
    pairs = [(size, engine) for size in sizes for engine in engines]
    times: dict[tuple[int, str], list[float]] = {pair: [] for pair in pairs}
    if warmup:
        for size, engine in pairs:
            codec.decode(tuples[size], engine)
    schedule = (
        [pair for _ in range(repetitions) for pair in pairs]
        if interleave
        else [pair for pair in pairs for _ in range(repetitions)]
    )
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for size, engine in schedule:
            start = time.perf_counter()
            tree = codec.decode(tuples[size], engine)
            elapsed = time.perf_counter() - start
            del tree  # deallocate outside the timed window
            times[(size, engine)].append(elapsed)
    finally:
        if gc_was_enabled:
            gc.enable()
        gc.collect()
    return [
        BenchRow(
            engine=engine,
            shape=shape,
            size=size,
            repetitions=repetitions,
            median_seconds=statistics.median(times[(size, engine)]),
            min_seconds=min(times[(size, engine)]),
        )
        for size, engine in pairs
    ]


def doubling_ratios(
    rows: list[BenchRow], engine: str, use_min: bool = False
) -> list[tuple[int, float]]:
    """(size, time(2*size)/time(size)) for every doubled size present."""
    times = {
        row.size: (row.min_seconds if use_min else row.median_seconds)
        for row in rows
        if row.engine == engine
    }
    ratios = []
    for size in sorted(times):
        if 2 * size in times and times[size] > 0:
            ratios.append((size, times[2 * size] / times[size]))
    return ratios


def to_csv(rows: list[BenchRow], metadata: dict | None = None) -> str:
    """CSV rendering; metadata goes into leading ``#`` comment lines."""
    lines = []
    for key, value in (metadata or {}).items():
        lines.append(f"# {key}={value}")
    lines.append("engine,shape,size,repetitions,median_seconds,min_seconds")
    for row in rows:
        lines.append(
            f"{row.engine},{row.shape},{row.size},{row.repetitions},"
            f"{row.median_seconds:.9f},{row.min_seconds:.9f}"
        )
    return "\n".join(lines) + "\n"
