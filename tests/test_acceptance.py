"""Acceptance suite: one test per exit criterion.

Each test prints a single ``[criterion N] name: PASS/FAIL`` line (visible
with ``pytest -s`` or on failure) and then asserts. Every check is seeded
and deterministic except the two wall-clock growth measurements, which use
min-over-repetitions timing to shrug off machine noise.

The slow criteria (learnability, decoding complexity) run last and carry
the ``slow`` marker, so ``pytest -m "not slow"`` skips them; the whole
module takes a few minutes.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from distparse import bench, model, pcfg
from distparse.binarize import binarize, debinarize
from distparse.codec import (
    DistanceTuple,
    binary_trees_equal,
    decode,
    encode,
)
from distparse.losses import label_loss, mse_loss, rank_loss
from distparse.scoring import score
from distparse.train import TrainConfig, train
from distparse.trees import parse_bracketed, preprocess
from helpers import (
    binary_shapes,
    materialize_shape,
    monotone_transform,
    numeric_gradient,
    random_nary_tree,
    random_tuple,
)

SAMPLE = Path(__file__).resolve().parent.parent / "data" / "sample_treebank.mrg"


def verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_codec_bijection_exhaustive():
    start = time.perf_counter()
    total = 0
    failures = 0
    for n_leaves in range(2, 7):
        for shape in binary_shapes(n_leaves):
            for offset in (0, 1, 2):
                tree = materialize_shape(shape, offset)
                total += 1
                if decode(encode(tree)) != tree:
                    failures += 1
    elapsed = time.perf_counter() - start
    verdict(
        1,
        "codec bijection on all 2-6 leaf trees",
        failures == 0 and elapsed < 60.0,
        f"{total} labeled trees, {failures} failures, {elapsed:.2f}s",
    )


def test_criterion_2_rank_invariance():
    rng = np.random.default_rng(2001)
    vectors = 0
    agreements = 0
    checks = 0
    while vectors < 1000:
        n = int(rng.integers(2, 41))
        base = rng.permutation(np.arange(n - 1)).astype(float) * 0.5
        base = base + rng.uniform(-0.1, 0.1, n - 1)  # tie-free: gaps >= 0.3
        tup = random_tuple(rng, n)
        tup = DistanceTuple(
            tup.words,
            tup.tags,
            tup.unary_labels,
            tuple(float(x) for x in base),
            tup.split_labels,
        )
        reference = decode(tup)
        vectors += 1
        for _ in range(10):
            mapped = monotone_transform(rng)(base)
            moved = DistanceTuple(
                tup.words,
                tup.tags,
                tup.unary_labels,
                tuple(float(x) for x in mapped),
                tup.split_labels,
            )
            checks += 1
            if binary_trees_equal(decode(moved), reference):
                agreements += 1
    verdict(
        2,
        "monotone transforms preserve decoded trees",
        agreements == checks,
        f"{agreements}/{checks} agree over {vectors} vectors",
    )


def test_criterion_3_engine_equivalence():
    rng = np.random.default_rng(3001)
    disagreements = 0
    for _ in range(10_000):
        tup = random_tuple(rng, int(rng.integers(1, 201)))
        reference = decode(tup, "scan")
        if not binary_trees_equal(reference, decode(tup, "rmq")):
            disagreements += 1
        if not binary_trees_equal(reference, decode(tup, "stack")):
            disagreements += 1
    verdict(
        3,
        "scan/rmq/stack agree on 10,000 random tuples",
        disagreements == 0,
        f"{disagreements} disagreements",
    )


def test_criterion_4_binarization_roundtrip():
    sample_failures = 0
    sample_total = 0
    for tree in parse_bracketed(SAMPLE.read_text(encoding="utf-8")):
        cleaned = preprocess(tree)
        if cleaned is None:
            continue
        sample_total += 1
        if debinarize(binarize(cleaned)) != cleaned:
            sample_failures += 1
    rng = np.random.default_rng(4001)
    random_failures = 0
    for _ in range(10_000):
        tree = random_nary_tree(rng)
        if debinarize(binarize(tree)) != tree:
            random_failures += 1
    verdict(
        4,
        "binarization roundtrip",
        sample_failures == 0 and random_failures == 0,
        f"{sample_total} sample trees ({sample_failures} bad), "
        f"10000 random trees ({random_failures} bad)",
    )


def _max_signal_rel_error(analytic, numeric, floor):
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    numeric = np.asarray(numeric, dtype=np.float64).ravel()
    magnitude = np.abs(analytic) + np.abs(numeric)
    mask = magnitude > floor
    if not mask.any():
        return 0.0
    return float(
        np.max(np.abs(analytic - numeric)[mask] / magnitude[mask])
    )


def test_criterion_5_gradient_correctness():
    rng = np.random.default_rng(5001)
    worst_loss = 0.0

    # rank loss at 100 smooth points (all pair margins off the hinge kink)
    checked = 0
    while checked < 100:
        m = int(rng.integers(2, 12))
        true = rng.integers(1, 9, m).astype(float)
        pred = rng.normal(scale=2.0, size=m)
        sign = np.sign(true[:, None] - true[None, :])
        margins = 1.0 - sign * (pred[:, None] - pred[None, :])
        if np.any((sign != 0) & (np.abs(margins) < 1e-3)):
            continue
        _, grad = rank_loss(true, pred)
        numeric = numeric_gradient(lambda p: rank_loss(true, p)[0], pred)
        worst_loss = max(worst_loss, _max_signal_rel_error(grad, numeric, 1e-3))
        checked += 1

    for _ in range(100):  # mse is smooth everywhere
        m = int(rng.integers(1, 12))
        true = rng.normal(size=m)
        pred = rng.normal(size=m)
        _, grad = mse_loss(true, pred)
        numeric = numeric_gradient(lambda p: mse_loss(true, p)[0], pred)
        worst_loss = max(worst_loss, _max_signal_rel_error(grad, numeric, 1e-3))

    def softmax(z):
        ex = np.exp(z - z.max(axis=1, keepdims=True))
        return ex / ex.sum(axis=1, keepdims=True)

    for _ in range(100):  # cross-entropy chained through a softmax
        k, vocab = int(rng.integers(1, 6)), int(rng.integers(2, 8))
        ids = rng.integers(0, vocab, size=k)
        logits = rng.normal(size=(k, vocab))
        probs = softmax(logits)
        _, d_probs = label_loss(ids, probs)
        inner = (d_probs * probs).sum(axis=1, keepdims=True)
        analytic = probs * (d_probs - inner)
        numeric = numeric_gradient(lambda z: label_loss(ids, softmax(z))[0], logits)
        worst_loss = max(worst_loss, _max_signal_rel_error(analytic, numeric, 1e-3))

    # full network: 100 random parameter coordinates at smooth points
    config = model.ModelConfig(
        word_vocab=9,
        tag_vocab=6,
        word_label_vocab=4,
        split_label_vocab=5,
        embed_dim=3,
        hidden_dim=4,
        conv_channels=4,
        ff_hidden=4,
    )
    worst_net = 0.0
    checked = 0
    eps = 1e-5
    while checked < 100:
        params = model.init_params(config, rng)
        n = int(rng.integers(2, 6))
        example = (
            rng.integers(0, config.word_vocab, n).tolist(),
            rng.integers(0, config.tag_vocab, n).tolist(),
            (rng.permutation(n - 1) + 1).astype(float).tolist(),
            rng.integers(0, config.word_label_vocab, n).tolist(),
            rng.integers(0, config.split_label_vocab, n - 1).tolist(),
        )
        result = model.forward(params, config, example[0], example[1])
        true_d = np.asarray(example[2])
        sign = np.sign(true_d[:, None] - true_d[None, :])
        margins = 1.0 - sign * (
            result.distances[:, None] - result.distances[None, :]
        )
        if np.any((sign != 0) & (np.abs(margins) < 1e-3)):
            continue  # not a smooth point of the hinge
        _, grads = model.sentence_loss(params, config, *example, "rank")
        names = sorted(params)
        for _ in range(10):
            name = names[rng.integers(len(names))]
            arr = params[name]
            idx = tuple(int(rng.integers(s)) for s in arr.shape)
            analytic = grads[name][idx]
            if abs(analytic) < 1e-3:
                continue
            orig = arr[idx]

            def loss_at(value):
                arr[idx] = value
                parts, _ = model.sentence_loss(params, config, *example, "rank")
                arr[idx] = orig
                return parts["total"]

            numeric = (loss_at(orig + eps) - loss_at(orig - eps)) / (2 * eps)
            rel = abs(analytic - numeric) / (abs(analytic) + abs(numeric))
            worst_net = max(worst_net, rel)
            checked += 1
            if checked >= 100:
                break
    verdict(
        5,
        "analytic gradients match finite differences",
        worst_loss < 1e-5 and worst_net < 1e-4,
        f"losses max rel {worst_loss:.2e} (<1e-5), "
        f"network max rel {worst_net:.2e} (<1e-4)",
    )


def test_criterion_6_loss_formula_fixtures():
    rank_inactive, _ = rank_loss([2.0, 1.0], [3.0, 0.5])
    rank_active, _ = rank_loss([2.0, 1.0], [0.5, 0.7])
    mse_value, _ = mse_loss([2.0, 1.0], [0.0, 0.0])
    uniform, _ = label_loss([0], np.full((1, 4), 0.25))
    ok = (
        abs(rank_inactive) < 1e-12
        and abs(rank_active - 1.2) < 1e-12
        and abs(mse_value - 5.0) < 1e-12
        and abs(uniform - np.log(4.0)) < 1e-12
    )
    verdict(
        6,
        "hand-derived loss fixtures reproduce exactly",
        ok,
        f"rank {rank_active!r}, mse {mse_value!r}, uniform nll {uniform!r}",
    )


def test_criterion_9_scorer_fixtures():
    gold = parse_bracketed("(S (NP (DT a) (NN b)) (VP (VBD c) (NN d)))")
    pred = parse_bracketed("(S (NP (DT a) (NN b)) (X (VBD c)) (Y (NN d)))")
    report = score(gold, pred)
    fixture_ok = (
        round(report.labeled_precision, 2) == 50.0
        and round(report.labeled_recall, 2) == 66.67
        and round(report.labeled_f1, 2) == 57.14
    )
    rng = np.random.default_rng(9001)
    ordering_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        g = random_nary_tree(rng, n)
        p = random_nary_tree(rng, n)
        r = score([g], [p])
        if r.labeled_f1 > r.unlabeled_f1 + 1e-12:
            ordering_ok = False
            break
    verdict(
        9,
        "scorer fixture and labeled <= unlabeled ordering",
        fixture_ok and ordering_ok,
        f"LP {report.labeled_precision:.2f} LR {report.labeled_recall:.2f} "
        f"F1 {report.labeled_f1:.2f}; ordering on 1000 pairs "
        f"{'held' if ordering_ok else 'violated'}",
    )


@pytest.mark.slow
def test_criterion_7_learnability():
    start = time.perf_counter()
    trees = pcfg.generate_trees(2200, seed=12345)
    tuples = [encode(binarize(t)) for t in trees]
    train_tuples, dev_tuples = tuples[:2000], tuples[2000:]

    rank_run = train(
        train_tuples, dev_tuples, TrainConfig(epochs=20, seed=0, distance_loss="rank")
    )
    rank_best = max(h.dev_unlabeled_f1 for h in rank_run.history)
    mse_run = train(
        train_tuples, dev_tuples, TrainConfig(epochs=20, seed=0, distance_loss="mse")
    )
    mse_best = max(h.dev_unlabeled_f1 for h in mse_run.history)
    elapsed = time.perf_counter() - start
    verdict(
        7,
        "synthetic-corpus learnability and loss ordering",
        rank_best >= 90.0 and mse_best <= rank_best and elapsed < 1800.0,
        f"rank dev unlabeled F1 {rank_best:.2f} (>=90), "
        f"mse {mse_best:.2f} (<=rank), {elapsed:.0f}s (<1800s)",
    )


@pytest.mark.slow
def test_criterion_8_decoding_complexity():
    sizes = [10_000, 20_000, 40_000]
    scan_rows = bench.run(
        sizes, ["scan"], "left-chain", repetitions=3, warmup=False,
        check_agreement=False,
    )
    fast_rows = bench.run(
        sizes, ["rmq", "stack"], "left-chain", repetitions=9, interleave=True,
        check_agreement=False,
    )
    scan_ratios = [r for _, r in bench.doubling_ratios(scan_rows, "scan", use_min=True)]
    rmq_ratios = [r for _, r in bench.doubling_ratios(fast_rows, "rmq", use_min=True)]
    biggest = sizes[-1]
    mins = {
        row.engine: row.min_seconds
        for row in (*scan_rows, *fast_rows)
        if row.size == biggest
    }
    stack_fastest = mins["stack"] <= mins["rmq"] and mins["stack"] <= mins["scan"]
    # engines must also agree on the benchmarked input
    tup = bench.make_tuple(bench.make_distances("left-chain", 5000))
    agree = binary_trees_equal(decode(tup, "scan"), decode(tup, "rmq")) and (
        binary_trees_equal(decode(tup, "scan"), decode(tup, "stack"))
    )
    verdict(
        8,
        "scan is quadratic, rmq near-linearithmic, stack fastest",
        all(r >= 3.2 for r in scan_ratios)
        and all(r <= 2.6 for r in rmq_ratios)
        and stack_fastest
        and agree,
        f"scan ratios {[f'{r:.2f}' for r in scan_ratios]} (>=3.2), "
        f"rmq ratios {[f'{r:.2f}' for r in rmq_ratios]} (<=2.6), "
        f"at n={biggest}: stack {mins['stack'] * 1e3:.1f}ms vs "
        f"rmq {mins['rmq'] * 1e3:.1f}ms vs scan {mins['scan']:.2f}s",
    )
