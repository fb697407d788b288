"""End-to-end benchmark of distparse: train, parse and treebank workloads.

Run from the repository root::

    python3 perfbench/run.py --workload parse --seed 12345 --seconds 25 --trace 0

``--workload all`` runs the three workloads one after another in this
process. Each run sets up its inputs three times and reports the median
set-up time, then repeats one pass of the workload's ``distparse``
commands (called in-process through ``cli.main``, one at a time, on one
thread) while the next pass still fits in ``--seconds``, and checks every
output. Times are reported in reference seconds (see ``speed.py``), which
take the changing speed of a shared host out of the figures; the wall
times are in the report.

With ``--trace 0`` the result holds the end-to-end metrics. With
``--trace 1`` the passes alternate between untraced and traced, and the
result holds the per-layer metrics from the spans of the traced passes
plus the tracing overhead. The last line printed is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
report (environment, input hashes, every pass) and the spans are written
under ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# relative, so that paths the CLI records in its outputs do not depend on
# where the checkout lives
WORK = Path(".perfbench_work")
SETUP_REPEATS = 3
NAMES = ("train", "parse", "treebank")

END_TO_END_UNITS = {
    "sent_per_ref_s": "sent/ref_s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "labeled_f1": "%",
    "unlabeled_f1": "%",
}


def _blas_threads():
    """Thread count reported by the OpenBLAS bundled with numpy, if any."""
    import ctypes

    import numpy

    for path in sorted(Path(numpy.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        library = ctypes.CDLL(str(path))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return function()
    return None


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "load_model": "closed loop, one command at a time, one thread",
    }


def median(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from speed import HostClock
    from tracing import Tracer
    from workloads import WORKLOADS

    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setups = []
    hashes = []
    for _ in range(1 if trace else SETUP_REPEATS):
        workload = WORKLOADS[name](work)
        with HostClock() as clock:
            workload.setup(seed)
        setups.append({"wall_s": clock.wall, "ref_s": clock.ref_seconds, "host_speed": clock.speed})
        hashes.append(workload.input_hashes())
    checks = []
    if any(h != hashes[0] for h in hashes):
        checks.append("set-up made different inputs from one seed")

    tracer = Tracer() if trace else None
    passes = []
    start = time.perf_counter()
    while True:
        modes = (None, tracer) if trace else (None,)
        for mode in modes:
            with HostClock() as clock:
                codes, outputs = workload.run_pass(mode)
            check = workload.check(codes)
            passes.append({
                "traced": mode is not None,
                "wall_s": clock.wall,
                "ref_s": clock.ref_seconds,
                "host_speed": clock.speed,
                "sentences": workload.sentences,
                "sent_per_s": workload.sentences / clock.busy,
                "sent_per_ref_s": workload.sentences / clock.ref_seconds,
                "failed": check.failed,
                "quality": check.quality,
                "errors": check.errors + [o.strip() for o, c in zip(outputs, codes) if c],
            })
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) * len(modes) > seconds:
            break

    attempted = sum(p["sentences"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if trace and name == "treebank":
        tried, disagree = workload.engine_sweep(tracer)
        attempted += tried
        failed += disagree
        if disagree:
            checks.append(f"engines disagree on {disagree} of {tried} tuples")
    if checks:
        failed = attempted

    untraced = [p for p in passes if not p["traced"]]
    if trace:
        traced = [p for p in passes if p["traced"]]
        metrics = tracer.layer_metrics()
        metrics["trace_overhead_ratio"] = (
            median(traced, "sent_per_ref_s") / median(untraced, "sent_per_ref_s"),
            "ratio",
        )
        metrics["wall_sent_per_s"] = (median(untraced, "sent_per_s"), "sent/s")
        metrics["host_speed"] = (median(passes, "host_speed"), "ref_s/s")
        metrics["sentences"] = (workload.sentences * len(traced), "count")
        metrics["words"] = (workload.words * len(traced), "count")
    else:
        scored = [p["quality"] for p in passes if p["quality"]]
        values = {
            "sent_per_ref_s": median(untraced, "sent_per_ref_s"),
            "setup_s": median(setups, "ref_s"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": 1.0 - failed / attempted,
            "labeled_f1": statistics.median(q["labeled_f1"] for q in scored) if scored else 0.0,
            "unlabeled_f1": statistics.median(q["unlabeled_f1"] for q in scored)
            if scored
            else 0.0,
        }
        metrics = {key: (value, END_TO_END_UNITS[key]) for key, value in values.items()}

    stem = f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        tracer.write(WORK / f"{stem}-spans.json")
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "inputs": hashes[-1],
        "setups": setups,
        "wall_sent_per_s": median(untraced, "sent_per_s"),
        "checks": checks,
        "passes": passes,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (WORK / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)

    # one thread: the load is a closed loop on a single core
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    source = ROOT / "src"
    if not (source / "distparse" / "__init__.py").is_file():
        print(f"error: no distparse sources under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    import distparse

    if Path(distparse.__file__).resolve().parent != source / "distparse":
        print(f"error: distparse imported from {distparse.__file__}", file=sys.stderr)
        return 2

    names = NAMES if args.workload == "all" else (args.workload,)
    reports = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for report in reports:
        for key, metric in report["metrics"].items():
            print(f"{report['workload']:9} {key:32} {metric['value']:.6g} {metric['unit']}")
        print(f"{report['workload']:9} {'wall_sent_per_s':32} {report['wall_sent_per_s']:.6g} sent/s")
        for error in report["checks"] + [e for p in report["passes"] for e in p["errors"]]:
            print(f"{report['workload']:9} check failed: {error}")
    print(f"report and spans: {WORK}")
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}.{key}": value for r in reports for key, value in r["metrics"].items()
        }
    result = {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
