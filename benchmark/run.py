"""Benchmark of the dualwrist package: three workloads, timed end to end and,
in a separate traced run, per module.

    python3 benchmark/run.py --workload cv_study --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --workload all --seed 1

Run from the root of a checkout; the package is imported from its ``src``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. ``all`` runs each
workload in its own process and prints their metrics under
``<workload>.<metric>``. See README.md next to this file.
"""
import os

# The workloads are single-threaded numpy. Hold numpy's thread pools to one
# thread before numpy is imported, so that figures do not depend on how many
# cores a machine has.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("cv_study", "cli_session", "free_living")
SETUP_REPS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "simulate.simulate_corpus.s": "s",
    "simulate.simulate_recording.s": "s",
    "simulate.samples": "samples",
    "io_formats.save_corpus.s": "s",
    "io_formats.bytes_written": "bytes",
    "io_formats.load_corpus.s": "s",
    "io_formats.load_corpus.calls": "count",
    "io_formats.bytes_read": "bytes",
    "preprocess.moving_average.s": "s",
    "preprocess.moving_average.calls": "count",
    "preprocess.moving_average.samples": "samples",
    "preprocess.magnitude.s": "s",
    "preprocess.magnitude.calls": "count",
    "preprocess.min_max_normalize.s": "s",
    "preprocess.fit_normalization.calls": "count",
    "fusion.smoothed_magnitude.calls": "count",
    "fusion.smoothed_magnitude.distinct": "count",
    "fusion.fused_signal.s": "s",
    "fusion.fused_signal.calls": "count",
    "fusion.mutual_nearest.s": "s",
    "fusion.union_fuse.s": "s",
    "fusion.intersect_fuse.s": "s",
    "peaks.greedy_nms.s": "s",
    "peaks.greedy_nms.calls": "count",
    "peaks.greedy_nms.in": "peaks",
    "peaks.greedy_nms.kept": "peaks",
    "peaks.priority_rank.s": "s",
    "peaks.candidate_peaks.s": "s",
    "peaks.candidate_peaks.out": "peaks",
    "peaks.suppress_peaks.s": "s",
    "peaks.suppress_peaks.calls": "count",
    "pipeline.count_tensor.s": "s",
    "pipeline.count_tensor.self_s": "s",
    "pipeline.count_tensor.cells": "count",
    "pipeline.steps.s": "s",
    "pipeline.steps.calls": "count",
    "evaluate.phase_offsets.s": "s",
    "evaluate.phase_offsets.steps": "steps",
    "evaluate.summarize_counts.s": "s",
    "evaluate.evaluate_corpus.s": "s",
    **{f"tuning.cross_validate.{alg}.s": "s" for alg in ("left", "right", "sum", "diff", "intersect", "union")},
    "tuning.rmse.calls": "count",
    "cli.cli_main.s": "s",
    "cli.cli_main.self_s": "s",
    "cli.cli_main.calls": "count",
    "stage.tune_s": "s",
    "stage.detect_s": "s",
    "stage.evaluate_s": "s",
    "trace.overhead_s": "s",
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def timed(fn, *args):
    t = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t


def measure(wl, seconds: int):
    """SETUP_REPS set-ups, then whole rounds until ``seconds`` have passed
    and ``wl.min_rounds`` are done; returns (metrics, attempted, failed)."""
    setup_s = [timed(wl.setup, i) for i in range(SETUP_REPS)]
    stages = defaultdict(list)
    attempted = failed = rounds = 0
    start = time.perf_counter()
    while rounds < wl.min_rounds or time.perf_counter() - start < seconds:
        a, f = wl.round(rounds, stages)
        attempted, failed, rounds = attempted + a, failed + f, rounds + 1
    rss = peak_rss_mb()
    wl.check()
    metrics = {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(stages["wall_s"]),
        "peak_rss_mb": rss,
    }
    return metrics, attempted, failed


def measure_traced(wl, name: str, seed: int, seconds: int):
    """One traced set-up, then untraced and traced rounds in turn until
    ``seconds`` have passed and at least three rounds are done. Per-layer
    metrics come from the set-up and the first traced round. The tracing
    overhead is the median traced round's wall time minus the median
    untraced one's; the first round warms the allocator and caches and is
    left out of the latter."""
    from tracing import Tracer, write_spans

    setup_tracer = Tracer()
    with setup_tracer.installed():
        wl.setup(0)
    walls = ([], [])  # untraced, traced
    tracers = []
    attempted = failed = rounds = 0
    start = time.perf_counter()
    while rounds < max(3, wl.min_rounds) or time.perf_counter() - start < seconds:
        stages = defaultdict(list)
        if rounds % 2:
            tracers.append(Tracer())
            with tracers[-1].installed():
                a, f = wl.round(rounds, stages)
        else:
            a, f = wl.round(rounds, stages)
            if rounds == 0:
                plain = stages
        if rounds:
            walls[rounds % 2].append(stages["wall_s"][0])
        attempted, failed, rounds = attempted + a, failed + f, rounds + 1
    wl.check()
    layer = setup_tracer.metrics()
    for key, value in tracers[0].metrics().items():
        layer[key] = layer.get(key, 0) + value
    layer["trace.overhead_s"] = statistics.median(walls[1]) - statistics.median(walls[0])
    layer["stage.tune_s"] = sum(plain["tune_s"])
    layer["stage.detect_s"] = sum(plain["detect_s"])
    layer["stage.evaluate_s"] = sum(plain["evaluate_s"])
    spans = setup_tracer.spans() + tracers[0].spans(offset=len(setup_tracer.names))
    write_spans(ROOT / ".bench_out" / f"spans_{name}_seed{seed}.json", spans,
                {"workload": name, "seed": seed, "covers": "set-up and first traced round"})
    return {k: layer.get(k, 0) for k in PER_LAYER}, attempted, failed


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    import reference
    from workloads import WORKLOADS, CheckFailed

    work = ROOT / ".bench_work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    units = PER_LAYER if trace else END_TO_END
    try:
        reference.self_check()
        wl = WORKLOADS[name](seed, work)
        if trace:
            metrics, attempted, failed = measure_traced(wl, name, seed, seconds)
        else:
            metrics, attempted, failed = measure(wl, seconds)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def run_all(args) -> dict:
    """Each workload in its own process, so peak RSS is its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            raise SystemExit(f"{name} exited with code {proc.returncode} and no result")
        result = json.loads(lines[-1])
        print(f"{name}: {lines[-1]}")
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20, help="minimum measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "dualwrist" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'dualwrist'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
