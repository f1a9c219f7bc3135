"""Command-line interface: simulate -> tune -> detect -> evaluate -> report."""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from .config import (
    corpus_spec_from_config,
    default_config,
    grid_from_config,
    load_config,
)
from .core import AlgorithmId, DetectorParams, WalkTask
from .evaluate import summarize_counts
from .io_formats import FormatError, context_to_json, dump_json, load_corpus, save_corpus
from .pipeline import CorpusEngine
from .simulate import simulate_corpus
from .tuning import cross_validate

ALL_ALGS = list(AlgorithmId)


def _fmt(v: float) -> str:
    return repr(float(v))


def _parse_algs(values: Optional[List[str]]) -> List[AlgorithmId]:
    if not values or "all" in values:
        return ALL_ALGS
    return [AlgorithmId(v) for v in values]


def _load_session_config(path: Optional[str]) -> dict:
    if path is None or path == "default":
        return default_config()
    return load_config(path)


def cmd_simulate(args) -> int:
    cfg = _load_session_config(args.spec)
    spec = corpus_spec_from_config(cfg, seed_override=args.seed)
    recordings = simulate_corpus(spec)
    out = Path(args.out)
    save_corpus(recordings, out)
    print(f"wrote {len(recordings)} recordings to {out}")
    return 0


def cmd_tune(args) -> int:
    cfg = _load_session_config(args.config)
    grid = grid_from_config(cfg)
    dataset = load_corpus(args.corpus)
    engine = CorpusEngine(dataset)
    algorithms = _parse_algs(args.alg)
    folds = args.folds if args.folds is not None else cfg.get("cv", {}).get("folds", 5)
    seed = args.seed if args.seed is not None else cfg.get("cv", {}).get("seed", 0)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tuned: Dict[str, dict] = {}
    for alg in algorithms:
        report = cross_validate(dataset, alg, grid, k=folds, seed=seed, engine=engine)
        dump_json(out / f"cv_{alg.value}.json", report.to_dict())
        tuned[alg.value] = report.mean_params.to_dict()
        print(f"{alg.value}: mean test RMSE {report.mean_test_rmse:.3f}")
    dump_json(out / "tuned_params.json", tuned)
    return 0


def _params_for(alg: AlgorithmId, params_path: str) -> DetectorParams:
    with open(params_path) as f:
        payload = json.load(f)
    if "mean_params" in payload:  # a single CVReport
        payload = {payload["algorithm"]: payload["mean_params"]}
    if alg.value in payload:
        payload = payload[alg.value]
    d = {k: v for k, v in payload.items() if v is not None}
    return DetectorParams.from_dict(d)


def cmd_detect(args) -> int:
    alg = AlgorithmId(args.alg)
    params = _params_for(alg, args.params)
    dataset = load_corpus(args.corpus)
    engine = CorpusEngine(dataset)
    # Every recording is detected before any output is opened, so a failure
    # leaves no partial files behind.
    steps_by_rid = {rec.id: engine.steps(alg, rec.id, params) for rec in dataset}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / f"steps_{alg.value}.csv", "w", newline="") as steps_f, open(
        out / f"counts_{alg.value}.csv", "w", newline=""
    ) as counts_f:
        steps_f.write("recording_id,time,amplitude\n")
        counts_f.write("recording_id,count\n")
        for rid, steps in steps_by_rid.items():
            counts_f.write(f"{rid},{len(steps)}\n")
            for t, a in zip(steps.times, steps.amplitudes):
                steps_f.write(f"{rid},{_fmt(t)},{_fmt(a)}\n")
    ctx = engine.context_for(alg, params)
    dump_json(
        out / f"detect_{alg.value}.json",
        {
            "algorithm": alg.value,
            "params": params.to_dict(),
            "context": context_to_json(ctx),
        },
    )
    print(f"detected steps with {alg.value} on {len(dataset)} recordings")
    return 0


def _read_detections(det_dir: Path, corpus_ids):
    counts_by_alg: Dict[AlgorithmId, Dict[str, int]] = {}
    times_by_alg: Dict[AlgorithmId, Dict[str, list]] = {}

    def rows(path: Path, n_fields: int):
        with open(path) as f:
            f.readline()
            for lineno, line in enumerate(f, start=2):
                fields = line.strip().rsplit(",", n_fields - 1)
                if fields[0] not in corpus_ids:
                    raise FormatError(
                        f"{path}:{lineno}: recording {fields[0]!r} is not in the corpus"
                    )
                yield fields

    for counts_path in sorted(det_dir.glob("counts_*.csv")):
        alg = AlgorithmId(counts_path.stem.replace("counts_", ""))
        counts = {rid: int(count) for rid, count in rows(counts_path, 2)}
        counts_by_alg[alg] = counts
        steps_path = det_dir / f"steps_{alg.value}.csv"
        if steps_path.exists():
            times: Dict[str, list] = {rid: [] for rid in counts}
            for rid, t, _a in rows(steps_path, 3):
                times.setdefault(rid, []).append(float(t))
            times_by_alg[alg] = times
    if not counts_by_alg:
        raise FormatError(
            f"no detection outputs (counts_*.csv) found in {det_dir}; run `detect` first"
        )
    return counts_by_alg, times_by_alg


def cmd_evaluate(args) -> int:
    dataset = load_corpus(args.corpus)
    det_dir = Path(args.detections)
    counts_by_alg, times_by_alg = _read_detections(det_dir, {rec.id for rec in dataset})
    phase_times = {
        alg: {rid: np.array(ts) for rid, ts in by_rid.items()}
        for alg, by_rid in times_by_alg.items()
    }
    result = summarize_counts(counts_by_alg, dataset, phase_times)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summary = {
        "per_algorithm": {
            alg.value: s.to_dict() for alg, s in result.summary.per_algorithm.items()
        },
        "per_task": {
            f"{task.value}/{alg.value}": s.to_dict()
            for (task, alg), s in result.per_task.items()
        },
        "phase": {
            alg.value: {
                "toe_mean": rep.toe_mean,
                "toe_std": rep.toe_std,
                "heel_mean": rep.heel_mean,
                "heel_std": rep.heel_std,
            }
            for alg, rep in result.phase.items()
        },
    }
    dump_json(out / "summary.json", summary)
    with open(out / "results_long.csv", "w", newline="") as f:
        f.write("recording_id,task,algorithm,count,label,pct_error\n")
        for row in sorted(result.rows, key=lambda r: (r.algorithm.value, r.recording_id)):
            err = "" if row.pct_error is None else _fmt(row.pct_error)
            count = "" if row.count is None else row.count
            f.write(
                f"{row.recording_id},{row.task.value},{row.algorithm.value},{count},{row.label},{err}\n"
            )
    with open(out / "phase_offsets.csv", "w", newline="") as f:
        f.write("algorithm,dt_heel,dt_toe\n")
        for alg in sorted(result.phase, key=lambda a: a.value):
            rep = result.phase[alg]
            for h, t in zip(rep.dt_heel, rep.dt_toe):
                f.write(f"{alg.value},{_fmt(h)},{_fmt(t)}\n")
    print(f"evaluated {len(counts_by_alg)} algorithm(s); summary in {out}")
    return 0


def cmd_report(args) -> int:
    summary_path = Path(args.evaluation) / "summary.json"
    if not summary_path.exists():
        raise FormatError(f"{summary_path} not found; run `evaluate` first")
    with open(summary_path) as f:
        summary = json.load(f)
    algs = [a.value for a in ALL_ALGS if a.value in summary["per_algorithm"]]
    print("Mean percent error per task (signed):")
    header = f"{'task':<18}" + "".join(f"{a:>11}" for a in algs)
    print(header)
    for task in WalkTask:
        cells = []
        for a in algs:
            s = summary["per_task"].get(f"{task.value}/{a}")
            cells.append(f"{s['mean']:>10.2f}%" if s else f"{'-':>11}")
        print(f"{task.value:<18}" + "".join(cells))
    print()
    print("Overall |percent error| mean and Pearson r:")
    for a in algs:
        s = summary["per_algorithm"][a]
        r = "n/a" if s["pearson_r"] is None else f"{s['pearson_r']:.4f}"
        print(f"  {a:<10} mean|err| {s['mean_abs']:6.2f}%   r {r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualwrist",
        description="Dual-wrist step detection: simulate, tune, detect, evaluate, report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic corpus")
    p.add_argument("--spec", default="default", help="config file, or 'default'")
    p.add_argument("--seed", type=int, default=None, help="override the corpus seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("tune", help="cross-validated parameter search")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--alg", action="append", choices=[a.value for a in ALL_ALGS] + ["all"])
    p.add_argument("--folds", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None, help="config file with a grid section")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("detect", help="run one detector over a corpus")
    p.add_argument("--alg", required=True, choices=[a.value for a in ALL_ALGS])
    p.add_argument("--params", required=True, help="tuned_params.json, cv_*.json, or a params dict")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("evaluate", help="summarize detection outputs against labels")
    p.add_argument("--corpus", required=True)
    p.add_argument("--detections", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="print the per-task accuracy table")
    p.add_argument("--evaluation", required=True, help="directory written by `evaluate`")
    p.set_defaults(func=cmd_report)
    return parser


def cli_main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
