"""Command-line interface: simulate -> tune -> detect -> evaluate -> report."""
from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import (
    _is_number,
    corpus_spec_from_config,
    default_config,
    grid_from_config,
    load_config,
)
from .core import AlgorithmId, DetectorParams, Recording, WalkTask, required_param_fields
from .evaluate import summarize_counts
from .io_formats import (
    CsvTable, FormatError, _read_json, context_to_json, csv_text, dump_json, float_text, load_corpus,
    load_manifest, save_corpus,
)
from .pipeline import CorpusEngine
from .simulate import simulate_corpus
from .tuning import cross_validate_study

ALL_ALGS = list(AlgorithmId)


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


def _load_labelled_corpus(corpus_dir, scored: bool = False) -> List[Recording]:
    """The corpus in ``corpus_dir``; each recording needs ground truth to be
    tuned against, and a labelled step too when its count is ``scored`` by
    percent error. The first that lacks them fails naming its sidecar."""
    dataset = load_corpus(corpus_dir)
    for i, rec in enumerate(dataset):  # load_corpus keeps the manifest's order
        if rec.ground_truth is None:
            problem = "has no ground truth"
        elif scored and rec.ground_truth.label_count == 0:
            problem = "has no labelled steps, so its count has no percent error"
        else:
            continue
        entry = list(load_manifest(corpus_dir)["recordings"].values())[i]
        raise FormatError(f"{Path(corpus_dir) / entry['files']['sidecar']}: recording {rec.id!r} {problem}")
    return dataset


def cmd_tune(args) -> int:
    cfg = _load_session_config(args.config)
    algorithms = _parse_algs(args.alg)
    try:
        grid = grid_from_config(cfg, algorithms)
    except ValueError as exc:
        raise FormatError(f"{args.config}: {exc}") from None
    dataset = _load_labelled_corpus(args.corpus)
    folds = args.folds if args.folds is not None else cfg.get("cv", {}).get("folds", 5)
    seed = args.seed if args.seed is not None else cfg.get("cv", {}).get("seed", 0)
    reports = cross_validate_study(dataset, algorithms, grid, k=folds, seed=seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tuned: Dict[str, dict] = {}
    for alg, report in reports.items():
        dump_json(out / f"cv_{alg.value}.json", report.to_dict())
        tuned[alg.value] = report.mean_params.to_dict()
        print(f"{alg.value}: mean test RMSE {report.mean_test_rmse:.3f}")
    dump_json(out / "tuned_params.json", tuned)
    return 0


def _params_for(alg: AlgorithmId, params_path: str) -> DetectorParams:
    """``alg``'s parameters from a ``tuned_params.json``, a ``cv_<alg>.json``
    report or a plain parameter object."""
    path = Path(params_path)
    where = f"{path}: parameters for {alg.value!r}"
    try:
        payload = _read_json(path)
    except FormatError as exc:
        raise FormatError(f"{exc} (reading the parameters for {alg.value!r})") from None
    if "mean_params" in payload:  # a single CVReport
        payload = {payload.get("algorithm"): payload["mean_params"]}
    if alg.value in payload:
        payload = payload[alg.value]
    if not isinstance(payload, dict):
        raise FormatError(f"{where} must be a JSON object, not {payload!r}")
    d = {k: v for k, v in payload.items() if v is not None}
    missing = [name for name in required_param_fields(alg) if name not in d]
    if missing:
        raise FormatError(f"{where}: missing {', '.join(missing)}")
    for name, v in d.items():
        if not _is_number(v):
            raise FormatError(f"{where}: {name} must be a number, not {v!r}")
    try:
        return DetectorParams.from_dict(d)
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from None


def _labelled_columns(labels: List[str], *series: List[np.ndarray]) -> List[List[str]]:
    """CSV columns for arrays grouped by label: ``labels[i]`` once per value
    of ``series[0][i]``, then one float column per ``series``, its arrays in
    order (``series[k][i]`` holds as many values for each ``k``)."""
    label_column = [label for label, values in zip(labels, series[0], strict=True) for _ in range(len(values))]
    return [label_column, *(float_text(np.concatenate([np.empty(0), *arrays])) for arrays in series)]


def cmd_detect(args) -> int:
    alg = AlgorithmId(args.alg)
    params = _params_for(alg, args.params)
    dataset = load_corpus(args.corpus)
    engine = CorpusEngine(dataset)
    # Every recording is detected before any output is opened, so a failure
    # leaves no partial files behind.
    found = [engine.steps(alg, rec.id, params) for rec in dataset]
    rids = [rec.id for rec in dataset]
    steps_text = csv_text("recording_id,time,amplitude", _labelled_columns(
        rids, [steps.times for steps in found], [steps.amplitudes for steps in found]))
    counts_text = csv_text("recording_id,count", [rids, [str(len(steps)) for steps in found]])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"steps_{alg.value}.csv").write_text(steps_text, newline="")
    (out / f"counts_{alg.value}.csv").write_text(counts_text, newline="")
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


def _detection_rows(path: Path, column: str, corpus_ids: Sequence[str], dtype: type = float) -> CsvTable:
    """``path``'s rows, each of which must name a recording of the corpus."""
    rows = CsvTable(path, [column], label="recording_id", dtype=dtype)
    rows.check(~np.isin(rows.labels, corpus_ids), lambda row: f"recording {rows.labels[row]!r} is not in the corpus")
    return rows


def _step_times(steps: CsvTable, counts: Dict[str, int], counts_path: Path,
                spans: Dict[str, Tuple[float, float]]) -> Dict[str, np.ndarray]:
    """The step times of each recording of ``counts`` in ``steps``, in file
    order; they must be finite, strictly increasing, within the recording's
    ``spans`` (first and last sample time) and one per step that
    ``counts_path`` counts."""
    t = steps.values[:, 0]
    steps.check(~np.isfinite(t), lambda row: f"{steps.field(row, 'time')!r} is not a finite number")
    labels = np.array(steps.labels, dtype=str)
    order = np.argsort(labels, kind="stable")  # each recording's rows together, in file order
    prev = np.full(len(t), -np.inf)  # the time of the previous row of the row's recording
    prev[order[1:]] = np.where(labels[order[1:]] == labels[order[:-1]], t[order[:-1]], -np.inf)
    steps.check(t <= prev, lambda row: f"time {float(t[row])!r} is not after the previous step of "
                                       f"recording {steps.labels[row]!r} at {float(prev[row])!r}")
    ids, of_row = np.unique(labels, return_inverse=True)
    first, last = np.array([spans[rid] for rid in ids]).T[:, of_row]
    steps.check((t < first) | (t > last), lambda row: f"time {float(t[row])!r} lies outside recording "
                                                      f"{steps.labels[row]!r}, whose samples span "
                                                      f"{float(first[row])!r} to {float(last[row])!r} s")
    times = {rid: t[labels == rid] for rid in counts}
    miscounted = next((rid for rid, count in counts.items() if len(times[rid]) != count), None)
    if miscounted is not None:
        raise FormatError(f"{steps.path}: recording {miscounted!r} has {len(times[miscounted])} steps, "
                          f"but {counts_path} counts {counts[miscounted]}")
    return times


def _read_detections(det_dir: Path, spans: Dict[str, Tuple[float, float]]):
    """Every ``counts_<alg>.csv`` in ``det_dir``, which must list each
    recording of ``spans``, the corpus, once, and its ``steps_<alg>.csv`` when
    that has rows. Every row must name a recording of the corpus. Counts must
    be 0 or more, and each recording's step times finite, strictly
    increasing, within its span and as many as its count."""
    corpus_ids = list(spans)
    counts_by_alg: Dict[AlgorithmId, Dict[str, int]] = {}
    times_by_alg: Dict[AlgorithmId, Dict[str, np.ndarray]] = {}
    for counts_path in sorted(det_dir.glob("counts_*.csv")):
        try:
            alg = AlgorithmId(counts_path.stem.replace("counts_", ""))
        except ValueError:
            raise FormatError(f"{counts_path}: not a detector's counts; the detectors are "
                              f"{', '.join(a.value for a in AlgorithmId)}") from None
        rows = _detection_rows(counts_path, "count", corpus_ids, int)
        rows.check(rows.values[:, 0] < 0,
                   lambda row: f"{rows.field(row, 'count')!r} is not an integer count of 0 or more")
        first = np.unique(rows.labels, return_index=True)[1]  # each recording's first row
        rows.check(~np.isin(np.arange(len(rows.labels)), first),
                   lambda row: f"recording {rows.labels[row]!r} is listed twice")
        counts = dict(zip(rows.labels, rows.values[:, 0].tolist()))
        missing = next((rid for rid in corpus_ids if rid not in counts), None)
        if missing is not None:
            raise FormatError(f"{counts_path}: recording {missing!r} of the corpus is missing")
        counts_by_alg[alg] = counts
        steps_path = det_dir / f"steps_{alg.value}.csv"
        steps = _detection_rows(steps_path, "time", corpus_ids) if steps_path.exists() else None
        if steps is not None and steps.lines:  # a steps file without rows holds no step times
            times_by_alg[alg] = _step_times(steps, counts, counts_path, spans)
    if not counts_by_alg:
        raise FormatError(f"no detection outputs (counts_*.csv) found in {det_dir}; run `detect` first")
    return counts_by_alg, times_by_alg


def cmd_evaluate(args) -> int:
    dataset = _load_labelled_corpus(args.corpus, scored=True)
    det_dir = Path(args.detections)
    wrists = {rec.id: (rec.left, rec.right) for rec in dataset}
    spans = {rid: (min(w.t0 for w in pair), max(w.t0 + (len(w) - 1) / w.rate for w in pair))  # first, last sample
             for rid, pair in wrists.items()}
    counts_by_alg, times_by_alg = _read_detections(det_dir, spans)
    result = summarize_counts(counts_by_alg, dataset, times_by_alg)
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
    rows = sorted(result.rows, key=lambda r: (r.algorithm.value, r.recording_id))
    scored = iter(float_text([row.pct_error for row in rows if row.pct_error is not None]))
    (out / "results_long.csv").write_text(csv_text("recording_id,task,algorithm,count,label,pct_error", [
        [row.recording_id for row in rows],
        [row.task.value for row in rows],
        [row.algorithm.value for row in rows],
        ["" if row.count is None else str(row.count) for row in rows],
        [str(row.label) for row in rows],
        ["" if row.pct_error is None else next(scored) for row in rows],
    ]), newline="")
    algs = sorted(result.phase, key=lambda a: a.value)
    (out / "phase_offsets.csv").write_text(csv_text("algorithm,dt_heel,dt_toe", _labelled_columns(
        [alg.value for alg in algs], [result.phase[alg].dt_heel for alg in algs],
        [result.phase[alg].dt_toe for alg in algs])), newline="")
    print(f"evaluated {len(counts_by_alg)} algorithm(s); summary in {out}")
    return 0


def cmd_report(args) -> int:
    summary_path = Path(args.evaluation) / "summary.json"
    if not summary_path.exists():
        raise FormatError(f"{summary_path} not found; run `evaluate` first")
    summary = _read_json(summary_path)
    try:
        lines = _report_lines(summary)
    except KeyError as exc:
        raise FormatError(f"{summary_path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{summary_path}: malformed summary: {exc}") from None
    print("\n".join(lines))
    return 0


def _report_lines(summary: dict) -> List[str]:
    """The per-task table and overall scores of an ``evaluate`` summary."""
    algs = [a.value for a in ALL_ALGS if a.value in summary["per_algorithm"]]
    lines = ["Mean percent error per task (signed):", f"{'task':<18}" + "".join(f"{a:>11}" for a in algs)]
    for task in WalkTask:
        cells = []
        for a in algs:
            s = summary["per_task"].get(f"{task.value}/{a}")
            cells.append(f"{s['mean']:>10.2f}%" if s else f"{'-':>11}")
        lines.append(f"{task.value:<18}" + "".join(cells))
    lines += ["", "Overall |percent error| mean and Pearson r:"]
    for a in algs:
        s = summary["per_algorithm"][a]
        r = "n/a" if s["pearson_r"] is None else f"{s['pearson_r']:.4f}"
        lines.append(f"  {a:<10} mean|err| {s['mean_abs']:6.2f}%   r {r}")
    return lines


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
