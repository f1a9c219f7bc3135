"""The benchmark's three workloads.

Each workload has ``setup(i)`` (timed for ``setup_s``), ``round(i, stages)``
(one whole round of the timed operations, appending stage times to
``stages``) and ``check()``, which raises ``CheckFailed`` when an output is
wrong. A round returns ``(attempted, failed)`` operation counts.
"""
from __future__ import annotations

import contextlib
import filecmp
import io
import json
import math
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

import dualwrist as dw
from dualwrist import cli, io_formats
from dualwrist.config import write_config

import reference

ALGS = [a.value for a in dw.AlgorithmId]
FIXED_PARAMS = Path(__file__).with_name("fixed_params.json")


class CheckFailed(Exception):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def sample_recordings(rng: np.random.Generator, recs, k: int):
    return [recs[i] for i in sorted(rng.choice(len(recs), size=k, replace=False))]


def params_dict(p) -> dict:
    return {k: v for k, v in p.to_dict().items() if v is not None}


def check_counts(ref: reference.Reference, alg: str, params: dict, recs, got: Dict[str, int], where: str):
    want = ref.counts(alg, params, recs)
    for rid, n in want.items():
        expect(got[rid] == n, f"{where}: {alg} count on {rid} is {got[rid]}, reference {n}")


def row_counts(result, alg: str) -> Dict[str, int]:
    return {r.recording_id: r.count for r in result.rows if r.algorithm.value == alg}


def error_rows(result) -> int:
    return sum(r.error is not None for r in result.rows)


def check_accuracy_order(summary, where: str) -> None:
    """Acceptance criteria 1-2: union beats both single wrists on mean
    |error| and on correlation; diff has the worst mean |error|."""
    s = {a.value: v for a, v in summary.per_algorithm.items()}
    for single in ("left", "right"):
        expect(s["union"].mean_abs < s[single].mean_abs, f"{where}: union mean|err| not below {single}")
        expect(s["union"].pearson_r > s[single].pearson_r, f"{where}: union r not above {single}")
    worst = max(s, key=lambda a: s[a].mean_abs)
    expect(worst == "diff", f"{where}: worst mean|err| is {worst}, not diff")


class CvStudy:
    """The acceptance full run: 5-fold CV of all six detectors on the default
    203-recording corpus (seed 42), then evaluation at the cross-fold mean
    parameters. The workload seed deals the folds; the corpus stays the
    default one, whose accuracy ordering the acceptance criteria state."""

    min_rounds = 1

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.spec = dw.CorpusSpec()
        self.recs = None
        self.last = None
        self.rounds_agree = True

    def setup(self, i: int) -> None:
        recs = dw.simulate_corpus(self.spec)
        if self.recs is not None:
            expect(recs == self.recs, "simulate_corpus is not deterministic")
        self.recs = recs

    def round(self, i: int, stages: Dict[str, List[float]]):
        t0 = time.perf_counter()
        engine = dw.CorpusEngine(self.recs)
        grid = dw.ParamGrid()
        reports = {
            alg: dw.cross_validate(self.recs, alg, grid, k=5, seed=self.seed, engine=engine)
            for alg in dw.AlgorithmId
        }
        t1 = time.perf_counter()
        params = {alg: rep.mean_params for alg, rep in reports.items()}
        result = dw.evaluate_corpus(self.recs, list(dw.AlgorithmId), params, engine=engine)
        t2 = time.perf_counter()
        stages["tune_s"].append(t1 - t0)
        stages["evaluate_s"].append(t2 - t1)
        stages["wall_s"].append(t2 - t0)
        if self.last is not None:
            self.rounds_agree &= result.rows == self.last[2].rows and all(
                reports[a].to_dict() == self.last[1][a].to_dict() for a in reports)
        self.last = (engine, reports, result)
        return len(reports) + len(result.rows), error_rows(result)

    def check(self) -> None:
        expect(self.rounds_agree, "repeated rounds gave different reports or rows")
        engine, reports, result = self.last
        check_accuracy_order(result.summary, "cv_study")
        rng = np.random.default_rng([self.seed, 1])
        recs = sample_recordings(rng, self.recs, 3)
        ref = reference.Reference(self.recs)
        grid = dw.ParamGrid()
        for alg in dw.AlgorithmId:
            mean = params_dict(reports[alg].mean_params)
            check_counts(ref, alg.value, mean, recs, row_counts(result, alg.value), "cv_study mean params")
            points = grid.points(alg)
            point = points[int(rng.integers(len(points)))]
            got = dw.evaluate_corpus(recs, [alg], {alg: point}, engine=engine)
            check_counts(ref, alg.value, params_dict(point), recs, row_counts(got, alg.value), "cv_study grid point")


@contextlib.contextmanager
def quiet():
    """Keep the CLI's messages out of the benchmark's output."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        yield


def same_tree(a: Path, b: Path) -> bool:
    """Every file under ``a`` and ``b`` exists on both sides, byte-identical."""
    names_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    names_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if names_a != names_b:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, [str(n) for n in names_a], shallow=False)
    return not mismatch and not errors


class CliSession:
    """The on-disk chain through the CLI entry point on a few dozen
    recordings: simulate, tune on a small grid, detect with each detector,
    evaluate; then one detect on a corpus with a non-finite sample. The
    corpus seed is fixed, so that its size does not change with the workload
    seed, which deals the CV folds."""

    min_rounds = 2  # two chains, compared byte for byte
    tasks_per_walk = 3
    corpus_seed = 42
    grid = {
        "smooth_single": [0.1, 0.2],
        "smooth_fused": [0.0, 0.08],
        "min_peak_amp": [0.08, 0.12],
        "min_peak_gap": [0.28, 0.4],
        "fuse_max_dist": [0.18, 0.3],
        "fuse_min_dist": [0.18, 0.3],
    }

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.cfg = work / "config.json"
        tasks = {t.value: self.tasks_per_walk for t in dw.WalkTask}
        write_config(
            {"version": 1, "corpus": {"seed": self.corpus_seed, "tasks": tasks},
             "cv": {"folds": 5, "seed": seed}, "grid": self.grid},
            self.cfg,
        )
        self.corpora: List[Path] = []
        self.bad_corpus = self._make_nonfinite_corpus()

    def _make_nonfinite_corpus(self) -> Path:
        """One recording per task at a fixed seed, with one ``nan`` sample."""
        cfg = self.work / "nonfinite_config.json"
        write_config({"version": 1, "corpus": {"seed": 0, "tasks": {t.value: 1 for t in dw.WalkTask}}}, cfg)
        out = self.work / "nonfinite_corpus"
        with quiet():
            expect(cli.cli_main(["simulate", "--spec", str(cfg), "--out", str(out)]) == 0, "simulate failed")
        csv = out / "slow_pace_000_left.csv"
        lines = csv.read_text().split("\n")
        fields = lines[100].split(",")
        fields[1] = "nan"
        lines[100] = ",".join(fields)
        csv.write_text("\n".join(lines))
        return out

    def setup(self, i: int) -> None:
        out = self.work / f"corpus{i}"
        with quiet():
            rc = cli.cli_main(["simulate", "--spec", str(self.cfg), "--out", str(out)])
        expect(rc == 0, "simulate command failed")
        self.corpora.append(out)

    def _spec(self):
        return dw.CorpusSpec(task_counts={t: self.tasks_per_walk for t in dw.WalkTask}, seed=self.corpus_seed)

    def _run(self, argv) -> int:
        with quiet():
            return cli.cli_main(argv)

    def round(self, i: int, stages: Dict[str, List[float]]):
        corpus = str(self.corpora[0])
        base = self.work / f"chain{i}"
        tuned, det, ev = base / "tuned", base / "det", base / "eval"
        params = str(tuned / "tuned_params.json")
        rcs = []
        t0 = time.perf_counter()
        rcs.append(self._run(["tune", "--corpus", corpus, "--config", str(self.cfg), "--out", str(tuned)]))
        t1 = time.perf_counter()
        for alg in ALGS:
            rcs.append(self._run(["detect", "--alg", alg, "--params", params, "--corpus", corpus, "--out", str(det)]))
        t2 = time.perf_counter()
        rcs.append(self._run(["evaluate", "--corpus", corpus, "--detections", str(det), "--out", str(ev)]))
        t3 = time.perf_counter()
        # Fails today on the non-finite sample; its time enters no metric.
        rcs.append(self._run(["detect", "--alg", "union", "--params", params,
                              "--corpus", str(self.bad_corpus), "--out", str(base / "det_nonfinite")]))
        stages["tune_s"].append(t1 - t0)
        stages["detect_s"].append(t2 - t1)
        stages["evaluate_s"].append(t3 - t2)
        stages["wall_s"].append(t3 - t0)
        return len(rcs), sum(rc != 0 for rc in rcs)

    def check(self) -> None:
        for other in self.corpora[1:]:
            expect(same_tree(self.corpora[0], other), f"simulate wrote different bytes to {other.name}")
        chains = sorted(self.work.glob("chain*"))
        for other in chains[1:]:
            for sub in ("tuned", "det", "eval"):
                expect(same_tree(chains[0] / sub, other / sub), f"{other.name}/{sub} differs from {chains[0].name}")
        recs = io_formats.load_corpus(self.corpora[0])
        # load_corpus returns recordings in id order, not simulation order.
        by_id = {r.id: r for r in dw.simulate_corpus(self._spec())}
        expect(sorted(by_id) == [r.id for r in recs] and all(r == by_id[r.id] for r in recs),
               "load_corpus(simulate output) != simulate_corpus")
        self._check_summary(chains[0] / "eval")
        tuned = json.loads((chains[0] / "tuned" / "tuned_params.json").read_text())
        rng = np.random.default_rng([self.seed, 2])
        sample = sample_recordings(rng, recs, 3)
        ref = reference.Reference(recs)
        for alg in ALGS:
            params = {k: v for k, v in tuned[alg].items() if v is not None}
            det = chains[0] / "det"
            counts = {}
            with open(det / f"counts_{alg}.csv") as f:
                f.readline()
                for line in f:
                    rid, n = line.strip().rsplit(",", 1)
                    counts[rid] = int(n)
            expect(sorted(counts) == sorted(r.id for r in recs), f"counts_{alg}.csv lists other recordings")
            ctx = json.loads((det / f"detect_{alg}.json").read_text())["context"]
            lo, hi = ref.context(reference.family_of(alg, params))
            tol = 1e-9 * (hi - lo)
            expect(abs(ctx["global_min"] - lo) <= tol and abs(ctx["global_max"] - hi) <= tol,
                   f"detect_{alg}.json context {ctx} differs from reference ({lo}, {hi})")
            check_counts(ref, alg, params, sample, counts, "cli_session tuned params")

    def _check_summary(self, ev: Path) -> None:
        """summary.json means recomputed from results_long.csv."""
        errors: Dict[str, List[float]] = {}
        with open(ev / "results_long.csv") as f:
            f.readline()
            for line in f:
                rid, task, alg, count, label, err = line.rstrip("\n").split(",")
                errors.setdefault(alg, []).append(float(err))
        summary = json.loads((ev / "summary.json").read_text())["per_algorithm"]
        expect(sorted(summary) == sorted(errors) == sorted(ALGS), "summary.json algorithms differ from results_long.csv")
        for alg, errs in errors.items():
            mean = math.fsum(errs) / len(errs)
            mean_abs = math.fsum(abs(e) for e in errs) / len(errs)
            for key, want in (("mean", mean), ("mean_abs", mean_abs)):
                got = summary[alg][key]
                expect(math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12),
                       f"summary.json {alg} {key} {got} != {want} from results_long.csv")


class FreeLiving:
    """Hour-long recordings; all six detectors at fixed parameters through
    evaluate_corpus, with phase offsets for every detector."""

    min_rounds = 2
    tasks = (dw.WalkTask.COMFORTABLE_PACE, dw.WalkTask.SLOW_PACE,
             dw.WalkTask.FAST_PACE, dw.WalkTask.PHONE_TWO_HANDS)
    duration = 3600.0

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        fixed = json.loads(FIXED_PARAMS.read_text())
        self.params = {dw.AlgorithmId(a): dw.DetectorParams.from_dict(p) for a, p in fixed.items()}
        self.recs = None
        self.first = None  # the first round's result; later rounds must match it
        self.rounds_agree = True

    def setup(self, i: int) -> None:
        seeds = np.random.SeedSequence(self.seed).generate_state(len(self.tasks))
        recs = [
            dw.simulate_recording(
                task,
                overrides={"duration": self.duration, "lead_in": 5.0, "lead_out": 5.0},
                subject_id=f"subj{k:02d}",
                seed=int(s),
                recording_id=f"free_{task.value}",
            )
            for k, (task, s) in enumerate(zip(self.tasks, seeds))
        ]
        if self.recs is not None:
            expect(recs == self.recs, "simulate_recording is not deterministic")
        self.recs = recs

    def round(self, i: int, stages: Dict[str, List[float]]):
        t0 = time.perf_counter()
        result = dw.evaluate_corpus(self.recs, list(dw.AlgorithmId), self.params,
                                    engine=dw.CorpusEngine(self.recs), phase_algorithms=list(dw.AlgorithmId))
        t1 = time.perf_counter()
        stages["evaluate_s"].append(t1 - t0)
        stages["wall_s"].append(t1 - t0)
        if self.first is None:
            self.first = result
        else:
            self.rounds_agree &= result.rows == self.first.rows
        return len(result.rows), error_rows(result)

    def check(self) -> None:
        result = self.first
        expect(self.rounds_agree, "repeated evaluate_corpus rows differ")
        toe = result.phase[dw.AlgorithmId.HIGH_LEVEL_UNION].toe_mean
        width = dw.GaitModelParams().impact_width
        expect(abs(toe) < width, f"union steps sit {toe:.4f} s from toe-off, beyond the impact width {width}")
        expect(set(result.phase) == set(dw.AlgorithmId), "phase offsets missing for some detector")
        rng = np.random.default_rng([self.seed, 3])
        sample = sample_recordings(rng, self.recs, 1)
        ref = reference.Reference(self.recs)
        for alg, p in self.params.items():
            check_counts(ref, alg.value, params_dict(p), sample, row_counts(result, alg.value), "free_living")


WORKLOADS = {"cv_study": CvStudy, "cli_session": CliSession, "free_living": FreeLiving}
