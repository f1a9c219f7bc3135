"""Acceptance gate: eight end-to-end criteria on the seeded synthetic corpus.

Each criterion is one test, so a verbose run prints one pass/fail line per
criterion. Supporting metrics are printed for inspection with ``-s``.
"""
import filecmp
import json
import time

import numpy as np
import pytest

from dualwrist import (
    AlgorithmId,
    CorpusEngine,
    CorpusSpec,
    DetectorParams,
    ParamGrid,
    PeakSet,
    ScalarSeries,
    WalkTask,
    cross_validate_study,
    detect_peaks,
    evaluate_corpus,
    intersect_fuse,
    moving_average,
    pearson_r,
    percent_error,
    phase_offsets,
    simulate_corpus,
    simulate_recording,
    union_fuse,
)
from dualwrist.cli import cli_main
from dualwrist.config import write_config
from dualwrist.simulate import GaitModelParams

from test_fusion import ref_intersect, ref_union
from test_peaks import ref_detect

SINGLE_SIDE = (AlgorithmId.NO_FUSION_LEFT, AlgorithmId.NO_FUSION_RIGHT)


@pytest.fixture(scope="module")
def full_run():
    """The complete pipeline: simulate 203 recordings, tune all six detectors
    with five-fold CV, evaluate each at its cross-fold mean parameters."""
    t0 = time.perf_counter()
    dataset = simulate_corpus(CorpusSpec())  # 203 recordings, seed 42
    engine = CorpusEngine(dataset)
    grid = ParamGrid()
    reports = cross_validate_study(dataset, list(AlgorithmId), grid, k=5, seed=0, engine=engine)
    evaluation = evaluate_corpus(
        dataset,
        list(AlgorithmId),
        {alg: rep.mean_params for alg, rep in reports.items()},
        engine=engine,
    )
    elapsed = time.perf_counter() - t0
    return dataset, engine, reports, evaluation, elapsed


def test_criterion_1_fusion_dominance_and_runtime(full_run):
    dataset, _, _, evaluation, elapsed = full_run
    assert len(dataset) == 203
    mean_abs = {
        alg: s.mean_abs for alg, s in evaluation.summary.per_algorithm.items()
    }
    print({a.value: round(e, 2) for a, e in mean_abs.items()}, f"elapsed {elapsed:.1f}s")
    union = mean_abs[AlgorithmId.HIGH_LEVEL_UNION]
    assert union < mean_abs[AlgorithmId.NO_FUSION_LEFT]
    assert union < mean_abs[AlgorithmId.NO_FUSION_RIGHT]
    worst = max(mean_abs, key=mean_abs.get)
    assert worst is AlgorithmId.LOW_LEVEL_DIFF
    assert elapsed < 120.0


def test_criterion_2_correlation_ordering(full_run):
    _, _, _, evaluation, _ = full_run
    r = {alg: s.pearson_r for alg, s in evaluation.summary.per_algorithm.items()}
    print({a.value: round(v, 4) for a, v in r.items()})
    assert r[AlgorithmId.HIGH_LEVEL_UNION] > r[AlgorithmId.NO_FUSION_LEFT]
    assert r[AlgorithmId.HIGH_LEVEL_UNION] > r[AlgorithmId.NO_FUSION_RIGHT]
    assert r[AlgorithmId.HIGH_LEVEL_UNION] >= 0.95


def test_criterion_3_per_task_robustness(full_run):
    _, _, _, evaluation, _ = full_run
    union_by_task = {
        task.value: s.mean_abs
        for (task, alg), s in evaluation.per_task.items()
        if alg is AlgorithmId.HIGH_LEVEL_UNION
    }
    print("union per task:", {t: round(e, 2) for t, e in union_by_task.items()})
    assert len(union_by_task) == 8
    assert all(err <= 3.0 for err in union_by_task.values())

    hard_tasks = (
        WalkTask.SLOW_PACE,
        WalkTask.FAST_PACE,
        WalkTask.NO_RIGHT_SHOE,
        WalkTask.CANE_RIGHT_HAND,
    )
    single_errs = [
        evaluation.per_task[(task, alg)].mean_abs
        for task in hard_tasks
        for alg in SINGLE_SIDE
    ]
    print("single-side on hard tasks, max:", round(max(single_errs), 2))
    assert max(single_errs) > 5.0


def test_criterion_4_exact_oracles():
    rng = np.random.default_rng(123)

    def random_peaks():
        n = int(rng.integers(0, 11))
        # Dyadic grid times keep all distance arithmetic exact.
        times = np.unique(rng.integers(0, 1920, size=n)) / 64.0
        amps = rng.uniform(0.01, 5.0, size=len(times))
        return PeakSet(times=times, amplitudes=amps)

    for _ in range(1000):
        left, right = random_peaks(), random_peaks()
        dist = float(rng.integers(0, 128)) / 64.0
        assert intersect_fuse(left, right, dist) == ref_intersect(left, right, dist)
        assert union_fuse(left, right, dist) == ref_union(left, right, dist)

    for _ in range(500):
        n = int(rng.integers(3, 257))
        # Coarse quantization provokes plateaus and exact amplitude ties.
        values = rng.integers(0, 40, size=n) / 8.0
        series = ScalarSeries(rate=32.0, values=values, t0=0.25)
        min_amp = float(rng.integers(0, 40)) / 8.0
        min_gap = float(rng.uniform(0.0, 2.0))
        got = detect_peaks(series, min_amp, min_gap)
        want = ref_detect(values, 32.0, 0.25, min_amp, min_gap)
        assert np.array_equal(got.times, np.asarray(want))
    print("1000 fusion instances and 500 peak-detection series matched exactly")


def test_criterion_5_toe_off_adjacency(full_run):
    _, _, reports, _, _ = full_run
    params = reports[AlgorithmId.HIGH_LEVEL_UNION].mean_params
    quiet = [
        simulate_recording(
            WalkTask.COMFORTABLE_PACE,
            overrides={"noise_std": 0.0, "duration": 70.0,
                       "lead_in": 3.0, "lead_out": 3.0},
            seed=seed,
            recording_id=f"quiet_{seed}",
        )
        for seed in range(5)
    ]
    engine = CorpusEngine(quiet)
    dt_toe = np.concatenate([
        phase_offsets(
            engine.steps(AlgorithmId.HIGH_LEVEL_UNION, rec.id, params),
            rec.ground_truth,
        ).dt_toe
        for rec in quiet
    ])
    print(f"n={len(dt_toe)} std={np.std(dt_toe):.4f} mean={np.mean(dt_toe):.4f}")
    assert len(dt_toe) > 100
    assert np.std(dt_toe) < 0.05
    assert abs(np.mean(dt_toe)) < GaitModelParams().impact_width


def test_criterion_6_tuner_sanity(full_run):
    _, _, reports, _, _ = full_run
    gaps = {
        alg.value: [p.min_peak_gap for p in rep.fold_params]
        for alg, rep in reports.items()
    }
    print(gaps)
    for fold_gaps in gaps.values():
        assert all(0.2 <= g <= 0.45 for g in fold_gaps)
    for p in reports[AlgorithmId.HIGH_LEVEL_INTERSECT].fold_params:
        assert p.fuse_max_dist <= p.min_peak_gap


def test_criterion_7_byte_identical_pipelines(tmp_path):
    cfg_payload = {
        "version": 1,
        "corpus": {
            "seed": 7,
            "tasks": {"slow_pace": 3, "comfortable_pace": 3, "no_right_shoe": 3},
        },
        "cv": {"folds": 3, "seed": 0},
        "grid": {
            "smooth_single": [0.1, 0.2],
            "smooth_fused": [0.0, 0.08],
            "min_peak_amp": [0.08, 0.12],
            "min_peak_gap": [0.22, 0.4],
            "fuse_max_dist": [0.18, 0.3],
            "fuse_min_dist": [0.18, 0.3],
        },
    }
    cfg = tmp_path / "cfg.json"
    write_config(cfg_payload, cfg)

    def run(tag):
        base = tmp_path / tag
        assert cli_main(["simulate", "--spec", str(cfg),
                         "--out", str(base / "corpus")]) == 0
        assert cli_main(["tune", "--corpus", str(base / "corpus"),
                         "--out", str(base / "tuned"), "--config", str(cfg)]) == 0
        for alg in ("left", "union"):
            assert cli_main(["detect", "--alg", alg,
                             "--params", str(base / "tuned" / "tuned_params.json"),
                             "--corpus", str(base / "corpus"),
                             "--out", str(base / "det")]) == 0
        assert cli_main(["evaluate", "--corpus", str(base / "corpus"),
                         "--detections", str(base / "det"),
                         "--out", str(base / "eval")]) == 0
        return base

    a, b = run("a"), run("b")
    for sub in ("corpus", "tuned", "det", "eval"):
        names = sorted(p.name for p in (a / sub).iterdir())
        assert names == sorted(p.name for p in (b / sub).iterdir())
        match, mismatch, errors = filecmp.cmpfiles(a / sub, b / sub, names, shallow=False)
        assert mismatch == [] and errors == []
    print("simulate/tune/detect/evaluate outputs byte-identical across runs")


def test_criterion_8_numerical_properties():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(3, 200))
        a = rng.normal(0.0, 10.0, n)
        b = rng.normal(0.0, 10.0, n)
        alpha, beta = rng.normal(0.0, 3.0, 2)
        window = float(rng.uniform(0.0, 1.0))
        sa = ScalarSeries(rate=32.0, values=a)
        sb = ScalarSeries(rate=32.0, values=b)
        combo = moving_average(sa.with_values(alpha * a + beta * b), window).values
        parts = (alpha * moving_average(sa, window).values
                 + beta * moving_average(sb, window).values)
        assert np.max(np.abs(combo - parts)) < 1e-12 * (1 + np.max(np.abs(combo)))
        c = float(rng.normal(0.0, 100.0))
        flat = moving_average(sa.with_values(np.full(n, c)), window).values
        assert np.max(np.abs(flat - c)) < 1e-12 * (1 + abs(c))

    for _ in range(25):
        n = int(rng.integers(3, 50))
        xs = rng.normal(0.0, 50.0, n)
        slope = float(rng.uniform(0.1, 5.0))
        offset = float(rng.normal(0.0, 20.0))
        assert abs(pearson_r(xs, slope * xs + offset) - 1.0) < 1e-9
        assert abs(pearson_r(xs, -slope * xs + offset) + 1.0) < 1e-9

    assert percent_error(98, 100) == pytest.approx(-2.0)
    assert percent_error(105, 100) == pytest.approx(5.0)
    assert percent_error(100, 100) == 0.0
    with pytest.raises(ValueError):
        percent_error(1, 0)
