"""Accuracy metrics, outlier filtering, and phase-offset analysis."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualwrist import (
    AlgorithmId,
    CorpusEngine,
    CorpusSpec,
    DetectorParams,
    GroundTruth,
    TriaxialSeries,
    cadence_outlier_filter,
    evaluate_corpus,
    pearson_r,
    percent_error,
    phase_offsets,
    simulate_corpus,
)
from dualwrist.evaluate import summarize_counts

from conftest import peaks


class TestPercentError:
    def test_signed_examples(self):
        assert percent_error(98, 100) == pytest.approx(-2.0)
        assert percent_error(105, 100) == pytest.approx(5.0)
        assert percent_error(100, 100) == 0.0

    def test_label_must_be_positive(self):
        with pytest.raises(ValueError):
            percent_error(10, 0)
        with pytest.raises(ValueError):
            percent_error(10, -5)


class TestPearson:
    def test_worked_example(self):
        assert pearson_r([1, 2, 3], [1, 2, 4]) == pytest.approx(0.9820, abs=5e-5)

    def test_perfect_anticorrelation(self):
        xs = [1.0, 2.0, 5.0]
        assert pearson_r(xs, [-x for x in xs]) == pytest.approx(-1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            pearson_r([1.0], [1.0])
        with pytest.raises(ValueError):
            pearson_r([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            pearson_r([1.0, 1.0], [1.0, 2.0])

    @given(
        st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=20),
        st.floats(0.01, 10.0),
        st.floats(-50.0, 50.0),
    )
    @settings(max_examples=100)
    def test_affine_invariance(self, xs, a, b):
        if np.ptp(xs) < 1e-3:
            return  # too little spread for a numerically meaningful r
        ys = [a * x + b for x in xs]
        assert pearson_r(xs, ys) == pytest.approx(1.0, abs=1e-9)
        ys_neg = [-a * x + b for x in xs]
        assert pearson_r(xs, ys_neg) == pytest.approx(-1.0, abs=1e-9)


def _with_self_count(rec, self_count):
    return dataclasses.replace(rec, self_count=self_count)


@pytest.fixture(scope="module")
def filter_corpus():
    from dualwrist import WalkTask

    return simulate_corpus(
        CorpusSpec(task_counts={WalkTask.COMFORTABLE_PACE: 20}, seed=13)
    )


class TestCadenceOutlierFilter:
    def test_removes_exact_ceiling(self, filter_corpus):
        res = cadence_outlier_filter(filter_corpus, frac=0.05)
        assert len(res.removed_ids) == 1  # ceil(0.05 * 20)
        assert len(res.kept) == 19
        res = cadence_outlier_filter(filter_corpus, frac=0.051)
        assert len(res.removed_ids) == 2  # ceil rounds up

    def test_zero_frac_keeps_all(self, filter_corpus):
        res = cadence_outlier_filter(filter_corpus, frac=0.0)
        assert res.kept == list(filter_corpus)
        assert res.removed_ids == []

    def test_removes_largest_deviation_first(self, filter_corpus):
        wild = _with_self_count(filter_corpus[3],
                                filter_corpus[3].ground_truth.label_count * 2)
        dataset = [wild if r.id == wild.id else r for r in filter_corpus]
        res = cadence_outlier_filter(dataset, frac=0.05)
        assert res.removed_ids == [wild.id]

    def test_unranked_retained(self, filter_corpus):
        blank = dataclasses.replace(filter_corpus[0], self_count=None)
        dataset = [blank] + list(filter_corpus[1:])
        res = cadence_outlier_filter(dataset, frac=0.05)
        assert blank.id in res.unranked_ids
        assert any(r.id == blank.id for r in res.kept)
        # 19 ranked recordings -> ceil(0.95) = 1 removal.
        assert len(res.removed_ids) == 1

    def test_idempotent_on_survivors(self, filter_corpus):
        first = cadence_outlier_filter(filter_corpus, frac=0.05)
        second = cadence_outlier_filter(first.kept, frac=0.0)
        assert [r.id for r in second.kept] == [r.id for r in first.kept]

    def test_frac_validation(self, filter_corpus):
        with pytest.raises(ValueError):
            cadence_outlier_filter(filter_corpus, frac=1.0)
        with pytest.raises(ValueError):
            cadence_outlier_filter(filter_corpus, frac=-0.1)


def _gt(toes_left, toes_right):
    toes_left = np.asarray(toes_left, dtype=float)
    toes_right = np.asarray(toes_right, dtype=float)
    all_toes = np.sort(np.concatenate([toes_left, toes_right]))
    return GroundTruth(
        step_times=all_toes - 0.1,
        heel_strikes_left=toes_left - 0.2,
        heel_strikes_right=toes_right - 0.2,
        toe_offs_left=toes_left,
        toe_offs_right=toes_right,
        label_count=len(all_toes),
    )


class TestPhaseOffsets:
    def test_worked_example(self):
        gt = _gt([1.0], [2.0])
        offs = phase_offsets(peaks([1.4]), gt)
        assert np.allclose(offs.dt_toe, [0.4])

    def test_midpoint_resolves_to_earlier(self):
        gt = _gt([1.0], [2.0])
        offs = phase_offsets(peaks([1.5]), gt)
        assert np.allclose(offs.dt_toe, [0.5])

    # Times on a 1/64 s grid keep every distance exact, so midpoints are true ties.
    @given(st.lists(st.integers(0, 640), min_size=1, max_size=20, unique=True),
           st.lists(st.integers(-64, 704), max_size=40, unique=True))
    @settings(max_examples=200)
    def test_matches_brute_force_nearest(self, toe_q, step_q):
        toes = np.sort(toe_q) / 64
        times = np.sort(step_q) / 64
        offs = phase_offsets(peaks(times), _gt(toes, []))
        # min() over (distance, time) picks the earlier toe-off on a tie.
        expected = [t - min(toes, key=lambda e: (abs(t - e), e)) for t in times]
        assert np.array_equal(offs.dt_toe, np.array(expected, dtype=float))

    def test_signed_offsets(self):
        gt = _gt([1.0], [2.0])
        offs = phase_offsets(peaks([0.9, 2.2]), gt)
        assert np.allclose(offs.dt_toe, [-0.1, 0.2])

    def test_heel_and_toe_computed_separately(self):
        gt = _gt([1.0], [2.0])
        offs = phase_offsets(peaks([0.95]), gt)
        assert np.allclose(offs.dt_heel, [0.15])  # nearest heel strike at 0.8
        assert np.allclose(offs.dt_toe, [-0.05])

    def test_offset_bounded_by_half_max_interval(self):
        gt = _gt([1.0, 3.0, 5.0], [2.0, 4.0, 6.0])
        times = np.sort(np.random.default_rng(0).uniform(1.0, 6.0, 25))
        offs = phase_offsets(peaks(times), gt)
        assert np.max(np.abs(offs.dt_toe)) <= 0.5 + 1e-12


class TestSummaries:
    def test_summarize_counts_shapes(self, filter_corpus):
        labels = {r.id: r.ground_truth.label_count for r in filter_corpus}
        counts = {
            AlgorithmId.NO_FUSION_LEFT: {rid: n + 1 for rid, n in labels.items()},
            AlgorithmId.HIGH_LEVEL_UNION: dict(labels),
        }
        result = summarize_counts(counts, filter_corpus)
        assert set(result.summary.per_algorithm) == set(counts)
        union = result.summary.per_algorithm[AlgorithmId.HIGH_LEVEL_UNION]
        assert union.mean == 0.0 and union.mean_abs == 0.0
        left = result.summary.per_algorithm[AlgorithmId.NO_FUSION_LEFT]
        assert left.mean > 0
        assert len(result.rows) == 2 * len(filter_corpus)

    def test_evaluate_corpus_runs_detectors(self, small_corpus):
        params = DetectorParams(smooth_single=0.1, min_peak_amp=0.12,
                                min_peak_gap=0.4, fuse_min_dist=0.3)
        algs = [AlgorithmId.NO_FUSION_LEFT, AlgorithmId.HIGH_LEVEL_UNION]
        result = evaluate_corpus(small_corpus, algs, {a: params for a in algs})
        assert set(result.summary.per_algorithm) == set(algs)
        # Phase offsets default to the union detector only.
        assert set(result.phase) == {AlgorithmId.HIGH_LEVEL_UNION}
        rep = result.phase[AlgorithmId.HIGH_LEVEL_UNION]
        assert len(rep.dt_toe) == len(rep.dt_heel) > 0
        assert np.isfinite(rep.toe_mean) and np.isfinite(rep.toe_std)

    def test_evaluate_corpus_error_rows(self, small_corpus):
        # Union fusion without fuse_min_dist fails per-recording, not globally.
        bad = DetectorParams(smooth_single=0.1, min_peak_amp=0.12, min_peak_gap=0.4)
        result = evaluate_corpus(
            small_corpus, [AlgorithmId.HIGH_LEVEL_UNION],
            {AlgorithmId.HIGH_LEVEL_UNION: bad},
        )
        error_rows = [row for row in result.rows if row.error is not None]
        assert len(error_rows) == len(small_corpus)
        assert all("fuse_min_dist" in row.error for row in error_rows)
        # With zero successful recordings there is nothing to summarize.
        assert AlgorithmId.HIGH_LEVEL_UNION not in result.summary.per_algorithm

    def test_evaluate_corpus_propagates_a_bug(self, small_corpus, monkeypatch):
        """Only a failed recording's ValueError becomes an error row: any other
        exception is a bug, and it propagates."""
        engine = CorpusEngine(small_corpus)

        def broken(*args):
            raise TypeError("broken steps")

        monkeypatch.setattr(engine, "steps", broken)
        params = {AlgorithmId.NO_FUSION_LEFT: DetectorParams(smooth_single=0.1, min_peak_amp=0.12,
                                                             min_peak_gap=0.4)}
        with pytest.raises(TypeError, match="broken steps"):
            evaluate_corpus(small_corpus, list(params), params, engine=engine)

    def test_recording_without_ground_truth_is_named(self, small_corpus):
        """Counting and error rows both need a label: a recording without
        ground truth is an error naming it, not an AttributeError."""
        bare = dataclasses.replace(small_corpus[1], ground_truth=None)
        recs = [small_corpus[0], bare]
        match = f"recording '{bare.id}' has no ground truth"
        with pytest.raises(ValueError, match=match):
            summarize_counts({AlgorithmId.NO_FUSION_LEFT: {r.id: 10 for r in recs}}, recs)
        no_dist = DetectorParams(smooth_single=0.1, min_peak_amp=0.12, min_peak_gap=0.4)
        with pytest.raises(ValueError, match=match):  # every recording becomes an error row
            evaluate_corpus(recs, [AlgorithmId.HIGH_LEVEL_UNION], {AlgorithmId.HIGH_LEVEL_UNION: no_dist})

    def test_evaluate_corpus_isolates_a_bad_recording(self, small_corpus):
        # Two samples are too few for peak detection; only that recording fails.
        rec = small_corpus[0]

        def head(s):
            return TriaxialSeries(rate=s.rate, x=s.x[:2], y=s.y[:2], z=s.z[:2], t0=s.t0)

        short = dataclasses.replace(rec, id="short", left=head(rec.left),
                                    right=head(rec.right), duration=2 / rec.rate)
        params = DetectorParams(smooth_single=0.1, min_peak_amp=0.12,
                                min_peak_gap=0.4, fuse_min_dist=0.3)
        algs = [AlgorithmId.NO_FUSION_LEFT, AlgorithmId.HIGH_LEVEL_UNION]
        result = evaluate_corpus(list(small_corpus) + [short], algs, {a: params for a in algs})
        error_rows = [row for row in result.rows if row.error is not None]
        assert [(row.recording_id, row.algorithm) for row in error_rows] == [
            ("short", alg) for alg in algs
        ]
        assert all("at least 3 samples" in row.error for row in error_rows)
        assert len(result.rows) == len(algs) * (len(small_corpus) + 1)

    def test_engine_without_a_recording_is_named(self, small_corpus):
        """An engine built on part of the dataset names the first recording it
        lacks rather than turning each into an error row."""
        engine = CorpusEngine(small_corpus[:4])
        params = {AlgorithmId.NO_FUSION_LEFT: DetectorParams(smooth_single=0.1, min_peak_amp=0.12,
                                                             min_peak_gap=0.4)}
        match = f"recording {small_corpus[4].id!r} is not in the engine's corpus"
        with pytest.raises(ValueError, match=match):
            evaluate_corpus(small_corpus, list(params), params, engine=engine)

    def test_shared_engine_matches_one_detector_at_a_time(self, small_corpus):
        """One evaluation of six detectors on a shared engine gives the rows,
        summaries and phase offsets of six single-detector evaluations on
        fresh engines, error rows in the same order and with the same text."""
        rec = small_corpus[0]

        def head(s):
            return TriaxialSeries(rate=s.rate, x=s.x[:2], y=s.y[:2], z=s.z[:2], t0=s.t0)

        short = dataclasses.replace(rec, id="short", left=head(rec.left),
                                    right=head(rec.right), duration=2 / rec.rate)
        dataset = [short] + list(small_corpus)
        shared = dict(min_peak_amp=0.12, min_peak_gap=0.4, fuse_max_dist=0.3)
        params = {
            AlgorithmId.NO_FUSION_LEFT: DetectorParams(smooth_single=0.2, **shared),
            AlgorithmId.NO_FUSION_RIGHT: DetectorParams(smooth_single=0.1, **shared),
            AlgorithmId.LOW_LEVEL_SUM: DetectorParams(smooth_single=0.1, smooth_fused=0.08, **shared),
            AlgorithmId.LOW_LEVEL_DIFF: DetectorParams(smooth_single=0.1, smooth_fused=0.0, **shared),
            AlgorithmId.HIGH_LEVEL_INTERSECT: DetectorParams(smooth_single=0.2, **shared),
            AlgorithmId.HIGH_LEVEL_UNION: DetectorParams(smooth_single=0.1, **shared),  # no fuse_min_dist
        }
        algs = list(params)
        together = evaluate_corpus(dataset, algs, params, phase_algorithms=algs)
        alone = [evaluate_corpus(dataset, [alg], params, engine=CorpusEngine(dataset),
                                 phase_algorithms=algs) for alg in algs]
        ok, errors = [], []
        for result in alone:
            ok += [row for row in result.rows if row.error is None]
            errors += [row for row in result.rows if row.error is not None]
        assert together.rows == ok + errors
        assert [(row.recording_id, row.algorithm) for row in errors][-len(dataset) - 1:] == (
            [("short", AlgorithmId.HIGH_LEVEL_INTERSECT)] + [(r.id, AlgorithmId.HIGH_LEVEL_UNION) for r in dataset])
        assert "at least 3 samples" in errors[-len(dataset)].error  # the family error comes first
        assert all("requires fuse_min_dist" in row.error for row in errors[-len(dataset) + 1:])
        summary, per_task, phase = {}, {}, {}
        for result in alone:
            summary.update(result.summary.per_algorithm)
            per_task.update(result.per_task)
            phase.update(result.phase)
        assert together.summary.per_algorithm == summary
        assert together.per_task == per_task
        assert together.phase.keys() == phase.keys()
        for alg, report in phase.items():
            assert np.array_equal(together.phase[alg].dt_heel, report.dt_heel)
            assert np.array_equal(together.phase[alg].dt_toe, report.dt_toe)
