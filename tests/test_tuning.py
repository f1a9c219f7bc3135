"""Parameter grids, fold construction, cross-validation."""
import numpy as np
import pytest

from dualwrist import (
    AlgorithmId,
    CorpusSpec,
    DetectorParams,
    ParamGrid,
    WalkTask,
    cross_validate,
    cross_validate_study,
    make_folds,
    rmse,
    simulate_corpus,
)
from dualwrist.core import required_param_fields
from dualwrist.pipeline import CorpusEngine


class TestParamGrid:
    def test_points_cover_only_required_fields(self):
        grid = ParamGrid()
        for alg in AlgorithmId:
            pts = grid.points(alg)
            names = set(required_param_fields(alg))
            for p in pts:
                d = p.to_dict()
                for key, val in d.items():
                    assert (val is not None) == (key in names)

    def test_point_count(self):
        grid = ParamGrid(
            smooth_single=(0.1, 0.2),
            min_peak_amp=(0.1,),
            min_peak_gap=(0.3, 0.4, 0.5),
            smooth_fused=(0.0, 0.1),
        )
        assert len(grid.points(AlgorithmId.NO_FUSION_LEFT)) == 6
        assert len(grid.points(AlgorithmId.LOW_LEVEL_SUM)) == 12

    def test_declared_order_last_field_fastest(self):
        grid = ParamGrid(
            smooth_single=(0.1, 0.2),
            min_peak_amp=(0.1, 0.2),
            min_peak_gap=(0.3, 0.4),
        )
        pts = grid.points(AlgorithmId.NO_FUSION_LEFT)
        assert [(p.smooth_single, p.min_peak_amp, p.min_peak_gap) for p in pts] == [
            (0.1, 0.1, 0.3), (0.1, 0.1, 0.4), (0.1, 0.2, 0.3), (0.1, 0.2, 0.4),
            (0.2, 0.1, 0.3), (0.2, 0.1, 0.4), (0.2, 0.2, 0.3), (0.2, 0.2, 0.4),
        ]

    def test_intersect_grid_filters_constraint(self):
        grid = ParamGrid(
            smooth_single=(0.1,),
            min_peak_amp=(0.1,),
            min_peak_gap=(0.3,),
            fuse_max_dist=(0.2, 0.3, 0.4),
        )
        pts = grid.points(AlgorithmId.HIGH_LEVEL_INTERSECT)
        assert [p.fuse_max_dist for p in pts] == [0.2, 0.3]

    def test_empty_axis_rejected(self):
        grid = ParamGrid(min_peak_amp=())
        with pytest.raises(ValueError, match="must not be empty"):
            grid.points(AlgorithmId.NO_FUSION_LEFT)

    def test_fully_filtered_grid_rejected(self):
        grid = ParamGrid(
            smooth_single=(0.1,), min_peak_amp=(0.1,),
            min_peak_gap=(0.2,), fuse_max_dist=(0.5,),
        )
        with pytest.raises(ValueError, match="empty after constraint"):
            grid.points(AlgorithmId.HIGH_LEVEL_INTERSECT)

    def test_default_grid_satisfies_constraint_for_union(self):
        grid = ParamGrid()
        # The union grid caps fuse_min_dist below every min_peak_gap ceiling
        # it might be paired with, so no combination is wasted.
        assert grid.points(AlgorithmId.HIGH_LEVEL_UNION)


class TestRmse:
    def test_worked_examples(self):
        assert rmse([98, 104], [100, 100]) == pytest.approx(np.sqrt(10.0))
        assert rmse([101], [100]) == pytest.approx(1.0)
        assert rmse([100, 100], [100, 100]) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            rmse([], [])
        with pytest.raises(ValueError):
            rmse([1, 2], [1])


class TestMakeFolds:
    def test_even_split_example(self):
        recs = simulate_corpus(
            CorpusSpec(task_counts={WalkTask.COMFORTABLE_PACE: 10}, seed=3)
        )
        folds = make_folds(recs, k=5, seed=0)
        assert sorted(len(f) for f in folds) == [2, 2, 2, 2, 2]

    def test_uneven_split_example(self):
        recs = simulate_corpus(
            CorpusSpec(task_counts={WalkTask.COMFORTABLE_PACE: 11}, seed=3)
        )
        folds = make_folds(recs, k=5, seed=0)
        assert sorted(len(f) for f in folds) == [2, 2, 2, 2, 3]

    def test_partition(self, small_corpus):
        folds = make_folds(small_corpus, k=5, seed=1)
        flat = [i for f in folds for i in f]
        assert sorted(flat) == list(range(len(small_corpus)))

    def test_stratified_by_task(self, small_corpus):
        # Two recordings per task over five folds: never both in one fold.
        folds = make_folds(small_corpus, k=5, seed=4)
        for f in folds:
            tasks = [small_corpus[i].task for i in f]
            assert len(tasks) == len(set(tasks))

    def test_seed_determinism(self, small_corpus):
        assert make_folds(small_corpus, 4, seed=7) == make_folds(small_corpus, 4, seed=7)
        assert make_folds(small_corpus, 4, seed=7) != make_folds(small_corpus, 4, seed=8)

    def test_validation(self, small_corpus):
        with pytest.raises(ValueError):
            make_folds(small_corpus, k=1, seed=0)
        with pytest.raises(ValueError):
            make_folds(small_corpus[:3], k=4, seed=0)


@pytest.fixture(scope="module")
def tune_corpus():
    counts = {
        WalkTask.SLOW_PACE: 3,
        WalkTask.COMFORTABLE_PACE: 3,
        WalkTask.FAST_PACE: 3,
        WalkTask.NO_RIGHT_SHOE: 3,
    }
    recs = simulate_corpus(CorpusSpec(task_counts=counts, seed=21))
    return recs, CorpusEngine(recs)


SMALL_GRID = ParamGrid(
    smooth_single=(0.1, 0.2),
    smooth_fused=(0.0, 0.08),
    min_peak_amp=(0.08, 0.12, 0.3),
    min_peak_gap=(0.22, 0.4),
    fuse_max_dist=(0.18, 0.3),
    fuse_min_dist=(0.18, 0.3),
)


class TestCrossValidate:
    def test_report_shape_and_determinism(self, tune_corpus):
        recs, engine = tune_corpus
        alg = AlgorithmId.HIGH_LEVEL_UNION
        rep1 = cross_validate(recs, alg, SMALL_GRID, k=3, seed=5, engine=engine)
        rep2 = cross_validate(recs, alg, SMALL_GRID, k=3, seed=5, engine=engine)
        assert rep1.to_dict() == rep2.to_dict()
        assert rep1.algorithm is alg
        assert len(rep1.fold_params) == 3 and len(rep1.fold_test_rmse) == 3
        assert rep1.mean_test_rmse == pytest.approx(np.mean(rep1.fold_test_rmse))

    def test_mean_params_is_fieldwise_mean(self, tune_corpus):
        recs, engine = tune_corpus
        rep = cross_validate(recs, AlgorithmId.HIGH_LEVEL_UNION, SMALL_GRID,
                             k=3, seed=5, engine=engine)
        for name in ("smooth_single", "min_peak_amp", "min_peak_gap", "fuse_min_dist"):
            vals = [getattr(p, name) for p in rep.fold_params]
            assert getattr(rep.mean_params, name) == pytest.approx(np.mean(vals))
        assert rep.mean_params.smooth_fused is None
        assert rep.mean_params.fuse_max_dist is None

    def test_fold_winners_come_from_grid(self, tune_corpus):
        recs, engine = tune_corpus
        rep = cross_validate(recs, AlgorithmId.NO_FUSION_RIGHT, SMALL_GRID,
                             k=3, seed=5, engine=engine)
        pts = SMALL_GRID.points(AlgorithmId.NO_FUSION_RIGHT)
        for p in rep.fold_params:
            assert p in pts

    def test_fold_winners_are_the_first_least_training_rmse(self, tune_corpus):
        """Each fold's winner is the first grid point with the least RMSE on
        the other folds, by an exhaustive re-scan of the steps; its test RMSE
        is that point's on the held-out fold."""
        recs, engine = tune_corpus
        labels = np.array([r.ground_truth.label_count for r in recs])
        folds = make_folds(recs, k=3, seed=5)
        for alg in (AlgorithmId.NO_FUSION_LEFT, AlgorithmId.HIGH_LEVEL_UNION):
            rep = cross_validate(recs, alg, SMALL_GRID, k=3, seed=5, engine=engine)
            pts = SMALL_GRID.points(alg)
            counts = np.array([[len(engine.steps(alg, r.id, p)) for r in recs] for p in pts])
            for held_out, test in enumerate(folds):
                train = [i for f, fold in enumerate(folds) if f != held_out for i in fold]
                errs = [rmse(row[train], labels[train]) for row in counts]
                best = errs.index(min(errs))
                assert rep.fold_params[held_out] == pts[best]
                assert rep.fold_test_rmse[held_out] == rmse(counts[best, test], labels[test])

    def test_single_point_grid(self, tune_corpus):
        recs, engine = tune_corpus
        grid = ParamGrid(smooth_single=(0.1,), min_peak_amp=(0.1,), min_peak_gap=(0.3,))
        rep = cross_validate(recs, AlgorithmId.NO_FUSION_LEFT, grid, k=3, engine=engine)
        point = DetectorParams(smooth_single=0.1, min_peak_amp=0.1, min_peak_gap=0.3)
        assert rep.fold_params == [point] * 3

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="must not be empty"):
            cross_validate([], AlgorithmId.NO_FUSION_LEFT, ParamGrid())

    def test_missing_ground_truth_rejected(self, tune_corpus):
        import dataclasses

        recs, _ = tune_corpus
        bare = dataclasses.replace(recs[0], ground_truth=None, self_count=None)
        with pytest.raises(ValueError, match=f"recording {bare.id!r} has no ground truth"):
            cross_validate([bare, *recs[1:]], AlgorithmId.NO_FUSION_LEFT, ParamGrid(), k=3)

    def test_study_matches_each_cross_validate(self, small_corpus):
        """One study of all six detectors reports what each detector's own
        cross-validation does; a repeated algorithm is reported once, in order."""
        union, left = AlgorithmId.HIGH_LEVEL_UNION, AlgorithmId.NO_FUSION_LEFT
        algs = [union, *AlgorithmId, left]
        reports = cross_validate_study(small_corpus, algs, SMALL_GRID, k=3, seed=5)
        assert list(reports) == list(dict.fromkeys(algs))
        for alg, rep in reports.items():
            alone = cross_validate(small_corpus, alg, SMALL_GRID, k=3, seed=5)
            assert rep.algorithm is alg and rep.to_dict() == alone.to_dict()
