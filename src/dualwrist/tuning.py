"""Five-fold cross-validated parameter selection by step-count RMSE."""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .core import (
    PARAM_FIELD_ORDER,
    AlgorithmId,
    DetectorParams,
    Recording,
    required_param_fields,
)
from .evaluate import _ground_truth
from .pipeline import CorpusEngine


@dataclass(frozen=True)
class ParamGrid:
    """Candidate values per detector parameter.

    Only the fields an algorithm consumes enter its grid. Intersection grids
    are filtered to combinations with ``fuse_max_dist <= min_peak_gap``.
    """

    smooth_single: Sequence[float] = (0.02, 0.1, 0.2, 0.4)
    smooth_fused: Sequence[float] = (0.0, 0.02, 0.08, 0.18)
    min_peak_amp: Sequence[float] = (0.04, 0.08, 0.12, 0.2, 0.3, 0.45)
    min_peak_gap: Sequence[float] = (0.16, 0.22, 0.28, 0.34, 0.4, 0.46)
    fuse_max_dist: Sequence[float] = (0.12, 0.18, 0.24, 0.3, 0.38, 0.46)
    fuse_min_dist: Sequence[float] = (0.14, 0.18, 0.22, 0.26, 0.3, 0.34)

    def points(self, alg: AlgorithmId) -> List[DetectorParams]:
        """Cartesian product over the algorithm's fields, declared order,
        last field varying fastest."""
        names = required_param_fields(alg)
        for name in names:
            if not getattr(self, name):
                raise ValueError(f"grid for {name} must not be empty")
        out = []
        for combo in itertools.product(*(getattr(self, n) for n in names)):
            kwargs = dict(zip(names, combo))
            if kwargs.get("fuse_max_dist") is not None and kwargs["fuse_max_dist"] > kwargs["min_peak_gap"]:
                continue
            out.append(DetectorParams(**kwargs))
        if not out:
            raise ValueError("grid is empty after constraint filtering")
        return out


@dataclass(frozen=True)
class CVReport:
    """Per-fold winners and held-out RMSEs for one algorithm."""

    algorithm: AlgorithmId
    fold_params: List[DetectorParams]
    mean_params: DetectorParams
    fold_test_rmse: List[float]
    mean_test_rmse: float

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm.value,
            "fold_params": [p.to_dict() for p in self.fold_params],
            "mean_params": self.mean_params.to_dict(),
            "fold_test_rmse": list(self.fold_test_rmse),
            "mean_test_rmse": self.mean_test_rmse,
        }


def make_folds(dataset: Sequence[Recording], k: int, seed: int) -> List[List[int]]:
    """Seeded partition into ``k`` folds, stratified by walking task.

    Recordings are shuffled within each task and dealt to folds in sequence,
    so fold sizes differ by at most one and every task spreads across folds
    where its count permits.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > len(dataset):
        raise ValueError("k must not exceed the dataset size")
    rng = np.random.default_rng(seed)
    by_task: Dict = {}
    for i, rec in enumerate(dataset):
        by_task.setdefault(rec.task, []).append(i)
    dealt: List[int] = []
    for task in sorted(by_task, key=lambda t: t.value):
        idx = np.array(by_task[task])
        rng.shuffle(idx)
        dealt.extend(int(i) for i in idx)
    folds: List[List[int]] = [[] for _ in range(k)]
    for pos, i in enumerate(dealt):
        folds[pos % k].append(i)
    return folds


def rmse(pred: Sequence[int], label: Sequence[int]) -> float:
    """Root mean square error between predicted and labeled step counts."""
    pred = np.asarray(pred, dtype=float)
    label = np.asarray(label, dtype=float)
    if len(pred) == 0 or len(pred) != len(label):
        raise ValueError("pred and label must have equal nonzero length")
    return float(np.sqrt(np.mean((pred - label) ** 2)))


def _labels(recs: Sequence[Recording]) -> np.ndarray:
    return np.array([_ground_truth(r).label_count for r in recs])


def _best_row(counts: np.ndarray, labels: np.ndarray) -> int:
    """First grid row (declared order) with the least step-count RMSE."""
    return int(np.argmin([rmse(row, labels) for row in counts]))


def _mean_params(fold_params: Sequence[DetectorParams]) -> DetectorParams:
    kwargs = {}
    for name in PARAM_FIELD_ORDER:
        vals = [getattr(p, name) for p in fold_params]
        kwargs[name] = None if vals[0] is None else float(np.mean(vals))
    return DetectorParams(**kwargs)


def cross_validate_study(dataset: Sequence[Recording], algorithms: Sequence[AlgorithmId], grid: ParamGrid,
                         k: int = 5, seed: int = 0, engine: Optional[CorpusEngine] = None
                         ) -> Dict[AlgorithmId, CVReport]:
    """k-fold CV of each algorithm, repeats collapsed, in order: grid-search
    on k-1 folds, score RMSE on the held-out fold.

    Every algorithm's grid is counted in one ``count_tensor`` call on the
    whole dataset, which smooths each window once for all of them; folds
    select columns.
    """
    engine = engine or CorpusEngine(dataset)
    folds = make_folds(dataset, k, seed)
    labels = _labels(dataset)
    points = {alg: grid.points(alg) for alg in algorithms}
    counts = engine.count_tensor([(alg, p) for alg, ps in points.items() for p in ps])
    counts = counts[:, engine.columns(dataset)]
    reports = {}
    for alg, ps in points.items():
        rows, counts = counts[:len(ps)], counts[len(ps):]
        fold_params, fold_rmse = [], []
        for held_out, test in enumerate(folds):
            train = [i for f, fold in enumerate(folds) if f != held_out for i in fold]
            best = _best_row(rows[:, train], labels[train])
            fold_params.append(ps[best])
            fold_rmse.append(rmse(rows[best, test], labels[test]))
        reports[alg] = CVReport(alg, fold_params, _mean_params(fold_params), fold_rmse, float(np.mean(fold_rmse)))
    return reports


def cross_validate(dataset: Sequence[Recording], alg: AlgorithmId, grid: ParamGrid, k: int = 5, seed: int = 0,
                   engine: Optional[CorpusEngine] = None) -> CVReport:
    """k-fold CV of one algorithm: the one-key case of :func:`cross_validate_study`."""
    return cross_validate_study(dataset, [alg], grid, k=k, seed=seed, engine=engine)[alg]
