"""Step-count accuracy metrics, cadence outlier filtering, gait-phase offsets."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .core import AlgorithmId, GroundTruth, PeakSet, Recording, WalkTask
from .pipeline import CorpusEngine


def percent_error(pred: int, label: int) -> float:
    """Signed percent error; negative means under-counting."""
    if label <= 0:
        raise ValueError("label must be positive")
    return 100.0 * (pred - label) / label


def pearson_r(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need equal-length inputs with at least two points")
    if np.ptp(xs) == 0 or np.ptp(ys) == 0:
        raise ValueError("inputs must have nonzero variance")
    return float(np.corrcoef(xs, ys)[0, 1])


@dataclass(frozen=True)
class OutlierFilterResult:
    kept: List[Recording]
    removed_ids: List[str]
    unranked_ids: List[str]  # retained without ranking (missing self count)


def cadence_outlier_filter(dataset: Sequence[Recording], frac: float = 0.05) -> OutlierFilterResult:
    """Drop the ``ceil(frac * N)`` recordings whose self-reported cadence
    deviates most from the labeled cadence.

    Recordings without a self count cannot be ranked and are retained.
    """
    if not 0 <= frac < 1:
        raise ValueError("frac must lie in [0, 1)")
    ranked: List[Tuple[float, str, Recording]] = []
    unranked: List[Recording] = []
    for rec in dataset:
        if rec.self_count is None or rec.ground_truth is None:
            unranked.append(rec)
            continue
        self_cadence = rec.self_count / rec.duration
        label_cadence = rec.ground_truth.label_count / rec.duration
        ranked.append((abs(self_cadence - label_cadence), rec.id, rec))
    n_remove = math.ceil(frac * len(ranked))
    ranked.sort(key=lambda item: (-item[0], item[1]))
    removed_ids = [rid for _, rid, _ in ranked[:n_remove]]
    removed = set(removed_ids)
    kept = [rec for rec in dataset if rec.id not in removed]
    return OutlierFilterResult(
        kept=kept,
        removed_ids=removed_ids,
        unranked_ids=[r.id for r in unranked],
    )


@dataclass(frozen=True)
class PhaseOffsets:
    """Signed offsets of detected steps to the nearest gait events (pooled sides)."""

    dt_heel: np.ndarray
    dt_toe: np.ndarray


def _nearest_offsets(times: np.ndarray, events: np.ndarray) -> np.ndarray:
    # Nearest event; exact midpoints resolve to the earlier event.
    pos = np.searchsorted(events, times)
    prev = events[np.maximum(pos - 1, 0)]
    nxt = events[np.minimum(pos, len(events) - 1)]
    use_next = (pos == 0) | ((pos < len(events)) & (np.abs(times - nxt) < np.abs(times - prev)))
    return times - np.where(use_next, nxt, prev)


def phase_offsets(steps: PeakSet, gt: GroundTruth) -> PhaseOffsets:
    """Offset of every detected step to its nearest heel strike and toe-off."""
    toes = gt.toe_offs()
    heels = gt.heel_strikes()
    if len(toes) == 0 or len(heels) == 0:
        raise ValueError("ground truth events must be non-empty")
    return PhaseOffsets(
        dt_heel=_nearest_offsets(steps.times, heels),
        dt_toe=_nearest_offsets(steps.times, toes),
    )


@dataclass(frozen=True)
class AlgorithmSummary:
    """Distribution of signed percent errors for one algorithm.

    ``pearson_r`` of counts against labels is ``None`` where it is undefined:
    fewer than two recordings, or counts or labels that do not vary.
    """

    mean: float
    median: float
    q1: float
    q3: float
    p5: float
    p95: float
    mean_abs: float
    pearson_r: Optional[float]

    def to_dict(self) -> dict:
        return {
            "mean": self.mean,
            "median": self.median,
            "q1": self.q1,
            "q3": self.q3,
            "p5": self.p5,
            "p95": self.p95,
            "mean_abs": self.mean_abs,
            "pearson_r": self.pearson_r,
        }


@dataclass(frozen=True)
class ErrorSummary:
    per_algorithm: Dict[AlgorithmId, AlgorithmSummary]


@dataclass(frozen=True)
class RecordingResult:
    recording_id: str
    task: WalkTask
    algorithm: AlgorithmId
    count: Optional[int]
    label: int
    pct_error: Optional[float]
    error: Optional[str] = None


@dataclass(frozen=True)
class PhaseReport:
    """Aggregate phase-offset statistics for one algorithm over a corpus."""

    dt_heel: np.ndarray
    dt_toe: np.ndarray

    @property
    def heel_mean(self) -> float:
        return float(np.mean(self.dt_heel))

    @property
    def heel_std(self) -> float:
        return float(np.std(self.dt_heel))

    @property
    def toe_mean(self) -> float:
        return float(np.mean(self.dt_toe))

    @property
    def toe_std(self) -> float:
        return float(np.std(self.dt_toe))


@dataclass(frozen=True)
class EvaluationResult:
    rows: List[RecordingResult]
    summary: ErrorSummary
    per_task: Dict[Tuple[WalkTask, AlgorithmId], AlgorithmSummary]
    phase: Dict[AlgorithmId, PhaseReport] = field(default_factory=dict)


def _summarize(errors: Sequence[float], counts: Sequence[int], labels: Sequence[int]) -> AlgorithmSummary:
    e = np.asarray(errors, dtype=float)
    try:
        r = pearson_r(counts, labels)
    except ValueError:
        r = None
    return AlgorithmSummary(
        mean=float(np.mean(e)),
        median=float(np.median(e)),
        q1=float(np.percentile(e, 25)),
        q3=float(np.percentile(e, 75)),
        p5=float(np.percentile(e, 5)),
        p95=float(np.percentile(e, 95)),
        mean_abs=float(np.mean(np.abs(e))),
        pearson_r=r,
    )


def summarize_counts(counts_by_alg: Mapping[AlgorithmId, Mapping[str, int]], dataset: Sequence[Recording],
                     phase_times: Optional[Mapping[AlgorithmId, Mapping[str, np.ndarray]]] = None
                     ) -> EvaluationResult:
    """Build summaries from already-computed step counts (and optionally step
    times for phase offsets)."""
    by_id = {r.id: r for r in dataset}
    rows: List[RecordingResult] = []
    summary: Dict[AlgorithmId, AlgorithmSummary] = {}
    per_task: Dict[Tuple[WalkTask, AlgorithmId], AlgorithmSummary] = {}
    for alg, counts in counts_by_alg.items():
        errors, cs, ls, tasks = [], [], [], []
        for rid, count in counts.items():
            rec = by_id[rid]
            label = rec.ground_truth.label_count
            err = percent_error(count, label)
            rows.append(RecordingResult(rid, rec.task, alg, count, label, err))
            errors.append(err)
            cs.append(count)
            ls.append(label)
            tasks.append(rec.task)
        if not errors:
            continue  # every recording failed for this algorithm
        summary[alg] = _summarize(errors, cs, ls)
        for task in WalkTask:
            sel = [i for i, t in enumerate(tasks) if t is task]
            if sel:
                per_task[(task, alg)] = _summarize(
                    [errors[i] for i in sel], [cs[i] for i in sel], [ls[i] for i in sel]
                )
    phase: Dict[AlgorithmId, PhaseReport] = {}
    if phase_times:
        for alg, times_by_rid in phase_times.items():
            heel_parts, toe_parts = [], []
            for rid, times in times_by_rid.items():
                gt = by_id[rid].ground_truth
                offs = phase_offsets(PeakSet(times=times, amplitudes=np.zeros(len(times))), gt)
                heel_parts.append(offs.dt_heel)
                toe_parts.append(offs.dt_toe)
            if not any(len(h) for h in heel_parts):
                continue  # no detected steps, so no offsets to summarize
            phase[alg] = PhaseReport(
                dt_heel=np.concatenate(heel_parts), dt_toe=np.concatenate(toe_parts)
            )
    return EvaluationResult(rows=rows, summary=ErrorSummary(summary), per_task=per_task, phase=phase)


def evaluate_corpus(
    dataset: Sequence[Recording],
    algorithms: Sequence[AlgorithmId],
    params_by_alg: Mapping[AlgorithmId, "DetectorParams"],
    engine: Optional[CorpusEngine] = None,
    phase_algorithms: Sequence[AlgorithmId] = (AlgorithmId.HIGH_LEVEL_UNION,),
) -> EvaluationResult:
    """Run every requested detector on every recording and aggregate.

    A recording that fails for one detector becomes an error row instead of
    aborting the evaluation.
    """
    engine = engine or CorpusEngine(dataset)
    counts_by_alg: Dict[AlgorithmId, Dict[str, int]] = {}
    phase_times: Dict[AlgorithmId, Dict[str, np.ndarray]] = {}
    error_rows: List[RecordingResult] = []
    for alg in algorithms:
        params = params_by_alg[alg]
        counts: Dict[str, int] = {}
        for rec in dataset:
            try:
                steps = engine.steps(alg, rec.id, params)
            except Exception as exc:  # noqa: BLE001 - error rows by contract
                error_rows.append(
                    RecordingResult(
                        rec.id, rec.task, alg, None, rec.ground_truth.label_count, None, str(exc)
                    )
                )
                continue
            counts[rec.id] = len(steps)
            if alg in phase_algorithms:
                phase_times.setdefault(alg, {})[rec.id] = steps.times
        counts_by_alg[alg] = counts
    result = summarize_counts(counts_by_alg, dataset, phase_times)
    result.rows.extend(error_rows)
    return result
