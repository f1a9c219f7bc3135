"""Corpus-level detection engine: the one definition of the six detectors.

Each detector is four stages: a signal family (both wrists' smoothed
magnitudes, or the low-level fused signal), min-max normalized candidate
peaks, gap suppression, and, for high-level fusion, intersect or union of the
two wrists' steps. Normalization contexts and candidates are computed once per
signal family over the whole corpus, and tuning counts whole parameter grids
at once.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .core import AlgorithmId, DetectorParams, PeakSet, Recording, ScalarSeries, Side
from .fusion import fused_signal, intersect_fuse, mutual_nearest, smoothed_magnitude, union_fuse
from .peaks import candidate_peaks, greedy_nms, priority_rank, suppress_peaks
from .preprocess import NormalizationContext, fit_normalization, min_max_normalize

# Streams of its signal family that each algorithm detects on: the left (0)
# and right (1) wrist of a single-side family, or the fused signal (0).
_STREAMS = {
    AlgorithmId.NO_FUSION_LEFT: (0,),
    AlgorithmId.NO_FUSION_RIGHT: (1,),
    AlgorithmId.LOW_LEVEL_SUM: (0,),
    AlgorithmId.LOW_LEVEL_DIFF: (0,),
    AlgorithmId.HIGH_LEVEL_INTERSECT: (0, 1),
    AlgorithmId.HIGH_LEVEL_UNION: (0, 1),
}


def _family_key(alg: AlgorithmId, params: DetectorParams) -> Tuple:
    """The parameters that fix the signals ``alg`` detects on."""
    if alg in (AlgorithmId.LOW_LEVEL_SUM, AlgorithmId.LOW_LEVEL_DIFF):
        return (alg, params.smooth_single, params.smooth_fused)
    return (None, params.smooth_single, None)


def _fuse_dist(alg: AlgorithmId, params: DetectorParams) -> float:
    if alg is AlgorithmId.HIGH_LEVEL_INTERSECT:
        if params.fuse_max_dist is None:
            raise ValueError("intersection fusion requires fuse_max_dist")
        return params.fuse_max_dist
    if params.fuse_min_dist is None:
        raise ValueError("union fusion requires fuse_min_dist")
    return params.fuse_min_dist


@dataclass(frozen=True)
class _Pool:
    """Peaks of every recording of one stream, ordered by recording then time."""

    group: np.ndarray  # recording index of each peak
    times: np.ndarray
    amps: np.ndarray

    @staticmethod
    def of(peak_sets: Sequence[PeakSet]) -> "_Pool":
        return _Pool(
            group=np.repeat(np.arange(len(peak_sets)), [len(p) for p in peak_sets]),
            times=np.concatenate([p.times for p in peak_sets]),
            amps=np.concatenate([p.amplitudes for p in peak_sets]),
        )

    def select(self, mask: np.ndarray) -> "_Pool":
        return _Pool(self.group[mask], self.times[mask], self.amps[mask])

    def peaks(self, i: int) -> PeakSet:
        lo, hi = np.searchsorted(self.group, [i, i + 1])
        return PeakSet(times=self.times[lo:hi], amplitudes=self.amps[lo:hi])


@dataclass(frozen=True)
class _Family:
    """One signal family over the corpus: its normalization context and the
    normalized candidate peaks of each stream."""

    key: Tuple
    ctx: Optional[NormalizationContext]  # None when the whole family failed
    streams: List[_Pool]
    errors: Dict[int, Exception]  # recordings whose candidates failed


def _build_family(recs: Sequence[Recording], key: Tuple, params: DetectorParams) -> _Family:
    if key[0] is None:
        sides = (Side.LEFT, Side.RIGHT)
        signals = [[smoothed_magnitude(r, s, params.smooth_single) for s in sides] for r in recs]
    else:
        signals = [[fused_signal(r, key[0], params)] for r in recs]
    ctx = fit_normalization(s for streams in signals for s in streams)
    errors: Dict[int, Exception] = {}
    streams = []
    for stream in zip(*signals):
        cands = [_candidates_or_error(s, ctx) for s in stream]
        errors.update((i, c) for i, c in enumerate(cands) if isinstance(c, Exception))
        streams.append(_Pool.of([PeakSet.empty() if i in errors else c for i, c in enumerate(cands)]))
    return _Family(key, ctx, streams, errors)


def _candidates_or_error(series: ScalarSeries, ctx: NormalizationContext):
    try:
        return candidate_peaks(min_max_normalize(series, ctx))
    except ValueError as exc:
        return exc


class CorpusEngine:
    """Evaluator for the six detectors over a fixed corpus.

    Normalization contexts are always fitted over the whole corpus (all
    samples), per signal family: per-sensor smoothed magnitudes for
    single-side and high-level pipelines, fused signals for low-level
    pipelines. The engine holds the candidates of the most recent family only;
    tuning and evaluation sweep one family at a time.
    """

    def __init__(self, recordings: Iterable[Recording]):
        self.recordings = {r.id: r for r in recordings}
        if not self.recordings:
            raise ValueError("corpus must not be empty")
        self._index = {rid: i for i, rid in enumerate(self.recordings)}
        self._family: Optional[_Family] = None

    def columns(self, recordings: Sequence[Recording]) -> List[int]:
        """Positions of ``recordings`` in the engine's corpus order."""
        return [self._index[r.id] for r in recordings]

    def _load(self, alg: AlgorithmId, params: DetectorParams) -> _Family:
        key = _family_key(alg, params)
        if self._family is None or self._family.key != key:
            recs = list(self.recordings.values())
            try:
                self._family = _build_family(recs, key, params)
            except ValueError as exc:  # no signals or context: every recording fails
                self._family = _Family(key, None, [], dict.fromkeys(range(len(recs)), exc))
        return self._family

    def context_for(self, alg: AlgorithmId, params: DetectorParams) -> NormalizationContext:
        family = self._load(alg, params)
        if family.ctx is None:
            raise family.errors[0]
        return family.ctx

    # -- detection ----------------------------------------------------------

    def steps(self, alg: AlgorithmId, rid: str, params: DetectorParams) -> PeakSet:
        """The steps ``alg`` detects in recording ``rid``: the gated and
        gap-suppressed candidates of each of its streams, fused when it has two."""
        i = self._index[rid]
        family = self._load(alg, params)
        if i in family.errors:
            raise family.errors[i]
        sides = [
            suppress_peaks(family.streams[s].peaks(i), params.min_peak_amp, params.min_peak_gap)
            for s in _STREAMS[alg]
        ]
        if len(sides) == 1:
            return sides[0]
        dist = _fuse_dist(alg, params)
        if alg is AlgorithmId.HIGH_LEVEL_INTERSECT:
            return intersect_fuse(sides[0], sides[1], dist)
        return union_fuse(sides[0], sides[1], dist)

    # -- grid counts --------------------------------------------------------

    def count_tensor(self, alg: AlgorithmId, points: Sequence[DetectorParams]) -> np.ndarray:
        """``counts[p, r] == len(steps(alg, r, points[p]))`` for every grid point
        and every recording, in corpus order.

        Each suppression or union pass runs over the whole corpus at once,
        with neighbors confined to their own recording. The amplitude gate
        keeps a prefix of the suppression and union priority orders, so one
        pass per (signal family, gap, union distance) serves every amplitude
        threshold: gating its survivors gives the gated result.
        """
        n = len(self.recordings)
        counts = np.empty((len(points), n), dtype=np.int64)
        rows_by_family: Dict[Tuple, List[int]] = {}
        for p, params in enumerate(points):
            rows_by_family.setdefault(_family_key(alg, params), []).append(p)
        for rows in rows_by_family.values():
            family = self._load(alg, points[rows[0]])
            if family.errors:
                raise next(iter(family.errors.values()))
            # Gating at the lowest threshold first only drops peaks no row keeps.
            a_min = min(points[p].min_peak_amp for p in rows)
            streams = [family.streams[s] for s in _STREAMS[alg]]
            streams = [s.select(s.amps >= a_min) for s in streams]
            ranks = [priority_rank(s.times, -s.amps) for s in streams]

            @lru_cache(maxsize=None)
            def survivors(gap: float) -> List[_Pool]:
                return [s.select(greedy_nms(s.times, r, gap, s.group)) for s, r in zip(streams, ranks)]

            @lru_cache(maxsize=None)
            def pooled(gap: float) -> Tuple[_Pool, np.ndarray]:
                """Both wrists' survivors by recording then time, with union ranks."""
                left, right = survivors(gap)
                group = np.concatenate([left.group, right.group])
                times = np.concatenate([left.times, right.times])
                amps = np.concatenate([left.amps, right.amps])
                src = np.concatenate([np.zeros(len(left.times)), np.ones(len(right.times))])
                order = np.lexsort((times, group))
                pool = _Pool(group[order], times[order], amps[order])
                return pool, priority_rank(pool.times, -src[order], -pool.amps)

            @lru_cache(maxsize=None)
            def union(gap: float, dist: float) -> _Pool:
                pool, rank = pooled(gap)
                return pool.select(greedy_nms(pool.times, rank, dist, pool.group))

            @lru_cache(maxsize=None)
            def pair_dist(gap: float, amp: float) -> Tuple[np.ndarray, np.ndarray]:
                left, right = (s.select(s.amps >= amp) for s in survivors(gap))
                _, d = mutual_nearest(left.times, right.times, left.group, right.group)
                return left.group, d

            for p in rows:
                params = points[p]
                amp, gap = params.min_peak_amp, params.min_peak_gap
                if alg is AlgorithmId.HIGH_LEVEL_INTERSECT:
                    group, d = pair_dist(gap, amp)
                    group = group[d <= _fuse_dist(alg, params)]
                else:
                    if alg is AlgorithmId.HIGH_LEVEL_UNION:
                        pool = union(gap, _fuse_dist(alg, params))
                    else:
                        pool = survivors(gap)[0]
                    group = pool.group[pool.amps >= amp]
                counts[p] = np.bincount(group, minlength=n)
        return counts
