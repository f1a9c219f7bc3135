"""Corpus-level detection engine: the one definition of the six detectors.

Each detector is four stages: a signal family (both wrists' smoothed
magnitudes, or the low-level fused signal), min-max normalized candidate
peaks, gap suppression, and, for high-level fusion, intersect or union of the
two wrists' steps. Normalization contexts and candidates are computed once per
signal family over the whole corpus, and suppression and fusion run over the
peaks of all recordings at once. ``steps`` and ``count_tensor`` read the same
memoized stage results.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .core import AlgorithmId, DetectorParams, PeakSet, Recording, ScalarSeries, Side
from .fusion import fused_signal, intersect, mutual_nearest, smoothed_magnitude, union_merge
from .peaks import Pool, candidate_peaks, suppression_rank
from .preprocess import NormalizationContext, fit_normalization, min_max_normalize

# Stream of its signal family that a single-stream algorithm detects on: the
# left (0) or right (1) wrist of a single-side family, or the fused signal (0).
_STREAM = {AlgorithmId.NO_FUSION_LEFT: 0, AlgorithmId.NO_FUSION_RIGHT: 1,
           AlgorithmId.LOW_LEVEL_SUM: 0, AlgorithmId.LOW_LEVEL_DIFF: 0}


def _family_key(alg: AlgorithmId, params: DetectorParams) -> Tuple:
    """The parameters that fix the signals ``alg`` detects on."""
    if alg in (AlgorithmId.LOW_LEVEL_SUM, AlgorithmId.LOW_LEVEL_DIFF):
        return (alg, params.smooth_single, params.smooth_fused)
    return (None, params.smooth_single, None)


@dataclass(frozen=True)
class _Family:
    """One signal family over the corpus: its normalization context, the
    normalized candidate peaks of each stream, and memoized stage results."""

    key: Tuple
    ctx: Optional[NormalizationContext]  # None when the whole family failed
    streams: List[Pool]
    errors: Dict[int, Exception]  # recordings whose candidates failed
    memo: Dict[Tuple, object] = field(default_factory=dict)

    def cached(self, key: Tuple, compute: Callable[[], object]):
        if key not in self.memo:
            self.memo[key] = compute()
        return self.memo[key]

    def _suppressed(self, s: int, floor: float, gap: float) -> Pool:
        """Stream ``s``'s candidates gated at ``floor``, gap-suppressed."""
        gated = self.cached(("gate", floor, s), lambda: self.streams[s].gate(floor))
        rank = self.cached(("rank", floor, s), lambda: suppression_rank(gated))
        return self.cached(("suppress", floor, s, gap), lambda: gated.thin(rank, gap))

    def detect(self, alg: AlgorithmId, params: DetectorParams, floor: float) -> Pool:
        """The steps ``alg`` detects at ``params`` in every recording.

        ``floor <= params.min_peak_amp`` gates the candidates before gap
        suppression. The gated peaks are a prefix of the suppression and union
        priority orders, so the steps do not depend on ``floor``, and grid
        points that share it share every stage before their own gate.
        """
        amp, gap = params.min_peak_amp, params.min_peak_gap
        if alg in _STREAM:
            return self._suppressed(_STREAM[alg], floor, gap).gate(amp)
        left, right = (self._suppressed(s, floor, gap) for s in (0, 1))
        if alg is AlgorithmId.HIGH_LEVEL_INTERSECT:
            if params.fuse_max_dist is None:
                raise ValueError("intersection fusion requires fuse_max_dist")
            left, right = left.gate(amp), right.gate(amp)
            # Only the pairing is kept: every fuse_max_dist of a grid shares it.
            pairs = self.cached(("pairs", floor, gap, amp),
                                lambda: mutual_nearest(left.times, right.times, left.group, right.group))
            return intersect(left, right, pairs, params.fuse_max_dist)
        dist = params.fuse_min_dist
        if dist is None:
            raise ValueError("union fusion requires fuse_min_dist")
        merged, rank = self.cached(("merge", floor, gap), lambda: union_merge(left, right))
        return self.cached(("union", floor, gap, dist), lambda: merged.thin(rank, dist)).gate(amp)


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
        streams.append(Pool.of([PeakSet.empty() if i in errors else c for i, c in enumerate(cands)]))
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
            self._family = None  # free its candidates and stage results before the build
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
        gap-suppressed candidates of each of its streams, fused when it has two.
        The first call for (``alg``, ``params``) detects in every recording."""
        i = self._index[rid]
        family = self._load(alg, params)
        if i in family.errors:
            raise family.errors[i]
        pool = family.cached(("steps", alg, params), lambda: family.detect(alg, params, params.min_peak_amp))
        return pool.peaks(i)

    # -- grid counts --------------------------------------------------------

    def count_tensor(self, alg: AlgorithmId, points: Sequence[DetectorParams]) -> np.ndarray:
        """``counts[p, r] == len(steps(alg, r, points[p]))`` for every grid point
        and every recording, in corpus order.

        The grid points of one signal family detect with one amplitude floor,
        their lowest threshold, so they share every stage that their own
        amplitude gate does not change.
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
            floor = min(points[p].min_peak_amp for p in rows)
            for p in rows:
                counts[p] = np.bincount(family.detect(alg, points[p], floor).group, minlength=n)
        return counts
