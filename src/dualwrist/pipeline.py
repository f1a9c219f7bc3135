"""Corpus-level detection engine: the one definition of the six detectors.

Each detector is four stages: a signal family (both wrists' smoothed
magnitudes, or the low-level fused signal), min-max normalized candidate
peaks, gap suppression, and, for high-level fusion, intersect or union of the
two wrists' steps. Normalization contexts and candidates are computed once per
signal family over the whole corpus, and suppression and fusion run over the
peaks of all recordings at once. ``steps`` and ``count_tensor`` read the same
stage results.

An engine runs each expensive stage once. Within one call, both wrists are
smoothed once per window for every family built on it: ``detect`` builds the
single-side, ``sum`` and ``diff`` families of a window from one smoothed
pair. Across calls, the engine keeps each wrist's gap-suppressed peaks per
(window, wrist, gap), so ``left``, ``right``, ``intersect``, ``union`` and
their evaluation share one build of each single-side family.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .core import AlgorithmId, DetectorParams, PeakSet, Recording, ScalarSeries, Side
from .fusion import combined_signal, fused_signal, intersect, mutual_nearest, smoothed_magnitude, union_merge
from .peaks import Pool, candidate_peaks, suppression_key
from .preprocess import NormalizationContext, fit_normalization, min_max_normalize

# Streams of its signal family that an algorithm detects on: the left (0)
# and right (1) wrist of a single-side family, or the fused signal (0).
_STREAMS = {AlgorithmId.NO_FUSION_LEFT: (0,), AlgorithmId.NO_FUSION_RIGHT: (1,),
            AlgorithmId.LOW_LEVEL_SUM: (0,), AlgorithmId.LOW_LEVEL_DIFF: (0,),
            AlgorithmId.HIGH_LEVEL_INTERSECT: (0, 1), AlgorithmId.HIGH_LEVEL_UNION: (0, 1)}

# The parameter of each algorithm's last stage: the amplitude gate, except
# for intersect, whose gate comes before the pairing that fuse_max_dist cuts.
_LAST_STAGE = dict.fromkeys(AlgorithmId, "min_peak_amp")
_LAST_STAGE[AlgorithmId.HIGH_LEVEL_INTERSECT] = "fuse_max_dist"

Errors = Dict[int, Exception]  # recording index -> why it has no steps


def _family_key(alg: AlgorithmId, params: DetectorParams) -> Tuple:
    """The parameters that fix the signals ``alg`` detects on."""
    if alg in (AlgorithmId.LOW_LEVEL_SUM, AlgorithmId.LOW_LEVEL_DIFF):
        return (alg, params.smooth_single, params.smooth_fused)
    return (None, params.smooth_single, None)


def _last_threshold(alg: AlgorithmId, params: DetectorParams) -> float:
    """The threshold of ``alg``'s last stage at ``params``."""
    value = getattr(params, _LAST_STAGE[alg])
    if value is None:  # min_peak_amp is required, fuse_max_dist is not
        raise ValueError("intersection fusion requires fuse_max_dist")
    return value


def _tally(group: np.ndarray, values: np.ndarray, thresholds: np.ndarray, n: int) -> np.ndarray:
    """``counts[k, g]``: the elements of group ``g`` (of ``n``) whose value is
    at least ``thresholds[k]``, for thresholds in any order, repeats allowed.

    One histogram of how many distinct thresholds each value reaches, summed
    from the highest level down, serves every threshold at once.
    """
    levels, level_of = np.unique(thresholds, return_inverse=True)
    m = len(levels)
    reached = np.searchsorted(levels, values, side="right")
    hist = np.bincount(group * (m + 1) + reached, minlength=n * (m + 1)).reshape(n, m + 1)
    at_least = hist[:, ::-1].cumsum(axis=1)[:, ::-1]  # at_least[g, l]: values reaching l levels or more
    return at_least[:, level_of + 1].T


def _held(hold: Optional[Dict], window: float, make: Callable[[], Iterable]) -> Iterable:
    """``make()``'s signals of ``window``, kept in ``hold`` for the later
    builds on that window when ``hold`` is given; a new window drops the
    last one's before it makes its own."""
    if hold is None:
        return make()
    if window not in hold:
        hold.clear()
        hold[window] = list(make())
    return hold[window]


def _fresh(exc: Exception) -> Exception:
    """A copy of a kept error to raise: raising the kept one would tie the
    raising frames, and through them the engine, to it."""
    return copy.copy(exc)


@dataclass(frozen=True)
class _Family:
    """One signal family over the corpus: its normalization context and the
    normalized candidate peaks of each stream."""

    ctx: Optional[NormalizationContext]  # None when the whole family failed
    streams: List[Pool]
    errors: Errors  # recordings whose candidates failed


def _build_family(signals: Sequence[Sequence[ScalarSeries]]) -> _Family:
    """The family of ``signals``: per recording, one series per stream."""
    ctx = fit_normalization(s for streams in signals for s in streams)
    errors: Errors = {}
    streams = []
    for stream in zip(*signals):
        cands = [_candidates_or_error(s, ctx) for s in stream]
        errors.update((i, c) for i, c in enumerate(cands) if isinstance(c, Exception))
        streams.append(Pool.of([PeakSet.empty() if i in errors else c for i, c in enumerate(cands)]))
    return _Family(ctx, streams, errors)


def _candidates_or_error(series: ScalarSeries, ctx: NormalizationContext):
    try:
        return candidate_peaks(min_max_normalize(series, ctx))
    except ValueError as exc:
        return exc.with_traceback(None)  # kept by the engine: hold no frames


class CorpusEngine:
    """Evaluator for the six detectors over a fixed corpus.

    Normalization contexts are always fitted over the whole corpus (all
    samples), per signal family: per-sensor smoothed magnitudes for
    single-side and high-level pipelines, fused signals for low-level
    pipelines.

    Between calls the engine keeps, for the life of the engine:

    - each family's normalization context and failed recordings;
    - each wrist's gap-suppressed peaks per (``smooth_single``, wrist,
      ``min_peak_gap``) of the single-side families, about 0.7 MB each on
      the default corpus (48 of them, 34 MB, after tuning on the default
      grid), plus those of the most recent low-level family;
    - the steps of the most recent ``detect`` call, one pool per algorithm.

    Within one ``detect`` call, ``pairs`` keeps both wrists' smoothed
    magnitudes of one ``smooth_single`` window, about 30 MB on the default
    corpus, while every requested family on that window is built from them:
    the single-side family, and ``sum`` and ``diff``. Within one
    ``count_tensor`` call on ``sum`` or ``diff``, ``held`` keeps instead each
    recording's combined signal (``n_l + n_r`` or ``|n_r - n_l|``) of one
    window, half that size, and every ``smooth_fused`` family of that window
    smooths it. Candidates, smoothed and combined signals and fusion stage
    results last one call.
    """

    def __init__(self, recordings: Iterable[Recording]):
        self.recordings: Dict[str, Recording] = {}
        for r in recordings:
            if r.id in self.recordings:
                raise ValueError(f"recording id {r.id!r} occurs more than once in the corpus")
            self.recordings[r.id] = r
        if not self.recordings:
            raise ValueError("corpus must not be empty")
        self._index = {rid: i for i, rid in enumerate(self.recordings)}
        self._contexts: Dict[Tuple, Tuple[Optional[NormalizationContext], Errors]] = {}
        # (family key, stream, gap) -> (floor, the stream's candidates gated at
        # floor and gap-suppressed). A stream kept at one floor serves every
        # higher floor: the gated peaks are a prefix of the suppression order.
        self._kept: Dict[Tuple, Tuple[float, Pool]] = {}
        # (alg, params) -> (its family's failed recordings, its steps in every
        # recording or why it has none), from the most recent detect call.
        self._found: Dict[Tuple, Tuple[Errors, Union[Pool, Exception]]] = {}

    def columns(self, recordings: Sequence[Recording]) -> List[int]:
        """Positions of ``recordings`` in the engine's corpus order."""
        return [self._index[r.id] for r in recordings]

    # -- stages ---------------------------------------------------------------

    def _smoothed(self, window: float) -> Iterator[Tuple[ScalarSeries, ScalarSeries]]:
        """Both wrists' smoothed magnitudes, one recording at a time."""
        for r in self.recordings.values():
            yield smoothed_magnitude(r, Side.LEFT, window), smoothed_magnitude(r, Side.RIGHT, window)

    def _build(self, key: Tuple, held: Optional[Dict] = None, pairs: Optional[Dict] = None) -> _Family:
        """Family ``key``'s candidates. ``pairs``, when given, carries both
        wrists' smoothed magnitudes of one window between the builds of one
        call; ``held`` carries each recording's combined signal
        (:func:`combined_signal`) of one window between the low-level builds
        of one call, which share one algorithm. Otherwise each recording's
        signals are dropped once used."""
        alg, window, smooth_fused = key
        try:
            smoothed = _held(pairs, window, lambda: self._smoothed(window))
            if alg is None:
                family = _build_family(list(smoothed))
            else:
                combined = _held(held, window,
                                 lambda: (combined_signal(n_l, n_r, alg) for n_l, n_r in smoothed))
                family = _build_family([[fused_signal(c, smooth_fused)] for c in combined])
        except ValueError as exc:  # no signals or context: every recording fails
            exc = exc.with_traceback(None)
            family = _Family(None, [], dict.fromkeys(range(len(self.recordings)), exc))
        self._contexts[key] = (family.ctx, family.errors)
        return family

    def _prepare(self, key: Tuple, floor: float, gaps: Iterable[float],
                 held: Optional[Dict] = None, pairs: Optional[Dict] = None) -> Errors:
        """Keep every stream of family ``key`` gated at ``floor`` or below and
        gap-suppressed at each of ``gaps``; returns the family's failed
        recordings. The family's candidates are built (see ``_build``) only
        when a stream is missing. A single-side family has two streams
        whatever the algorithm, so ``left`` also keeps what ``right``,
        ``intersect`` and ``union`` read."""
        known = self._contexts.get(key)
        if known is not None and known[0] is None:
            return known[1]
        n_streams = 2 if key[0] is None else 1
        missing = [(s, gap) for gap in gaps for s in range(n_streams)
                   if self._kept.get((key, s, gap), (math.inf,))[0] > floor]
        if missing:
            if key[0] is not None:  # low-level families are many: keep one at a time
                self._kept = {k: v for k, v in self._kept.items() if k[0][0] is None or k[0] == key}
            family = self._build(key, held, pairs)
            if family.ctx is not None:
                for s in sorted({s for s, _ in missing}):
                    gated = family.streams[s].gate(floor)
                    priority = suppression_key(gated)
                    for gap in (g for t, g in missing if t == s):
                        self._kept[(key, s, gap)] = (floor, gated.thin(priority, gap))
        return self._contexts[key][1]

    def _pregate(self, alg: AlgorithmId, key: Tuple, params: DetectorParams, merges: Dict) -> Pool:
        """The pool whose peaks at or above ``params.min_peak_amp`` are the
        steps ``alg`` (any but ``intersect``) detects at ``params`` in every
        recording, from the kept streams of ``key`` (see ``_prepare``).
        ``merges`` carries each gap's union merge between calls.

        A kept stream may be gated at a floor below ``params.min_peak_amp``.
        The gated peaks are a prefix of the suppression and union priority
        orders, so the steps do not depend on the floor.
        """
        gap = params.min_peak_gap
        streams = [self._kept[(key, s, gap)][1] for s in _STREAMS[alg]]
        if len(streams) == 1:
            return streams[0]
        if params.fuse_min_dist is None:
            raise ValueError("union fusion requires fuse_min_dist")
        if gap not in merges:
            merges[gap] = union_merge(*streams)
        merged, priority = merges[gap]
        return merged.thin(priority, params.fuse_min_dist)

    def _paired(self, key: Tuple, params: DetectorParams) -> Tuple[Pool, Pool, Tuple[np.ndarray, np.ndarray]]:
        """Both wrists' kept streams of ``key`` gated at ``params.min_peak_amp``
        and their :func:`mutual_nearest` pairing: every ``intersect`` stage
        but the ``fuse_max_dist`` cut."""
        amp, gap = params.min_peak_amp, params.min_peak_gap
        left, right = (self._kept[(key, s, gap)][1].gate(amp) for s in (0, 1))
        return left, right, mutual_nearest(left.times, right.times, left.group, right.group)

    def _detect(self, alg: AlgorithmId, key: Tuple, params: DetectorParams) -> Pool:
        """The steps ``alg`` detects at ``params`` in every recording."""
        if alg is AlgorithmId.HIGH_LEVEL_INTERSECT:
            max_dist = _last_threshold(alg, params)
            return intersect(*self._paired(key, params), max_dist)
        return self._pregate(alg, key, params, {}).gate(params.min_peak_amp)

    def context_for(self, alg: AlgorithmId, params: DetectorParams) -> NormalizationContext:
        key = _family_key(alg, params)
        if key not in self._contexts:
            self._build(key)
        ctx, errors = self._contexts[key]
        if ctx is None:
            raise _fresh(errors[0])
        return ctx

    # -- detection ----------------------------------------------------------

    def detect(self, params_by_alg: Mapping[AlgorithmId, DetectorParams]) -> None:
        """Detect each algorithm at its parameters in every recording, and keep
        the steps for ``steps`` in place of the last call's.

        The algorithms are taken one ``smooth_single`` window at a time. Both
        wrists of a window are smoothed once for every family built on it,
        and held until the next window only when it has more than one
        family. Each algorithm's steps are taken as soon as its family is
        kept, before the next low-level family evicts it.
        """
        self._found = {}  # free the previous steps first
        windows: Dict[float, List[Tuple[AlgorithmId, DetectorParams]]] = {}
        for alg, params in params_by_alg.items():
            windows.setdefault(params.smooth_single, []).append((alg, params))
        found = {}
        for requests in windows.values():
            # Both wrists of this window, once a family on it is built, when
            # another family on it may need them.
            shared = len({_family_key(alg, params) for alg, params in requests}) > 1
            pairs = {} if shared else None
            for alg, params in requests:
                key = _family_key(alg, params)
                errors = self._prepare(key, params.min_peak_amp, (params.min_peak_gap,), pairs=pairs)
                try:
                    steps = self._detect(alg, key, params) if len(errors) < len(self.recordings) else None
                except ValueError as exc:  # a parameter the algorithm lacks
                    steps = exc.with_traceback(None)  # kept by the engine: hold no frames
                found[(alg, params)] = (errors, steps)
        self._found = found

    def steps(self, alg: AlgorithmId, rid: str, params: DetectorParams) -> PeakSet:
        """The steps ``alg`` detects in recording ``rid``: the gated and
        gap-suppressed candidates of each of its streams, fused when it has two.
        Read from the most recent ``detect`` call, or from a ``detect`` of
        (``alg``, ``params``) alone when that call did not request it. A
        recording whose family failed raises that error before any error of
        ``params`` itself."""
        i = self._index[rid]
        if (alg, params) not in self._found:
            self.detect({alg: params})
        errors, steps = self._found[(alg, params)]
        if i in errors:
            raise _fresh(errors[i])
        if isinstance(steps, Exception):
            raise _fresh(steps)
        return steps.peaks(i)

    # -- grid counts --------------------------------------------------------

    def count_tensor(self, alg: AlgorithmId, points: Sequence[DetectorParams]) -> np.ndarray:
        """``counts[p, r] == len(steps(alg, r, points[p]))`` for every grid point
        and every recording, in corpus order.

        The grid points of one signal family detect with one amplitude floor,
        their lowest threshold, so they share every stage that their own
        amplitude gate does not change. Points that differ only in the
        threshold of their last stage (``min_peak_amp``, or ``fuse_max_dist``
        for ``intersect``, which gates before it pairs) are counted together
        from the pool that stage selects from, by :func:`_tally`; no pool of
        steps is built.
        """
        n = len(self.recordings)
        counts = np.empty((len(points), n), dtype=np.int64)
        last = _LAST_STAGE[alg]
        families: Dict[Tuple, Dict[Tuple, List[int]]] = {}  # family key -> shared stages -> rows
        for p, params in enumerate(points):
            shared = params.to_dict()
            del shared[last]
            families.setdefault(_family_key(alg, params), {}).setdefault(tuple(shared.values()), []).append(p)
        held: Dict = {}  # sum and diff build a family per smooth_fused on one combined signal
        for key, tallies in families.items():
            rows = [p for tally in tallies.values() for p in tally]
            floor = min(points[p].min_peak_amp for p in rows)
            gaps = dict.fromkeys(points[p].min_peak_gap for p in rows)
            errors = self._prepare(key, floor, gaps, held)
            if errors:
                raise _fresh(next(iter(errors.values())))
            merges: Dict = {}
            for tally in tallies.values():
                thresholds = np.array([_last_threshold(alg, points[p]) for p in tally])
                if alg is AlgorithmId.HIGH_LEVEL_INTERSECT:
                    left, _, (_, dist) = self._paired(key, points[tally[0]])
                    counts[tally] = _tally(left.group, -dist, -thresholds, n)  # dist <= fuse_max_dist
                else:
                    pool = self._pregate(alg, key, points[tally[0]], merges)
                    counts[tally] = _tally(pool.group, pool.amps, thresholds, n)
        return counts

