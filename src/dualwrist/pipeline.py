"""Corpus-level detection engine: the one definition of the six detectors.

Each detector is four stages: a signal family (both wrists' smoothed
magnitudes, or the low-level fused signal), min-max normalized candidate
peaks, gap suppression, and, for high-level fusion, intersect or union of the
two wrists' steps. Normalization contexts and candidates are computed once per
signal family over the whole corpus, and suppression and fusion run over the
peaks of all recordings at once. ``detect``, ``count_tensor`` and
``context_for`` run one plan over their requests, which ends in each group's
last stage: ``detect`` applies the threshold of its one request,
``count_tensor`` counts every threshold.

An engine runs each expensive stage once. The plan builds each family once,
one ``smooth_single`` window at a time, so both wrists are smoothed once per
window, and chooses per window what it holds between that window's builds.
Across calls, the engine keeps each wrist's gap-suppressed peaks per (window,
wrist, gap), so ``left``, ``right``, ``intersect``, ``union`` and their
evaluation share one build of each single-side family.
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

# Streams of its signal family that an algorithm detects on: both wrists of
# a single-side family for high-level fusion, else the left (0) or right (1)
# wrist, or the fused signal (0).
_STREAMS = dict.fromkeys(AlgorithmId, (0, 1))
_STREAMS.update({AlgorithmId.NO_FUSION_LEFT: (0,), AlgorithmId.NO_FUSION_RIGHT: (1,),
                 AlgorithmId.LOW_LEVEL_SUM: (0,), AlgorithmId.LOW_LEVEL_DIFF: (0,)})

# The parameter of each algorithm's last stage: the amplitude gate, except
# for intersect, whose gate comes before the pairing that fuse_max_dist cuts.
_LAST_STAGE = dict.fromkeys(AlgorithmId, "min_peak_amp")
_LAST_STAGE[AlgorithmId.HIGH_LEVEL_INTERSECT] = "fuse_max_dist"

Errors = Dict[int, Exception]  # recording index -> why it has no steps
# A group's last stage: each candidate's recording, the value its threshold
# tests, each request's threshold, and the steps of a keep mask.
Stage = Tuple[np.ndarray, np.ndarray, np.ndarray, Callable[[np.ndarray], Pool]]


def _family_key(alg: AlgorithmId, params: DetectorParams) -> Tuple:
    """The parameters that fix the signals ``alg`` detects on."""
    if alg in (AlgorithmId.LOW_LEVEL_SUM, AlgorithmId.LOW_LEVEL_DIFF):
        return (alg, params.smooth_single, params.smooth_fused)
    return (None, params.smooth_single, None)


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


def _held(hold: Dict, kind: Optional[AlgorithmId], make: Callable[[], Iterable]) -> Iterable:
    """``make()``'s signals of ``kind`` (None: both wrists' smoothed
    magnitudes, else that algorithm's combined signal), kept in ``hold`` for
    the window's later builds when ``hold`` has a place for ``kind``."""
    if kind not in hold:
        return make()
    if hold[kind] is None:
        hold[kind] = list(make())
    return hold[kind]


def _each(items: Iterable, make: Callable) -> Iterator:
    """``make`` of each recording's item, passing a failed recording's error
    through."""
    return (x if isinstance(x, Exception) else make(x) for x in items)


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
    errors: Errors  # recordings whose signals or candidates failed


def _build_family(signals: Sequence[Union[Sequence[ScalarSeries], Exception]]) -> _Family:
    """The family of ``signals``: per recording, one series per stream, or
    why the recording has none. The context is fitted over the recordings
    that have series."""
    errors: Errors = {i: s for i, s in enumerate(signals) if isinstance(s, Exception)}
    good = {i: streams for i, streams in enumerate(signals) if i not in errors}
    if not good:
        return _Family(None, [], errors)
    ctx = fit_normalization(s for streams in good.values() for s in streams)
    streams = []
    for stream in zip(*good.values()):
        cands = {i: _candidates_or_error(s, ctx) for i, s in zip(good, stream)}
        errors.update((i, c) for i, c in cands.items() if isinstance(c, Exception))
        streams.append(Pool.of([PeakSet.empty() if i in errors else cands[i] for i in range(len(signals))]))
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

    Within one call, ``_plan`` holds at most one thing per ``smooth_single``
    window while it builds that window's families: both wrists' smoothed
    magnitudes (about 30 MB on the default corpus), or each recording's
    combined signal (``n_l + n_r`` or ``|n_r - n_l|``, half that size).
    Candidates, smoothed and combined signals and fusion stage results last
    one call.
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

    def _smoothed(self, window: float) -> Iterator[Union[List[ScalarSeries], Exception]]:
        """Both wrists' smoothed magnitudes, one recording at a time, or the
        error of a recording with a wrist that has none."""
        for r in self.recordings.values():
            pair = []
            for side in Side:
                try:
                    pair.append(smoothed_magnitude(r, side, window))
                except ValueError as exc:  # kept by the engine: a new error holds no frames
                    pair = ValueError(f"recording {r.id!r}, {side.value} wrist: {exc}")
                    break
            yield pair

    def _build(self, key: Tuple, hold: Dict) -> _Family:
        """Family ``key``'s candidates; the signals ``hold`` has no place for
        are dropped once used (see ``_held``)."""
        alg, window, smooth_fused = key
        try:
            smoothed = _held(hold, None, lambda: self._smoothed(window))
            if alg is None:
                family = _build_family(list(smoothed))
            else:
                combined = _held(hold, alg, lambda: _each(smoothed, lambda pair: combined_signal(*pair, alg)))
                family = _build_family(list(_each(combined, lambda c: [fused_signal(c, smooth_fused)])))
        except ValueError as exc:  # a family-wide error, as no smooth_fused: every recording fails
            exc = exc.with_traceback(None)
            family = _Family(None, [], dict.fromkeys(range(len(self.recordings)), exc))
        self._contexts[key] = (family.ctx, family.errors)
        return family

    def _prepare(self, key: Tuple, floor: float, gaps: Iterable[float], hold: Dict) -> Errors:
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
            family = self._build(key, hold)
            if family.ctx is not None:
                for s in sorted({s for s, _ in missing}):
                    gated = family.streams[s].gate(floor)
                    priority = suppression_key(gated)
                    for gap in (g for t, g in missing if t == s):
                        self._kept[(key, s, gap)] = (floor, gated.thin(priority, gap))
        return self._contexts[key][1]

    def _plan(self, requests: Sequence[Tuple[AlgorithmId, DetectorParams]]
              ) -> Iterator[Tuple[List[int], Errors, Union[Stage, Exception, None]]]:
        """Prepare the family of every (algorithm, parameters) request and
        yield, per group of requests that differ only in their last stage's
        threshold, their positions, their family's failed recordings, and
        their last stage (see ``_last_stage``); or the error of a parameter
        the algorithm lacks, or None when the whole family failed.

        Requests are taken one ``smooth_single`` window at a time. Each
        family is prepared once, at its requests' lowest ``min_peak_amp``
        with all their gaps, and its groups are yielded before the next
        low-level family evicts it. Between a window's builds the plan holds
        both wrists' smoothed magnitudes when the window's families differ
        in kind, the combined signal when they are all one low-level
        detector's, and nothing for one family.
        """
        windows: Dict[float, Dict[Tuple, Dict[Tuple, List[int]]]] = {}
        for i, (alg, params) in enumerate(requests):
            shared = params.to_dict()
            del shared[_LAST_STAGE[alg]]
            family = windows.setdefault(params.smooth_single, {}).setdefault(_family_key(alg, params), {})
            family.setdefault((alg, *shared.values()), []).append(i)
        for families in windows.values():
            kinds = {key[0] for key in families}  # None for the single-side family
            hold = dict.fromkeys(kinds if len(kinds) == 1 else [None]) if len(families) > 1 else {}
            for key, groups in families.items():
                rows = [i for group in groups.values() for i in group]
                floor = min(requests[i][1].min_peak_amp for i in rows)
                gaps = dict.fromkeys(requests[i][1].min_peak_gap for i in rows)
                errors = self._prepare(key, floor, gaps, hold)
                merges: Dict = {}  # each gap's union merge, shared by the family's groups
                for group in groups.values():
                    stage = None
                    if len(errors) < len(self.recordings):
                        try:
                            stage = self._last_stage(key, [requests[i] for i in group], merges)
                        except ValueError as exc:
                            stage = exc.with_traceback(None)  # kept by the engine: hold no frames
                    yield group, errors, stage

    def _last_stage(self, key: Tuple, requests: Sequence[Tuple[AlgorithmId, DetectorParams]],
                    merges: Dict) -> Stage:
        """Every stage before the last threshold of ``requests``, which
        differ only in that threshold, from the kept streams of family
        ``key`` (see ``_prepare``): each candidate's recording, the value
        that threshold tests, each request's threshold, and a function from
        a keep mask of the candidates to the steps.

        The value is an amplitude, or for intersect a negated pair distance,
        since a pair is kept within ``fuse_max_dist``. A kept stream may be
        gated at a floor below ``min_peak_amp``. The gated peaks are a
        prefix of the suppression and union priority orders, so the steps do
        not depend on the floor; intersect pairs after its amplitude gate,
        so it gates here.
        """
        alg, params = requests[0]
        thresholds = [getattr(p, _LAST_STAGE[alg]) for _, p in requests]
        if None in thresholds:  # min_peak_amp is required, fuse_max_dist is not
            raise ValueError("intersection fusion requires fuse_max_dist")
        thresholds = np.array(thresholds)
        gap = params.min_peak_gap
        streams = [self._kept[(key, s, gap)][1] for s in _STREAMS[alg]]
        if alg is AlgorithmId.HIGH_LEVEL_INTERSECT:
            left, right = (s.gate(params.min_peak_amp) for s in streams)
            nearest, dist = mutual_nearest(left.times, right.times, left.group, right.group)
            return left.group, -dist, -thresholds, lambda keep: intersect(left, right, nearest, keep)
        if len(streams) == 2:
            if params.fuse_min_dist is None:
                raise ValueError("union fusion requires fuse_min_dist")
            if gap not in merges:
                merges[gap] = union_merge(*streams)
            merged, priority = merges[gap]
            streams = [merged.thin(priority, params.fuse_min_dist)]
        return streams[0].group, streams[0].amps, thresholds, streams[0].select

    def context_for(self, alg: AlgorithmId, params: DetectorParams) -> NormalizationContext:
        key = _family_key(alg, params)
        if key not in self._contexts:
            for _ in self._plan([(alg, params)]):
                pass
        ctx, errors = self._contexts[key]
        if ctx is None:
            raise _fresh(errors[0])
        return ctx

    # -- detection ----------------------------------------------------------

    def detect(self, params_by_alg: Mapping[AlgorithmId, DetectorParams]) -> None:
        """Detect each algorithm at its parameters in every recording, and keep
        the steps for ``steps`` in place of the last call's. Each
        algorithm's steps are taken as soon as ``_plan`` has its family."""
        self._found = {}  # free the previous steps first
        requests = list(params_by_alg.items())
        found = {}
        for (i,), errors, stage in self._plan(requests):  # one request per algorithm
            if isinstance(stage, tuple):
                _, values, (threshold,), select = stage
                stage = select(values >= threshold)
            found[requests[i]] = (errors, stage)
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

    def count_tensor(self, requests: Sequence[Tuple[AlgorithmId, DetectorParams]]) -> np.ndarray:
        """``counts[q, r] == len(steps(alg, r, params))`` for every (``alg``,
        ``params``) request ``q``, in any order and mix of algorithms, repeats
        allowed, and every recording, in corpus order. Requests that differ
        only in their last stage's threshold (see ``_plan``) are counted
        together from the values it tests, by :func:`_tally`; no pool of
        steps is built.
        """
        n = len(self.recordings)
        counts = np.empty((len(requests), n), dtype=np.int64)
        for rows, errors, stage in self._plan(requests):
            if errors:
                raise _fresh(next(iter(errors.values())))
            if isinstance(stage, Exception):
                raise stage
            group, values, thresholds, _ = stage
            counts[rows] = _tally(group, values, thresholds, n)
        return counts
