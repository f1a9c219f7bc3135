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
Across calls, the engine keeps both wrists' gap-suppressed peaks per (window,
gap), so ``left``, ``right``, ``intersect``, ``union`` and their evaluation
share one build of each single-side family. What each detector reads is
``core.DETECTORS``.
"""
from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .core import DETECTORS, AlgorithmId, DetectorParams, PeakSet, Recording, ScalarSeries, Side
from .fusion import combined_signal, fused_signal, intersect, mutual_nearest, smoothed_magnitude, union_merge
from .peaks import Pool, candidate_peaks, suppression_key
from .preprocess import NormalizationContext, fit_normalization, min_max_normalize

Errors = Dict[int, str]  # recording index -> why it has no steps
# A group's last stage: each candidate's recording, the value its threshold
# tests, each request's threshold, and the steps of a keep mask.
Stage = Tuple[np.ndarray, np.ndarray, np.ndarray, Callable[[np.ndarray], Pool]]


def _family_key(alg: AlgorithmId, params: DetectorParams) -> Optional[Tuple]:
    """The parameters that fix the signals ``alg`` detects on, or None when
    ``params`` lacks one of them."""
    if "smooth_fused" in DETECTORS[alg].params:
        return None if params.smooth_fused is None else (alg, params.smooth_single, params.smooth_fused)
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


def _taken(items: List) -> Iterator:
    """Each of ``items`` in order, dropped from the list as it is taken, so
    that the list keeps only what its reader has yet to take."""
    items.reverse()
    while items:
        yield items.pop()


def _each(rids: Iterable[str], items: Iterable, make: Callable) -> Iterator:
    """``make`` of each recording's item, passing on a failed recording's
    message; a ``ValueError`` of ``make`` fails that recording alone, with a
    message naming it. ``items`` is read to its end, so no generator it
    comes from keeps its last item."""
    for x, rid in zip(items, rids):
        if not isinstance(x, str):
            try:
                x = make(x)
            except ValueError as exc:
                x = f"recording {rid!r}: {exc}"
        yield x


class CorpusEngine:
    """Evaluator for the six detectors over a fixed corpus.

    Normalization contexts are always fitted over the whole corpus (all
    samples), per signal family: per-sensor smoothed magnitudes for
    single-side and high-level pipelines, fused signals for low-level
    pipelines.

    Between calls the engine keeps, for the life of the engine:

    - each family's normalization context and failed recordings;
    - both wrists' gap-suppressed peaks per (``smooth_single``,
      ``min_peak_gap``) of the single-side families, about 1.4 MB each on
      the default corpus (24 of them, 34 MB, after tuning on the default
      grid);
    - the steps of the most recent ``detect`` call, one pool per algorithm.

    A low-level family's streams last while ``_plan`` yields its groups.
    What the plan holds between a window's builds, at most both wrists'
    smoothed magnitudes (about 30 MB on the default corpus), goes at the
    window's last build. Candidates and fusion stage results last one call.
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
        # (single-side family key, gap) -> (floor, both wrists' candidates
        # gated at floor and gap-suppressed). Streams kept at one floor serve
        # every higher floor: the gated peaks are a prefix of the suppression
        # order.
        self._kept: Dict[Tuple, Tuple[float, List[Pool]]] = {}
        # (alg, params) -> (why each recording has no steps, its steps in the
        # others or None), from the most recent detect call.
        self._found: Dict[Tuple, Tuple[Errors, Optional[Pool]]] = {}

    def columns(self, recordings: Sequence[Recording]) -> List[int]:
        """Positions of ``recordings`` in the engine's corpus order."""
        return [self._index[r.id] for r in recordings]

    # -- stages ---------------------------------------------------------------

    def _smoothed(self, window: float) -> Iterator[Union[List[ScalarSeries], str]]:
        """Both wrists' smoothed magnitudes, one recording at a time, or why
        a recording with a wrist that has none failed."""
        for r in self.recordings.values():
            pair = []
            for side in Side:
                try:
                    pair.append(smoothed_magnitude(r, side, window))
                except ValueError as exc:
                    pair = f"recording {r.id!r}, {side.value} wrist: {exc}"
                    break
            yield pair

    def _combined(self, pairs: Iterable, alg: Optional[AlgorithmId]) -> Iterable:
        """``alg``'s combined signal of each recording's wrist pair in
        ``pairs``, or the pairs themselves when ``alg`` is None."""
        return pairs if alg is None else _each(self.recordings, pairs, lambda pair: combined_signal(*pair, alg))

    def _build(self, key: Tuple, source: Iterable) -> List[Pool]:
        """Family ``key``'s normalized candidates, one pool per stream, or
        none when every recording failed, from ``source``: each recording's
        wrist pair for the single-side family, its combined signal for a
        low-level one, or why it failed. The family's context, fitted over
        the recordings that have signals, and its failed recordings go to
        ``_contexts``. Each recording's signals are dropped once its
        candidates are taken, and what they were made from once it is used,
        unless ``source`` is a list the plan holds."""
        alg, window, smooth_fused = key
        if alg is not None:
            source = _each(self.recordings, source, lambda c: [fused_signal(c, smooth_fused)])
        signals = list(source)
        good = [streams for streams in signals if not isinstance(streams, str)]
        ctx = fit_normalization(s for streams in good for s in streams) if good else None
        empty = [PeakSet.empty()] * len(good[0]) if good else []
        del good
        cands = list(_each(self.recordings, _taken(signals),
                           lambda streams: [candidate_peaks(min_max_normalize(s, ctx)) for s in streams]))
        self._contexts[key] = (ctx, {i: c for i, c in enumerate(cands) if isinstance(c, str)})
        return [Pool.of(list(stream)) for stream in zip(*(empty if isinstance(c, str) else c for c in cands))]

    def _prepare(self, key: Tuple, floor: float, gaps: Iterable[float], missing: List[float],
                 source: Iterable) -> Tuple[Errors, Dict[float, List[Pool]]]:
        """Family ``key``'s failed recordings and its streams gated at
        ``floor`` or below and gap-suppressed at each of ``gaps``: kept ones,
        and at the ``missing`` gaps ones built from ``source`` (see
        ``_build``). Only a single-side family's streams are kept for later
        calls, both wrists whatever the algorithm, so ``left`` also keeps
        what ``right``, ``intersect`` and ``union`` read."""
        streams = {gap: self._kept[(key, gap)][1] for gap in gaps if gap not in missing}
        if missing:
            gated = [stream.gate(floor) for stream in self._build(key, source)]
            thinned = [stream.thin_each(suppression_key(stream), missing) for stream in gated]
            for u, gap in enumerate(missing):
                streams[gap] = [stream[u] for stream in thinned]
                if key[0] is None:
                    self._kept[(key, gap)] = (floor, streams[gap])
        return self._contexts[key][1], streams

    def _plan(self, requests: Sequence[Tuple[AlgorithmId, DetectorParams]]
              ) -> Iterator[Tuple[List[int], Errors, Optional[Stage]]]:
        """Prepare the family of every (algorithm, parameters) request and
        yield, per group of requests that differ only in their last stage's
        threshold or in parameters their algorithm does not read, their
        positions, why each recording has no steps (its family's error, else
        ``<alg> detection requires <field>``), and their last stage (see
        ``_last_stage``), or None when no recording has steps. A request
        without a parameter of its family (see ``_family_key``) has none.

        Requests are taken one ``smooth_single`` window at a time, its
        single-side family, which reads the wrist pairs whole, before the
        low-level families, which fuse them. Each family is prepared once, at
        its requests' lowest ``min_peak_amp`` with all their gaps: the
        single-side family builds at the gaps it does not keep at that floor,
        a low-level family always, and its streams go once its groups are
        yielded. A window that builds two or more families holds, from before
        its first build, what they share: both wrists' smoothed magnitudes,
        or one low-level detector's combined signals (``n_l + n_r`` or
        ``|n_r - n_l|``, half that size) when they are all its. The window's
        last build takes that list apart as it goes (see ``_taken``), so each
        recording's held signals go once that build has read them.
        """
        n = len(self.recordings)
        windows: Dict[float, Dict[Optional[Tuple], Dict[Tuple, List[int]]]] = {}
        for i, (alg, params) in enumerate(requests):
            detector = DETECTORS[alg]
            shared = [getattr(params, name) for name in detector.params if name != detector.threshold]
            family = windows.setdefault(params.smooth_single, {}).setdefault(_family_key(alg, params), {})
            family.setdefault((alg, *shared), []).append(i)
        for window, families in windows.items():
            todo = []  # (key, groups, floor, gaps, the gaps to build at)
            for key, groups in sorted(families.items(), key=lambda family: family[0] != (None, window, None)):
                rows = [requests[i][1] for group in groups.values() for i in group]
                floor, gaps = min(p.min_peak_amp for p in rows), dict.fromkeys(p.min_peak_gap for p in rows)
                missing = [gap for gap in gaps if key and self._kept.get((key, gap), (math.inf,))[0] > floor]
                todo.append((key, groups, floor, gaps, missing))
            builds = [key for key, *_, missing in todo if missing]
            kind = builds[0][0] if len({key[0] for key in builds}) == 1 else None  # None: the wrist pairs
            fresh = self._combined(self._smoothed(window), kind)  # what the window's builds read
            held = list(fresh) if len(builds) > 1 else None
            for key, groups, floor, gaps, missing in todo:
                errors, streams = {}, {}
                if key is not None:
                    signals = fresh if held is None else _taken(held) if key == builds[-1] else held
                    source = signals if key[0] == kind else self._combined(signals, key[0])
                    errors, streams = self._prepare(key, floor, gaps, missing, source)
                # Each gap's union merge, thinned at once at every fuse_min_dist
                # the family's union groups read: gap -> distance -> steps, None
                # until the first of them is asked for.
                unions: Dict[float, Dict[float, Optional[Pool]]] = {}
                for alg, params in (requests[group[0]] for group in groups.values()):
                    if "fuse_min_dist" in DETECTORS[alg].params and params.fuse_min_dist is not None:
                        unions.setdefault(params.min_peak_gap, {})[params.fuse_min_dist] = None
                for group in groups.values():
                    alg = requests[group[0]][0]
                    field = next((name for name in DETECTORS[alg].params for i in group
                                  if getattr(requests[i][1], name) is None), None)
                    failed = errors
                    if field is not None:  # the family's errors first
                        failed = {**errors, **{r: f"{alg.value} detection requires {field}"
                                               for r in range(n) if r not in errors}}
                    yield group, failed, (None if len(failed) == n else
                                          self._last_stage(streams, [requests[i] for i in group], unions))
                del streams  # a low-level family's streams go before the next family builds

    def _last_stage(self, streams: Dict[float, List[Pool]], requests: Sequence[Tuple[AlgorithmId, DetectorParams]],
                    unions: Dict[float, Dict[float, Optional[Pool]]]) -> Stage:
        """Every stage before the last threshold of ``requests``, which
        differ only in that threshold or in parameters their algorithm does
        not read, from their family's ``streams`` by gap (see ``_prepare``):
        each candidate's recording, the value that threshold tests, each
        request's threshold, and a function from a keep mask of the
        candidates to the steps.

        The value is an amplitude, or for intersect a negated pair distance,
        since a pair is kept within ``fuse_max_dist``. A stream may be gated
        at a floor below ``min_peak_amp``. The gated peaks are a prefix of
        the suppression and union priority orders, so the steps do not
        depend on the floor; intersect pairs after its amplitude gate, so it
        gates here. Union thins its gap's merge once, at every distance in
        ``unions[gap]`` (see ``_plan``), and takes its own.
        """
        alg, params = requests[0]
        detector = DETECTORS[alg]
        thresholds = np.array([getattr(p, detector.threshold) for _, p in requests])
        gap = params.min_peak_gap
        streams = [streams[gap][s] for s in detector.streams]
        if alg is AlgorithmId.HIGH_LEVEL_INTERSECT:
            left, right = (s.gate(params.min_peak_amp) for s in streams)
            nearest, dist = mutual_nearest(left.times, right.times, left.group, right.group)
            return left.group, -dist, -thresholds, lambda keep: intersect(left, right, nearest, keep)
        if len(streams) == 2:
            thinned = unions[gap]
            if thinned[params.fuse_min_dist] is None:
                merged, priority = union_merge(*streams)
                dists = list(thinned)
                thinned.update(zip(dists, merged.thin_each(priority, dists)))
            streams = [thinned.pop(params.fuse_min_dist)]  # each distance's group comes once
        return streams[0].group, streams[0].amps, thresholds, streams[0].select

    def context_for(self, alg: AlgorithmId, params: DetectorParams) -> NormalizationContext:
        key = _family_key(alg, params)
        if key not in self._contexts:
            for _, failed, _ in self._plan([(alg, params)]):
                if key is None:  # no family: its parameters lack one it is made with
                    raise ValueError(failed[0])
        ctx, errors = self._contexts[key]
        if ctx is None:
            raise ValueError(errors[0])
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
            if stage is not None:
                _, values, (threshold,), select = stage
                stage = select(values >= threshold)
                del values, select  # as in count_tensor
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
            raise ValueError(errors[i])
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
                raise ValueError(next(iter(errors.values())))
            counts[rows] = _tally(*stage[:3], n)  # each candidate's recording, its value, the thresholds
            del stage  # a low-level family's streams go before the next family builds
        return counts
