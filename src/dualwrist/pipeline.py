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


def _family_key(alg: AlgorithmId, params: DetectorParams) -> Tuple:
    """The parameters that fix the signals ``alg`` detects on."""
    if "smooth_fused" in DETECTORS[alg].params:
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


def _taken(items: List) -> Iterator:
    """Each of ``items`` in order, dropped from the list as it is taken, so
    that the list keeps only what its reader has yet to take."""
    items.reverse()
    while items:
        yield items.pop()


def _each(rids: Iterable[str], items: Iterable, make: Callable) -> Iterator:
    """``make`` of each recording's item, passing on a failed recording's
    message; a ``ValueError`` of ``make`` fails that recording alone, with a
    message naming it."""
    for rid, x in zip(rids, items):
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
      grid), plus those of the most recent low-level family;
    - the steps of the most recent ``detect`` call, one pool per algorithm.

    Within one call, ``_plan`` holds at most one thing per ``smooth_single``
    window while it builds that window's families: both wrists' smoothed
    magnitudes (about 30 MB on the default corpus), or each recording's
    combined signal (``n_l + n_r`` or ``|n_r - n_l|``, half that size). The
    window's last family takes the held list apart as it builds, and
    ``_build`` drops each recording's signals once its candidates are taken.
    Candidates and fusion stage results last one call.
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
        # (family key, gap) -> (floor, each stream's candidates gated at floor
        # and gap-suppressed). Streams kept at one floor serve every higher
        # floor: the gated peaks are a prefix of the suppression order.
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

    def _build(self, key: Tuple, hold: Dict) -> List[Pool]:
        """Family ``key``'s normalized candidates, one pool per stream, or
        none when every recording failed; its context, fitted over the
        recordings that have signals, and its failed recordings go to
        ``_contexts``. Each recording's signals are dropped once its
        candidates are taken, and the signals it was made from once they
        are used, unless ``hold`` keeps them (see ``_held``)."""
        alg, window, smooth_fused = key
        rids = list(self.recordings)
        signals = _held(hold, None, lambda: self._smoothed(window))
        if alg is not None:
            combined = _held(hold, alg, lambda: _each(rids, signals, lambda pair: combined_signal(*pair, alg)))
            signals = _each(rids, combined, lambda c: [fused_signal(c, smooth_fused)])
            del combined  # its generators, and the last item they hold, end with the list below
        signals = list(signals)
        good = [streams for streams in signals if not isinstance(streams, str)]
        ctx = fit_normalization(s for streams in good for s in streams) if good else None
        empty = [PeakSet.empty()] * len(good[0]) if good else []
        del good
        cands = list(_each(rids, _taken(signals), lambda streams: [candidate_peaks(min_max_normalize(s, ctx))
                                                                   for s in streams]))
        errors = {i: c for i, c in enumerate(cands) if isinstance(c, str)}
        self._contexts[key] = (ctx, errors)
        if len(errors) == len(cands):
            return []
        return [Pool.of(list(stream)) for stream in zip(*(empty if isinstance(c, str) else c for c in cands))]

    def _prepare(self, key: Tuple, floor: float, gaps: Iterable[float], hold: Dict) -> Errors:
        """Keep the streams of family ``key`` gated at ``floor`` or below and
        gap-suppressed at each of ``gaps``; returns the family's failed
        recordings. The family's candidates are built (see ``_build``) only
        when a gap is missing. A single-side family keeps both wrists
        whatever the algorithm, so ``left`` also keeps what ``right``,
        ``intersect`` and ``union`` read."""
        known = self._contexts.get(key)
        if known is not None and len(known[1]) == len(self.recordings):
            return known[1]
        missing = [gap for gap in gaps if self._kept.get((key, gap), (math.inf,))[0] > floor]
        if missing:
            if key[0] is not None:  # low-level families are many: keep one at a time
                self._kept = {k: v for k, v in self._kept.items() if k[0][0] is None or k[0] == key}
            gated = [stream.gate(floor) for stream in self._build(key, hold)]
            thinned = [stream.thin_each(suppression_key(stream), missing) for stream in gated]
            for u, gap in enumerate(missing):
                self._kept[(key, gap)] = (floor, [stream[u] for stream in thinned])
        return self._contexts[key][1]

    def _plan(self, requests: Sequence[Tuple[AlgorithmId, DetectorParams]]
              ) -> Iterator[Tuple[List[int], Errors, Optional[Stage]]]:
        """Prepare the family of every (algorithm, parameters) request and
        yield, per group of requests that differ only in their last stage's
        threshold or in parameters their algorithm does not read, their
        positions, why each recording has no steps (its family's error, else
        ``<alg> detection requires <field>``), and their last stage (see
        ``_last_stage``), or None when no recording has steps.

        Requests are taken one ``smooth_single`` window at a time, its
        single-side family first. Each family is prepared once, at its
        requests' lowest ``min_peak_amp`` with all their gaps, and its groups
        are yielded before the next low-level family evicts it. Between a
        window's builds the plan holds both wrists' smoothed magnitudes when
        the window's families differ in kind, the combined signal when they
        are all one low-level detector's, and nothing for one family. The
        window's last family, when it builds, consumes that list as it goes
        (see ``_taken``), so each recording's held signals go once that
        family has read them.
        """
        n = len(self.recordings)
        windows: Dict[float, Dict[Tuple, Dict[Tuple, List[int]]]] = {}
        for i, (alg, params) in enumerate(requests):
            detector = DETECTORS[alg]
            shared = [getattr(params, name) for name in detector.params if name != detector.threshold]
            family = windows.setdefault(params.smooth_single, {}).setdefault(_family_key(alg, params), {})
            family.setdefault((alg, *shared), []).append(i)
        for families in windows.values():
            kinds = {key[0] for key in families}  # None for the single-side family
            hold = dict.fromkeys(kinds if len(kinds) == 1 else [None]) if len(families) > 1 else {}
            # The single-side family reads the held pairs whole, so it comes
            # first and a low-level family, which fuses them, comes last.
            order = sorted(families.items(), key=lambda family: family[0][0] is not None)
            for key, groups in order:
                if key == order[-1][0]:
                    hold = {kind: _taken(held) for kind, held in hold.items() if held is not None}
                rows = [i for group in groups.values() for i in group]
                floor = min(requests[i][1].min_peak_amp for i in rows)
                gaps = dict.fromkeys(requests[i][1].min_peak_gap for i in rows)
                errors = self._prepare(key, floor, gaps, hold)
                # Each gap's union merge, thinned at once at every fuse_min_dist
                # the family's union groups read: gap -> distance -> steps, None
                # until the first of them is asked for.
                unions: Dict[float, Dict[float, Optional[Pool]]] = {}
                for alg, params in (requests[group[0]] for group in groups.values()):
                    if "fuse_min_dist" in DETECTORS[alg].params and params.fuse_min_dist is not None:
                        unions.setdefault(params.min_peak_gap, {})[params.fuse_min_dist] = None
                for group in groups.values():
                    alg = requests[group[0]][0]
                    missing = next((name for name in DETECTORS[alg].params for i in group
                                    if getattr(requests[i][1], name) is None), None)
                    failed = errors
                    if missing is not None:  # the family's errors first
                        failed = {**errors, **{r: f"{alg.value} detection requires {missing}"
                                               for r in range(n) if r not in errors}}
                    stage = None if len(failed) == n else self._last_stage(key, [requests[i] for i in group], unions)
                    yield group, failed, stage

    def _last_stage(self, key: Tuple, requests: Sequence[Tuple[AlgorithmId, DetectorParams]],
                    unions: Dict[float, Dict[float, Optional[Pool]]]) -> Stage:
        """Every stage before the last threshold of ``requests``, which
        differ only in that threshold or in parameters their algorithm does
        not read, from the kept streams of family ``key`` (see
        ``_prepare``): each candidate's recording, the value that threshold
        tests, each request's threshold, and a function from a keep mask of
        the candidates to the steps.

        The value is an amplitude, or for intersect a negated pair distance,
        since a pair is kept within ``fuse_max_dist``. A kept stream may be
        gated at a floor below ``min_peak_amp``. The gated peaks are a
        prefix of the suppression and union priority orders, so the steps do
        not depend on the floor; intersect pairs after its amplitude gate,
        so it gates here. Union thins its gap's merge once, at every
        distance in ``unions[gap]`` (see ``_plan``), and takes its own.
        """
        alg, params = requests[0]
        detector = DETECTORS[alg]
        thresholds = np.array([getattr(p, detector.threshold) for _, p in requests])
        gap = params.min_peak_gap
        streams = [self._kept[(key, gap)][1][s] for s in detector.streams]
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
            for _ in self._plan([(alg, params)]):
                pass
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
            group, values, thresholds, _ = stage
            counts[rows] = _tally(group, values, thresholds, n)
        return counts
