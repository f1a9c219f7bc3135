"""The corpus engine must match the detectors composed from public stages,
its grid counts must match its steps, and the stages it keeps across calls
must give what a fresh engine gives."""
import gc
import importlib.util
import random
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dualwrist import (
    AlgorithmId,
    CorpusEngine,
    CorpusSpec,
    DetectorParams,
    ParamGrid,
    Side,
    WalkTask,
    cross_validate,
    cross_validate_study,
    detect_peaks,
    evaluate_corpus,
    fit_normalization,
    intersect_fuse,
    min_max_normalize,
    simulate_corpus,
    union_fuse,
)
from dualwrist import pipeline
from dualwrist.fusion import mutual_nearest, smoothed_magnitude
from dualwrist.peaks import Pool

from conftest import fused, recording_from_signals

LOW_LEVEL = (AlgorithmId.LOW_LEVEL_SUM, AlgorithmId.LOW_LEVEL_DIFF)
SIDES = {AlgorithmId.NO_FUSION_LEFT: (Side.LEFT,), AlgorithmId.NO_FUSION_RIGHT: (Side.RIGHT,)}

PARAM_POINTS = [
    DetectorParams(smooth_single=0.1, min_peak_amp=0.12, min_peak_gap=0.4,
                   smooth_fused=0.08, fuse_max_dist=0.3, fuse_min_dist=0.3),
    DetectorParams(smooth_single=0.02, min_peak_amp=0.04, min_peak_gap=0.22,
                   smooth_fused=0.0, fuse_max_dist=0.18, fuse_min_dist=0.14),
    DetectorParams(smooth_single=0.4, min_peak_amp=0.3, min_peak_gap=0.46,
                   smooth_fused=0.18, fuse_max_dist=0.46, fuse_min_dist=0.34),
]


def plain_context(dataset, alg, params):
    if alg in LOW_LEVEL:
        return fit_normalization(fused(r, alg, params) for r in dataset)
    return fit_normalization(
        smoothed_magnitude(r, s, params.smooth_single)
        for r in dataset for s in (Side.LEFT, Side.RIGHT)
    )


def plain_steps(rec, alg, params, ctx):
    """Signal, normalize, detect on each stream, then fuse two streams."""
    if alg in LOW_LEVEL:
        signals = [fused(rec, alg, params)]
    else:
        sides = SIDES.get(alg, (Side.LEFT, Side.RIGHT))
        signals = [smoothed_magnitude(rec, s, params.smooth_single) for s in sides]
    streams = [
        detect_peaks(min_max_normalize(sig, ctx), params.min_peak_amp, params.min_peak_gap)
        for sig in signals
    ]
    if alg is AlgorithmId.HIGH_LEVEL_INTERSECT:
        return intersect_fuse(*streams, params.fuse_max_dist)
    if alg is AlgorithmId.HIGH_LEVEL_UNION:
        return union_fuse(*streams, params.fuse_min_dist)
    return streams[0]


class TestEngineMatchesPlainPipelines:
    @pytest.mark.parametrize("params", PARAM_POINTS)
    def test_bit_identical_steps(self, small_corpus, params):
        engine = CorpusEngine(small_corpus)
        for alg in AlgorithmId:
            ctx = plain_context(small_corpus, alg, params)
            assert engine.context_for(alg, params) == ctx
            for rec in small_corpus[::3]:
                # exact float equality
                assert engine.steps(alg, rec.id, params) == plain_steps(rec, alg, params, ctx)

    def test_repeated_parameter_sweeps_stay_exact(self, small_corpus):
        # Sweeping back and forth across cache-evicting settings must not
        # change any result.
        engine = CorpusEngine(small_corpus)
        rid = small_corpus[0].id
        baseline = {}
        for params in PARAM_POINTS:
            baseline[params] = engine.steps(AlgorithmId.NO_FUSION_LEFT, rid, params)
        for params in reversed(PARAM_POINTS):
            assert engine.steps(AlgorithmId.NO_FUSION_LEFT, rid, params) == baseline[params]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            CorpusEngine([])

    def test_duplicate_recording_id_rejected(self, small_corpus):
        recs = [small_corpus[0], small_corpus[1], small_corpus[0]]
        with pytest.raises(ValueError, match=f"{small_corpus[0].id!r} occurs more than once"):
            CorpusEngine(recs)

    def test_unknown_recording_rejected(self, small_corpus):
        engine = CorpusEngine(small_corpus)
        with pytest.raises(KeyError):
            engine.steps(AlgorithmId.NO_FUSION_LEFT, "nope", PARAM_POINTS[0])


# At least two values per field. count_tensor counts every amplitude threshold
# of a family from one pool suppressed at the lowest, and every fuse_max_dist
# of one intersect pairing; steps gates each point's own threshold first.
SMALL_GRID = ParamGrid(
    smooth_single=(0.02, 0.2), smooth_fused=(0.0, 0.08), min_peak_amp=(0.04, 0.2, 0.3),
    min_peak_gap=(0.22, 0.4), fuse_max_dist=(0.18, 0.3), fuse_min_dist=(0.14, 0.3),
)


@pytest.mark.parametrize("alg", list(AlgorithmId))
def test_count_tensor_counts_the_steps(small_corpus, alg):
    engine = CorpusEngine(small_corpus)
    points = SMALL_GRID.points(alg)
    counts = engine.count_tensor([(alg, p) for p in points])
    expected = [[len(engine.steps(alg, rec.id, params)) for rec in small_corpus] for params in points]
    assert counts.tolist() == expected


@pytest.mark.parametrize("alg", list(AlgorithmId))
def test_count_tensor_counts_any_threshold_list(small_corpus, alg):
    """Grid points of several families in shuffled order, with repeated
    thresholds and a threshold equal to a step's own amplitude (the gate is
    inclusive), or for intersect to a pair's own distance, count the steps."""
    engine = CorpusEngine(small_corpus)
    grid = SMALL_GRID.points(alg)
    base = grid[0]  # the lowest amplitude, so its steps lie above the floor
    rid = small_corpus[0].id
    amps = engine.steps(alg, rid, base).amplitudes
    points = grid + grid[::3] + [replace(base, min_peak_amp=float(amps[amps > base.min_peak_amp][0]))]
    if alg is AlgorithmId.HIGH_LEVEL_INTERSECT:
        left, right = (engine.steps(one, rid, base).times
                       for one in (AlgorithmId.NO_FUSION_LEFT, AlgorithmId.NO_FUSION_RIGHT))
        _, dist = mutual_nearest(left, right, np.zeros(len(left)), np.zeros(len(right)))
        points.append(replace(base, fuse_max_dist=float(dist[np.isfinite(dist)][0])))
    random.Random(5).shuffle(points)
    counts = engine.count_tensor([(alg, p) for p in points])
    expected = [[len(engine.steps(alg, rec.id, params)) for rec in small_corpus] for params in points]
    assert counts.tolist() == expected


def test_count_tensor_counts_mixed_requests(small_corpus):
    """One shuffled request list of every detector's grid points, with
    repeats, counts each detector's own rows and a fresh engine's steps."""
    requests = [(alg, p) for alg in AlgorithmId for p in SMALL_GRID.points(alg)]
    requests += requests[::5]
    random.Random(7).shuffle(requests)
    counts = {}
    for request, row in zip(requests, CorpusEngine(small_corpus).count_tensor(requests).tolist()):
        assert counts.setdefault(request, row) == row
    for alg in AlgorithmId:
        points = SMALL_GRID.points(alg)
        own = CorpusEngine(small_corpus).count_tensor([(alg, p) for p in points]).tolist()
        fresh = CorpusEngine(small_corpus)
        steps = [[len(fresh.steps(alg, rec.id, p)) for rec in small_corpus] for p in points]
        assert [counts[(alg, p)] for p in points] == own == steps


@pytest.mark.parametrize("alg", list(AlgorithmId))
def test_count_tensor_at_nine_gaps_counts_each_gap_alone(small_corpus, alg):
    """Nine gaps suppress each stream in one kernel call, across two chunks
    of radii, and union thins each gap's merge at both distances in one; the
    counts are those of a fresh engine per gap."""
    gaps = (0.1, 0.16, 0.22, 0.28, 0.34, 0.4, 0.46, 0.52, 0.58)
    grid = ParamGrid(smooth_single=(0.1,), smooth_fused=(0.08,), min_peak_amp=(0.04, 0.2),
                     min_peak_gap=gaps, fuse_max_dist=(0.1,), fuse_min_dist=(0.14, 0.3))
    points = grid.points(alg)
    counts = CorpusEngine(small_corpus).count_tensor([(alg, p) for p in points])
    for gap in gaps:
        rows = [i for i, p in enumerate(points) if p.min_peak_gap == gap]
        alone = CorpusEngine(small_corpus).count_tensor([(alg, points[i]) for i in rows])
        assert counts[rows].tolist() == alone.tolist()


@pytest.mark.parametrize("order", ["forward", "reverse"])
def test_shared_engine_matches_fresh_engines(small_corpus, order):
    """Detectors that reuse kept streams count and detect what a fresh engine
    does, also at floors above and below the floor a stream was kept at."""
    algs = list(AlgorithmId) if order == "forward" else list(reversed(AlgorithmId))
    shared = CorpusEngine(small_corpus)
    rids = [rec.id for rec in small_corpus]
    for alg in algs:
        points = SMALL_GRID.points(alg)
        fresh = CorpusEngine(small_corpus).count_tensor([(alg, p) for p in points])
        assert shared.count_tensor([(alg, p) for p in points]).tolist() == fresh.tolist()
        # The grid keeps streams gated at 0.04: steps above that floor read
        # them, steps below it suppress again.
        for amp in (0.25, 0.02):
            params = replace(points[-1], min_peak_amp=amp)
            fresh = CorpusEngine(small_corpus)
            assert [shared.steps(alg, rid, params) for rid in rids] == [fresh.steps(alg, rid, params) for rid in rids]


@pytest.mark.parametrize("alg", LOW_LEVEL)
def test_low_level_grid_combines_each_window_once(small_corpus, alg, monkeypatch):
    """A grid of low-level families smooths each wrist once per window,
    fuses windows of 1, 3 and 11 samples from that one combined signal, and
    counts what a fresh engine's steps give; in grid order and shuffled,
    where the families of one window are no longer adjacent."""
    grid = ParamGrid(smooth_single=(0.02, 0.2), smooth_fused=(0.0, 0.02, 0.08),
                     min_peak_amp=(0.04, 0.2), min_peak_gap=(0.22, 0.4))
    points = grid.points(alg)
    shuffled = list(points)
    random.Random(5).shuffle(shuffled)
    real = pipeline.smoothed_magnitude
    counts = []  # grid point -> its row of counts, per order
    for order in (points, shuffled):
        calls = Counter()

        def counted(rec, side, window):
            calls[(rec.id, window)] += 1
            return real(rec, side, window)

        monkeypatch.setattr(pipeline, "smoothed_magnitude", counted)
        tensor = CorpusEngine(small_corpus).count_tensor([(alg, p) for p in order])
        assert calls == {(rec.id, w): 2 for rec in small_corpus for w in grid.smooth_single}
        monkeypatch.undo()
        counts.append(dict(zip(order, tensor.tolist())))
    assert counts[1] == counts[0]
    for params, row in counts[0].items():
        fresh = CorpusEngine(small_corpus)
        assert row == [len(fresh.steps(alg, rec.id, params)) for rec in small_corpus]


def test_evaluation_smooths_each_wrist_once_per_window(small_corpus, monkeypatch):
    """Evaluating all six detectors, with sum, diff and union on one window,
    and a tuning study of all six, each smooth each wrist once per window;
    the evaluation detects what fresh engines do."""
    shared = dict(min_peak_amp=0.12, min_peak_gap=0.4, fuse_max_dist=0.3, fuse_min_dist=0.3)
    params = {
        AlgorithmId.NO_FUSION_LEFT: DetectorParams(smooth_single=0.2, **shared),
        AlgorithmId.NO_FUSION_RIGHT: DetectorParams(smooth_single=0.2, **shared),
        AlgorithmId.LOW_LEVEL_SUM: DetectorParams(smooth_single=0.1, smooth_fused=0.08, **shared),
        AlgorithmId.LOW_LEVEL_DIFF: DetectorParams(smooth_single=0.1, smooth_fused=0.0, **shared),
        AlgorithmId.HIGH_LEVEL_INTERSECT: DetectorParams(smooth_single=0.16, **shared),
        AlgorithmId.HIGH_LEVEL_UNION: DetectorParams(smooth_single=0.1, **shared),
    }
    calls = Counter()
    real = pipeline.smoothed_magnitude

    def counted(rec, side, window):
        calls[(rec.id, side, window)] += 1
        return real(rec, side, window)

    monkeypatch.setattr(pipeline, "smoothed_magnitude", counted)
    result = evaluate_corpus(small_corpus, list(params), params)
    windows = {p.smooth_single for p in params.values()}
    assert calls == {(rec.id, side, w): 1 for rec in small_corpus for side in Side for w in windows}
    calls.clear()
    cross_validate_study(small_corpus, list(AlgorithmId), SMALL_GRID, k=2)
    assert calls == {(rec.id, side, w): 1 for rec in small_corpus for side in Side for w in SMALL_GRID.smooth_single}
    monkeypatch.undo()
    assert all(row.error is None for row in result.rows)
    for alg, p in params.items():
        fresh = CorpusEngine(small_corpus)
        counts = {row.recording_id: row.count for row in result.rows if row.algorithm is alg}
        assert counts == {rec.id: len(fresh.steps(alg, rec.id, p)) for rec in small_corpus}


def smoothed_alive_at_candidates(monkeypatch):
    """At each of the engine's candidate calls, the low-level detector of the
    family being built (None for the single-side family) and how many
    smoothed magnitudes are still alive, told by weak references to each."""
    refs, calls, building = [], [], [None]
    smooth, build, candidates = pipeline.smoothed_magnitude, CorpusEngine._build, pipeline.candidate_peaks

    def smoothed(rec, side, window):
        series = smooth(rec, side, window)
        refs.append(weakref.ref(series))
        return series

    def built(engine, key, *args):
        building[0] = key[0]
        return build(engine, key, *args)

    def candidate(series):
        calls.append((building[0], sum(ref() is not None for ref in refs)))
        return candidates(series)

    monkeypatch.setattr(pipeline, "smoothed_magnitude", smoothed)
    monkeypatch.setattr(CorpusEngine, "_build", built)
    monkeypatch.setattr(pipeline, "candidate_peaks", candidate)
    return calls


def test_build_drops_each_pair_once_its_candidates_are_taken(small_corpus, monkeypatch):
    """A single-side build holds at most the last recording's pair of
    smoothed magnitudes when it takes that recording's candidates."""
    calls = smoothed_alive_at_candidates(monkeypatch)
    CorpusEngine(small_corpus).detect({AlgorithmId.NO_FUSION_LEFT: PARAM_POINTS[0]})
    assert len(calls) == 2 * len(small_corpus)  # each wrist of each recording
    assert calls[-1] == (None, 2)


@pytest.mark.parametrize("algs, consumer", [(LOW_LEVEL, AlgorithmId.LOW_LEVEL_DIFF),
                                             ((AlgorithmId.LOW_LEVEL_SUM, AlgorithmId.HIGH_LEVEL_UNION),
                                              AlgorithmId.LOW_LEVEL_SUM)])
def test_last_family_on_a_window_consumes_the_held_pairs(small_corpus, algs, consumer, monkeypatch):
    """Two families on one window hold both wrists' smoothed magnitudes for
    the window's last family, a low-level one (``union``'s single-side
    family is built first), which drops each pair as it fuses it: none is
    alive when that family's candidates are taken."""
    calls = smoothed_alive_at_candidates(monkeypatch)
    CorpusEngine(small_corpus).detect(dict.fromkeys(algs, PARAM_POINTS[0]))
    alive = [alive for alg, alive in calls if alg is consumer]
    assert alive == [0] * len(small_corpus)


def test_low_level_family_builds_again_and_consumes_the_held_pairs(small_corpus, monkeypatch):
    """A low-level family's streams last one call: after ``sum`` alone,
    ``left`` and ``sum`` on that window build ``sum`` again, and it takes
    the pairs held for it apart, so no smoothed magnitude is alive at any of
    its candidate calls."""
    calls = smoothed_alive_at_candidates(monkeypatch)
    engine = CorpusEngine(small_corpus)
    engine.detect({AlgorithmId.LOW_LEVEL_SUM: PARAM_POINTS[0]})
    calls.clear()
    engine.detect({AlgorithmId.NO_FUSION_LEFT: PARAM_POINTS[0], AlgorithmId.LOW_LEVEL_SUM: PARAM_POINTS[0]})
    alive = [alive for alg, alive in calls if alg is AlgorithmId.LOW_LEVEL_SUM]
    assert alive == [0] * len(small_corpus)


def test_window_that_builds_once_holds_nothing(small_corpus, monkeypatch):
    """With ``left``'s streams kept, ``left`` and ``sum`` on one window build
    ``sum`` alone, so nothing is held: each recording's pair is the only one
    alive when it is combined."""
    engine = CorpusEngine(small_corpus)
    engine.detect({AlgorithmId.NO_FUSION_LEFT: PARAM_POINTS[0]})
    refs, alive = [], []
    smooth, combine = pipeline.smoothed_magnitude, pipeline.combined_signal

    def smoothed(rec, side, window):
        series = smooth(rec, side, window)
        refs.append(weakref.ref(series))
        return series

    def combined(*args):
        alive.append(sum(ref() is not None for ref in refs))
        return combine(*args)

    monkeypatch.setattr(pipeline, "smoothed_magnitude", smoothed)
    monkeypatch.setattr(pipeline, "combined_signal", combined)
    engine.detect({AlgorithmId.NO_FUSION_LEFT: PARAM_POINTS[0], AlgorithmId.LOW_LEVEL_SUM: PARAM_POINTS[0]})
    assert alive == [2] * len(small_corpus)


@pytest.mark.parametrize("alg", LOW_LEVEL)
def test_request_without_smooth_fused_builds_and_holds_nothing(small_corpus, alg, monkeypatch):
    """A low-level request without ``smooth_fused`` makes no family: it has
    no context, and beside ``left`` on its window nothing is held, so
    ``left``'s build holds only the last recording's pair at its last
    candidate call."""
    params = replace(PARAM_POINTS[0], smooth_fused=None)
    calls = smoothed_alive_at_candidates(monkeypatch)
    engine = CorpusEngine(small_corpus)
    with pytest.raises(ValueError, match=f"{alg.value} detection requires smooth_fused"):
        engine.context_for(alg, params)
    assert calls == []
    engine.detect({AlgorithmId.NO_FUSION_LEFT: PARAM_POINTS[0], alg: params})
    assert len(calls) == 2 * len(small_corpus)  # each wrist of each recording, for left alone
    assert calls[-1] == (None, 2)


def test_detect_builds_a_shared_family_once(small_corpus, monkeypatch):
    """Two detectors on one family at different amplitude thresholds build
    it once, at the lower threshold, and detect what fresh engines do."""
    left, right = AlgorithmId.NO_FUSION_LEFT, AlgorithmId.NO_FUSION_RIGHT
    params = {left: replace(PARAM_POINTS[0], min_peak_amp=0.3),
              right: replace(PARAM_POINTS[0], min_peak_amp=0.04)}
    calls = []
    real = pipeline.candidate_peaks
    monkeypatch.setattr(pipeline, "candidate_peaks", lambda series: calls.append(1) or real(series))
    engine = CorpusEngine(small_corpus)
    engine.detect(params)
    assert len(calls) == 2 * len(small_corpus)  # once per wrist and recording
    monkeypatch.undo()
    rids = [rec.id for rec in small_corpus]
    for alg, p in params.items():
        fresh = CorpusEngine(small_corpus)
        assert [engine.steps(alg, rid, p) for rid in rids] == [fresh.steps(alg, rid, p) for rid in rids]


def test_detect_keeps_the_steps_of_its_last_call(small_corpus, monkeypatch):
    """``steps`` reads what ``detect`` found; a request outside it detects
    that algorithm alone, in place of what the last call kept."""
    engine = CorpusEngine(small_corpus)
    left, union = AlgorithmId.NO_FUSION_LEFT, AlgorithmId.HIGH_LEVEL_UNION
    engine.detect({left: PARAM_POINTS[0], union: PARAM_POINTS[0]})
    calls = []
    real = pipeline.CorpusEngine.detect
    monkeypatch.setattr(pipeline.CorpusEngine, "detect",
                        lambda self, requests: calls.append(dict(requests)) or real(self, requests))
    rid = small_corpus[0].id
    engine.steps(left, rid, PARAM_POINTS[0])
    engine.steps(union, rid, PARAM_POINTS[0])
    assert calls == []
    engine.steps(left, rid, PARAM_POINTS[1])
    engine.steps(union, rid, PARAM_POINTS[0])
    assert calls == [{left: PARAM_POINTS[1]}, {union: PARAM_POINTS[0]}]


def test_fused_detectors_reuse_single_side_streams(small_corpus, monkeypatch):
    calls = []
    real = pipeline.candidate_peaks
    monkeypatch.setattr(pipeline, "candidate_peaks", lambda series: calls.append(1) or real(series))
    engine = CorpusEngine(small_corpus)
    for alg in (AlgorithmId.NO_FUSION_LEFT, AlgorithmId.NO_FUSION_RIGHT):
        cross_validate(small_corpus, alg, SMALL_GRID, k=2, engine=engine)
    assert calls
    calls.clear()
    for alg in (AlgorithmId.HIGH_LEVEL_INTERSECT, AlgorithmId.HIGH_LEVEL_UNION):
        cross_validate(small_corpus, alg, SMALL_GRID, k=2, engine=engine)
    assert calls == []


def kept_pools(engine, window, gap):
    """The floor and each wrist's (pool, keep mask) the engine keeps for the
    single-side family of ``window`` at ``gap``."""
    return engine._kept[((None, window, None), gap)]


def kept_stream(engine, window, gap):
    """Each wrist's kept stream at ``gap``: its pool's peaks that the gap's
    mask keeps."""
    return [pool.select(keep) for pool, keep in kept_pools(engine, window, gap)[1]]


def pool_bytes(pool):
    return pool.group.nbytes + pool.times.nbytes + pool.amps.nbytes


def test_single_side_build_keeps_one_pool_per_wrist_and_a_mask_per_gap(small_corpus):
    """One build at several gaps keeps one pool per wrist, shared by every
    gap's entry, holding only peaks some gap keeps; each gap's mask selects
    the stream a fresh engine keeps for that gap alone, which is read as
    its pool itself, not a copy."""
    left, window, gaps = AlgorithmId.NO_FUSION_LEFT, 0.1, (0.16, 0.22, 0.28, 0.4)
    requests = [(left, DetectorParams(smooth_single=window, min_peak_amp=0.04, min_peak_gap=gap)) for gap in gaps]
    engine = CorpusEngine(small_corpus)
    engine.count_tensor(requests)
    entries = [kept_pools(engine, window, gap)[1] for gap in gaps]
    for side in range(2):
        pools = [entry[side][0] for entry in entries]
        assert all(pool is pools[0] for pool in pools)
        assert np.logical_or.reduce([entry[side][1] for entry in entries]).all()
    for gap, request in zip(gaps, requests):
        fresh = CorpusEngine(small_corpus)
        fresh.count_tensor([request])
        assert all(pool.select(keep) is pool for pool, keep in kept_pools(fresh, window, gap)[1])
        for got, alone in zip(kept_stream(engine, window, gap), kept_stream(fresh, window, gap)):
            for field in ("group", "times", "amps"):
                assert np.array_equal(getattr(got, field), getattr(alone, field))


def test_a_call_reads_only_the_wrists_its_detectors_read(small_corpus, monkeypatch):
    """A left call on an engine that keeps both wrists at its gaps selects
    from the left wrist's kept pool alone."""
    left, window, gaps = AlgorithmId.NO_FUSION_LEFT, 0.1, (0.16, 0.46)
    requests = [(left, DetectorParams(smooth_single=window, min_peak_amp=0.04, min_peak_gap=gap)) for gap in gaps]
    engine = CorpusEngine(small_corpus)
    counts = engine.count_tensor(requests)
    selected = []
    real = Pool.select
    monkeypatch.setattr(Pool, "select", lambda pool, mask: selected.append(pool) or real(pool, mask))
    assert engine.count_tensor(requests).tolist() == counts.tolist()
    (left_pool, _), (right_pool, _) = kept_pools(engine, window, gaps[0])[1]
    assert not any(pool is right_pool for pool in selected)
    assert any(pool is left_pool for pool in selected)


def test_union_at_nine_distances_counts_each_distance_alone(small_corpus):
    """Each gap's union merge is thinned at nine distances in one kernel
    call, across two chunks of radii; the counts are those of a fresh
    engine per distance."""
    dists = (0.1, 0.14, 0.18, 0.22, 0.26, 0.3, 0.34, 0.38, 0.42)
    grid = ParamGrid(smooth_single=(0.1,), min_peak_amp=(0.04, 0.2), min_peak_gap=(0.22, 0.4), fuse_min_dist=dists)
    union = AlgorithmId.HIGH_LEVEL_UNION
    points = grid.points(union)
    counts = CorpusEngine(small_corpus).count_tensor([(union, p) for p in points])
    for dist in dists:
        rows = [i for i, p in enumerate(points) if p.fuse_min_dist == dist]
        alone = CorpusEngine(small_corpus).count_tensor([(union, points[i]) for i in rows])
        assert counts[rows].tolist() == alone.tolist()


def test_gap_rebuilt_at_a_lower_floor_leaves_the_others_on_the_first_build(small_corpus):
    """A call below a gap's floor builds that gap alone; the other gaps
    still read the first build's pools, which go once every gap is built
    again. Steps and counts stay those of a fresh engine."""
    left, right = AlgorithmId.NO_FUSION_LEFT, AlgorithmId.NO_FUSION_RIGHT
    window, gaps = 0.1, (0.22, 0.4)
    at = {(amp, gap): DetectorParams(smooth_single=window, min_peak_amp=amp, min_peak_gap=gap)
          for amp in (0.04, 0.2) for gap in gaps}
    rids = [rec.id for rec in small_corpus]
    engine = CorpusEngine(small_corpus)

    def agrees(alg, params):
        fresh = CorpusEngine(small_corpus)
        assert [engine.steps(alg, rid, params) for rid in rids] == [fresh.steps(alg, rid, params) for rid in rids]
        for gap in gaps:  # one call per gap: a call builds all its gaps at its lowest amplitude
            served = [(a, at[(amp, gap)]) for a in (left, right) for amp in (0.04, 0.2)
                      if amp >= kept_pools(engine, window, gap)[0]]
            assert engine.count_tensor(served).tolist() == CorpusEngine(small_corpus).count_tensor(served).tolist()

    engine.count_tensor([(left, at[(0.2, gap)]) for gap in gaps])
    first = [weakref.ref(pool) for pool, _ in kept_pools(engine, window, gaps[0])[1]]
    agrees(left, at[(0.2, gaps[1])])
    agrees(left, at[(0.04, gaps[0])])
    assert kept_pools(engine, window, gaps[0])[0] == 0.04
    assert kept_pools(engine, window, gaps[1])[0] == 0.2
    assert all(pool is ref() for (pool, _), ref in zip(kept_pools(engine, window, gaps[1])[1], first))
    assert not any(pool is ref() for (pool, _), ref in zip(kept_pools(engine, window, gaps[0])[1], first))
    gc.disable()
    try:
        agrees(right, at[(0.04, gaps[1])])
        assert [ref() for ref in first] == [None, None]
    finally:
        gc.enable()
    assert [kept_pools(engine, window, gap)[0] for gap in gaps] == [0.04, 0.04]


def test_tuning_keeps_half_the_bytes_of_one_stream_per_gap(small_corpus):
    """After tuning all six detectors, the kept pools and masks hold under
    0.55 of the bytes that each gap's own streams would (0.49 measured on
    this corpus, 0.50 on the default one)."""
    engine = CorpusEngine(small_corpus)
    cross_validate_study(small_corpus, list(AlgorithmId), ParamGrid(), k=2, engine=engine)
    kept = [stream for _, streams in engine._kept.values() for stream in streams]
    pools = {id(pool): pool for pool, _ in kept}
    held = sum(map(pool_bytes, pools.values())) + sum(keep.nbytes for _, keep in kept)
    per_gap = sum(pool_bytes(pool.select(keep)) for pool, keep in kept)
    assert len(engine._kept) == 24 and len(pools) == 8  # 4 windows x 6 gaps, one build per window
    assert held < 0.55 * per_gap


@pytest.mark.parametrize("alg, field", [(AlgorithmId.HIGH_LEVEL_INTERSECT, "fuse_max_dist"),
                                        (AlgorithmId.HIGH_LEVEL_UNION, "fuse_min_dist"),
                                        (AlgorithmId.LOW_LEVEL_SUM, "smooth_fused"),
                                        (AlgorithmId.LOW_LEVEL_DIFF, "smooth_fused")])
def test_missing_parameter_fails_every_recording_naming_it(small_corpus, alg, field):
    """A request without a parameter its detector reads fails every
    recording with one message naming the field: in steps, count_tensor and
    evaluate_corpus's error rows alike."""
    params = replace(PARAM_POINTS[0], **{field: None})
    message = f"{alg.value} detection requires {field}"
    engine = CorpusEngine(small_corpus)
    for rec in small_corpus:
        with pytest.raises(ValueError, match=message):
            engine.steps(alg, rec.id, params)
    with pytest.raises(ValueError, match=message):
        engine.count_tensor([(alg, PARAM_POINTS[0]), (alg, params)])
    left = AlgorithmId.NO_FUSION_LEFT
    rows = evaluate_corpus(small_corpus, [left, alg], {left: PARAM_POINTS[0], alg: params}, engine=engine).rows
    assert [row.error for row in rows if row.algorithm is alg] == [message] * len(small_corpus)


def test_family_error_comes_before_a_missing_parameter(small_corpus):
    """A recording its family fails keeps that error; count_tensor raises it
    even when the recording comes after every recording with steps."""
    union = AlgorithmId.HIGH_LEVEL_UNION
    short = recording_from_signals([0.0, 1.0], [1.0, 0.0], rec_id="short")  # too short for peaks
    engine = CorpusEngine(list(small_corpus) + [short])
    params = replace(PARAM_POINTS[0], fuse_min_dist=None)
    with pytest.raises(ValueError, match="3 samples"):
        engine.count_tensor([(union, params)])
    with pytest.raises(ValueError, match="3 samples"):
        engine.steps(union, "short", params)
    with pytest.raises(ValueError, match="union detection requires fuse_min_dist"):
        engine.steps(union, small_corpus[0].id, params)


@pytest.mark.parametrize("alg, unread", [(AlgorithmId.NO_FUSION_LEFT, "fuse_min_dist"),
                                         (AlgorithmId.LOW_LEVEL_SUM, "fuse_max_dist"),
                                         (AlgorithmId.HIGH_LEVEL_UNION, "fuse_max_dist")])
def test_parameters_a_detector_does_not_read_leave_its_counts(small_corpus, alg, unread, monkeypatch):
    """Requests that differ only in a parameter their detector does not read
    get identical rows, from one last stage."""
    requests = [(alg, replace(PARAM_POINTS[0], **{unread: value})) for value in (None, 0.1, 0.2)]
    engine, stages = CorpusEngine(small_corpus), []
    real = engine._last_stage
    monkeypatch.setattr(engine, "_last_stage", lambda *args: stages.append(args) or real(*args))
    counts = engine.count_tensor(requests)
    assert (counts == counts[0]).all()
    assert len(stages) == 1


def overflowing(rec, side):
    """``rec`` with one sample of ``side``'s wrist so large that its magnitude
    overflows: every detector fails it, naming the wrist."""
    sensor = rec.side(side)
    x = sensor.x.copy()
    x[50] = 1e200
    message = f"recording {rec.id!r}, {side.value} wrist: values must be finite"
    return replace(rec, **{side.value: replace(sensor, x=x)}), message, list(AlgorithmId)


def misaligned(rec):
    """``rec`` with one more right-wrist sample and the right start moved back
    half a period, which ``Recording`` accepts: the wrists no longer align
    sample for sample, so the low-level detectors fail it."""
    sensor = rec.right
    longer = {axis: np.append(getattr(sensor, axis), 0.0) for axis in "xyz"}
    rec = replace(rec, right=replace(sensor, t0=sensor.t0 - 0.5 / sensor.rate, **longer))
    message = f"recording {rec.id!r}: left and right signals must be aligned sample-for-sample"
    return rec, message, list(LOW_LEVEL)


def test_low_level_family_failing_everywhere_fails_again_in_the_next_call(small_corpus):
    """A low-level family that failed every recording in one call fails
    them again in the next, with the same messages, also at a higher
    amplitude threshold."""
    dataset, messages, _ = zip(*(misaligned(rec) for rec in small_corpus))
    engine, alg = CorpusEngine(dataset), AlgorithmId.LOW_LEVEL_SUM
    for params in (PARAM_POINTS[0], PARAM_POINTS[0], replace(PARAM_POINTS[0], min_peak_amp=0.3)):
        rows = evaluate_corpus(dataset, [alg], {alg: params}, engine=engine).rows
        assert [row.error for row in rows] == list(messages)


@pytest.mark.parametrize("fault", [Side.LEFT, Side.RIGHT, "misaligned"])
def test_overflowing_wrist_fails_its_recording_alone(fault):
    """A wrist whose magnitude overflows, on either side, or a misaligned
    wrist fails its recording alone, naming it, for each detector it breaks:
    every other recording has the steps of an engine built without it, and
    count_tensor still raises."""
    dataset = simulate_corpus(CorpusSpec(task_counts=dict.fromkeys(WalkTask, 1), seed=0))
    good = dataset[1:]
    bad, message, failing = misaligned(dataset[0]) if fault == "misaligned" else overflowing(dataset[0], fault)
    engine, without = CorpusEngine([bad] + good), CorpusEngine(good)
    for alg in AlgorithmId:
        if alg in failing:
            with pytest.raises(ValueError, match=message):
                engine.steps(alg, bad.id, PARAM_POINTS[0])
        else:
            engine.steps(alg, bad.id, PARAM_POINTS[0])
        assert ([engine.steps(alg, rec.id, PARAM_POINTS[0]) for rec in good]
                == [without.steps(alg, rec.id, PARAM_POINTS[0]) for rec in good])
        if alg in failing:
            with pytest.raises(ValueError, match=message):
                engine.count_tensor([(alg, PARAM_POINTS[0])])


def test_used_engine_is_freed_without_the_cycle_collector(small_corpus):
    """What an engine keeps must not refer back to it: a cycle would keep every
    engine's kept streams alive until a collection. That holds after it has
    raised a kept error too."""
    engine = CorpusEngine(small_corpus)
    for alg in AlgorithmId:
        engine.count_tensor([(alg, p) for p in SMALL_GRID.points(alg)[:4]])
        engine.steps(alg, small_corpus[0].id, PARAM_POINTS[0])
        engine.context_for(alg, PARAM_POINTS[1])
    short = recording_from_signals([0.0, 1.0], [1.0, 0.0], rec_id="short")  # too short for peaks
    failing = CorpusEngine([small_corpus[0], short])
    for alg in AlgorithmId:
        failing.steps(alg, small_corpus[0].id, PARAM_POINTS[0])
        with pytest.raises(ValueError, match="3 samples"):
            failing.steps(alg, "short", PARAM_POINTS[0])
        with pytest.raises(ValueError, match="3 samples"):
            failing.count_tensor([(alg, p) for p in PARAM_POINTS[:1]])
    refs = [weakref.ref(engine), weakref.ref(failing)]
    gc.disable()
    try:
        del engine, failing
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_benchmark_tracer_still_finds_its_targets():
    """The benchmark's per-layer tracer wraps package functions by name; a
    rename must fail here rather than in a traced benchmark run."""
    path = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    dataset = simulate_corpus(
        CorpusSpec(task_counts={WalkTask.SLOW_PACE: 1, WalkTask.NO_RIGHT_SHOE: 1}, seed=3)
    )
    params = dict.fromkeys(AlgorithmId, PARAM_POINTS[0])
    tracer = tracing.Tracer()
    grid = ParamGrid(smooth_single=(0.1,), min_peak_amp=(0.12,), min_peak_gap=(0.4,), fuse_max_dist=(0.3,))
    with tracer.installed():
        result = evaluate_corpus(dataset, list(AlgorithmId), params)
        cross_validate(dataset, AlgorithmId.HIGH_LEVEL_INTERSECT, grid, k=2)
    assert all(row.error is None for row in result.rows)
    metrics = tracer.metrics()
    assert metrics["fusion.smoothed_magnitude.distinct"] > 0
    assert metrics["peaks.greedy_nms.calls"] > 0
    assert metrics["pipeline.count_tensor.cells"] > 0
    assert metrics["fusion.mutual_nearest.calls"] > 0
