"""The six detector pipelines and the two event-fusion rules."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualwrist import (
    AlgorithmId,
    CorpusEngine,
    DetectorParams,
    PeakSet,
    Side,
    fit_normalization,
    intersect_fuse,
    union_fuse,
)
from dualwrist.fusion import mutual_nearest, smoothed_magnitude
from dualwrist.peaks import greedy_nms, priority_rank

from conftest import fused, peaks, recording_from_signals


def peak_set_strategy(max_peaks=10, quantum=None):
    if quantum is None:
        times = st.floats(0.0, 30.0)
    else:
        times = st.integers(0, int(30 / quantum)).map(lambda q: q * quantum)
    return st.lists(
        st.tuples(times, st.floats(0.01, 5.0)),
        min_size=0, max_size=max_peaks,
        unique_by=lambda p: p[0],
    ).map(lambda ps: sorted(ps)).map(
        lambda ps: PeakSet(times=[p[0] for p in ps], amplitudes=[p[1] for p in ps])
    )


def ref_intersect(t_left, t_right, max_dist):
    """Brute-force mutual-nearest pairing."""
    out = {}
    for tl, al in zip(t_left.times, t_left.amplitudes):
        cands = [(abs(tl - tr), tr, ar) for tr, ar in
                 zip(t_right.times, t_right.amplitudes) if abs(tl - tr) <= max_dist]
        if not cands:
            continue
        d, tr, ar = min(cands)  # earlier right peak wins an exact distance tie
        others = [abs(x - tr) for x in t_left.times if x != tl]
        if others and min(others) <= d:
            continue  # tl must be *strictly* the nearest left peak to tr
        t, a = (tr, ar) if ar >= al else (tl, al)
        out[t] = a
    ts = sorted(out)
    return PeakSet(times=ts, amplitudes=[out[t] for t in ts])


def ref_union(t_left, t_right, min_dist):
    """Brute-force greedy pooled selection."""
    pool = [(t, a, 1) for t, a in zip(t_right.times, t_right.amplitudes)]
    pool += [(t, a, 0) for t, a in zip(t_left.times, t_left.amplitudes)]
    order = sorted(pool, key=lambda p: (-p[1], -p[2], p[0]))
    kept = []
    for t, a, _src in order:
        if all(abs(t - kt) > min_dist for kt, _ in kept):
            kept.append((t, a))
    kept.sort()
    return PeakSet(times=[t for t, _ in kept], amplitudes=[a for _, a in kept])


class TestIntersectFuse:
    def test_worked_example(self):
        out = intersect_fuse(peaks([1.0, 2.0], [0.9, 0.8]), peaks([1.1], [0.7]), 0.3)
        # Only the 1.00/1.10 pair is mutual-nearest; the left peak is taller.
        assert np.allclose(out.times, [1.0])
        assert np.allclose(out.amplitudes, [0.9])

    def test_amplitude_tie_emits_right(self):
        out = intersect_fuse(peaks([1.0], [0.5]), peaks([1.1], [0.5]), 0.3)
        assert np.allclose(out.times, [1.1])

    def test_identical_sides(self):
        left = peaks([1.0, 2.0], [0.5, 0.6])
        out = intersect_fuse(left, peaks([1.0, 2.0], [0.5, 0.6]), 0.3)
        # Zero distance, equal amplitudes: the right copies win.
        assert out == left

    def test_distance_gate_inclusive(self):
        assert len(intersect_fuse(peaks([1.0]), peaks([1.25]), 0.25)) == 1
        assert len(intersect_fuse(peaks([1.0]), peaks([1.3]), 0.25)) == 0

    def test_empty_side_gives_empty(self):
        assert len(intersect_fuse(PeakSet.empty(), peaks([1.0]), 0.3)) == 0
        assert len(intersect_fuse(peaks([1.0]), PeakSet.empty(), 0.3)) == 0

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            intersect_fuse(peaks([1.0]), peaks([1.0]), -0.1)

    def test_two_left_one_right(self):
        # Both left peaks are within range of the lone right peak, but only the
        # nearer left peak forms a mutual-nearest pair.
        out = intersect_fuse(peaks([1.0, 1.3], [0.9, 0.9]), peaks([1.25], [0.2]), 0.3)
        assert np.allclose(out.times, [1.3])
        assert np.allclose(out.amplitudes, [0.9])

    # Dyadic times keep distances exact, so the oracle's computed-distance
    # tie-breaks agree with the implementation's positional ones.
    @given(peak_set_strategy(quantum=1 / 64), peak_set_strategy(quantum=1 / 64),
           st.integers(0, 128).map(lambda q: q / 64))
    @settings(max_examples=300)
    def test_matches_brute_force(self, left, right, max_dist):
        assert intersect_fuse(left, right, max_dist) == ref_intersect(left, right, max_dist)

    @given(peak_set_strategy(), peak_set_strategy(), st.floats(0.0, 2.0))
    @settings(max_examples=150)
    def test_invariants(self, left, right, max_dist):
        out = intersect_fuse(left, right, max_dist)
        assert len(out) <= min(len(left), len(right)) or min(len(left), len(right)) == 0
        pool = set(left.times) | set(right.times)
        assert set(out.times) <= pool

    # Quarter-step times keep every difference exactly representable, so the
    # inclusive distance gate resolves identically before and after the shift.
    @given(peak_set_strategy(quantum=0.25), peak_set_strategy(quantum=0.25),
           st.integers(0, 8).map(lambda q: q * 0.25),
           st.integers(-20, 20).map(lambda q: q * 0.25))
    @settings(max_examples=100)
    def test_time_shift_equivariance(self, left, right, max_dist, shift):
        base = intersect_fuse(left, right, max_dist)
        shifted = intersect_fuse(
            PeakSet(times=left.times + shift, amplitudes=left.amplitudes),
            PeakSet(times=right.times + shift, amplitudes=right.amplitudes),
            max_dist,
        )
        assert np.array_equal(shifted.times, base.times + shift)
        assert np.array_equal(shifted.amplitudes, base.amplitudes)


class TestUnionFuse:
    def test_worked_example(self):
        out = union_fuse(peaks([1.0, 2.0], [0.5, 0.9]), peaks([1.2], [0.8]), 0.3)
        # 2.0 wins first; then 1.2 beats 1.0 and removes it (0.2 <= 0.3).
        assert np.allclose(out.times, [1.2, 2.0])
        assert np.allclose(out.amplitudes, [0.8, 0.9])

    def test_removal_is_inclusive(self):
        out = union_fuse(peaks([1.0], [0.5]), peaks([1.25], [0.9]), 0.25)
        assert np.allclose(out.times, [1.25])
        out = union_fuse(peaks([1.0], [0.5]), peaks([1.25], [0.9]), 0.24)
        assert np.allclose(out.times, [1.0, 1.25])

    def test_amplitude_tie_right_first(self):
        out = union_fuse(peaks([1.0], [0.5]), peaks([1.2], [0.5]), 0.3)
        assert np.allclose(out.times, [1.2])

    def test_amplitude_tie_same_side_earlier_first(self):
        out = union_fuse(peaks([1.0, 1.2], [0.5, 0.5]), PeakSet.empty(), 0.3)
        assert np.allclose(out.times, [1.0])

    def test_identical_sides_collapse(self):
        left = peaks([1.0, 2.0], [0.5, 0.6])
        out = union_fuse(left, peaks([1.0, 2.0], [0.5, 0.6]), 0.3)
        assert out == left

    def test_one_side_empty_passthrough(self):
        left = peaks([1.0, 2.0], [0.5, 0.6])
        assert union_fuse(left, PeakSet.empty(), 0.3) == left
        assert union_fuse(PeakSet.empty(), left, 0.3) == left

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            union_fuse(peaks([1.0]), peaks([1.0]), -0.1)

    @given(peak_set_strategy(quantum=1 / 64), peak_set_strategy(quantum=1 / 64),
           st.integers(0, 128).map(lambda q: q / 64))
    @settings(max_examples=300)
    def test_matches_brute_force(self, left, right, min_dist):
        assert union_fuse(left, right, min_dist) == ref_union(left, right, min_dist)

    @given(peak_set_strategy(), peak_set_strategy(), st.floats(0.0, 2.0))
    @settings(max_examples=150)
    def test_invariants(self, left, right, min_dist):
        out = union_fuse(left, right, min_dist)
        assert len(out) <= len(left) + len(right)
        assert set(out.times) <= set(left.times) | set(right.times)
        if len(out) > 1:
            assert np.all(np.diff(out.times) > min_dist)


def _laid_end_to_end(peak_sets):
    """Group label, time and amplitude of every peak, by group then time."""
    return (
        np.repeat(np.arange(len(peak_sets)), [len(p) for p in peak_sets]),
        np.concatenate([p.times for p in peak_sets]),
        np.concatenate([p.amplitudes for p in peak_sets]),
    )


class TestGroupedFusion:
    """Fusion over several recordings at once, each peak labelled by its
    recording, equals the oracles applied recording by recording, also where
    recordings share peak times."""

    recordings = st.lists(
        st.tuples(peak_set_strategy(quantum=1 / 64), peak_set_strategy(quantum=1 / 64)),
        min_size=2, max_size=4,
    )
    dists = st.integers(0, 128).map(lambda q: q / 64)

    @given(recordings, dists)
    @settings(max_examples=150)
    def test_union_matches_oracle_per_recording(self, recs, min_dist):
        g_l, t_l, a_l = _laid_end_to_end([left for left, _ in recs])
        g_r, t_r, a_r = _laid_end_to_end([right for _, right in recs])
        src = np.concatenate([np.zeros(len(t_l)), np.ones(len(t_r))])
        group, times, amps = np.concatenate([g_l, g_r]), np.concatenate([t_l, t_r]), np.concatenate([a_l, a_r])
        order = np.lexsort((times, group))
        group, times, amps, src = group[order], times[order], amps[order], src[order]
        keep = greedy_nms(times, priority_rank(times, -src, -amps), min_dist, group)
        for i, (left, right) in enumerate(recs):
            mine = keep & (group == i)
            assert PeakSet(times=times[mine], amplitudes=amps[mine]) == ref_union(left, right, min_dist)

    @given(recordings, dists)
    @settings(max_examples=150)
    def test_intersect_matches_oracle_per_recording(self, recs, max_dist):
        g_l, t_l, a_l = _laid_end_to_end([left for left, _ in recs])
        g_r, t_r, a_r = _laid_end_to_end([right for _, right in recs])
        j, d = mutual_nearest(t_l, t_r, g_l, g_r)
        for i, (left, right) in enumerate(recs):
            mine = (d <= max_dist) & (g_l == i)
            right_wins = a_r[j[mine]] >= a_l[mine]
            out = PeakSet(
                times=np.where(right_wins, t_r[j[mine]], t_l[mine]),
                amplitudes=np.where(right_wins, a_r[j[mine]], a_l[mine]),
            )
            assert out == ref_intersect(left, right, max_dist)


def _impulse_train(n, idxs, height=1.0):
    v = np.zeros(n)
    v[list(idxs)] = height
    return v


class TestLowLevelFusion:
    def test_diff_of_identical_sides_is_flat(self):
        z = _impulse_train(32, [8, 16, 24])
        rec = recording_from_signals(z, z)
        params = DetectorParams(smooth_single=0.0, min_peak_amp=0.0,
                                min_peak_gap=0.0, smooth_fused=0.0)
        sig = fused(rec, AlgorithmId.LOW_LEVEL_DIFF, params)
        assert np.allclose(sig.values, 0.0)

    def test_diff_single_sample_example(self):
        rec = recording_from_signals([0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
                                     rate=1.0)
        params = DetectorParams(smooth_single=0.0, min_peak_amp=0.0,
                                min_peak_gap=0.0, smooth_fused=0.0)
        sig = fused(rec, AlgorithmId.LOW_LEVEL_DIFF, params)
        # |1-0|, |0-1| at samples 1 and 2 form a plateau peak at its start.
        assert np.allclose(sig.values, [0.0, 1.0, 1.0, 0.0])
        engine = CorpusEngine([rec])
        assert engine.context_for(AlgorithmId.LOW_LEVEL_DIFF, params) == fit_normalization([sig])
        steps = engine.steps(AlgorithmId.LOW_LEVEL_DIFF, rec.id, params)
        assert np.allclose(steps.times, [1.0])

    def test_sum_is_sum_of_magnitudes(self):
        left = np.array([0.0, 2.0, 0.0, 0.0])
        right = np.array([0.0, 0.0, 3.0, 0.0])
        rec = recording_from_signals(left, right, rate=1.0)
        params = DetectorParams(smooth_single=0.0, min_peak_amp=0.0,
                                min_peak_gap=0.0, smooth_fused=0.0)
        sig = fused(rec, AlgorithmId.LOW_LEVEL_SUM, params)
        assert np.allclose(sig.values, left + right)

    def test_requires_smooth_fused(self):
        rec = recording_from_signals([0.0, 1.0, 0.0], [0.0, 1.0, 0.0])
        params = DetectorParams(smooth_single=0.0, min_peak_amp=0.0, min_peak_gap=0.0)
        with pytest.raises(ValueError, match="smooth_fused"):
            fused(rec, AlgorithmId.LOW_LEVEL_SUM, params)
        params = DetectorParams(smooth_single=0.0, min_peak_amp=0.0, min_peak_gap=0.0,
                                smooth_fused=0.0)
        with pytest.raises(ValueError, match="not a low-level fusion"):
            fused(rec, AlgorithmId.HIGH_LEVEL_UNION, params)


def _single_side_context(rec):
    return fit_normalization([smoothed_magnitude(rec, s, 0.0) for s in (Side.LEFT, Side.RIGHT)])


class TestSingleSide:
    def test_detects_impulses(self):
        z = _impulse_train(64, [16, 32, 48])
        rec = recording_from_signals(z, np.zeros(64), rate=4.0)
        params = DetectorParams(smooth_single=0.0, min_peak_amp=0.5, min_peak_gap=1.0)
        engine = CorpusEngine([rec])
        assert engine.context_for(AlgorithmId.NO_FUSION_LEFT, params) == _single_side_context(rec)
        steps = engine.steps(AlgorithmId.NO_FUSION_LEFT, rec.id, params)
        assert np.allclose(steps.times, [4.0, 8.0, 12.0])
        # The silent wrist sees nothing above the gate.
        assert len(engine.steps(AlgorithmId.NO_FUSION_RIGHT, rec.id, params)) == 0


class TestHighLevel:
    def _steps(self, alg, params):
        left = _impulse_train(64, [16, 32])
        right = _impulse_train(64, [17, 48])
        rec = recording_from_signals(left, right, rate=4.0)
        engine = CorpusEngine([rec])
        assert engine.context_for(alg, params) == _single_side_context(rec)
        return engine.steps(alg, rec.id, params)

    def test_intersect_keeps_only_paired(self):
        params = DetectorParams(smooth_single=0.0, min_peak_amp=0.5,
                                min_peak_gap=1.0, fuse_max_dist=0.5)
        # Only 16/17 (0.25 s apart) pair up; 32 and 48 are unmatched.
        assert len(self._steps(AlgorithmId.HIGH_LEVEL_INTERSECT, params)) == 1

    def test_union_keeps_all_distinct(self):
        params = DetectorParams(smooth_single=0.0, min_peak_amp=0.5,
                                min_peak_gap=1.0, fuse_min_dist=0.5)
        # 16/17 collapse into one event; 32 and 48 stay.
        assert len(self._steps(AlgorithmId.HIGH_LEVEL_UNION, params)) == 3

    def test_intersect_requires_fuse_max_dist(self):
        params = DetectorParams(smooth_single=0.0, min_peak_amp=0.5, min_peak_gap=1.0)
        with pytest.raises(ValueError, match="fuse_max_dist"):
            self._steps(AlgorithmId.HIGH_LEVEL_INTERSECT, params)

    def test_union_requires_fuse_min_dist(self):
        params = DetectorParams(smooth_single=0.0, min_peak_amp=0.5, min_peak_gap=1.0)
        with pytest.raises(ValueError, match="fuse_min_dist"):
            self._steps(AlgorithmId.HIGH_LEVEL_UNION, params)


class TestDispatchAndResult:
    def test_engine_covers_all_algorithms(self):
        z = _impulse_train(64, [16, 32, 48])
        rec = recording_from_signals(z, z, rate=4.0)
        params = DetectorParams(smooth_single=0.0, min_peak_amp=0.5, min_peak_gap=1.0,
                                smooth_fused=0.0, fuse_max_dist=0.5, fuse_min_dist=0.5)
        engine = CorpusEngine([rec])
        for alg in AlgorithmId:
            if alg is AlgorithmId.LOW_LEVEL_DIFF:
                # Identical wrists: the difference signal is flat zero.
                with pytest.raises(ValueError, match="min == max"):
                    engine.steps(alg, rec.id, params)
                continue
            assert len(engine.steps(alg, rec.id, params)) == 3
