"""Local-maximum candidates, amplitude/gap-gated peak detection, and the
priority keys of the greedy suppression kernel."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dualwrist import PeakSet, candidate_peaks, detect_peaks
from dualwrist.fusion import union_merge
from dualwrist.peaks import Pool, greedy_nms, priority_rank, suppress_peaks, suppression_key

from conftest import scalar

finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False,
                   allow_infinity=False)


def signals(min_size=3, max_size=64):
    return arrays(float, st.integers(min_size, max_size), elements=finite)


def ref_local_maxima(values):
    """Brute-force local maxima: a strict rise into the sample, then equal
    samples allowed, then a strict fall. Plateaus count their first sample."""
    out = []
    n = len(values)
    for i in range(1, n - 1):
        if values[i - 1] >= values[i]:
            continue
        k = i + 1
        while k < n and values[k] == values[i]:
            k += 1
        if k < n and values[k] < values[i]:
            out.append(i)
    return out


def ref_detect(values, rate, t0, min_amp, min_gap):
    """Independent reference: exhaustive maxima + greedy descending-amplitude
    thinning with strict > gap survival."""
    idx = [i for i in ref_local_maxima(values) if values[i] >= min_amp]
    order = sorted(idx, key=lambda i: (-values[i], i))
    kept = []
    for i in order:
        t = t0 + i / rate
        if all(abs(t - k) > min_gap for k in kept):
            kept.append(t)
    kept.sort()
    return kept


class TestCandidatePeaks:
    def test_worked_example_with_plateau(self):
        p = candidate_peaks(scalar([0.0, 2.0, 2.0, 0.0, 3.0, 0.0], rate=1.0))
        assert np.allclose(p.times, [1.0, 4.0])
        assert np.allclose(p.amplitudes, [2.0, 3.0])

    def test_monotonic_series_has_no_peaks(self):
        assert len(candidate_peaks(scalar([1.0, 2.0, 3.0, 4.0]))) == 0
        assert len(candidate_peaks(scalar([4.0, 3.0, 2.0, 1.0]))) == 0
        assert len(candidate_peaks(scalar([2.0, 2.0, 2.0]))) == 0

    def test_endpoints_excluded(self):
        p = candidate_peaks(scalar([5.0, 1.0, 0.5, 1.0, 7.0]))
        assert np.allclose(p.times, [3.0])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="at least 3"):
            candidate_peaks(scalar([1.0, 2.0]))

    def test_time_base_respected(self):
        p = candidate_peaks(scalar([0.0, 1.0, 0.0], rate=4.0, t0=10.0))
        assert np.allclose(p.times, [10.25])

    @given(signals())
    @settings(max_examples=200)
    def test_matches_brute_force(self, v):
        got = candidate_peaks(scalar(v, rate=2.0, t0=1.0))
        want = ref_local_maxima(v)
        assert np.allclose(got.times, [1.0 + i / 2.0 for i in want])
        assert np.array_equal(got.amplitudes, v[want])

    @given(arrays(float, st.integers(3, 64), elements=st.sampled_from([0.0, 1.0, 2.0, 3.0])))
    @settings(max_examples=300)
    def test_matches_brute_force_on_plateaus(self, v):
        """Values 0-3 give plateaus that fall, rise, run to the end or fill
        the series; every peak is found at its exact index."""
        got = candidate_peaks(scalar(v, rate=3.0, t0=0.7))
        want = np.array(ref_local_maxima(v), dtype=np.intp)
        assert np.array_equal(got.times, 0.7 + want / 3.0)
        assert np.array_equal(got.amplitudes, v[want])


class TestDetectPeaks:
    def test_worked_greedy_example(self):
        # Both flanking peaks sit within the gap of the tallest one.
        p = detect_peaks(scalar([0.0, 0.8, 0.0, 1.0, 0.0, 0.6, 0.0], rate=1.0),
                         min_amp=0.1, min_gap=2.5)
        assert np.allclose(p.times, [3.0])
        assert np.allclose(p.amplitudes, [1.0])

    def test_gap_is_strict(self):
        # Peaks exactly min_gap apart: the later one is suppressed...
        p = detect_peaks(scalar([0.0, 1.0, 0.0, 1.0, 0.0], rate=1.0), 0.1, 2.0)
        assert np.allclose(p.times, [1.0])
        # ...but strictly farther than min_gap both survive.
        p = detect_peaks(scalar([0.0, 1.0, 0.0, 1.0, 0.0], rate=1.0), 0.1, 1.9)
        assert np.allclose(p.times, [1.0, 3.0])

    def test_amplitude_gate_inclusive(self):
        p = detect_peaks(scalar([0.0, 0.5, 0.0]), min_amp=0.5, min_gap=0.0)
        assert len(p) == 1
        p = detect_peaks(scalar([0.0, 0.5, 0.0]), min_amp=0.5000001, min_gap=0.0)
        assert len(p) == 0

    def test_amplitude_ties_keep_earlier(self):
        p = detect_peaks(scalar([0.0, 1.0, 0.0, 1.0, 0.0], rate=1.0), 0.1, 2.0)
        assert np.allclose(p.times, [1.0])

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError, match="min_gap"):
            detect_peaks(scalar([0.0, 1.0, 0.0]), 0.1, -1.0)

    @given(signals(), st.floats(-1.0, 5.0), st.floats(0.0, 10.0))
    @settings(max_examples=200)
    def test_matches_reference(self, v, min_amp, min_gap):
        got = detect_peaks(scalar(v, rate=2.0, t0=0.5), min_amp, min_gap)
        want = ref_detect(v, 2.0, 0.5, min_amp, min_gap)
        assert np.allclose(got.times, want)

    @given(signals(), st.floats(-1.0, 5.0), st.floats(0.0, 10.0))
    @settings(max_examples=150)
    def test_invariants(self, v, min_amp, min_gap):
        s = scalar(v, rate=2.0)
        cand = candidate_peaks(s)
        got = detect_peaks(s, min_amp, min_gap)
        # Output is a subset of the candidates.
        assert set(got.times) <= set(cand.times)
        # Every survivor clears the amplitude gate.
        assert np.all(got.amplitudes >= min_amp)
        # Consecutive survivors sit strictly more than min_gap apart.
        if len(got) > 1:
            assert np.all(np.diff(got.times) > min_gap)

    @given(signals(), st.floats(0.0, 2.0), st.floats(0.0, 1.0),
           st.floats(0.0, 5.0), st.floats(0.0, 3.0))
    @settings(max_examples=100)
    def test_monotone_in_thresholds(self, v, amp, d_amp, gap, d_gap):
        s = scalar(v, rate=2.0)
        base = detect_peaks(s, amp, gap)
        # Low peaks never shadow taller ones in the greedy pass, so a higher
        # amplitude gate just drops the now-too-low survivors.
        higher = detect_peaks(s, amp + d_amp, gap)
        assert set(higher.times) <= set(base.times)
        # A wider gap can shuffle which peaks win, but never yields more.
        assert len(detect_peaks(s, amp, gap + d_gap)) <= len(base)
        # The gated peaks lead the greedy's visiting order, so gating the
        # ungated survivors gives exactly the gated result.
        ungated = suppress_peaks(candidate_peaks(s), -np.inf, gap)
        keep = ungated.amplitudes >= amp
        assert base == PeakSet(times=ungated.times[keep], amplitudes=ungated.amplitudes[keep])


class TestSuppressPeaks:
    def test_empty_after_gate(self):
        cand = candidate_peaks(scalar([0.0, 0.2, 0.0]))
        assert len(suppress_peaks(cand, 0.5, 1.0)) == 0

    def test_empty_input(self):
        assert len(suppress_peaks(PeakSet.empty(), 0.1, 1.0)) == 0


# Amplitudes from a short list give ties; times on a 1/64 grid give equal
# times and gaps exactly on a radius that is a multiple of 1/64.
TIE_AMPS = (0.25, 0.5, 0.75, 1.0)


@st.composite
def grouped_peaks(draw):
    """Group, time, amplitude and wrist (0 left, 1 right) of peaks from up to
    four recordings, ordered by group, time, then left before right."""
    recs = draw(st.lists(
        st.lists(st.tuples(st.integers(0, 256), st.integers(0, 1), st.sampled_from(TIE_AMPS)), max_size=12),
        min_size=1, max_size=4,
    ))
    rows = sorted((g, q / 64, src, amp) for g, peaks in enumerate(recs) for q, src, amp in peaks)
    group, times, src, amps = (np.array([r[i] for r in rows], dtype=dt)
                               for i, dt in enumerate((np.int32, float, float, float)))
    return group, times, amps, src


radii = st.integers(0, 128).map(lambda q: q / 64)


@st.composite
def radius_lists(draw):
    """Shuffled radii with repeats: 0 and eight to twelve other distinct
    values, so that the kernel's second chunk of eight radii is used."""
    distinct = [0.0] + [q / 64 for q in draw(st.lists(st.integers(1, 128), min_size=8, max_size=12, unique=True))]
    repeats = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=4))
    return draw(st.permutations(distinct + repeats))


def sequential_greedy(times, priority, radius, group):
    """The greedy rule as a plain loop: visit elements by ``priority`` (a
    tuple each), ties to the earlier element, and keep one when no kept
    element of its group lies within ``radius``."""
    keep = np.zeros(len(times), dtype=bool)
    for i in sorted(range(len(times)), key=lambda i: (priority[i], i)):
        keep[i] = not any(keep[j] and group[j] == group[i] and abs(times[i] - times[j]) <= radius
                          for j in range(len(times)))
    return keep


class TestPriorityKeys:
    """``greedy_nms`` takes a key, smallest first, ties to the earlier element:
    each caller's key gives what the distinct lexsort rank of that order gives,
    and what the sequential greedy loop gives."""

    @given(grouped_peaks(), radii)
    @settings(max_examples=200)
    def test_suppression_key(self, peaks, radius):
        group, times, amps, _ = peaks
        keep = greedy_nms(times, suppression_key(Pool(group, times, amps)), radius, group)
        assert keep.dtype == np.bool_ and keep.shape == times.shape
        assert np.array_equal(keep, greedy_nms(times, priority_rank(times, -amps), radius, group))
        assert np.array_equal(keep, sequential_greedy(times, [(-a,) for a in amps], radius, group))

    @given(grouped_peaks())
    @settings(max_examples=200)
    def test_union_merge_is_a_stable_sort(self, peaks):
        """The merge of two ordered pools is the stable sort by (group, time)
        of the left pool then the right one: left first at equal times."""
        group, times, amps, src = peaks
        left, right = (Pool(group[src == s], times[src == s], amps[src == s]) for s in (0, 1))
        merged, key = union_merge(left, right)
        joined = [np.concatenate(pair) for pair in zip((left.group, left.times, left.amps, -src[src == 0]),
                                                        (right.group, right.times, right.amps, -src[src == 1]))]
        order = np.lexsort((joined[1], joined[0]))
        for got, want in zip((merged.group, merged.times, merged.amps, key.real, key.imag),
                             (*joined[:3], -joined[2], joined[3])):
            want = want[order]
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @given(grouped_peaks(), radii)
    @settings(max_examples=200)
    def test_union_key(self, peaks, radius):
        group, times, amps, src = peaks
        left, right = (Pool(group[src == s], times[src == s], amps[src == s]) for s in (0, 1))
        merged, key = union_merge(left, right)
        # The merge keeps the drawn order, so ``src`` labels the merged peaks.
        for got, want in zip((merged.group, merged.times, merged.amps), (group, times, amps)):
            assert np.array_equal(got, want)
        keep = greedy_nms(times, key, radius, group)
        assert np.array_equal(keep, greedy_nms(times, priority_rank(times, -src, -amps), radius, group))
        assert np.array_equal(keep, sequential_greedy(times, list(zip(-amps, -src)), radius, group))

    @given(grouped_peaks(), radius_lists())
    @settings(max_examples=100)
    def test_many_radii_in_one_call(self, peaks, radii):
        """A sequence of radii gives one keep mask per radius, in its order:
        one call per radius, and the sequential greedy loop, for the
        suppression key and the union's complex key alike. No radii give no
        rows, and an empty pool empty rows."""
        group, times, amps, src = peaks
        left, right = (Pool(group[src == s], times[src == s], amps[src == s]) for s in (0, 1))
        for key, priority in ((suppression_key(Pool(group, times, amps)), [(-a,) for a in amps]),
                              (union_merge(left, right)[1], list(zip(-amps, -src)))):
            keep = greedy_nms(times, key, radii, group)
            assert keep.dtype == np.bool_ and keep.shape == (len(radii), len(times))
            assert greedy_nms(times, key, [], group).shape == (0, len(times))
            for r in (radii, radii[0]):
                empty = greedy_nms(times[:0], key[:0], r, group[:0])
                assert empty.dtype == np.bool_ and empty.shape == np.shape(r) + (0,)
            for radius, row in zip(radii, keep):
                assert np.array_equal(row, greedy_nms(times, key, radius, group))
                assert np.array_equal(row, sequential_greedy(times, priority, radius, group))
