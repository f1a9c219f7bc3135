"""Synthetic gait corpus generator."""
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualwrist import (
    CorpusSpec,
    GaitModelParams,
    WalkTask,
    simulate_corpus,
    simulate_recording,
    task_profile,
)
from dualwrist import simulate
from dualwrist.simulate import COMFORTABLE_CADENCE, DEFAULT_TASK_COUNTS


def loop_add_bumps(signal, t, centers, heights, width, rate):
    """Reference for ``simulate._add_bumps``: one slice per bump, in order."""
    half = int(np.ceil(4 * width * rate)) + 1
    n = len(signal)
    for c, h in zip(centers, heights):
        i = int(round(c * rate))
        lo = max(0, i - half)
        hi = min(n, i + half + 1)
        if lo >= hi:
            continue
        signal[lo:hi] += h * np.exp(-0.5 * ((t[lo:hi] - c) / width) ** 2)


@st.composite
def bump_cases(draw):
    """(signal, centers, heights, width, rate): a random baseline and bumps
    that overlap, repeat, sit on or halfway between samples, and spill past
    either end of the signal or miss it altogether."""
    rate = draw(st.floats(25.0, 256.0))
    width = draw(st.floats(0.01, 0.1))
    n = draw(st.integers(1, 300))
    span, reach = n / rate, 4 * width + 1.0
    point = st.one_of(
        st.floats(-reach, span + reach),
        st.integers(-n, 2 * n).map(lambda k: k / rate),
        st.integers(-n, 2 * n).map(lambda k: (k + 0.5) / rate),
    )
    centers = draw(st.lists(point, max_size=40))
    if centers:
        centers = draw(st.permutations(centers + draw(st.lists(st.sampled_from(centers), max_size=5))))
    heights = draw(st.lists(st.floats(-3.0, 3.0), min_size=len(centers), max_size=len(centers)))
    signal = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(1.0, 0.5, n)
    return signal, np.array(centers, dtype=float), np.array(heights, dtype=float), width, rate


class TestAddBumps:
    @given(bump_cases())
    @example((np.ones(64), np.array([]), np.array([]), 0.05, 128.0))
    @example((np.ones(64), np.array([-1.0, 0.1, 0.1, 0.3, 0.5, 2.0]),
              np.array([0.8, 0.5, 0.5, 0.3, 0.2, 0.9]), 0.05, 128.0))
    @settings(max_examples=300)
    def test_scatter_matches_the_loop_bit_for_bit(self, case):
        signal, centers, heights, width, rate = case
        t = np.arange(len(signal)) / rate
        want, got = signal.copy(), signal.copy()
        loop_add_bumps(want, t, centers, heights, width, rate)
        simulate._add_bumps(got, t, centers, heights, width, rate)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("task", [WalkTask.COMFORTABLE_PACE, WalkTask.CANE_RIGHT_HAND])
    def test_recording_matches_the_loop_bit_for_bit(self, monkeypatch, task):
        overrides = {"duration": 120.0, "lead_in": 3.0, "lead_out": 3.0}
        got = simulate_recording(task, overrides=overrides, seed=11)
        monkeypatch.setattr(simulate, "_add_bumps", loop_add_bumps)
        want = simulate_recording(task, overrides=overrides, seed=11)
        for g, w in ((got.left, want.left), (got.right, want.right)):
            for axis in "xyz":
                assert getattr(g, axis).tobytes() == getattr(w, axis).tobytes()


class TestTaskProfiles:
    def test_pace_ratio(self):
        slow = task_profile(WalkTask.SLOW_PACE)
        fast = task_profile(WalkTask.FAST_PACE)
        comfortable = task_profile(WalkTask.COMFORTABLE_PACE)
        assert slow.cadence < comfortable.cadence < fast.cadence
        assert fast.cadence / slow.cadence == pytest.approx(5.0 / 3.0)

    def test_arm_constraints_reduce_swing(self):
        base = task_profile(WalkTask.COMFORTABLE_PACE)
        bag = task_profile(WalkTask.BAG_RIGHT_HAND)
        assert bag.swing_amp_right < base.swing_amp_right
        assert bag.swing_amp_left == base.swing_amp_left
        phone = task_profile(WalkTask.PHONE_TWO_HANDS)
        assert phone.swing_amp_left < base.swing_amp_left
        assert phone.swing_amp_right < base.swing_amp_right
        none = task_profile(WalkTask.NO_ARM_SWING)
        assert none.swing_amp_left < phone.swing_amp_left

    def test_asymmetry_tasks(self):
        assert task_profile(WalkTask.NO_RIGHT_SHOE).step_time_asymmetry > 0
        cane = task_profile(WalkTask.CANE_RIGHT_HAND)
        assert cane.spurious_impact_amp > 0
        assert cane.swing_amp_right < task_profile(WalkTask.COMFORTABLE_PACE).swing_amp_right

    def test_param_validation(self):
        with pytest.raises(ValueError):
            GaitModelParams(cadence=0.0)
        with pytest.raises(ValueError):
            GaitModelParams(noise_std=-0.1)
        with pytest.raises(ValueError):
            GaitModelParams(step_time_asymmetry=0.5)
        with pytest.raises(ValueError):
            GaitModelParams(lead_in=-1.0)
        with pytest.raises(ValueError, match="impact_width must be > 0"):
            simulate_recording(WalkTask.COMFORTABLE_PACE, overrides={"impact_width": 0.0, "duration": 20.0})


class TestSimulateRecording:
    def test_deterministic_in_seed(self):
        a = simulate_recording(WalkTask.COMFORTABLE_PACE, seed=5)
        b = simulate_recording(WalkTask.COMFORTABLE_PACE, seed=5)
        assert a == b
        c = simulate_recording(WalkTask.COMFORTABLE_PACE, seed=6)
        assert a != c

    def test_step_count_matches_cadence(self):
        p = GaitModelParams()
        rec = simulate_recording(
            WalkTask.COMFORTABLE_PACE,
            overrides={"noise_std": 0.0, "duration": 60.0},
        )
        expected = 60.0 * p.cadence
        assert abs(rec.ground_truth.label_count - expected) <= 1.5

    def test_ground_truth_structure(self):
        rec = simulate_recording(WalkTask.COMFORTABLE_PACE, seed=1)
        gt = rec.ground_truth
        n = gt.label_count
        assert n == len(gt.step_times)
        assert len(gt.toe_offs()) == n and len(gt.heel_strikes()) == n
        # Alternating feet split the steps near-evenly between sides.
        assert abs(len(gt.toe_offs_left) - len(gt.toe_offs_right)) <= 1
        # Events bracket their step anchors.
        assert np.all(gt.toe_offs() > gt.heel_strikes())
        assert gt.step_times[0] > 0 and gt.step_times[-1] < rec.duration

    def test_noise_does_not_change_ground_truth(self):
        quiet = simulate_recording(WalkTask.SLOW_PACE, overrides={"noise_std": 0.0}, seed=3)
        noisy = simulate_recording(WalkTask.SLOW_PACE, overrides={"noise_std": 0.3}, seed=3)
        assert quiet.ground_truth == noisy.ground_truth

    def test_lead_in_delays_first_step(self):
        rec = simulate_recording(
            WalkTask.COMFORTABLE_PACE,
            overrides={"lead_in": 5.0, "lead_out": 4.0, "duration": 40.0},
        )
        gt = rec.ground_truth
        assert gt.step_times[0] > 5.0
        assert gt.step_times[-1] < 40.0 - 4.0

    def test_too_short_duration_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            simulate_recording(WalkTask.COMFORTABLE_PACE, overrides={"duration": 0.2})

    def test_series_shape(self):
        rec = simulate_recording(WalkTask.COMFORTABLE_PACE, overrides={"duration": 10.0})
        assert len(rec.left) == len(rec.right) == int(round(10.0 * 128.0))
        assert rec.rate == 128.0

    def test_asymmetry_alternates_step_times(self):
        rec = simulate_recording(
            WalkTask.NO_RIGHT_SHOE, overrides={"noise_std": 0.0, "duration": 30.0}
        )
        intervals = np.diff(rec.ground_truth.step_times)
        long_short = intervals[::2].mean() / intervals[1::2].mean()
        assert long_short != pytest.approx(1.0, abs=0.01)

    def test_impacts_raise_vertical_axis(self):
        rec = simulate_recording(
            WalkTask.COMFORTABLE_PACE,
            overrides={"noise_std": 0.0, "duration": 20.0},
        )
        z = rec.left.z
        # Vertical axis carries the gravity baseline plus positive bumps.
        assert z.min() >= 1.0 - 1e-9
        assert z.max() > 1.3


class TestSimulateCorpus:
    def test_default_spec_totals(self):
        assert CorpusSpec().total() == 203
        assert sum(DEFAULT_TASK_COUNTS.values()) == 203

    def test_deterministic(self):
        spec = CorpusSpec(task_counts={WalkTask.SLOW_PACE: 2, WalkTask.FAST_PACE: 1}, seed=9)
        a = simulate_corpus(spec)
        b = simulate_corpus(spec)
        assert len(a) == 3
        assert a == b

    def test_seed_changes_output(self):
        counts = {WalkTask.COMFORTABLE_PACE: 1}
        a = simulate_corpus(CorpusSpec(task_counts=counts, seed=1))
        b = simulate_corpus(CorpusSpec(task_counts=counts, seed=2))
        assert a[0] != b[0]

    def test_ids_unique_and_task_tagged(self, small_corpus):
        ids = [r.id for r in small_corpus]
        assert len(set(ids)) == len(ids)
        for rec in small_corpus:
            assert rec.id.startswith(rec.task.value)
            assert rec.ground_truth is not None
            assert rec.self_count is not None
            # Self counts approximate but rarely equal the labels.
            assert abs(rec.self_count - rec.ground_truth.label_count) <= 3

    def test_durations_vary_within_range(self, small_corpus):
        durations = [r.duration for r in small_corpus]
        assert min(durations) >= 38.0 and max(durations) <= 118.0
        assert np.std(durations) > 0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            simulate_corpus(CorpusSpec(task_counts={WalkTask.SLOW_PACE: -1}))

    def test_cane_adds_extra_right_impacts(self):
        # Same seed, with and without the cane's spurious strikes: the right
        # wrist gains energy, the left stays identical in expectation.
        base = dict(noise_std=0.0, duration=30.0, swing_amp_right=0.06,
                    spurious_impact_amp=0.0)
        quiet = simulate_recording(WalkTask.CANE_RIGHT_HAND, overrides=base, seed=2)
        with_cane = simulate_recording(
            WalkTask.CANE_RIGHT_HAND, overrides={**base, "spurious_impact_amp": 0.4}, seed=2
        )
        assert with_cane.right.z.sum() > quiet.right.z.sum()
