"""Domain types: series, recordings, peak sets, detector parameters."""
import re

import numpy as np
import pytest

from dualwrist import (
    AlgorithmId,
    DetectorParams,
    GroundTruth,
    PeakSet,
    Recording,
    ScalarSeries,
    TriaxialSeries,
    WalkTask,
)
from dualwrist.core import PARAM_FIELD_ORDER, Side, required_param_fields

from conftest import peaks, scalar, triaxial


class TestSeries:
    def test_triaxial_validation(self):
        with pytest.raises(ValueError):
            TriaxialSeries(rate=0.0, x=[1.0], y=[1.0], z=[1.0])
        with pytest.raises(ValueError):
            TriaxialSeries(rate=1.0, x=[1.0, 2.0], y=[1.0], z=[1.0, 2.0])
        with pytest.raises(ValueError):
            TriaxialSeries(rate=1.0, x=[], y=[], z=[])

    def test_scalar_validation(self):
        with pytest.raises(ValueError):
            ScalarSeries(rate=1.0, values=[np.nan, 1.0])
        with pytest.raises(ValueError):
            ScalarSeries(rate=-1.0, values=[1.0])
        with pytest.raises(ValueError):
            ScalarSeries(rate=1.0, values=[])

    def test_arrays_are_read_only(self):
        s = scalar([1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 5.0
        tri = triaxial([1.0, 2.0])
        with pytest.raises(ValueError):
            tri.x[0] = 5.0

    def test_scalar_times_and_with_values(self):
        s = scalar([1.0, 2.0, 3.0], rate=2.0, t0=1.0)
        assert np.allclose(s.times(), [1.0, 1.5, 2.0])
        s2 = s.with_values([4.0, 5.0, 6.0])
        assert s2.rate == s.rate and s2.t0 == s.t0
        assert np.array_equal(s2.values, [4.0, 5.0, 6.0])

    def test_equality_by_value(self):
        assert scalar([1.0, 2.0]) == scalar([1.0, 2.0])
        assert scalar([1.0, 2.0]) != scalar([1.0, 3.0])
        assert triaxial([1.0]) == triaxial([1.0])
        assert triaxial([1.0], t0=1.0) != triaxial([1.0])


class TestPeakSet:
    def test_strictly_increasing_times_required(self):
        with pytest.raises(ValueError):
            PeakSet(times=[1.0, 1.0], amplitudes=[1.0, 1.0])
        with pytest.raises(ValueError):
            PeakSet(times=[2.0, 1.0], amplitudes=[1.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            PeakSet(times=[1.0], amplitudes=[1.0, 2.0])

    def test_empty(self):
        assert len(PeakSet.empty()) == 0

    def test_equality(self):
        assert peaks([1.0, 2.0], [3.0, 4.0]) == peaks([1.0, 2.0], [3.0, 4.0])
        assert peaks([1.0], [3.0]) != peaks([1.0], [4.0])


def _gt_simple():
    return GroundTruth(
        step_times=[1.0, 2.0],
        heel_strikes_left=[0.9],
        heel_strikes_right=[1.9],
        toe_offs_left=[1.2],
        toe_offs_right=[2.2],
        label_count=2,
    )


class TestGroundTruth:
    def test_valid(self):
        gt = _gt_simple()
        assert np.allclose(gt.toe_offs(), [1.2, 2.2])
        assert np.allclose(gt.heel_strikes(), [0.9, 1.9])

    def test_label_count_must_match(self):
        with pytest.raises(ValueError):
            GroundTruth(
                step_times=[1.0, 2.0],
                heel_strikes_left=[0.9],
                heel_strikes_right=[1.9],
                toe_offs_left=[1.2],
                toe_offs_right=[2.2],
                label_count=3,
            )

    def test_event_counts_must_match_steps(self):
        with pytest.raises(ValueError):
            GroundTruth(
                step_times=[1.0, 2.0],
                heel_strikes_left=[0.9],
                heel_strikes_right=[],
                toe_offs_left=[1.2],
                toe_offs_right=[2.2],
                label_count=2,
            )

    def test_toe_off_after_heel_strike(self):
        with pytest.raises(ValueError):
            GroundTruth(
                step_times=[1.0],
                heel_strikes_left=[1.2],
                heel_strikes_right=[],
                toe_offs_left=[0.9],
                toe_offs_right=[],
                label_count=1,
            )

    def test_sides_pair_up(self):
        with pytest.raises(ValueError):
            GroundTruth(
                step_times=[1.0, 2.0],
                heel_strikes_left=[0.9, 1.9],
                heel_strikes_right=[],
                toe_offs_left=[1.2],
                toe_offs_right=[2.2],
                label_count=2,
            )


class TestRecording:
    def test_rate_mismatch(self):
        with pytest.raises(ValueError):
            Recording(
                id="r",
                subject_id="s",
                task=WalkTask.COMFORTABLE_PACE,
                left=triaxial([1.0, 1.0], rate=2.0),
                right=triaxial([1.0, 1.0], rate=4.0),
                duration=1.0,
            )

    def test_start_time_synchrony(self):
        with pytest.raises(ValueError):
            Recording(
                id="r",
                subject_id="s",
                task=WalkTask.COMFORTABLE_PACE,
                left=triaxial([1.0, 1.0], rate=2.0, t0=0.0),
                right=triaxial([1.0, 1.0], rate=2.0, t0=0.6),
                duration=1.0,
            )

    def test_span_synchrony(self):
        with pytest.raises(ValueError):
            Recording(
                id="r",
                subject_id="s",
                task=WalkTask.COMFORTABLE_PACE,
                left=triaxial([1.0, 1.0, 1.0, 1.0], rate=2.0),
                right=triaxial([1.0, 1.0], rate=2.0),
                duration=1.0,
            )

    def test_side_accessor(self):
        left = triaxial([1.0, 2.0], rate=2.0)
        right = triaxial([3.0, 4.0], rate=2.0)
        rec = Recording(
            id="r", subject_id="s", task=WalkTask.SLOW_PACE,
            left=left, right=right, duration=1.0,
        )
        assert rec.side(Side.LEFT) == left
        assert rec.side(Side.RIGHT) == right
        assert rec.rate == 2.0


class TestTaskTaxonomy:
    def test_eight_tasks(self):
        assert len(WalkTask) == 8

    def test_six_algorithms(self):
        assert [a.value for a in AlgorithmId] == [
            "left", "right", "sum", "diff", "intersect", "union",
        ]


class TestDetectorParams:
    def test_amp_must_be_normalized(self):
        with pytest.raises(ValueError):
            DetectorParams(smooth_single=0.1, min_peak_amp=1.5, min_peak_gap=0.3)
        with pytest.raises(ValueError):
            DetectorParams(smooth_single=0.1, min_peak_amp=-0.1, min_peak_gap=0.3)

    def test_negative_windows_rejected(self):
        with pytest.raises(ValueError):
            DetectorParams(smooth_single=-0.1, min_peak_amp=0.1, min_peak_gap=0.3)
        with pytest.raises(ValueError):
            DetectorParams(smooth_single=0.1, min_peak_amp=0.1, min_peak_gap=-0.3)

    @pytest.mark.parametrize("name", ["smooth_single", "min_peak_amp", "min_peak_gap"])
    def test_fields_every_detector_reads_must_be_set(self, name):
        kwargs = {"smooth_single": 0.1, "min_peak_amp": 0.1, "min_peak_gap": 0.3, name: None}
        with pytest.raises(ValueError, match=f"^{name} must be set$"):
            DetectorParams(**kwargs)

    @pytest.mark.parametrize("name", PARAM_FIELD_ORDER)
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_set_fields_must_be_finite(self, name, value):
        kwargs = {"smooth_single": 0.1, "min_peak_amp": 0.1, "min_peak_gap": 0.3, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite, not {value!r}$"):
            DetectorParams(**kwargs)

    @pytest.mark.parametrize("name", PARAM_FIELD_ORDER)
    @pytest.mark.parametrize("value", [True, "0.1", [0.1]], ids=["bool", "str", "list"])
    def test_set_fields_must_be_numbers(self, name, value):
        kwargs = {"smooth_single": 0.1, "min_peak_amp": 0.1, "min_peak_gap": 0.3, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be a number, not {re.escape(repr(value))}$"):
            DetectorParams(**kwargs)

    def test_numpy_scalars_are_numbers(self):
        p = DetectorParams(smooth_single=np.float32(0.25), min_peak_amp=np.float64(0.1), min_peak_gap=np.int64(0))
        assert (p.smooth_single, p.min_peak_amp, p.min_peak_gap) == (0.25, 0.1, 0)

    def test_fuse_max_dist_bounded_by_gap(self):
        DetectorParams(smooth_single=0.1, min_peak_amp=0.1, min_peak_gap=0.3,
                       fuse_max_dist=0.3)
        with pytest.raises(ValueError):
            DetectorParams(smooth_single=0.1, min_peak_amp=0.1, min_peak_gap=0.3,
                           fuse_max_dist=0.31)

    def test_round_trip_dict(self):
        p = DetectorParams(smooth_single=0.1, min_peak_amp=0.1, min_peak_gap=0.3,
                           fuse_min_dist=0.2)
        assert DetectorParams.from_dict(p.to_dict()) == p

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown detector parameter"):
            DetectorParams.from_dict(
                {"smooth_single": 0.1, "min_peak_amp": 0.1, "min_peak_gap": 0.3,
                 "bogus": 1.0}
            )

    def test_required_fields(self):
        base = ("smooth_single", "min_peak_amp", "min_peak_gap")
        assert required_param_fields(AlgorithmId.NO_FUSION_LEFT) == base
        assert required_param_fields(AlgorithmId.NO_FUSION_RIGHT) == base
        assert required_param_fields(AlgorithmId.LOW_LEVEL_SUM) == (
            "smooth_single", "smooth_fused", "min_peak_amp", "min_peak_gap")
        assert required_param_fields(AlgorithmId.LOW_LEVEL_DIFF) == (
            "smooth_single", "smooth_fused", "min_peak_amp", "min_peak_gap")
        assert required_param_fields(AlgorithmId.HIGH_LEVEL_INTERSECT) == base + ("fuse_max_dist",)
        assert required_param_fields(AlgorithmId.HIGH_LEVEL_UNION) == base + ("fuse_min_dist",)

    def test_field_order_covers_all_fields(self):
        for alg in AlgorithmId:
            for name in required_param_fields(alg):
                assert name in PARAM_FIELD_ORDER
