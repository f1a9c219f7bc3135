"""Shared domain types: time series, recordings, peak sets, parameters."""
from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from typing import NamedTuple, Optional, Tuple

import numpy as np


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError("expected a 1-D sequence")
    arr.setflags(write=False)
    return arr


def _fields_equal(self, other) -> bool:
    """Dataclass equality that compares array fields by value."""
    if not isinstance(other, type(self)):
        return NotImplemented
    return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
               for a, b in ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self)))


class WalkTask(Enum):
    SLOW_PACE = "slow_pace"
    COMFORTABLE_PACE = "comfortable_pace"
    FAST_PACE = "fast_pace"
    BAG_RIGHT_HAND = "bag_right_hand"
    PHONE_TWO_HANDS = "phone_two_hands"
    NO_ARM_SWING = "no_arm_swing"
    NO_RIGHT_SHOE = "no_right_shoe"
    CANE_RIGHT_HAND = "cane_right_hand"


class AlgorithmId(Enum):
    """The six detector variants: two single-side, two low-level, two high-level."""

    NO_FUSION_LEFT = "left"
    NO_FUSION_RIGHT = "right"
    LOW_LEVEL_SUM = "sum"
    LOW_LEVEL_DIFF = "diff"
    HIGH_LEVEL_INTERSECT = "intersect"
    HIGH_LEVEL_UNION = "union"


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True, eq=False)
class TriaxialSeries:
    """Uniformly sampled 3-axis accelerometer trace.

    Sample ``i`` maps to time ``t0 + i / rate``. Units are unchecked but must
    be consistent within a recording.
    """

    rate: float
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    t0: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "x", _frozen_array(self.x))
        object.__setattr__(self, "y", _frozen_array(self.y))
        object.__setattr__(self, "z", _frozen_array(self.z))
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if not (len(self.x) == len(self.y) == len(self.z)):
            raise ValueError("x, y, z must have identical length")
        if len(self.x) < 1:
            raise ValueError("series must hold at least one sample")

    def __len__(self) -> int:
        return len(self.x)

    @property
    def span(self) -> float:
        """Time covered by the samples, in seconds."""
        return len(self) / self.rate

    __eq__ = _fields_equal


@dataclass(frozen=True, eq=False)
class ScalarSeries:
    """One-dimensional signal sharing the sampled time base."""

    rate: float
    values: np.ndarray
    t0: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values))
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if len(self.values) < 1:
            raise ValueError("series must hold at least one sample")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")

    def __len__(self) -> int:
        return len(self.values)

    def times(self) -> np.ndarray:
        return self.t0 + np.arange(len(self)) / self.rate

    def with_values(self, values) -> "ScalarSeries":
        return ScalarSeries(rate=self.rate, values=values, t0=self.t0)

    __eq__ = _fields_equal


@dataclass(frozen=True, eq=False)
class PeakSet:
    """Detected peak times with the signal amplitude at each peak."""

    times: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", _frozen_array(self.times))
        object.__setattr__(self, "amplitudes", _frozen_array(self.amplitudes))
        if len(self.times) != len(self.amplitudes):
            raise ValueError("times and amplitudes must have equal length")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)

    __eq__ = _fields_equal

    @staticmethod
    def empty() -> "PeakSet":
        return PeakSet(times=np.empty(0), amplitudes=np.empty(0))


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Labeled step times and per-side gait events for one recording."""

    step_times: np.ndarray
    heel_strikes_left: np.ndarray
    heel_strikes_right: np.ndarray
    toe_offs_left: np.ndarray
    toe_offs_right: np.ndarray
    label_count: int

    def __post_init__(self):
        for name in (
            "step_times",
            "heel_strikes_left",
            "heel_strikes_right",
            "toe_offs_left",
            "toe_offs_right",
        ):
            arr = _frozen_array(getattr(self, name))
            object.__setattr__(self, name, arr)
            if len(arr) > 1 and not np.all(np.diff(arr) > 0):
                raise ValueError(f"{name} must be strictly increasing")
        if self.label_count != len(self.step_times):
            raise ValueError("label_count must equal the number of step times")
        n_heel = len(self.heel_strikes_left) + len(self.heel_strikes_right)
        n_toe = len(self.toe_offs_left) + len(self.toe_offs_right)
        if n_heel != len(self.step_times) or n_toe != len(self.step_times):
            raise ValueError("each step needs exactly one heel strike and one toe-off")
        if len(self.heel_strikes_left) != len(self.toe_offs_left):
            raise ValueError("left heel strikes and toe-offs must pair up")
        if np.any(self.toe_offs_left <= self.heel_strikes_left) or np.any(
            self.toe_offs_right <= self.heel_strikes_right
        ):
            raise ValueError("toe-off must occur after the heel strike of its step")

    def toe_offs(self) -> np.ndarray:
        """All toe-off times, both sides pooled, sorted."""
        return np.sort(np.concatenate([self.toe_offs_left, self.toe_offs_right]))

    def heel_strikes(self) -> np.ndarray:
        """All heel-strike times, both sides pooled, sorted."""
        return np.sort(np.concatenate([self.heel_strikes_left, self.heel_strikes_right]))

    __eq__ = _fields_equal


@dataclass(frozen=True, eq=False)
class Recording:
    """One walking trial: synchronized left and right wrist traces plus labels."""

    id: str
    subject_id: str
    task: WalkTask
    left: TriaxialSeries
    right: TriaxialSeries
    duration: float
    ground_truth: Optional[GroundTruth] = None
    self_count: Optional[int] = None

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.left.rate != self.right.rate:
            raise ValueError("left and right sensors must share a sample rate")
        period = 1.0 / self.left.rate
        if abs(self.left.t0 - self.right.t0) >= period:
            raise ValueError("left/right start times differ by a sample period or more")
        left_end = self.left.t0 + self.left.span
        right_end = self.right.t0 + self.right.span
        if abs(left_end - right_end) >= period:
            raise ValueError("left/right spans differ by a sample period or more")

    @property
    def rate(self) -> float:
        return self.left.rate

    def side(self, side: Side) -> TriaxialSeries:
        return self.left if side is Side.LEFT else self.right

    __eq__ = _fields_equal


@dataclass(frozen=True)
class DetectorParams:
    """Tunable knobs shared by the six detectors.

    Windows are in seconds; ``min_peak_amp`` applies to the min-max normalized
    signal. Optional fields are only required by the pipelines that use them,
    and every field that is set must be finite.
    """

    smooth_single: float
    min_peak_amp: float
    min_peak_gap: float
    smooth_fused: Optional[float] = None
    fuse_max_dist: Optional[float] = None
    fuse_min_dist: Optional[float] = None

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None:
                if f.default is MISSING:  # every detector reads the fields without a default
                    raise ValueError(f"{f.name} must be set")
            elif not math.isfinite(v):
                raise ValueError(f"{f.name} must be finite, not {v!r}")
            elif v < 0 and f.name != "min_peak_amp":
                raise ValueError(f"{f.name} must be >= 0")
        if not 0.0 <= self.min_peak_amp <= 1.0:
            raise ValueError("min_peak_amp must lie in [0, 1]")
        if self.fuse_max_dist is not None and self.fuse_max_dist > self.min_peak_gap:
            raise ValueError("fuse_max_dist must not exceed min_peak_gap")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def from_dict(d: dict) -> "DetectorParams":
        known = {f.name for f in fields(DetectorParams)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown detector parameter(s): {sorted(unknown)}")
        return DetectorParams(**d)


# Field iteration order used for grid products and tie-breaking.
PARAM_FIELD_ORDER = (
    "smooth_single",
    "smooth_fused",
    "min_peak_amp",
    "min_peak_gap",
    "fuse_max_dist",
    "fuse_min_dist",
)


class Detector(NamedTuple):
    """What one detector reads: its parameters, in ``PARAM_FIELD_ORDER``; the
    streams of its signal family it detects on, the left (0) or right (1)
    wrist, or the one fused signal (0); and the parameter its last stage
    thresholds, which for intersect is the pair distance that
    ``fuse_max_dist`` cuts after the amplitude gate."""

    params: Tuple[str, ...]
    streams: Tuple[int, ...]
    threshold: str = "min_peak_amp"


_SINGLE_SIDE = ("smooth_single", "min_peak_amp", "min_peak_gap")
_LOW_LEVEL = ("smooth_single", "smooth_fused", "min_peak_amp", "min_peak_gap")

DETECTORS = {
    AlgorithmId.NO_FUSION_LEFT: Detector(_SINGLE_SIDE, (0,)),
    AlgorithmId.NO_FUSION_RIGHT: Detector(_SINGLE_SIDE, (1,)),
    AlgorithmId.LOW_LEVEL_SUM: Detector(_LOW_LEVEL, (0,)),
    AlgorithmId.LOW_LEVEL_DIFF: Detector(_LOW_LEVEL, (0,)),
    AlgorithmId.HIGH_LEVEL_INTERSECT: Detector(_SINGLE_SIDE + ("fuse_max_dist",), (0, 1), "fuse_max_dist"),
    AlgorithmId.HIGH_LEVEL_UNION: Detector(_SINGLE_SIDE + ("fuse_min_dist",), (0, 1)),
}


def required_param_fields(alg: AlgorithmId) -> tuple:
    """Parameter fields a given algorithm actually consumes, in declared order."""
    return DETECTORS[alg].params
