"""Dual-wrist accelerometer step detection and evaluation toolkit."""

from .core import (
    AlgorithmId,
    DetectorParams,
    GroundTruth,
    PeakSet,
    Recording,
    ScalarSeries,
    Side,
    TriaxialSeries,
    WalkTask,
)
from .evaluate import (
    cadence_outlier_filter,
    evaluate_corpus,
    pearson_r,
    percent_error,
    phase_offsets,
)
from .fusion import intersect_fuse, union_fuse
from .peaks import candidate_peaks, detect_peaks
from .pipeline import CorpusEngine
from .preprocess import (
    NormalizationContext,
    fit_normalization,
    magnitude,
    min_max_normalize,
    moving_average,
)
from .simulate import (
    CorpusSpec,
    GaitModelParams,
    simulate_corpus,
    simulate_recording,
    task_profile,
)
from .tuning import CVReport, ParamGrid, cross_validate, cross_validate_study, make_folds, rmse

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
