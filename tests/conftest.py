"""Shared helpers for the test suite."""
import numpy as np
import pytest

from dualwrist import PeakSet, Recording, ScalarSeries, Side, TriaxialSeries, WalkTask
from dualwrist.fusion import combined_signal, fused_signal, smoothed_magnitude


def scalar(values, rate=1.0, t0=0.0) -> ScalarSeries:
    return ScalarSeries(rate=rate, values=np.asarray(values, dtype=float), t0=t0)


def peaks(times, amps=None) -> PeakSet:
    times = np.asarray(times, dtype=float)
    if amps is None:
        amps = np.ones_like(times)
    return PeakSet(times=times, amplitudes=np.asarray(amps, dtype=float))


def triaxial(x, y=None, z=None, rate=1.0, t0=0.0) -> TriaxialSeries:
    x = np.asarray(x, dtype=float)
    y = np.zeros_like(x) if y is None else np.asarray(y, dtype=float)
    z = np.zeros_like(x) if z is None else np.asarray(z, dtype=float)
    return TriaxialSeries(rate=rate, x=x, y=y, z=z, t0=t0)


def recording_from_signals(left_z, right_z, rate=4.0, rec_id="rec0",
                           task=WalkTask.COMFORTABLE_PACE, ground_truth=None) -> Recording:
    left_z = np.asarray(left_z, dtype=float)
    right_z = np.asarray(right_z, dtype=float)
    return Recording(
        id=rec_id,
        subject_id="subjX",
        task=task,
        left=triaxial(np.zeros_like(left_z), z=left_z, rate=rate),
        right=triaxial(np.zeros_like(right_z), z=right_z, rate=rate),
        duration=len(left_z) / rate,
        ground_truth=ground_truth,
    )


def fused(rec, alg, params) -> ScalarSeries:
    """``rec``'s low-level fused signal at ``params``."""
    pair = (smoothed_magnitude(rec, s, params.smooth_single) for s in (Side.LEFT, Side.RIGHT))
    return fused_signal(combined_signal(*pair, alg), params.smooth_fused)


@pytest.fixture(scope="session")
def small_corpus():
    """A tiny but complete simulated corpus shared by slower integration tests."""
    from dualwrist import CorpusSpec, simulate_corpus

    counts = {task: 2 for task in WalkTask}
    return simulate_corpus(CorpusSpec(task_counts=counts, seed=11))
