"""Detector stages on signals and peaks: smoothed wrist magnitudes, the
low-level fused signal, and the intersect and union fusion of two wrists'
steps, over a :class:`~dualwrist.peaks.Pool` of many recordings at once.

:class:`dualwrist.pipeline.CorpusEngine` composes them into the six detectors.
"""
from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .core import AlgorithmId, PeakSet, Recording, ScalarSeries, Side
from .peaks import Pool
from .preprocess import magnitude, moving_average


def smoothed_magnitude(rec: Recording, side: Side, window: float) -> ScalarSeries:
    return moving_average(magnitude(rec.side(side)), window)


def combined_signal(n_l: ScalarSeries, n_r: ScalarSeries, alg: AlgorithmId) -> ScalarSeries:
    """Pointwise sum (``LOW_LEVEL_SUM``) or absolute difference
    (``LOW_LEVEL_DIFF``) of the left and right smoothed magnitudes ``n_l``
    and ``n_r``: the low-level fused signal before its own smoothing."""
    if len(n_l) != len(n_r):
        raise ValueError("left and right signals must be aligned sample-for-sample")
    if alg is AlgorithmId.LOW_LEVEL_SUM:
        combined = n_r.values + n_l.values
    elif alg is AlgorithmId.LOW_LEVEL_DIFF:
        combined = np.abs(n_r.values - n_l.values)
    else:
        raise ValueError(f"{alg.value} is not a low-level fusion")
    return n_l.with_values(combined)


def fused_signal(combined: ScalarSeries, smooth_fused: Optional[float]) -> ScalarSeries:
    """The low-level fused signal: a :func:`combined_signal` smoothed again
    over ``smooth_fused`` seconds."""
    if smooth_fused is None:
        raise ValueError("low-level fusion requires smooth_fused")
    return moving_average(combined, smooth_fused)


def _joint_key(primary: np.ndarray, secondary: np.ndarray) -> np.ndarray:
    """(primary, secondary) as one sortable value: complex numbers sort lexicographically."""
    key = np.empty(len(primary), dtype=complex)
    key.real, key.imag = primary, secondary
    return key


def mutual_nearest(
    t_left: np.ndarray, t_right: np.ndarray, g_left: np.ndarray, g_right: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Pair every left peak with its mutually nearest right peak.

    A left peak's nearest right peak (equidistant neighbors resolve to the
    earlier one) pairs with it only when the left peak is strictly the nearest
    left peak to that right peak. Returns, per left peak, that right peak's
    index and the pair distance, ``inf`` where there is no pair.

    Group labels (recording indices) keep peaks of different groups apart;
    each side must be ordered by (group, time).
    """
    n_l, n_r = len(t_left), len(t_right)
    if n_l == 0 or n_r == 0:
        return np.zeros(n_l, dtype=np.intp), np.full(n_l, np.inf)
    q = np.searchsorted(_joint_key(g_right, t_right), _joint_key(g_left, t_left))
    prev = np.maximum(q - 1, 0)
    nxt = np.minimum(q, n_r - 1)
    has_prev = (q > 0) & (g_right[prev] == g_left)
    has_next = (q < n_r) & (g_right[nxt] == g_left)
    use_next = has_next & (~has_prev | (t_right[nxt] - t_left < t_left - t_right[prev]))
    j = np.where(use_next, nxt, prev)
    t_r = t_right[j]
    d = np.where(has_prev | has_next, np.abs(t_left - t_r), np.inf)
    # Left peaks are sorted, so the nearest other left peak to t_r is one of
    # this left peak's two neighbors.
    same = g_left[1:] == g_left[:-1]
    other = np.full(n_l, np.inf)
    other[1:] = np.where(same, np.abs(t_left[:-1] - t_r[1:]), np.inf)
    other[:-1] = np.minimum(other[:-1], np.where(same, np.abs(t_left[1:] - t_r[:-1]), np.inf))
    return j, np.where(d < other, d, np.inf)


def intersect(left: Pool, right: Pool, nearest: np.ndarray, keep: np.ndarray) -> Pool:
    """The higher-amplitude member (ties: right) of every pair that ``keep``
    selects by its left peak; ``nearest`` is each left peak's mutually
    nearest right peak, from :func:`mutual_nearest`."""
    j = nearest[keep]
    right_wins = right.amps[j] >= left.amps[keep]
    # Mutually nearest pairs never cross, so the emitted times stay increasing.
    return Pool(
        group=left.group[keep],
        times=np.where(right_wins, right.times[j], left.times[keep]),
        amps=np.where(right_wins, right.amps[j], left.amps[keep]),
    )


def intersect_fuse(t_left: PeakSet, t_right: PeakSet, max_dist: float) -> PeakSet:
    """Keep mutually-nearest left/right peak pairs within ``max_dist``.

    For each left peak with some right peak within ``max_dist``, take the
    nearest such right peak; accept the pair only when the left peak is
    strictly the nearest left peak to that right peak. The higher-amplitude
    member of the pair is emitted (ties go to the right sensor).
    """
    if max_dist < 0:
        raise ValueError("max_dist must be >= 0")
    left, right = Pool.of([t_left]), Pool.of([t_right])
    nearest, dist = mutual_nearest(left.times, right.times, left.group, right.group)
    return intersect(left, right, nearest, dist <= max_dist).peaks(0)


def union_merge(left: Pool, right: Pool) -> Tuple[Pool, np.ndarray]:
    """Both wrists' steps by recording then time (left first at equal times),
    with the union priority as a :func:`~dualwrist.peaks.greedy_nms` key:
    higher amplitude, then the right wrist, then earlier.

    Both pools are already in that order, so one ``searchsorted`` of the right
    steps' (recording, time) keys among the left ones places every step, as
    a stable sort of the two pools one after the other would.
    """
    after = np.searchsorted(_joint_key(left.group, left.times), _joint_key(right.group, right.times), "right")
    at_right = after + np.arange(len(after))  # each right step's place in the merge
    from_right = np.zeros(len(left.times) + len(at_right), dtype=np.bool_)
    from_right[at_right] = True
    at_left = np.flatnonzero(~from_right)

    def merge(l: np.ndarray, r: np.ndarray) -> np.ndarray:
        out = np.empty(len(from_right), dtype=l.dtype)
        out[at_left], out[at_right] = l, r
        return out

    merged = Pool(merge(left.group, right.group), merge(left.times, right.times), merge(left.amps, right.amps))
    return merged, _joint_key(-merged.amps, -1.0 * from_right)


def union_fuse(t_left: PeakSet, t_right: PeakSet, min_dist: float) -> PeakSet:
    """Greedy pooled selection: highest-amplitude peak wins, neighbors within
    ``min_dist`` (inclusive) are dropped. Ties go to the right sensor, then to
    the earlier time.
    """
    if min_dist < 0:
        raise ValueError("min_dist must be >= 0")
    merged, key = union_merge(Pool.of([t_left]), Pool.of([t_right]))
    return merged.thin(key, [min_dist])[0].peaks(0)
