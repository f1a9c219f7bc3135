"""Reference step detector for the benchmark's correctness checks.

Written from the detectors' documented rules, not from the package's code,
in the manner of the brute-force test oracles (``ref_detect``, ``ref_union``,
``ref_intersect``): plain loops over peaks in priority order. Neighbour
lookups use ``bisect`` so that hour-long recordings stay affordable; the
rule checked is the oracles' rule.

Signals are smoothed with ``np.convolve`` rather than the package's sliding
mean, so they agree with the package to rounding, not bit for bit. A count
could only differ if two neighbouring samples, or a peak and an amplitude
threshold, lay within ~1e-15 of each other.
"""
from __future__ import annotations

import bisect
from typing import Dict, List, Sequence, Tuple

import numpy as np

Peaks = List[Tuple[float, float]]  # (time, amplitude), time order


def window_samples(window: float, rate: float) -> int:
    """Odd window length in samples; an even count rounds up."""
    w = int(round(window * rate))
    return w + 1 if w % 2 == 0 else w


def smooth(values: np.ndarray, window: float, rate: float) -> np.ndarray:
    """Centered moving average; edge windows average the samples they hold."""
    w = window_samples(window, rate)
    if w <= 1:
        return values
    if len(values) < w:
        raise ValueError("reference smoothing needs at least one full window")
    half, i = w // 2, np.arange(len(values))
    count = np.minimum(i + half, len(values) - 1) - np.maximum(i - half, 0) + 1
    return np.convolve(values, np.ones(w), "same") / count


def magnitude(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    return np.sqrt(x * x + y * y + z * z)


def family_signals(rec, family: Tuple, cache: Dict) -> List[np.ndarray]:
    """Smoothed (not yet normalized) signals of one recording for a family
    ``(mode, smooth_single, smooth_fused)``: both wrists when ``mode`` is
    None, else the single sum or diff signal."""
    mode, s_single, s_fused = family

    def side(s):
        key = (rec.id, s, s_single)
        if key not in cache:
            tri = rec.left if s == "left" else rec.right
            cache[key] = smooth(magnitude(tri.x, tri.y, tri.z), s_single, tri.rate)
        return cache[key]

    left, right = side("left"), side("right")
    if mode is None:
        return [left, right]
    combined = left + right if mode == "sum" else np.abs(right - left)
    return [smooth(combined, s_fused, rec.left.rate)]


def local_maxima(values: Sequence[float]) -> List[int]:
    """A strict rise into the sample, equal samples allowed, then a strict
    fall. A plateau counts its first sample; endpoints never count."""
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


def candidates(values: np.ndarray, rate: float, t0: float = 0.0) -> Peaks:
    v = values.tolist()
    return [(t0 + i / rate, v[i]) for i in local_maxima(v)]


def _greedy(order: Sequence[Tuple[float, float]], radius: float) -> Peaks:
    """Visit (time, amp) in the given order; keep one when every kept peak
    lies strictly more than ``radius`` away."""
    kept_t: List[float] = []
    kept: Peaks = []
    for t, a in order:
        j = bisect.bisect_left(kept_t, t)
        if j > 0 and t - kept_t[j - 1] <= radius:
            continue
        if j < len(kept_t) and kept_t[j] - t <= radius:
            continue
        kept_t.insert(j, t)
        kept.append((t, a))
    kept.sort()
    return kept


def suppress(peaks: Peaks, min_amp: float, min_gap: float) -> Peaks:
    """Amplitude gate, then greedy thinning: highest amplitude first, ties to
    the earlier peak."""
    gated = [p for p in peaks if p[1] >= min_amp]
    return _greedy(sorted(gated, key=lambda p: (-p[1], p[0])), min_gap)


def union(left: Peaks, right: Peaks, min_dist: float) -> Peaks:
    """Pooled greedy selection: highest amplitude first, ties to the right
    wrist, then to the earlier peak."""
    pool = [(t, a, 1) for t, a in right] + [(t, a, 0) for t, a in left]
    pool.sort(key=lambda p: (-p[1], -p[2], p[0]))
    return _greedy([(t, a) for t, a, _ in pool], min_dist)


def intersect(left: Peaks, right: Peaks, max_dist: float) -> Peaks:
    """Mutually nearest left/right pairs within ``max_dist``; each pair emits
    its higher peak, ties to the right wrist."""
    lt = [t for t, _ in left]
    rt = [t for t, _ in right]
    out = {}
    for i, (tl, al) in enumerate(left):
        p = bisect.bisect_left(rt, tl)
        near = [(abs(tl - rt[j]), rt[j], right[j][1]) for j in (p - 1, p) if 0 <= j < len(rt)]
        near = [c for c in near if c[0] <= max_dist]
        if not near:
            continue
        d, tr, ar = min(near)  # the earlier right peak wins an exact tie
        # The nearest other left peak to tr is a neighbour of tl.
        others = [abs(lt[j] - tr) for j in (i - 1, i + 1) if 0 <= j < len(lt)]
        if others and min(others) <= d:
            continue
        t, a = (tr, ar) if ar >= al else (tl, al)
        out[t] = a
    return sorted(out.items())


def family_of(alg: str, params: dict) -> Tuple:
    if alg in ("sum", "diff"):
        return (alg, params["smooth_single"], params["smooth_fused"])
    return (None, params["smooth_single"], None)


def steps(alg: str, streams: List[Peaks], params: dict) -> Peaks:
    """Steps of one recording from its candidate peaks per stream: (left,
    right) for single-wrist and high-level detectors, (fused,) for low-level."""
    amp, gap = params["min_peak_amp"], params["min_peak_gap"]
    if alg == "left":
        return suppress(streams[0], amp, gap)
    if alg == "right":
        return suppress(streams[1], amp, gap)
    if alg in ("sum", "diff"):
        return suppress(streams[0], amp, gap)
    left, right = suppress(streams[0], amp, gap), suppress(streams[1], amp, gap)
    if alg == "intersect":
        return intersect(left, right, params["fuse_max_dist"])
    return union(left, right, params["fuse_min_dist"])


class Reference:
    """Reference counts over one corpus. Caches the smoothed wrist signals of
    the recordings it counts, not of the whole corpus."""

    def __init__(self, recordings):
        self.recordings = list(recordings)
        self._cache: Dict = {}
        self._counted: set = set()

    def context(self, family: Tuple) -> Tuple[float, float]:
        """Corpus-wide min and max of every signal of the family."""
        lo, hi = np.inf, -np.inf
        for rec in self.recordings:
            for s in family_signals(rec, family, self._cache if rec.id in self._counted else {}):
                lo, hi = min(lo, float(s.min())), max(hi, float(s.max()))
        return lo, hi

    def counts(self, alg: str, params: dict, recs) -> Dict[str, int]:
        family = family_of(alg, params)
        self._counted.update(rec.id for rec in recs)
        lo, hi = self.context(family)
        out = {}
        for rec in recs:
            streams = [
                candidates((s - lo) / (hi - lo), rec.left.rate, rec.left.t0)
                for s in family_signals(rec, family, self._cache)
            ]
            out[rec.id] = len(steps(alg, streams, params))
        return out


def self_check() -> None:
    """Checks the reference against hand-computed cases."""
    p = [(0.0, 0.5), (0.25, 0.75), (0.5, 0.5), (1.0, 0.25)]
    cases = [
        (local_maxima([0, 1, 3, 3, 2, 5, 5, 6, 1]), [2, 7]),
        (local_maxima([2, 2, 2]) + local_maxima([1, 2, 3]), []),
        (smooth(np.array([1.0, 2, 3, 4, 5]), 3.0, 1.0).tolist(), [1.5, 2.0, 3.0, 4.0, 4.5]),
        (smooth(np.array([1.0, 4.0]), 1.0, 1.0).tolist(), [1.0, 4.0]),
        (suppress(p, 0.375, 0.25), [(0.25, 0.75)]),
        (suppress(p, 0.375, 0.125), [(0.0, 0.5), (0.25, 0.75), (0.5, 0.5)]),
        (suppress(p, 0.0, 2.0), [(0.25, 0.75)]),
        # Equal amplitudes: the right wrist wins; otherwise the taller peak.
        (union([(1.0, 0.5)], [(1.125, 0.5)], 0.25), [(1.125, 0.5)]),
        (union([(1.0, 0.75), (2.0, 0.5)], [(1.125, 0.5)], 0.25), [(1.0, 0.75), (2.0, 0.5)]),
        (union([(1.0, 0.5)], [(1.5, 0.5)], 0.25), [(1.0, 0.5), (1.5, 0.5)]),
        (intersect([(1.0, 0.875), (2.0, 0.75)], [(1.125, 0.625)], 0.25), [(1.0, 0.875)]),
        (intersect([(1.0, 0.5)], [(1.0, 0.5)], 0.25), [(1.0, 0.5)]),
        (intersect([(1.0, 0.5)], [(1.5, 0.5)], 0.25), []),
        # 1.125 is equally near both left peaks, so neither is strictly nearest.
        (intersect([(1.0, 0.5), (1.25, 0.5)], [(1.125, 0.75)], 0.25), []),
        # An exact distance tie pairs the earlier right peak.
        (intersect([(1.0, 0.5)], [(0.875, 0.25), (1.125, 0.75)], 0.25), [(1.0, 0.5)]),
    ]
    for k, (got, want) in enumerate(cases):
        if got != want:
            raise RuntimeError(f"reference self-check case {k}: got {got}, want {want}")
