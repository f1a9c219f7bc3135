"""Raw triaxial data -> smoothed, corpus-normalized magnitude signals."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import ScalarSeries, TriaxialSeries


@dataclass(frozen=True)
class NormalizationContext:
    """Corpus-wide min/max used for min-max normalization."""

    global_min: float
    global_max: float

    def __post_init__(self):
        if self.global_max < self.global_min:
            raise ValueError("global_max must be >= global_min")


def magnitude(series: TriaxialSeries) -> ScalarSeries:
    """Per-sample Euclidean norm of the three axes."""
    values = np.sqrt(series.x**2 + series.y**2 + series.z**2)
    return ScalarSeries(rate=series.rate, values=values, t0=series.t0)


def window_samples(window: float, rate: float) -> int:
    """Convert a window in seconds to an odd sample count (even rounds up)."""
    if window < 0:
        raise ValueError("window must be >= 0")
    w = int(round(window * rate))
    if w % 2 == 0:
        w += 1
    return w


def moving_average(series: ScalarSeries, window: float) -> ScalarSeries:
    """Centered moving average with edge windows truncated to available samples.

    A window of one sample or less returns the input unchanged.
    """
    w = window_samples(window, series.rate)
    if w <= 1:
        return series
    values = series.values
    n = len(values)
    half = w // 2
    out = np.empty(n)
    if n >= w:
        # Interior: full windows. Mean over the window axis matches np.mean on
        # the equivalent slice, so brute-force comparisons are exact.
        windows = np.lib.stride_tricks.sliding_window_view(values, w)
        out[half : n - half] = windows.mean(axis=1)
        edges = list(range(half)) + list(range(n - half, n))
    else:
        edges = range(n)
    for i in edges:
        lo, hi = max(0, i - half), min(n, i + half + 1)
        out[i] = np.add.reduce(values[lo:hi]) / (hi - lo)  # np.mean's own sum and divide
    return series.with_values(out)


def fit_normalization(signals: Iterable[ScalarSeries]) -> NormalizationContext:
    """Global min/max over every value of every series."""
    lo = np.inf
    hi = -np.inf
    seen = False
    for s in signals:
        seen = True
        lo = min(lo, float(s.values.min()))
        hi = max(hi, float(s.values.max()))
    if not seen:
        raise ValueError("fit_normalization needs at least one series")
    return NormalizationContext(global_min=lo, global_max=hi)


def min_max_normalize(series: ScalarSeries, ctx: NormalizationContext) -> ScalarSeries:
    """Affine map sending [global_min, global_max] to [0, 1]. Not clamped."""
    span = ctx.global_max - ctx.global_min
    if span == 0:
        raise ValueError("degenerate normalization context (min == max)")
    return series.with_values((series.values - ctx.global_min) / span)
