"""First-order-difference peak detection with amplitude and gap gates, on
one recording or on a :class:`Pool` of many recordings at once."""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from .core import PeakSet, ScalarSeries


def candidate_peaks(series: ScalarSeries) -> PeakSet:
    """Every local maximum of the series.

    A peak is a sample where the first-order difference turns from positive to
    negative; a plateau of equal maxima contributes its first sample only.
    Endpoints are never peaks.
    """
    v = series.values
    if len(v) < 3:
        raise ValueError("need at least 3 samples for peak detection")
    d = np.diff(v)
    # A rise into sample i and no rise out of it: a peak when d[i] falls, or,
    # when sample i starts a plateau (d[i] == 0), when the first nonzero
    # difference after it falls.
    idx = np.flatnonzero((d[:-1] > 0) & (d[1:] <= 0)) + 1
    falls = d[idx] < 0
    plateau = ~falls
    if plateau.any():
        nz = np.flatnonzero(d)
        # Where no change follows a plateau, the last difference, 0, stands in.
        after = np.append(nz, len(d) - 1)[np.searchsorted(nz, idx[plateau])]
        falls[plateau] = d[after] < 0
    idx = idx[falls]
    return PeakSet(times=series.t0 + idx / series.rate, amplitudes=v[idx])


@dataclass(frozen=True)
class Pool:
    """Peaks of many recordings, ordered by recording (``group``) then time."""

    group: np.ndarray  # recording index of each peak (int32, to keep pools small)
    times: np.ndarray
    amps: np.ndarray

    @staticmethod
    def of(peak_sets: Sequence[PeakSet]) -> "Pool":
        return Pool(
            group=np.repeat(np.arange(len(peak_sets), dtype=np.int32), [len(p) for p in peak_sets]),
            times=np.concatenate([p.times for p in peak_sets]),
            amps=np.concatenate([p.amplitudes for p in peak_sets]),
        )

    def select(self, mask: np.ndarray) -> "Pool":
        # One index list for the three arrays: a boolean index of each is
        # several times slower on the irregular masks of thinning and gating.
        kept = np.flatnonzero(mask)
        return Pool(self.group.take(kept), self.times.take(kept), self.amps.take(kept))

    def gate(self, min_amp: float) -> "Pool":
        return self.select(self.amps >= min_amp)

    def thin(self, key: np.ndarray, radius: float) -> "Pool":
        """Greedy non-maximum suppression within each recording, smallest
        ``key`` first (see :func:`greedy_nms`)."""
        return self.select(greedy_nms(self.times, key, radius, self.group))

    def thin_each(self, key: np.ndarray, radii: Sequence[float]) -> List["Pool"]:
        """``[self.thin(key, r) for r in radii]`` from one :func:`greedy_nms`
        call."""
        return [self.select(keep) for keep in greedy_nms(self.times, key, radii, self.group)]

    def peaks(self, i: int) -> PeakSet:
        lo, hi = np.searchsorted(self.group, [i, i + 1])
        return PeakSet(times=self.times[lo:hi], amplitudes=self.amps[lo:hi])


def priority_rank(*keys: np.ndarray) -> np.ndarray:
    """Rank of every element under ``np.lexsort(keys)`` (last key primary); 0 is best.

    A rank is a :func:`greedy_nms` key that no two elements share, which
    makes it the reference for the order a cheaper key must give."""
    order = np.lexsort(keys)
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    return rank


def greedy_nms(times: np.ndarray, key: np.ndarray, radius: Union[float, Sequence[float]],
               group: np.ndarray) -> np.ndarray:
    """Keep mask of greedy non-maximum suppression.

    The sequential rule visits elements by ``key``, smallest first, an equal
    key going to the earlier element, and keeps one when no kept element lies
    within ``radius`` of it (inclusive, measured as the later time minus the
    earlier). This computes the same set in parallel rounds (Blelloch,
    Fineman & Shun, SPAA 2012): an undecided element that beats every
    undecided neighbour is kept, then the undecided elements within
    ``radius`` of it are dropped, until none is undecided.

    ``key`` is any array that ``<`` orders: ``-amplitude`` for gap
    suppression, or a complex key, compared real part first, for the union
    of two wrists. A distinct rank, as from :func:`priority_rank`, is a key
    too. ``times`` must be non-decreasing within each ``group`` and each group
    contiguous; elements of different groups never interact.

    ``radius`` may also be a sequence of radii, in any order, repeats
    allowed: the result is then one keep mask per radius, a row each, equal
    to one call per radius. Round 1 runs over every element whatever the
    radius, so it is computed once per eight distinct radii (see
    :func:`_round`); each radius's later rounds run on its own undecided
    elements.
    """
    levels, level_of = np.unique(np.atleast_1d(np.asarray(radius, dtype=float)), return_inverse=True)
    keep = np.empty((len(levels), len(times)), dtype=np.bool_)
    for start in range(0, len(levels), 8):
        chunk = levels[start:start + 8]
        won, decided = _round(times, key, chunk, group)
        for u in range(len(chunk)):
            bit = np.uint8(1 << u)
            keep[start + u] = won & bit
            live = np.flatnonzero((decided & bit) == 0)  # a bool mask: several times faster
            while live.size:  # radius u alone, whose bits 0 and 1 read as bools
                won_u, decided_u = _round(times[live], key[live], chunk[u:u + 1], group[live])
                keep[start + u, live] = won_u.view(np.bool_)
                live = live[~decided_u.view(np.bool_)]
    return keep[0] if np.ndim(radius) == 0 else keep[level_of]


def _round(t: np.ndarray, q: np.ndarray, radii: np.ndarray, g: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """One round of :func:`greedy_nms` over elements ``t``, ``q``, ``g`` at up
    to eight ascending ``radii`` at once: the elements kept (``won``), and
    those kept or dropped (``decided``), radius ``u`` being bit ``u`` of each
    ``uint8``; at one radius, each is 0 or 1.

    Per offset ``k``, the difference, the group test and the key comparison
    serve every radius; only ``d <= r`` runs per radius. Differences grow
    with ``k``, and a pair within one radius is within every larger one, so
    the radii whose pairs have ended are a prefix, ``radii[:lo]``, and the
    scan ends with the largest radius's."""
    near = []  # near[k-1]: the radii at which element i and element i + k are neighbours
    lost = np.zeros(t.size, dtype=np.uint8)
    lo = 0
    for k in range(1, t.size):
        d = t[k:] - t[:-k]
        same = g[k:] == g[:-k]
        pair = None
        for u in range(lo, len(radii)):
            within = (d <= radii[u]) & same
            if pair is None and not within.any():  # bool .any() is the cheap one
                lo += 1
                continue
            bits = within.view(np.uint8)
            if u:
                bits *= np.uint8(1 << u)  # a multiply: a uint8 shift is slower
            pair = bits if pair is None else pair | bits
        del d, same  # freed first: the key comparison's temporaries reuse their memory
        if pair is None:
            break
        near.append(pair)
        later_wins = pair * (q[k:] < q[:-k]).view(np.uint8)  # a tie goes to the earlier element
        lost[:-k] |= later_wins
        lost[k:] |= pair ^ later_wins
    won = lost ^ np.uint8((1 << len(radii)) - 1)
    decided = won.copy()
    for k, pair in enumerate(near, start=1):
        decided[:-k] |= pair & won[k:]
        decided[k:] |= pair & won[:-k]
    return won, decided


def suppression_key(pool: Pool) -> np.ndarray:
    """Gap suppression priority for :func:`greedy_nms`: higher amplitude
    first, then, through the kernel's tie rule, earlier."""
    return -pool.amps


def suppress_peaks(peaks: PeakSet, min_amp: float, min_gap: float) -> PeakSet:
    """Amplitude gate followed by greedy min-gap thinning.

    Peaks are visited in descending amplitude (ties: earlier time first); a
    peak survives when it sits strictly more than ``min_gap`` from every peak
    kept so far.

    The gated peaks are a prefix of that visiting order, so gating after an
    ungated thinning gives the same peaks:
    ``suppress_peaks(p, a, g)`` equals ``suppress_peaks(p, -inf, g)`` restricted
    to amplitudes ``>= a``.
    """
    pool = Pool.of([peaks]).gate(min_amp)
    return pool.thin(suppression_key(pool), min_gap).peaks(0)


def detect_peaks(series: ScalarSeries, min_amp: float, min_gap: float) -> PeakSet:
    """Local maxima filtered by minimum amplitude and minimum inter-peak gap."""
    if min_gap < 0:
        raise ValueError("min_gap must be >= 0")
    return suppress_peaks(candidate_peaks(series), min_amp, min_gap)
