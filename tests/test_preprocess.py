"""Magnitude, moving average, and min-max normalization."""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dualwrist import (
    NormalizationContext,
    fit_normalization,
    magnitude,
    min_max_normalize,
    moving_average,
)
from dualwrist.preprocess import window_samples

from conftest import scalar, triaxial

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def signals(min_size=1, max_size=64, elements=finite):
    return arrays(float, st.integers(min_size, max_size), elements=elements)


# Wide enough to reach subnormals and huge values, small enough that a sum of
# three squares stays finite. The pins below compare bit for bit with plain
# numpy, so a change to a stage's arithmetic fails under that stage's name.
wide = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False, allow_infinity=False)


class TestMagnitude:
    def test_pythagorean_examples(self):
        s = magnitude(triaxial([3.0, 1.0], [4.0, 2.0], [0.0, 2.0], rate=2.0, t0=1.0))
        assert np.allclose(s.values, [5.0, 3.0])
        assert s.rate == 2.0 and s.t0 == 1.0

    def test_non_negative(self):
        s = magnitude(triaxial([-3.0], [-4.0], [0.0]))
        assert np.allclose(s.values, [5.0])

    @given(signals(max_size=16), st.permutations([0, 1, 2]),
           st.tuples(st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0]),
                     st.sampled_from([-1.0, 1.0])))
    def test_axis_permutation_and_sign_invariance(self, v, perm, signs):
        axes = [v, np.roll(v, 1), np.roll(v, 2)]
        base = magnitude(triaxial(axes[0], axes[1], axes[2])).values
        shuffled = [signs[i] * axes[perm[i]] for i in range(3)]
        other = magnitude(triaxial(shuffled[0], shuffled[1], shuffled[2])).values
        assert np.allclose(base, other, rtol=0, atol=1e-9)

    @given(st.integers(1, 32).flatmap(lambda n: st.tuples(*[arrays(float, n, elements=wide)] * 3)))
    def test_bit_identical_to_numpy(self, xyz):
        x, y, z = xyz
        assert np.array_equal(magnitude(triaxial(x, y, z)).values, np.sqrt(x**2 + y**2 + z**2))


class TestWindowSamples:
    def test_rounds_to_odd(self):
        assert window_samples(0.0, 128.0) == 1
        assert window_samples(0.05, 128.0) == 7
        assert window_samples(0.1, 128.0) == 13
        assert window_samples(0.25, 128.0) == 33

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            window_samples(-0.1, 128.0)


class TestMovingAverage:
    def test_worked_example(self):
        # Width-3 window over [1..5]: truncated edges, full interior windows.
        out = moving_average(scalar([1.0, 2.0, 3.0, 4.0, 5.0], rate=1.0), 3.0)
        assert np.allclose(out.values, [1.5, 2.0, 3.0, 4.0, 4.5])

    def test_window_of_one_is_identity(self):
        s = scalar([3.0, 1.0, 4.0])
        assert moving_average(s, 0.0) == s
        assert moving_average(s, 1.0) == s

    def test_window_longer_than_series(self):
        out = moving_average(scalar([1.0, 2.0, 3.0], rate=1.0), 9.0)
        # Every window truncates to the whole series.
        assert np.allclose(out.values, [2.0, 2.0, 2.0])

    def test_preserves_time_base(self):
        out = moving_average(scalar(np.arange(10.0), rate=4.0, t0=2.0), 1.0)
        assert out.rate == 4.0 and out.t0 == 2.0 and len(out) == 10

    def _brute(self, values, w):
        half = w // 2
        n = len(values)
        return np.array([
            values[max(0, i - half): min(n, i + half + 1)].mean() for i in range(n)
        ])

    @given(signals(min_size=1, max_size=48), st.floats(0.0, 10.0))
    @settings(max_examples=150)
    def test_matches_brute_force(self, v, window):
        out = moving_average(scalar(v, rate=4.0), window)
        w = window_samples(window, 4.0)
        assert np.array_equal(out.values, self._brute(v, w) if w > 1 else v)

    @given(signals(max_size=160, elements=wide), st.integers(1, 25))
    @settings(max_examples=150)
    def test_bit_identical_to_slice_means(self, v, half):
        w = 2 * half + 1  # 3 to 51 samples
        out = moving_average(scalar(v, rate=1.0), float(w))
        assert np.array_equal(out.values, self._brute(v, w))

    @given(signals(min_size=3, max_size=32), signals(min_size=3, max_size=32),
           st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.0, 5.0))
    @settings(max_examples=100)
    def test_linearity(self, a, b, alpha, beta, window):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        combo = moving_average(scalar(alpha * a + beta * b), window).values
        parts = (alpha * moving_average(scalar(a), window).values
                 + beta * moving_average(scalar(b), window).values)
        scale = 1.0 + np.max(np.abs(combo))
        assert np.allclose(combo, parts, rtol=0, atol=1e-12 * scale)

    @given(st.floats(-100.0, 100.0), st.integers(1, 40), st.floats(0.0, 8.0))
    def test_constant_preserved(self, c, n, window):
        out = moving_average(scalar(np.full(n, c)), window)
        assert np.allclose(out.values, c, rtol=0, atol=1e-12 * (1 + abs(c)))


class TestNormalization:
    def test_fit_examples(self):
        ctx = fit_normalization([scalar([1.0, 3.0]), scalar([0.0, 2.0])])
        assert ctx == NormalizationContext(0.0, 3.0)
        ctx = fit_normalization([scalar([-1.0, 4.0]), scalar([2.0, 7.0]), scalar([0.0, 0.0])])
        assert ctx == NormalizationContext(-1.0, 7.0)

    def test_fit_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_normalization([])

    def test_fit_accepts_generator(self):
        ctx = fit_normalization(scalar([float(i)]) for i in range(3))
        assert ctx == NormalizationContext(0.0, 2.0)

    def test_normalize_example(self):
        out = min_max_normalize(scalar([2.0, 4.0, 6.0]), NormalizationContext(2.0, 6.0))
        assert np.allclose(out.values, [0.0, 0.5, 1.0])

    def test_normalize_not_clamped(self):
        out = min_max_normalize(scalar([0.0, 8.0]), NormalizationContext(2.0, 6.0))
        assert np.allclose(out.values, [-0.5, 1.5])

    def test_degenerate_context_rejected(self):
        with pytest.raises(ValueError, match="min == max"):
            min_max_normalize(scalar([1.0]), NormalizationContext(3.0, 3.0))

    def test_context_ordering_validated(self):
        with pytest.raises(ValueError):
            NormalizationContext(1.0, 0.0)

    @given(signals(min_size=2, max_size=32, elements=wide))
    def test_normalize_bit_identical_to_numpy(self, v):
        ctx = fit_normalization([scalar(v)])
        assume(ctx.global_max > ctx.global_min)
        span = ctx.global_max - ctx.global_min
        assert np.array_equal(min_max_normalize(scalar(v), ctx).values, (v - ctx.global_min) / span)

    @given(signals(min_size=2, max_size=32))
    @settings(max_examples=100)
    def test_round_trip(self, v):
        ctx = fit_normalization([scalar(v)])
        if ctx.global_max == ctx.global_min:
            return
        norm = min_max_normalize(scalar(v), ctx)
        back = norm.values * (ctx.global_max - ctx.global_min) + ctx.global_min
        scale = 1.0 + np.max(np.abs(v))
        assert np.allclose(back, v, rtol=0, atol=1e-12 * scale)
        assert norm.values.min() >= -1e-12 and norm.values.max() <= 1 + 1e-12
